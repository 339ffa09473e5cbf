//! Pair-list → group inference.
//!
//! §III-C of the paper: "if the list in `Pm[i]` has the pairs (0,1), (0,2),
//! (3,4) and (3,5), it allows to identify two groups for the overhead
//! `BW[i]`: {0,1,2} and {3,4,5}". That is connected components over the
//! pair graph, computed here with a private union-find.

/// Union-find over `0..n` with path halving. [`DisjointSet::sets`] sorts
/// every set and orders the sets by their smallest member, so which root
/// a union keeps cannot show in the output.
struct DisjointSet {
    parent: Vec<usize>,
}

impl DisjointSet {
    /// Create `n` singleton sets.
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s set.
    fn find(&mut self, x: usize) -> usize {
        let mut x = x;
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merge the sets containing `a` and `b`.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = rb;
    }

    /// All sets as sorted vectors, ordered by their smallest element.
    fn sets(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); n];
        for x in 0..n {
            let r = self.find(x);
            by_root[r].push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_iter().filter(|s| !s.is_empty()).collect();
        out.sort_by_key(|s| s[0]);
        out
    }
}

/// Infer the groups of mutually colliding elements from a list of pairs,
/// exactly as the paper does for `Pm[i]` / `Pl[i]`.
///
/// Only elements that appear in at least one pair are returned (an isolated
/// core suffers no overhead and belongs to no group). Groups are sorted and
/// ordered by smallest member.
pub fn groups_from_pairs(pairs: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let Some(max) = pairs.iter().map(|&(a, b)| a.max(b)).max() else {
        return Vec::new();
    };
    let mut ds = DisjointSet::new(max + 1);
    for &(a, b) in pairs {
        ds.union(a, b);
    }
    // A set of two or more was joined by pairs; a singleton was never
    // paired with another element.
    ds.sets().into_iter().filter(|s| s.len() > 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        let groups = groups_from_pairs(&[(0, 1), (0, 2), (3, 4), (3, 5)]);
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn empty_pairs() {
        assert!(groups_from_pairs(&[]).is_empty());
    }

    #[test]
    fn unseen_elements_excluded() {
        // Element 2 never appears in a pair: not part of any group.
        let groups = groups_from_pairs(&[(0, 1), (3, 4)]);
        assert_eq!(groups, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn transitive_chain_merges() {
        let groups = groups_from_pairs(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(groups, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn duplicate_pairs_are_idempotent() {
        let groups = groups_from_pairs(&[(5, 6), (6, 5), (5, 6)]);
        assert_eq!(groups, vec![vec![5, 6]]);
    }

    #[test]
    fn union_find_basics() {
        let mut ds = DisjointSet::new(5);
        ds.union(0, 1);
        ds.union(1, 0);
        assert_eq!(ds.find(0), ds.find(1));
        assert_ne!(ds.find(0), ds.find(2));
        assert_eq!(ds.sets(), vec![vec![0, 1], vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn sets_partition_everything() {
        let mut ds = DisjointSet::new(6);
        ds.union(0, 3);
        ds.union(4, 5);
        let sets = ds.sets();
        let total: usize = sets.iter().map(|s| s.len()).sum();
        assert_eq!(total, 6);
        assert_eq!(sets, vec![vec![0, 3], vec![1], vec![2], vec![4, 5]]);
    }
}
