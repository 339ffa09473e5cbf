//! One-dimensional tolerance clustering.
//!
//! The memory-overhead benchmark (paper Fig. 6) and the communication-cost
//! benchmark (paper Fig. 7) both accumulate measurements into buckets of
//! "similar" values: a new bandwidth/latency joins an existing bucket if it is
//! close to that bucket's value, otherwise it opens a new one. This module
//! implements that incremental scheme generically, keyed by an arbitrary item
//! type (core pairs, in the paper).

use serde::{Deserialize, Serialize};

/// A cluster of similar scalar measurements and the items that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster<T> {
    /// Representative value: running mean of the members.
    pub value: f64,
    /// Items whose measurement fell within tolerance of `value`.
    pub members: Vec<T>,
    sum: f64,
}

impl<T> Cluster<T> {
    fn new(value: f64, first: T) -> Self {
        Self {
            value,
            members: vec![first],
            sum: value,
        }
    }

    fn push(&mut self, value: f64, item: T) {
        self.sum += value;
        self.members.push(item);
        self.value = self.sum / self.members.len() as f64;
    }

    /// Whether the cluster has no members (never true for clusters produced
    /// by [`cluster_by_tolerance`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Whether two values are within relative tolerance `tol` of each other,
/// measured against the larger magnitude. `tol = 0.25` means "within 25 %".
pub fn within_tolerance(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        return true;
    }
    (a - b).abs() <= tol * scale
}

/// Incrementally cluster `(value, item)` measurements.
///
/// Each measurement joins the first existing cluster whose representative is
/// within relative tolerance `tol`; otherwise a new cluster is opened. This
/// mirrors the paper's `BW`/`Pm` (Fig. 6) and `L`/`Pl` (Fig. 7) arrays
/// exactly, including the first-match rule.
pub fn cluster_by_tolerance<T>(
    measurements: impl IntoIterator<Item = (f64, T)>,
    tol: f64,
) -> Vec<Cluster<T>> {
    let mut clusters: Vec<Cluster<T>> = Vec::new();
    for (value, item) in measurements {
        match clusters
            .iter_mut()
            .find(|c| within_tolerance(c.value, value, tol))
        {
            Some(c) => c.push(value, item),
            None => clusters.push(Cluster::new(value, item)),
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_gives_no_clusters() {
        let clusters: Vec<Cluster<u32>> = cluster_by_tolerance(Vec::new(), 0.1);
        assert!(clusters.is_empty());
    }

    #[test]
    fn identical_values_form_one_cluster() {
        let c = cluster_by_tolerance([(5.0, 'a'), (5.0, 'b'), (5.0, 'c')], 0.01);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].members, vec!['a', 'b', 'c']);
        assert_eq!(c[0].value, 5.0);
        assert!(!c[0].is_empty());
    }

    #[test]
    fn distant_values_split() {
        let c = cluster_by_tolerance([(1.0, 0), (10.0, 1), (1.05, 2)], 0.1);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].members, vec![0, 2]);
        assert_eq!(c[1].members, vec![1]);
    }

    #[test]
    fn representative_is_running_mean() {
        let c = cluster_by_tolerance([(10.0, ()), (12.0, ())], 0.25);
        assert_eq!(c.len(), 1);
        assert!((c[0].value - 11.0).abs() < 1e-12);
    }

    #[test]
    fn tolerance_measured_against_larger() {
        // 8 vs 10: diff 2, larger 10, ratio 0.2.
        assert!(within_tolerance(8.0, 10.0, 0.2));
        assert!(!within_tolerance(8.0, 10.0, 0.19));
        assert!(within_tolerance(0.0, 0.0, 0.0));
    }

    #[test]
    fn paper_fig6_shape() {
        // Finis Terrae-like two-overhead structure: bus pairs ~2.2, cell
        // pairs ~3.0, measured with small noise.
        let data = [
            (2.25, (0u32, 1u32)),
            (2.18, (0, 2)),
            (2.22, (0, 3)),
            (3.01, (0, 4)),
            (2.95, (0, 5)),
            (3.05, (0, 6)),
            (2.99, (0, 7)),
        ];
        let c = cluster_by_tolerance(data, 0.1);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].members.len(), 3);
        assert_eq!(c[1].members.len(), 4);
    }

    #[test]
    fn first_match_rule() {
        // A value within tolerance of two clusters joins the earlier one,
        // matching the paper's sequential search through BW[i].
        let c = cluster_by_tolerance([(1.0, 'a'), (1.3, 'b'), (1.15, 'c')], 0.2);
        assert_eq!(c.len(), 2, "{c:?}");
        assert!(c[0].members.contains(&'c'));
    }
}
