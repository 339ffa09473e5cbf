//! Countable parameter spaces: named dimensions with finite value sets,
//! a cartesian-product index, and neighbor enumeration.
//!
//! This is the AutoTuneTMP `countable_set` idea reduced to its essence:
//! a space is a list of [`Param`]s, each a finite ordered list of `u64`
//! values; a **point** is one value index per dimension; the whole space
//! is addressable by a single mixed-radix integer, so any strategy can
//! enumerate, sample, or walk it without knowing what the dimensions
//! mean. The declaration sugar (`fixed_set`, `log2`, `range`)
//! materializes to plain value lists at construction, so two spaces
//! declared differently but containing the same values are *the same
//! space* — they serialize identically and share a [`ParamSpace::digest`],
//! which is what the registry memoizes tuning sessions by.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One tunable dimension: a name and its finite, ordered value list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Param {
    /// Dimension name, the key under which configs report the value.
    pub name: String,
    /// The values a point may take, in declaration order. Order matters
    /// to neighbor enumeration: index ±1 is "adjacent".
    pub values: Vec<u64>,
}

impl Param {
    /// An explicit value set, kept in the given order.
    ///
    /// Panics on an empty set — a zero-valued dimension would make the
    /// whole space empty, which is always a declaration bug.
    pub fn fixed_set(name: &str, values: &[u64]) -> Self {
        assert!(!values.is_empty(), "parameter {name:?} has no values");
        Self {
            name: name.to_string(),
            values: values.to_vec(),
        }
    }

    /// Powers of two from `2^min_exp` through `2^max_exp` inclusive —
    /// the AutoTuneTMP `log_parameter` shape (thread counts, tile edges).
    pub fn log2(name: &str, min_exp: u32, max_exp: u32) -> Self {
        assert!(
            min_exp <= max_exp,
            "parameter {name:?}: empty exponent range"
        );
        assert!(
            max_exp < 64,
            "parameter {name:?}: 2^{max_exp} overflows u64"
        );
        Self {
            name: name.to_string(),
            values: (min_exp..=max_exp).map(|e| 1u64 << e).collect(),
        }
    }

    /// An arithmetic progression `min, min+step, …` not exceeding `max`.
    pub fn range(name: &str, min: u64, max: u64, step: u64) -> Self {
        assert!(step > 0, "parameter {name:?}: zero step");
        assert!(min <= max, "parameter {name:?}: empty range");
        Self {
            name: name.to_string(),
            values: (min..=max).step_by(step as usize).collect(),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the value list is empty (never true for a constructed
    /// param; present for completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A point in a space: one value index per dimension, in dimension order.
pub type Point = Vec<usize>;

/// A resolved configuration: dimension name → chosen value. This is what
/// oracles evaluate and reports record; `BTreeMap` so the JSON key order
/// is stable.
pub type Config = BTreeMap<String, u64>;

/// A countable cartesian product of [`Param`]s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamSpace {
    /// The dimensions, slowest-varying first under [`Self::point`].
    pub params: Vec<Param>,
}

impl ParamSpace {
    /// Build a space. Panics if two dimensions share a name or any
    /// dimension is empty — both are declaration bugs, not user input.
    pub fn new(params: Vec<Param>) -> Self {
        assert!(!params.is_empty(), "a space needs at least one parameter");
        for (i, p) in params.iter().enumerate() {
            assert!(!p.values.is_empty(), "parameter {:?} has no values", p.name);
            assert!(
                params[..i].iter().all(|q| q.name != p.name),
                "duplicate parameter name {:?}",
                p.name
            );
        }
        Self { params }
    }

    /// Total number of points (the product of the dimension sizes).
    pub fn len(&self) -> usize {
        self.params
            .iter()
            .fold(1usize, |acc, p| acc.saturating_mul(p.len()))
    }

    /// Whether the space has no points (never true for a constructed
    /// space).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode a flat index into a point (mixed radix, last dimension
    /// fastest — an odometer).
    pub fn point(&self, mut index: usize) -> Point {
        assert!(index < self.len(), "index {index} out of space");
        let mut digits = vec![0usize; self.params.len()];
        for (d, p) in self.params.iter().enumerate().rev() {
            digits[d] = index % p.len();
            index /= p.len();
        }
        digits
    }

    /// Encode a point back into its flat index — the inverse of
    /// [`Self::point`].
    pub fn index(&self, point: &Point) -> usize {
        assert_eq!(point.len(), self.params.len(), "point/space rank mismatch");
        self.params.iter().zip(point).fold(0usize, |acc, (p, &i)| {
            assert!(i < p.len(), "index {i} out of parameter {:?}", p.name);
            acc * p.len() + i
        })
    }

    /// Resolve a point to its named configuration.
    pub fn config(&self, point: &Point) -> Config {
        self.params
            .iter()
            .zip(point)
            .map(|(p, &i)| (p.name.clone(), p.values[i]))
            .collect()
    }

    /// The point whose every coordinate sits mid-range — a deterministic,
    /// seed-free starting position for local strategies.
    pub fn midpoint(&self) -> Point {
        self.params.iter().map(|p| p.len() / 2).collect()
    }

    /// All points reachable by moving exactly one coordinate by ±1 —
    /// the neighborhood a local search explores. Edge coordinates have
    /// one-sided neighborhoods; the result never includes `point` itself.
    pub fn neighbors(&self, point: &Point) -> Vec<Point> {
        let mut out = Vec::with_capacity(2 * point.len());
        for (d, p) in self.params.iter().enumerate() {
            if point[d] > 0 {
                let mut q = point.clone();
                q[d] -= 1;
                out.push(q);
            }
            if point[d] + 1 < p.len() {
                let mut q = point.clone();
                q[d] += 1;
                out.push(q);
            }
        }
        out
    }

    /// Every point obtained by sweeping dimension `dim` over all its
    /// values with the other coordinates fixed — one "line" of a line
    /// search. Includes the base point itself.
    pub fn axis(&self, base: &Point, dim: usize) -> Vec<Point> {
        (0..self.params[dim].len())
            .map(|i| {
                let mut q = base.clone();
                q[dim] = i;
                q
            })
            .collect()
    }

    /// Draw a uniformly-ish random point from a splitmix64 state (the
    /// modulo bias is irrelevant at these dimension sizes). Advances the
    /// state; the same state sequence always yields the same points.
    pub fn random_point(&self, state: &mut u64) -> Point {
        self.params
            .iter()
            .map(|p| (splitmix64(state) % p.len() as u64) as usize)
            .collect()
    }

    /// A short stable digest of the space: FNV-1a 64 over a canonical
    /// `name=v1,v2,…;` rendering of the dimensions. Two spaces with the
    /// same dimensions and values share it, however they were declared —
    /// this is the `space` component of the registry's tune-memoization
    /// key. (Hand-rolled rather than hashed serde output so the digest
    /// never depends on a serializer's formatting choices.)
    pub fn digest(&self) -> String {
        let mut canon = String::new();
        for p in &self.params {
            canon.push_str(&p.name);
            canon.push('=');
            for (i, v) in p.values.iter().enumerate() {
                if i > 0 {
                    canon.push(',');
                }
                canon.push_str(&v.to_string());
            }
            canon.push(';');
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in canon.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// One step of the splitmix64 generator — the same mixing the zoo uses
/// for per-machine seeds, so tune seeds inherit its avalanche behavior.
/// The registry client's retry jitter draws from it too.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            Param::log2("tile", 3, 5),          // 8, 16, 32
            Param::fixed_set("place", &[0, 1]), // 2
            Param::range("pad", 8, 72, 32),     // 8, 40, 72
        ])
    }

    #[test]
    fn constructors_materialize() {
        assert_eq!(Param::log2("t", 3, 5).values, vec![8, 16, 32]);
        assert_eq!(Param::range("r", 8, 72, 32).values, vec![8, 40, 72]);
        assert_eq!(Param::fixed_set("f", &[5, 3]).values, vec![5, 3]);
    }

    #[test]
    fn index_point_round_trip() {
        let s = space();
        assert_eq!(s.len(), 3 * 2 * 3);
        for i in 0..s.len() {
            let p = s.point(i);
            assert_eq!(s.index(&p), i);
        }
        // Last dimension varies fastest.
        assert_eq!(s.point(0), vec![0, 0, 0]);
        assert_eq!(s.point(1), vec![0, 0, 1]);
        assert_eq!(s.point(3), vec![0, 1, 0]);
    }

    #[test]
    fn config_resolves_names_and_values() {
        let s = space();
        let c = s.config(&vec![1, 0, 2]);
        assert_eq!(c["tile"], 16);
        assert_eq!(c["place"], 0);
        assert_eq!(c["pad"], 72);
    }

    #[test]
    fn neighbors_respect_edges() {
        let s = space();
        // Corner point: one-sided in every dimension.
        assert_eq!(s.neighbors(&vec![0, 0, 0]).len(), 3);
        // Interior in tile & pad, edge in place.
        let n = s.neighbors(&vec![1, 1, 1]);
        assert_eq!(n.len(), 5);
        assert!(!n.contains(&vec![1, 1, 1]));
    }

    #[test]
    fn axis_sweeps_one_dimension() {
        let s = space();
        let line = s.axis(&vec![1, 1, 1], 0);
        assert_eq!(line, vec![vec![0, 1, 1], vec![1, 1, 1], vec![2, 1, 1]]);
    }

    #[test]
    fn random_points_are_reproducible_and_in_range() {
        let s = space();
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..32 {
            let pa = s.random_point(&mut a);
            assert_eq!(pa, s.random_point(&mut b));
            assert!(s.index(&pa) < s.len());
        }
    }

    #[test]
    fn digest_is_declaration_independent() {
        let sugar = ParamSpace::new(vec![Param::log2("t", 3, 5)]);
        let explicit = ParamSpace::new(vec![Param::fixed_set("t", &[8, 16, 32])]);
        assert_eq!(sugar.digest(), explicit.digest());
        let other = ParamSpace::new(vec![Param::fixed_set("t", &[8, 16, 64])]);
        assert_ne!(sugar.digest(), other.digest());
    }

    #[test]
    fn splitmix64_stream_is_pinned() {
        // The monte-carlo strategy and the registry client's backoff
        // jitter both replay this stream.
        let mut state = 0;
        let drawn: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            drawn,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    #[should_panic]
    fn duplicate_names_rejected() {
        ParamSpace::new(vec![
            Param::fixed_set("x", &[1]),
            Param::fixed_set("x", &[2]),
        ]);
    }

    #[test]
    fn serde_round_trip() {
        let s = space();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<ParamSpace>(&json).unwrap(), s);
    }
}
