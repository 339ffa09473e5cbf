//! Countable parameter spaces: named dimensions with finite value sets,
//! a cartesian-product index, and neighbor enumeration.
//!
//! This is the AutoTuneTMP `countable_set` idea reduced to its essence:
//! a space is a list of [`Param`]s, each a finite ordered list of `u64`
//! values; a **point** is one value index per dimension; the whole space
//! is addressable by a single mixed-radix integer, so any strategy can
//! enumerate, sample, or walk it without knowing what the dimensions
//! mean. The declaration sugar (`fixed_set`, `log2`)
//! materializes to plain value lists at construction, so two spaces
//! declared differently but containing the same values are *the same
//! space* — they serialize identically and share a [`ParamSpace::digest`],
//! which is what the registry memoizes tuning sessions by.

use serde::{Deserialize, Serialize};
use servet_stats::rng::splitmix64;
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
    pub(crate) fn log2(name: &str, min_exp: u32, max_exp: u32) -> Self {
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

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
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
    /// Build a space. Panics with [`Self::check`]'s refusal — a
    /// declaration bug here, not user input.
    pub fn new(params: Vec<Param>) -> Self {
        let space = Self { params };
        space.check().unwrap_or_else(|why| panic!("{why}"));
        space
    }

    /// Whether the space can be searched: at least one dimension, none
    /// empty, no two of one name. A deserialized space needs this check.
    pub fn check(&self) -> Result<(), String> {
        if self.params.is_empty() {
            return Err("space has no parameters".into());
        }
        for (i, p) in self.params.iter().enumerate() {
            if p.values.is_empty() {
                return Err(format!("parameter {:?} has no values", p.name));
            }
            if self.params[..i].iter().any(|q| q.name == p.name) {
                return Err(format!("duplicate parameter name {:?}", p.name));
            }
        }
        Ok(())
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
    #[cfg(test)]
    pub(crate) fn index(&self, point: &Point) -> usize {
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

    /// Make `config` — empty, or a configuration of this space — `point`'s
    /// configuration: [`Self::config`] without allocating once the keys are
    /// in, for loops that score one point after another.
    pub(crate) fn set_config(&self, point: &Point, config: &mut Config) {
        for (p, &i) in self.params.iter().zip(point) {
            match config.get_mut(&p.name) {
                Some(v) => *v = p.values[i],
                None => {
                    config.insert(p.name.clone(), p.values[i]);
                }
            }
        }
    }

    /// The point whose configuration is `config` — the inverse of
    /// [`Self::config`] — or `None` when `config` names a dimension the
    /// space lacks, lacks one it has, or takes a value off a grid.
    pub(crate) fn point_of(&self, config: &Config) -> Option<Point> {
        if config.len() != self.params.len() {
            return None;
        }
        self.params
            .iter()
            .map(|p| {
                let value = config.get(&p.name)?;
                p.values.iter().position(|v| v == value)
            })
            .collect()
    }

    /// The point whose every coordinate sits mid-range — a deterministic,
    /// seed-free starting position for local strategies.
    pub(crate) fn midpoint(&self) -> Point {
        self.params.iter().map(|p| p.len() / 2).collect()
    }

    /// All points reachable by moving exactly one coordinate by ±1 —
    /// the neighborhood a local search explores. Edge coordinates have
    /// one-sided neighborhoods; the result never includes `point` itself.
    pub(crate) fn neighbors(&self, point: &Point) -> Vec<Point> {
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
    pub(crate) fn axis(&self, base: &Point, dim: usize) -> Vec<Point> {
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
    pub(crate) fn random_point(&self, state: &mut u64) -> Point {
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
    /// never depends on a serializer's formatting choices.) The rendering
    /// is hashed as it is produced, never built: the registry computes
    /// this for every `tune` request.
    pub fn digest(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for p in &self.params {
            feed(p.name.as_bytes());
            feed(b"=");
            for (i, v) in p.values.iter().enumerate() {
                if i > 0 {
                    feed(b",");
                }
                feed(decimal(*v, &mut [0; 20]));
            }
            feed(b";");
        }
        format!("{h:016x}")
    }
}

/// `v` in decimal, written into the end of `buf`.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[at..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            Param::log2("tile", 3, 5),          // 8, 16, 32
            Param::fixed_set("place", &[0, 1]), // 2
            Param::fixed_set("pad", &[8, 40, 72]),
        ])
    }

    #[test]
    fn constructors_materialize() {
        assert_eq!(Param::log2("t", 3, 5).values, vec![8, 16, 32]);
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
    fn point_of_inverts_config() {
        let s = space();
        for i in 0..s.len() {
            let p = s.point(i);
            assert_eq!(s.point_of(&s.config(&p)), Some(p));
        }
        let mut off_grid = s.config(&vec![1, 0, 2]);
        off_grid.insert("pad".into(), 9);
        assert_eq!(s.point_of(&off_grid), None);
        let mut extra = s.config(&vec![1, 0, 2]);
        extra.insert("other".into(), 0);
        assert_eq!(s.point_of(&extra), None);
        extra.remove("tile");
        assert_eq!(s.point_of(&extra), None, "same size, a different dimension");
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
        // Pinned: memo keys and `TuneOutcome::space_digest` carry it.
        assert_eq!(
            crate::oracle::kernel_space(8, 64).digest(),
            "3b7e27af7591f001"
        );
        assert_eq!(
            crate::oracle::kernel_space(24, 48).digest(),
            "0ab1d8548de0bbcc"
        );
        let extremes = Param::fixed_set("big", &[u64::MAX, 0, 10, 1_234_567_890]);
        assert_eq!(ParamSpace::new(vec![extremes]).digest(), "f7422125be3ce444");
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
    fn check_names_each_declaration_bug() {
        let space = |params| ParamSpace { params };
        assert_eq!(
            space(vec![]).check().unwrap_err(),
            "space has no parameters"
        );
        let empty = Param {
            name: "x".into(),
            values: Vec::new(),
        };
        assert_eq!(
            space(vec![empty]).check().unwrap_err(),
            r#"parameter "x" has no values"#
        );
        let twice = vec![Param::fixed_set("x", &[1]), Param::fixed_set("x", &[2])];
        assert_eq!(
            space(twice).check().unwrap_err(),
            r#"duplicate parameter name "x""#
        );
        assert_eq!(
            ParamSpace::new(vec![Param::fixed_set("x", &[1])]).check(),
            Ok(())
        );
    }

    #[test]
    fn serde_round_trip() {
        let s = space();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<ParamSpace>(&json).unwrap(), s);
    }
}
