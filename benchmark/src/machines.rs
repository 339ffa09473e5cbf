//! The six simulated machines `pipeline` and `suite_replay` measure, and
//! the population `registry_session` serves. Geometries and suite
//! configurations are constants of the benchmark; `--seed` only sets each
//! machine's page-placement and measurement-noise streams, so the work
//! does not depend on it.

use servet_core::zoo::{self, generate_population, ZooConfig};
use servet_core::{SimPlatform, SuiteConfig, SuiteReport};
use servet_sim::spec::MachineSpec;
use servet_sim::{presets, Machine};

/// Seed of the constant zoo population the KB-range members and the
/// registry's profiles are drawn from.
const POPULATION_SEED: u64 = 2010;

/// Relative measurement noise of the two preset machines
/// (`SimPlatform`'s default).
const PRESET_NOISE: f64 = 0.005;

/// The fewest of the six machines' twelve cache levels a run may detect
/// correctly: one under the worst this commit finds over seeds 1 to 40
/// with the stand-in generator (11, on four of the forty; the rest find
/// all twelve).
pub const DETECT_FLOOR: usize = 10;

/// One machine: what to build and which suite to run on it.
#[derive(Debug, Clone)]
pub struct MachineCase {
    /// Slot name.
    pub name: String,
    /// Ground-truth geometry.
    pub spec: MachineSpec,
    /// Whether the platform spans `servet_net::presets::tiny_cluster()`.
    cluster: bool,
    /// Relative measurement noise.
    noise: f64,
    /// Suite configuration.
    pub suite: SuiteConfig,
    /// Position among the six, mixed into the run seed.
    index: u64,
}

/// splitmix64 finalizer: unrelated streams from nearby integers.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MachineCase {
    /// A fresh simulator-backed platform for this machine under
    /// `run_seed` — the same three steps as `zoo::run_machine`, kept
    /// apart from `run_suite` so a decorator can go between them.
    pub fn platform(&self, run_seed: u64) -> SimPlatform {
        let seed = mix(run_seed, self.index);
        let cluster = self
            .cluster
            .then(|| servet_net::presets::tiny_cluster().with_seed(seed));
        SimPlatform::new(Machine::with_seed(self.spec.clone(), seed), cluster)
            .with_noise(self.noise)
            .with_seed(seed)
    }
}

/// The six machines, in slot order: the paper's Dempsey with the paper's
/// full suite (2 MB L2, the MB-scale member), `tiny_cluster` with the
/// small suite (the only one with a communication stage), and four
/// KB-range members of the constant zoo population with the zoo suite
/// (false-sharing stage on).
pub fn six_machines() -> Vec<MachineCase> {
    let zoo = ZooConfig::new(4, 1, POPULATION_SEED);
    let mut tiny_cluster = presets::tiny_smp();
    tiny_cluster.name = "tiny_cluster".into();
    let mut cases = vec![
        MachineCase {
            name: "dempsey".into(),
            spec: presets::dempsey(),
            cluster: false,
            noise: PRESET_NOISE,
            suite: SuiteConfig::default(),
            index: 0,
        },
        MachineCase {
            name: "tiny_cluster".into(),
            spec: tiny_cluster,
            cluster: true,
            noise: PRESET_NOISE,
            suite: SuiteConfig::small(256 * 1024),
            index: 1,
        },
    ];
    for member in generate_population(&zoo) {
        cases.push(MachineCase {
            name: format!("zoo_kb_{}", member.index),
            spec: member.spec,
            cluster: false,
            noise: member.noise,
            suite: zoo.suite.clone(),
            index: 2 + member.index as u64,
        });
    }
    cases
}

/// The constant population whose ground-truth profiles
/// `registry_session` stores.
pub fn registry_population(machines: usize) -> Vec<MachineSpec> {
    generate_population(&ZooConfig::new(machines, 1, POPULATION_SEED))
        .into_iter()
        .map(|m| m.spec)
        .collect()
}

/// Detection accuracy of a round over the six machines, from
/// `zoo::evaluate` against the specs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accuracy {
    pub levels: usize,
    pub levels_correct: usize,
    pub sharing: usize,
    pub sharing_correct: usize,
    pub padding: usize,
    pub padding_correct: usize,
}

impl Accuracy {
    /// Fold one machine's report in.
    pub fn add(&mut self, spec: &MachineSpec, report: &SuiteReport) {
        let eval = zoo::evaluate(spec, report);
        self.levels += eval.level_sizes.len();
        self.levels_correct += eval
            .level_sizes
            .iter()
            .filter(|(_, t, d)| Some(*t) == *d)
            .count();
        self.sharing += eval.sharing_levels.len();
        self.sharing_correct += eval.sharing_levels.iter().filter(|(_, ok)| *ok).count();
        if let Some(correct) = eval.padding_correct() {
            self.padding += 1;
            self.padding_correct += usize::from(correct);
        }
    }
}

/// `part / whole`, 1 when there was nothing to get wrong.
pub fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_are_constants_and_seeds_only_move_streams() {
        let a = six_machines();
        let b = six_machines();
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.name, &x.spec, &x.suite), (&y.name, &y.spec, &y.suite));
            x.spec.validate().unwrap();
        }
        assert_eq!(a.iter().map(|c| c.spec.num_levels()).sum::<usize>(), 12);
        assert!(
            a[0].spec.caches.iter().any(|c| c.size >= 2 << 20),
            "dempsey is the MB-scale member"
        );
        assert!(a[2..]
            .iter()
            .all(|c| c.suite.run_false_sharing && c.spec.caches.iter().all(|l| l.size < 1 << 20)));
        let streams: std::collections::BTreeSet<u64> = (0..6)
            .map(|i| mix(1, i))
            .chain((0..6).map(|i| mix(2, i)))
            .collect();
        assert_eq!(streams.len(), 12);
        assert_eq!(registry_population(24).len(), 24);
        assert_eq!(
            registry_population(24)[..4],
            a[2..].iter().map(|c| c.spec.clone()).collect::<Vec<_>>()[..]
        );
    }
}
