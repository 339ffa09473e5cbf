//! Property tests for the machine simulator: each property either
//! enumerates its whole domain or loops a fixed number of cases drawn
//! from its own seeded stream, and names the drawn inputs on failure.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use servet_sim::cache::SetAssocCache;
use servet_sim::machine::TraversalJob;
use servet_sim::membw::maxmin_fair;
use servet_sim::presets;
use servet_sim::vm::{AddressSpace, PageAllocPolicy};
use servet_sim::{Machine, KB};
use std::ops::Range;

/// Cases per sampled property.
const CASES: usize = 64;

const POLICIES: [PageAllocPolicy; 3] = [
    PageAllocPolicy::Random,
    PageAllocPolicy::Colored,
    PageAllocPolicy::Contiguous,
];

/// Line numbers below `bound`, with a length drawn from `len`.
fn lines(rng: &mut ChaCha8Rng, bound: u64, len: Range<usize>) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(0..bound)).collect()
}

/// A cache never holds more lines than its capacity, and a line just
/// touched is resident.
#[test]
fn cache_capacity_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let sets = rng.gen_range(1usize..16);
        let assoc = rng.gen_range(1usize..8);
        let mut c = SetAssocCache::new(sets, assoc);
        for l in lines(&mut rng, 512, 1..256) {
            c.touch(l);
            assert!(c.contains(l), "{sets} sets × {assoc} ways lost line {l}");
            assert!(c.resident_lines() <= c.capacity_lines());
        }
    }
}

/// touch() is consistent with contains(): it hits exactly when the line
/// was resident, and the line is resident afterwards either way.
#[test]
fn cache_touch_consistency() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for _ in 0..CASES {
        let mut c = SetAssocCache::new(4, 2);
        for l in lines(&mut rng, 64, 1..128) {
            let resident = c.contains(l);
            assert_eq!(c.touch(l), resident, "line {l}");
            assert!(c.contains(l));
        }
    }
}

/// Address translation preserves page offsets for every policy.
#[test]
fn translation_preserves_offset() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for case in 0..CASES {
        let pages = rng.gen_range(1usize..64);
        let seed = rng.gen_range(0u64..1000);
        let vaddr_frac = rng.gen_range(0.0..1.0);
        let policy = POLICIES[case % POLICIES.len()];
        let ps = 4096usize;
        let a = AddressSpace::new(1, pages * ps, ps, policy, seed);
        let vaddr = (vaddr_frac * (pages * ps - 1) as f64) as u64;
        assert_eq!(
            a.translate(vaddr) % ps as u64,
            vaddr % ps as u64,
            "{policy:?}, {pages} pages, seed {seed}, vaddr {vaddr}"
        );
    }
}

/// Frames are never reused within one address space.
#[test]
fn frames_unique() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for case in 0..CASES {
        let pages = rng.gen_range(1usize..256);
        let seed = rng.gen_range(0u64..1000);
        let policy = POLICIES[case % POLICIES.len()];
        let ps = 4096usize;
        let a = AddressSpace::new(2, pages * ps, ps, policy, seed);
        let mut seen = std::collections::HashSet::new();
        for v in 0..a.num_pages() {
            assert!(
                seen.insert(a.frame_of(v)),
                "{policy:?}, {pages} pages, seed {seed}: page {v} reuses a frame"
            );
        }
    }
}

/// Max-min fairness: no resource over capacity, no flow over its cap,
/// and equal-treatment (flows on identical resource sets get equal
/// rates).
#[test]
fn maxmin_respects_all_caps() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..8);
        let cap = rng.gen_range(0.5..8.0);
        let res_cap = rng.gen_range(0.5..10.0);
        let active: Vec<usize> = (0..n).collect();
        let resources = vec![(res_cap, active.clone())];
        let rates = maxmin_fair(&active, cap, &resources);
        let total: f64 = rates.iter().sum();
        assert!(
            total <= res_cap + 1e-6,
            "n={n}, cap={cap}, res_cap={res_cap}"
        );
        for &r in &rates {
            assert!(r <= cap + 1e-9, "n={n}, cap={cap}, res_cap={res_cap}");
            assert!((r - rates[0]).abs() < 1e-9, "unequal shares: {rates:?}");
        }
        // Work-conserving: either the resource or the per-core cap binds.
        let expect = cap.min(res_cap / n as f64);
        assert!(
            (rates[0] - expect).abs() < 1e-6,
            "n={n}, cap={cap}, res_cap={res_cap}"
        );
    }
}

/// Adding a flow never increases anyone's bandwidth.
#[test]
fn maxmin_monotone_in_contention() {
    let ft = presets::finis_terrae_node();
    let resources: Vec<(f64, Vec<usize>)> = ft
        .memory
        .resources
        .iter()
        .map(|r| (r.capacity_gbs, r.cores.clone()))
        .collect();
    for n in 2usize..6 {
        let mut prev = f64::INFINITY;
        for k in 1..=n {
            let active: Vec<usize> = (0..k).collect();
            let rates = maxmin_fair(&active, ft.memory.core_stream_gbs, &resources);
            assert!(rates[0] <= prev + 1e-9, "{k} of {n} flows");
            prev = rates[0];
        }
    }
}

/// Traversal cost is deterministic for a fixed seed and within the
/// bracket [L1 hit, memory latency + transfer].
#[test]
fn traversal_cost_bracketed() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..CASES {
        let size_kb = rng.gen_range(1usize..256);
        let seed = rng.gen_range(0u64..50);
        let spec = presets::tiny_smp();
        let l1 = spec.caches[0].hit_cycles;
        let worst = spec.memory.latency_cycles
            + 64.0 / (spec.memory.resources[0].capacity_gbs / spec.clock_ghz);
        let mut m = Machine::with_seed(spec, seed);
        let arr = m.alloc_array(size_kb * KB);
        let c = m.traverse(0, &arr, KB, 1, 1);
        assert!(c >= l1 - 1e-9, "{size_kb} KB, seed {seed}: c = {c}");
        assert!(
            c <= worst + 1e-9,
            "{size_kb} KB, seed {seed}: c = {c} > {worst}"
        );
    }
}

/// Lockstep concurrency with non-interfering cores matches isolation:
/// two cores with private caches and small arrays cost the same
/// together as alone.
#[test]
fn concurrent_private_arrays_independent() {
    for seed in 0u64..50 {
        let mut m = Machine::with_seed(presets::tiny_smp(), seed);
        let a = m.alloc_array(4 * KB);
        let b = m.alloc_array(4 * KB);
        m.reset();
        let solo = m.traverse(0, &a, KB, 1, 2);
        m.reset();
        let both = m.traverse_concurrent(
            &[
                TraversalJob {
                    core: 0,
                    array: &a,
                    stride: KB,
                },
                TraversalJob {
                    core: 1,
                    array: &b,
                    stride: KB,
                },
            ],
            1,
            2,
        );
        assert!(
            (both[0] - solo).abs() < 0.5,
            "seed {seed}: solo {solo} vs both {both:?}"
        );
    }
}
