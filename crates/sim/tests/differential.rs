//! Differential suite: the fast-path [`Machine`] against the retained
//! pre-rewrite [`ReferenceMachine`].
//!
//! Every test drives both engines with the same seed and the same access
//! streams and demands *bit-identical* results — exact `f64` cycle
//! counts (compared via bit patterns, so `-0.0 != 0.0` and no epsilon
//! hides a divergence), identical hit/miss counters at every cache
//! level, and identical `CoherenceTraffic` totals. This is what licenses
//! the packed-LRU / hashed-directory / block-replay rewrite: any
//! behavioral drift trips here, not in a zoo sweep three layers up.

use servet_sim::machine::{SharedJob, TraceJob};
use servet_sim::{presets, Machine, ReferenceMachine, SimArray, KB, MB};
use servet_stats::rng::ChaCha8Rng;

/// Exact f64 equality via bit patterns, with a readable failure message.
fn assert_bits_eq(fast: f64, refr: f64, what: &str) {
    assert_eq!(
        fast.to_bits(),
        refr.to_bits(),
        "{what}: fast {fast} != reference {refr}"
    );
}

fn assert_all_bits_eq(fast: &[f64], refr: &[f64], what: &str) {
    assert_eq!(fast.len(), refr.len(), "{what}: length mismatch");
    for (i, (f, r)) in fast.iter().zip(refr).enumerate() {
        assert_bits_eq(*f, *r, &format!("{what}[{i}]"));
    }
}

/// The paper's Fig. 1 loop as a job, for either engine: `core` reading
/// all of `array`, `stride` bytes apart.
fn strided(core: usize, array: &SimArray, stride: usize) -> SharedJob<'_> {
    SharedJob {
        core,
        array,
        offset: 0,
        stride,
        count: array.len().div_ceil(stride),
        write: false,
    }
}

/// Compare per-level per-core cache statistics between the engines.
fn assert_stats_match(fast: &Machine, refr: &ReferenceMachine, what: &str) {
    let spec = fast.spec().clone();
    for cl in &spec.caches {
        for core in 0..spec.num_cores {
            assert_eq!(
                fast.cache_stats(cl.level, core),
                refr.cache_stats(cl.level, core),
                "{what}: L{} stats for core {core} diverge",
                cl.level
            );
        }
    }
}

/// Single-core strided traversals across the whole hierarchy: L1-, L2-
/// and memory-resident sizes, several strides and seeds.
#[test]
fn single_core_traversals_bit_identical() {
    for seed in [0u64, 7, 0x5EED, 991] {
        for &size in &[2 * KB, 16 * KB, 96 * KB, 384 * KB] {
            for &stride in &[64usize, 256, KB] {
                let mut fast = Machine::with_seed(presets::tiny_smp(), seed);
                let mut refr = ReferenceMachine::with_seed(presets::tiny_smp(), seed);
                let fa = fast.alloc_array(size);
                let ra = refr.alloc_array(size);
                fast.reset();
                refr.reset();
                let cf = fast.traverse_shared(&[strided(0, &fa, stride)], 1, 2)[0];
                let cr = refr.traverse_shared(&[strided(0, &ra, stride)], 1, 2)[0];
                assert_bits_eq(
                    cf,
                    cr,
                    &format!("traverse seed={seed} size={size} stride={stride}"),
                );
                assert_stats_match(&fast, &refr, "single-core traversal");
            }
        }
    }
}

/// Concurrent traversals on shared-L2 machines: the lockstep block
/// replay must preserve the interleaving exactly, so both the measured
/// cycles and the hit/miss counters (which see the interleaved stream)
/// must match.
#[test]
fn concurrent_traversals_bit_identical() {
    for seed in [1u64, 42] {
        for cores in [[0usize, 1], [0, 2]] {
            let mut fast = Machine::with_seed(presets::tiny_shared_l2(), seed);
            let mut refr = ReferenceMachine::with_seed(presets::tiny_shared_l2(), seed);
            let size = 80 * KB;
            let fa = fast.alloc_array(size);
            let fb = fast.alloc_array(size);
            let ra = refr.alloc_array(size);
            let rb = refr.alloc_array(size);
            fast.reset();
            refr.reset();
            let cf = fast.traverse_shared(
                &[strided(cores[0], &fa, KB), strided(cores[1], &fb, KB)],
                1,
                2,
            );
            let cr = refr.traverse_shared(
                &[strided(cores[0], &ra, KB), strided(cores[1], &rb, KB)],
                1,
                2,
            );
            assert_all_bits_eq(&cf, &cr, &format!("concurrent seed={seed} cores={cores:?}"));
            assert_stats_match(&fast, &refr, "concurrent traversal");
        }
    }
}

/// Coherence-enabled shared-buffer streams: random mixes of readers and
/// writers over one shared array, same-line and disjoint-line offsets.
/// Cycles, cache stats, and every `CoherenceTraffic` counter must agree.
#[test]
fn shared_coherent_streams_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1FF_5EED);
    for trial in 0..12 {
        let seed = rng.gen_range(0..1000u64);
        let mut fast = Machine::with_seed(presets::tiny_smp(), seed);
        let mut refr = ReferenceMachine::with_seed(presets::tiny_smp(), seed);
        let fa = fast.alloc_shared_array(8 * KB);
        let ra = refr.alloc_shared_array(8 * KB);
        let njobs = rng.gen_range(1..4usize);
        let mut spec_jobs = Vec::new();
        for j in 0..njobs {
            spec_jobs.push((
                j % fast.spec().num_cores,
                rng.gen_range(0..128usize),
                64 * rng.gen_range(1..4usize),
                rng.gen_range(4..24usize),
                rng.gen_range(0..2u64) == 0,
            ));
        }
        fn make<'a>(
            spec_jobs: &[(usize, usize, usize, usize, bool)],
            arr: &'a SimArray,
        ) -> Vec<SharedJob<'a>> {
            spec_jobs
                .iter()
                .map(|&(core, offset, stride, count, write)| SharedJob {
                    core,
                    array: arr,
                    offset,
                    stride,
                    count,
                    write,
                })
                .collect()
        }
        fast.reset();
        refr.reset();
        let cf = fast.traverse_shared(&make(&spec_jobs, &fa), 1, 3);
        let cr = refr.traverse_shared(&make(&spec_jobs, &ra), 1, 3);
        assert_all_bits_eq(&cf, &cr, &format!("shared trial={trial}"));
        assert_eq!(
            fast.coherence_traffic(),
            refr.coherence_traffic(),
            "trial {trial}: coherence traffic diverges"
        );
        assert_stats_match(&fast, &refr, "shared streams");
    }
}

/// Random single-core trace replays, including back-to-back calls so
/// bus-clock carry-over between traces is covered.
#[test]
fn run_trace_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xACE5);
    for seed in [3u64, 1234] {
        let mut fast = Machine::with_seed(presets::tiny_smp(), seed);
        let mut refr = ReferenceMachine::with_seed(presets::tiny_smp(), seed);
        let fa = fast.alloc_array(128 * KB);
        let ra = refr.alloc_array(128 * KB);
        for round in 0..3 {
            let addrs: Vec<u64> = (0..1500)
                .map(|_| rng.gen_range(0..(128 * KB) as u64))
                .collect();
            let cf = fast.run_trace(0, &fa, &addrs);
            let cr = refr.run_trace(0, &ra, &addrs);
            assert_bits_eq(cf, cr, &format!("run_trace seed={seed} round={round}"));
        }
        assert_stats_match(&fast, &refr, "run_trace");
    }
}

/// Back-to-back calls on warm caches: after a warm-up `run_trace`, the
/// second call over the same strided addresses starts from a free bus in
/// both engines and reads what the measured pass of one `traverse_shared`
/// reads, up to the rounding of a clock difference against a clock.
#[test]
fn second_run_trace_reads_the_measured_pass() {
    for (spec, size) in [(presets::tiny_smp(), 128 * KB), (presets::dempsey(), MB)] {
        let mut fast = Machine::with_seed(spec.clone(), 7);
        let mut refr = ReferenceMachine::with_seed(spec.clone(), 7);
        let fa = fast.alloc_array(size);
        let ra = refr.alloc_array(size);
        let addrs: Vec<u64> = (0..size as u64).step_by(KB).collect();
        fast.reset();
        refr.reset();
        let mut second = 0.0;
        for round in 0..2 {
            let cf = fast.run_trace(0, &fa, &addrs);
            second = refr.run_trace(0, &ra, &addrs);
            assert_bits_eq(
                cf,
                second,
                &format!("{} run_trace round={round}", spec.name),
            );
        }
        fast.reset();
        refr.reset();
        let cf = fast.traverse_shared(&[strided(0, &fa, KB)], 1, 1)[0];
        let cr = refr.traverse_shared(&[strided(0, &ra, KB)], 1, 1)[0];
        assert_bits_eq(cf, cr, &format!("{} traverse_shared", spec.name));
        let name = &spec.name;
        assert!(
            (second - cr).abs() < 1e-12 * cr,
            "{name}: warm run_trace {second} vs measured pass {cr}"
        );
    }
}

/// Multi-core trace replay over a shared array with random writes — the
/// SimOracle-shaped workload: block replay + hashed directory together.
#[test]
fn run_traces_coherent_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    for trial in 0..6 {
        let seed = rng.gen_range(0..500u64);
        let mut fast = Machine::with_seed(presets::tiny_smp(), seed);
        let mut refr = ReferenceMachine::with_seed(presets::tiny_smp(), seed);
        let fa = fast.alloc_shared_array(16 * KB);
        let ra = refr.alloc_shared_array(16 * KB);
        let ncores = fast.spec().num_cores.min(3);
        let steps: Vec<Vec<(u64, bool)>> = (0..ncores)
            .map(|_| {
                (0..800)
                    .map(|_| {
                        (
                            rng.gen_range(0..(16 * KB) as u64),
                            rng.gen_range(0..3u64) == 0,
                        )
                    })
                    .collect()
            })
            .collect();
        fast.reset();
        refr.reset();
        let fjobs: Vec<TraceJob<'_>> = steps
            .iter()
            .enumerate()
            .map(|(c, s)| TraceJob {
                core: c,
                array: &fa,
                steps: s,
            })
            .collect();
        let rjobs: Vec<TraceJob<'_>> = steps
            .iter()
            .enumerate()
            .map(|(c, s)| TraceJob {
                core: c,
                array: &ra,
                steps: s,
            })
            .collect();
        let cf = fast.run_traces(&fjobs);
        let cr = refr.run_traces(&rjobs);
        assert_all_bits_eq(&cf, &cr, &format!("run_traces trial={trial}"));
        assert_eq!(
            fast.coherence_traffic(),
            refr.coherence_traffic(),
            "trial {trial}: coherence traffic diverges"
        );
        assert_stats_match(&fast, &refr, "run_traces");
    }
}

/// Blocked-locality read-mostly replay over one shared array: random
/// line, then its sequential elements. Read hits in private levels take
/// the fast engine's directory-skip path on almost every access, so
/// this is the test that holds that skip to bit-identical traffic,
/// cycles and counters against the always-probing reference.
#[test]
fn read_hit_directory_skip_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5C1B);
    for spec in [presets::tiny_smp(), presets::mb_smp()] {
        let mut fast = Machine::with_seed(spec.clone(), 77);
        let mut refr = ReferenceMachine::with_seed(spec.clone(), 77);
        let size = 256 * KB;
        let fa = fast.alloc_shared_array(size);
        let ra = refr.alloc_shared_array(size);
        let cores = spec.num_cores;
        // Three jobs per core: oversubscription, like the headline
        // bench, so heap scheduling interleaves jobs on one core too.
        let steps: Vec<Vec<(u64, bool)>> = (0..cores * 3)
            .map(|_| {
                let mut v = Vec::new();
                for _ in 0..300 {
                    let line = rng.gen_range(0..(size as u64 / 64));
                    for e in 0..8u64 {
                        let addr = line * 64 + e * 8;
                        v.push((addr, rng.gen_range(0..16u64) == 0));
                    }
                }
                v
            })
            .collect();
        let fjobs: Vec<TraceJob<'_>> = steps
            .iter()
            .enumerate()
            .map(|(j, s)| TraceJob {
                core: j % cores,
                array: &fa,
                steps: s,
            })
            .collect();
        let rjobs: Vec<TraceJob<'_>> = steps
            .iter()
            .enumerate()
            .map(|(j, s)| TraceJob {
                core: j % cores,
                array: &ra,
                steps: s,
            })
            .collect();
        let cf = fast.run_traces(&fjobs);
        let cr = refr.run_traces(&rjobs);
        assert_all_bits_eq(&cf, &cr, &format!("skip path on {}", spec.name));
        assert_eq!(
            fast.coherence_traffic(),
            refr.coherence_traffic(),
            "{}: traffic diverges on the skip path",
            spec.name
        );
        assert_stats_match(&fast, &refr, "read-hit skip");
    }
}

/// A second shared address space can physically alias the first, which
/// voids the residency ⇒ valid-bit proof behind the directory skip —
/// the fast engine must fall back to probing and stay bit-identical.
#[test]
fn second_shared_array_disables_the_skip_and_stays_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11A);
    let mut fast = Machine::with_seed(presets::tiny_smp(), 13);
    let mut refr = ReferenceMachine::with_seed(presets::tiny_smp(), 13);
    let fa = fast.alloc_shared_array(32 * KB);
    let fb = fast.alloc_shared_array(32 * KB);
    let ra = refr.alloc_shared_array(32 * KB);
    let rb = refr.alloc_shared_array(32 * KB);
    let steps: Vec<Vec<(u64, bool)>> = (0..4)
        .map(|_| {
            (0..2000)
                .map(|_| {
                    (
                        rng.gen_range(0..(32 * KB) as u64),
                        rng.gen_range(0..4u64) == 0,
                    )
                })
                .collect()
        })
        .collect();
    let fjobs: Vec<TraceJob<'_>> = steps
        .iter()
        .enumerate()
        .map(|(c, s)| TraceJob {
            core: c,
            array: if c % 2 == 0 { &fa } else { &fb },
            steps: s,
        })
        .collect();
    let rjobs: Vec<TraceJob<'_>> = steps
        .iter()
        .enumerate()
        .map(|(c, s)| TraceJob {
            core: c,
            array: if c % 2 == 0 { &ra } else { &rb },
            steps: s,
        })
        .collect();
    let cf = fast.run_traces(&fjobs);
    let cr = refr.run_traces(&rjobs);
    assert_all_bits_eq(&cf, &cr, "two shared aspaces");
    assert_eq!(fast.coherence_traffic(), refr.coherence_traffic());
    assert_stats_match(&fast, &refr, "two shared aspaces");
}

/// 24 homogeneous jobs whose virtual clocks stay tied for the whole
/// run: the heap scheduler degenerates to pure round-robin and must
/// reproduce the reference's linear-scan tie-breaking exactly.
#[test]
fn many_tied_jobs_bit_identical() {
    let spec = presets::dunnington();
    let cores = spec.num_cores;
    let mut fast = Machine::with_seed(spec.clone(), 3);
    let mut refr = ReferenceMachine::with_seed(spec, 3);
    let fas: Vec<_> = (0..cores).map(|_| fast.alloc_array(8 * KB)).collect();
    let ras: Vec<_> = (0..cores).map(|_| refr.alloc_array(8 * KB)).collect();
    // Identical strided step lists per core: every access costs the
    // same, so every selection is a tie.
    let steps: Vec<(u64, bool)> = (0..(8 * KB as u64))
        .step_by(64)
        .cycle()
        .take(1000)
        .map(|a| (a, false))
        .collect();
    let fjobs: Vec<TraceJob<'_>> = (0..cores)
        .map(|c| TraceJob {
            core: c,
            array: &fas[c],
            steps: &steps,
        })
        .collect();
    let rjobs: Vec<TraceJob<'_>> = (0..cores)
        .map(|c| TraceJob {
            core: c,
            array: &ras[c],
            steps: &steps,
        })
        .collect();
    let cf = fast.run_traces(&fjobs);
    let cr = refr.run_traces(&rjobs);
    assert_all_bits_eq(&cf, &cr, "tied 24-job replay");
    assert_stats_match(&fast, &refr, "tied 24-job replay");
}

/// A TLB-equipped machine: the hoisted shift-based TLB key must agree
/// with the original division-based one across TLB-thrashing sizes.
#[test]
fn tlb_machine_bit_identical() {
    for &size in &[32 * KB, 128 * KB] {
        let mut fast = Machine::with_seed(presets::tiny_with_tlb(), 5);
        let mut refr = ReferenceMachine::with_seed(presets::tiny_with_tlb(), 5);
        let fa = fast.alloc_array(size);
        let ra = refr.alloc_array(size);
        fast.reset();
        refr.reset();
        let cf = fast.traverse_shared(&[strided(0, &fa, KB)], 1, 2)[0];
        let cr = refr.traverse_shared(&[strided(0, &ra, KB)], 1, 2)[0];
        assert_bits_eq(cf, cr, &format!("tlb size={size}"));
    }
}

/// The paper's Dunnington preset (24 cores, three levels, shared L2/L3)
/// end to end: the largest real topology in the presets.
#[test]
fn dunnington_pair_bit_identical() {
    let mut fast = Machine::with_seed(presets::dunnington(), 21);
    let mut refr = ReferenceMachine::with_seed(presets::dunnington(), 21);
    let l2 = fast.spec().cache_size(2).unwrap();
    let size = 2 * l2 / 3;
    let fa = fast.alloc_array(size);
    let fb = fast.alloc_array(size);
    let ra = refr.alloc_array(size);
    let rb = refr.alloc_array(size);
    fast.reset();
    refr.reset();
    let cf = fast.traverse_shared(&[strided(0, &fa, KB), strided(12, &fb, KB)], 1, 2);
    let cr = refr.traverse_shared(&[strided(0, &ra, KB), strided(12, &rb, KB)], 1, 2);
    assert_all_bits_eq(&cf, &cr, "dunnington 0+12");
    assert_stats_match(&fast, &refr, "dunnington");
}

/// Blocked-locality byte offsets: `lines` random cache lines of a
/// `size`-byte array, each followed by its eight 8-byte elements.
fn blocked_trace(rng: &mut ChaCha8Rng, size: usize, lines: usize) -> Vec<u64> {
    (0..lines)
        .flat_map(|_| {
            let line = rng.gen_range(0..(size / 64) as u64);
            (0..8u64).map(move |e| line * 64 + e * 8)
        })
        .collect()
}

/// Every arm of the set kernel under single-job runs, each of which is one
/// block of the resolve-once loop: the 2-, 4-, 8- and 16-way kernels and
/// the any-width fallback (a direct-mapped L1, Dunnington's 12-way L2 and
/// 24-way L3). Traversals sit below, between and above every level; the
/// traces mix hits and misses at each level and run twice so the second
/// starts from warm caches and a busy bus.
#[test]
fn every_set_width_single_job_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E7);
    let mut direct_mapped = presets::tiny_smp();
    direct_mapped.name = "tiny_direct_mapped_l1".into();
    direct_mapped.caches[0].associativity = 1;
    for spec in [
        direct_mapped,
        presets::tiny_smp(),
        presets::dempsey(),
        presets::athlon3200(),
        presets::dunnington(),
    ] {
        let levels: Vec<usize> = spec.caches.iter().map(|c| c.size).collect();
        let mut sizes = vec![levels[0] / 2];
        sizes.extend(levels.windows(2).map(|w| (w[0] + w[1]) / 2));
        sizes.push(2 * levels[levels.len() - 1]);
        for &size in &sizes {
            let mut fast = Machine::with_seed(spec.clone(), 17);
            let mut refr = ReferenceMachine::with_seed(spec.clone(), 17);
            let fa = fast.alloc_array(size);
            let ra = refr.alloc_array(size);
            let cf = fast.traverse_shared(&[strided(0, &fa, KB)], 1, 2)[0];
            let cr = refr.traverse_shared(&[strided(0, &ra, KB)], 1, 2)[0];
            assert_bits_eq(cf, cr, &format!("{} traverse size={size}", spec.name));
            assert_stats_match(&fast, &refr, &spec.name);
        }

        let mut fast = Machine::with_seed(spec.clone(), 23);
        let mut refr = ReferenceMachine::with_seed(spec.clone(), 23);
        let size = 2 * levels[1];
        let fa = fast.alloc_array(size);
        let ra = refr.alloc_array(size);
        let trace = blocked_trace(&mut rng, size, 4000);
        for round in 0..2 {
            let cf = fast.run_trace(0, &fa, &trace);
            let cr = refr.run_trace(0, &ra, &trace);
            assert_bits_eq(cf, cr, &format!("{} run_trace round={round}", spec.name));
        }
        assert_stats_match(&fast, &refr, &spec.name);
    }
}

/// The TLB rides the same kernel (fully associative: one set, fallback
/// arm). A trace over twice the TLB's reach thrashes it while the caches
/// see a blocked pattern.
#[test]
fn tlb_machine_run_trace_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x71B);
    let spec = presets::tiny_with_tlb();
    let tlb = spec.tlb.expect("preset has a TLB");
    let size = 2 * tlb.entries * spec.page_size;
    let mut fast = Machine::with_seed(spec.clone(), 5);
    let mut refr = ReferenceMachine::with_seed(spec, 5);
    let fa = fast.alloc_array(size);
    let ra = refr.alloc_array(size);
    let trace = blocked_trace(&mut rng, size, 3000);
    for round in 0..2 {
        let cf = fast.run_trace(0, &fa, &trace);
        let cr = refr.run_trace(0, &ra, &trace);
        assert_bits_eq(cf, cr, &format!("tlb run_trace round={round}"));
    }
    assert_stats_match(&fast, &refr, "tlb run_trace");
}

/// Two private L1-resident traversals on two cores: every access costs the
/// same, the clocks tie after each one, and the scheduler hands out blocks
/// one access long — the resolve-once loop re-resolved per access. Then
/// the same pair over arrays that miss everywhere and queue on the bus.
#[test]
fn one_access_blocks_bit_identical() {
    for &size in &[4 * KB, 384 * KB] {
        let mut fast = Machine::with_seed(presets::tiny_shared_l2(), 31);
        let mut refr = ReferenceMachine::with_seed(presets::tiny_shared_l2(), 31);
        let fa = fast.alloc_array(size);
        let fb = fast.alloc_array(size);
        let ra = refr.alloc_array(size);
        let rb = refr.alloc_array(size);
        let jobs = |a, b| [strided(0, a, 256), strided(1, b, 256)];
        let cf = fast.traverse_shared(&jobs(&fa, &fb), 1, 3);
        let cr = refr.traverse_shared(&jobs(&ra, &rb), 1, 3);
        assert_all_bits_eq(&cf, &cr, &format!("one-access blocks size={size}"));
        assert_stats_match(&fast, &refr, "one-access blocks");
    }
}

/// Thread `t` of `threads` of the search oracle's kernel: a blocked
/// `n × n` matmul of doubles (A, then B, then C, then the accumulators)
/// that reads `A[i][k]`, then `B[k][j]` and stores `C[i][j]` on every
/// update, and stores its accumulator, `pad` bytes after the previous
/// thread's, every sixteenth update.
fn matmul_steps(n: usize, tile: usize, threads: usize, t: usize, pad: u64) -> Vec<(u64, bool)> {
    let b_base = (n * n * 8) as u64;
    let c_base = 2 * b_base;
    let acc = 3 * b_base + t as u64 * pad;
    let addr = |base: u64, r: usize, c: usize| base + ((r * n + c) * 8) as u64;
    let rows = (t * n / threads, (t + 1) * n / threads);
    let mut steps = Vec::new();
    let mut since_acc = 0;
    for ib in (rows.0..rows.1).step_by(tile) {
        for kb in (0..n).step_by(tile) {
            for jb in (0..n).step_by(tile) {
                for i in ib..(ib + tile).min(rows.1) {
                    for k in kb..(kb + tile).min(n) {
                        steps.push((addr(0, i, k), false));
                        for j in jb..(jb + tile).min(n) {
                            steps.push((addr(b_base, k, j), false));
                            steps.push((addr(c_base, i, j), true));
                            since_acc += 1;
                            if since_acc == 16 {
                                steps.push((acc, true));
                                since_acc = 0;
                            }
                        }
                    }
                }
            }
        }
    }
    steps
}

/// The oracle's kernel on 2 and 4 lanes of `tiny_smp`, accumulators
/// packed into one line (pad 8: they ping-pong) and one line apart (pad
/// 64), with and without a second shared array (which turns the read-hit
/// skip off but not the owned-write skip). Almost every store is a
/// Modified owner's write that hits, the case the fast engine answers
/// without probing its directory.
#[test]
fn owned_write_skip_bit_identical() {
    let n = 24;
    for threads in [2, 4] {
        for pad in [8u64, 64] {
            for second in [false, true] {
                let what = format!("matmul threads={threads} pad={pad} second={second}");
                let mut fast = Machine::with_seed(presets::tiny_smp(), 43);
                let mut refr = ReferenceMachine::with_seed(presets::tiny_smp(), 43);
                let len = 3 * n * n * 8 + threads * pad as usize + 64;
                let fa = fast.alloc_shared_array(len);
                let ra = refr.alloc_shared_array(len);
                if second {
                    fast.alloc_shared_array(len);
                    refr.alloc_shared_array(len);
                }
                fast.reset();
                refr.reset();
                let steps: Vec<_> = (0..threads)
                    .map(|t| matmul_steps(n, 8, threads, t, pad))
                    .collect();
                let jobs = |array| -> Vec<TraceJob<'_>> {
                    steps
                        .iter()
                        .enumerate()
                        .map(|(core, steps)| TraceJob { core, array, steps })
                        .collect()
                };
                let cf = fast.run_traces(&jobs(&fa));
                let cr = refr.run_traces(&jobs(&ra));
                assert_all_bits_eq(&cf, &cr, &what);
                let traffic = fast.coherence_traffic();
                assert_eq!(traffic, refr.coherence_traffic(), "{what}: traffic");
                assert_stats_match(&fast, &refr, &what);
                if pad == 8 {
                    assert!(traffic.unwrap().invalidations > 0, "{what}: no ping-pong");
                }
            }
        }
    }
}

/// A core that held a line Modified and lost it must pay for its next
/// write even when that write hits: an upgrade after a remote read
/// downgraded it (its copy stays in its L1), a read-for-ownership after
/// a remote write invalidated it (its copy stays in the L2 it shares
/// with the writer). Each access is its own driver call, so the order is
/// the one written here.
#[test]
fn write_after_losing_modified_pays_bit_identical() {
    for (spec, remote_write) in [
        (presets::tiny_smp(), false),
        (presets::tiny_shared_l2(), true),
    ] {
        let what = format!("{} remote_write={remote_write}", spec.name);
        let mut fast = Machine::with_seed(spec.clone(), 41);
        let mut refr = ReferenceMachine::with_seed(spec, 41);
        let fa = fast.alloc_shared_array(4 * KB);
        let ra = refr.alloc_shared_array(4 * KB);
        let line = 512;
        for (i, (core, write)) in [
            (0, true),
            (0, true),
            (1, remote_write),
            (0, true),
            (0, true),
        ]
        .into_iter()
        .enumerate()
        {
            let steps = [(line, write)];
            let cf = fast.run_traces(&[TraceJob {
                core,
                array: &fa,
                steps: &steps,
            }]);
            let cr = refr.run_traces(&[TraceJob {
                core,
                array: &ra,
                steps: &steps,
            }]);
            assert_all_bits_eq(&cf, &cr, &format!("{what}: access {i}"));
        }
        let traffic = fast.coherence_traffic().unwrap();
        assert_eq!(Some(traffic), refr.coherence_traffic(), "{what}: traffic");
        assert_stats_match(&fast, &refr, &what);
        // Core 0's third write is the one a stale owned entry would let
        // through silently.
        let (upgrades, transfers) = if remote_write { (0, 2) } else { (1, 1) };
        assert_eq!(traffic.upgrades, upgrades, "{what}: upgrades");
        assert_eq!(traffic.writebacks, transfers, "{what}: writebacks");
        assert_eq!(traffic.invalidations, transfers, "{what}: invalidations");
    }
}
