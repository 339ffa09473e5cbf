//! Direct-call figures: public functions of one layer timed on their own,
//! once per traced run of the workload that owns the layer. They say what
//! one call costs where the spans can only say how much time a layer took.
//!
//! Several supersede rows of the committed `BENCH_*.json` files (README.md
//! lists which); inputs are those files' where one exists.

use crate::machines::mix;
use crate::metrics::Values;
use crate::timing::{nearest_rank, FAST_STATE};
use servet_core::cache_detect::{probabilistic_size, CandidateGrid};
use servet_core::profile::MachineProfile;
use servet_registry::{canonical_json, compute_advice, AdviceQuery, Registry, Request};
use servet_sim::machine::TraceJob;
use servet_sim::{presets, Machine, KB, MB};
use servet_stats::binomial::{sf_curve, Binomial};
use servet_tune::{
    analytic_config, tune, Oracle, ParamSpace, ProfileOracle, Strategy, TuneOptions,
};
use std::hint::black_box;
use std::time::Instant;

/// Batches per figure.
const BATCHES: usize = 10;

/// Nanoseconds per call of `f`: after one warm-up batch, the fastest of
/// [`BATCHES`] batches of `iters` calls.
fn per_call_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    nearest_rank(&samples, FAST_STATE).expect("batches ran")
}

/// BENCH_fit's window: a smeared 2 MB / 8-way transition, 64 points from
/// 1 MB to 4 MB on 4 KB pages with a deterministic ±0.4 % wobble.
fn fit_window() -> (Vec<usize>, Vec<f64>) {
    const PAGE: usize = 4 * KB;
    const POINTS: usize = 64;
    let p = (8 * PAGE) as f64 / (2 * MB) as f64;
    (0..POINTS)
        .map(|i| {
            let size = MB + i * (3 * MB) / POINTS;
            let miss = Binomial::new((size / PAGE) as u64 - 1, p).sf(7);
            let wobble = ((i * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
            (size, 10.0 + 60.0 * miss + 0.25 * wobble)
        })
        .unzip()
}

/// `stats.*`, `core.fit_window_us`, `core.profile_json_us`, `obs.*`.
pub fn core_and_stats(profile: &MachineProfile, values: &mut Values) {
    let binomial = Binomial::new(511, 8.0 * 4096.0 / (2.0 * MB as f64));
    values.set(
        "stats.sf_single_us",
        per_call_ns(2000, || {
            black_box(black_box(&binomial).sf(7));
        }) / 1e3,
    );
    let pages: Vec<u64> = (0..64u64).map(|i| 256 + i * 12).collect();
    values.set(
        "stats.sf_curve_64_us",
        per_call_ns(200, || {
            black_box(sf_curve(
                black_box(&pages),
                8.0 * 4096.0 / (2.0 * MB as f64),
                7,
            ));
        }) / 1e3,
    );

    let (sizes, cycles) = fit_window();
    let grid = CandidateGrid::default();
    assert_eq!(
        probabilistic_size(&sizes, &cycles, 4 * KB, &grid),
        Some(2 * MB),
        "the Fig. 3 fit no longer finds BENCH_fit's 2 MB cache"
    );
    values.set(
        "core.fit_window_us",
        per_call_ns(5, || {
            black_box(probabilistic_size(
                black_box(&sizes),
                &cycles,
                4 * KB,
                &grid,
            ));
        }) / 1e3,
    );

    values.set(
        "core.profile_json_us",
        per_call_ns(20, || {
            let json = black_box(profile).to_json();
            black_box(MachineProfile::from_json(&json).expect("profile parses back"));
        }) / 1e3,
    );

    values.set(
        "obs.span_ns",
        per_call_ns(2000, || {
            drop(black_box(servet_obs::span("benchmark.floor")));
        }),
    );
    servet_obs::take_spans();
    let histogram = servet_obs::Histogram::new();
    let mut sample = 1u64;
    values.set(
        "obs.histogram_record_ns",
        per_call_ns(20_000, || {
            sample = sample
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            histogram.record(black_box(sample >> 40));
        }),
    );
}

/// `net.send_latency_ns` and `net.bcast_model_us` on the paper's 32-rank
/// Finis Terrae cluster.
pub fn net(values: &mut Values) {
    let mut cluster = servet_net::presets::finis_terrae_cluster(2);
    let ranks = cluster.num_ranks();
    let mut to = 0;
    values.set(
        "net.send_latency_ns",
        per_call_ns(20_000, || {
            to = to % (ranks - 1) + 1;
            black_box(cluster.send_latency_us(0, to, 16 * KB));
        }),
    );
    values.set(
        "net.bcast_model_us",
        per_call_ns(200, || {
            for algorithm in servet_net::collectives::BcastAlgorithm::all() {
                black_box(servet_net::collectives::broadcast_time_us(
                    &mut cluster,
                    algorithm,
                    ranks,
                    32 * KB,
                ));
            }
        }) / 1e3,
    );
}

/// splitmix64 byte offsets in `[0, span)` — BENCH_sim's trace generator.
fn random_trace(len: usize, span: u64, state: u64) -> Vec<u64> {
    (0..len as u64).map(|i| mix(state, i) % span).collect()
}

/// Simulated statistics of the three replays, summed: a simulator
/// speed-up must leave them identical.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SimCounts {
    l1_misses: u64,
    l2_misses: u64,
    invalidations: u64,
    writebacks: u64,
}

impl SimCounts {
    fn add(&mut self, machine: &Machine) {
        for core in 0..machine.spec().num_cores {
            self.l1_misses += machine.cache_stats(1, core).map_or(0, |(_, misses)| misses);
        }
        // An L2 shared by several cores is one cache: count it once per
        // sharing group, through the group's first core.
        if let Some(l2) = machine.spec().caches.iter().find(|c| c.level == 2) {
            for group in &l2.sharing {
                self.l2_misses += machine
                    .cache_stats(2, group[0])
                    .map_or(0, |(_, misses)| misses);
            }
        }
        if let Some(traffic) = machine.coherence_traffic() {
            self.invalidations += traffic.invalidations;
            self.writebacks += traffic.writebacks;
        }
    }
}

/// Millions of simulated accesses per host second of a multi-job replay
/// over one shared array, plus the replay's simulated statistics from a
/// cold machine.
fn shared_replay(
    spec: servet_sim::MachineSpec,
    size: usize,
    steps: &[Vec<(u64, bool)>],
    counts: &mut SimCounts,
) -> f64 {
    let cores = spec.num_cores;
    let mut machine = Machine::with_seed(spec, 42);
    let array = machine.alloc_shared_array(size);
    let jobs: Vec<TraceJob<'_>> = steps
        .iter()
        .enumerate()
        .map(|(j, steps)| TraceJob {
            core: j % cores,
            array: &array,
            steps,
        })
        .collect();
    black_box(machine.run_traces(&jobs));
    counts.add(&machine);
    let accesses: usize = steps.iter().map(Vec::len).sum();
    let ns = per_call_ns(1, || {
        black_box(machine.run_traces(&jobs));
    });
    accesses as f64 / ns * 1e3
}

/// `sim.replay_*` and the simulated counts, on BENCH_sim's three traces
/// at its `--quick` sizes, live engine only.
pub fn sim_replays(values: &mut Values) {
    let mut counts = SimCounts::default();

    // Single-core random replay over an L2-overflowing array (mb_smp).
    let trace = random_trace(50_000, 4 * MB as u64, 0x5EED);
    let mut machine = Machine::with_seed(presets::mb_smp(), 42);
    let array = machine.alloc_array(4 * MB);
    black_box(machine.run_trace(0, &array, &trace));
    counts.add(&machine);
    let ns = per_call_ns(1, || {
        black_box(machine.run_trace(0, &array, &trace));
    });
    values.set(
        "sim.replay_private_macc_per_s",
        trace.len() as f64 / ns * 1e3,
    );

    // Four cores in lockstep over one shared 16 KB array, a third writes.
    let spec = presets::tiny_smp();
    let steps: Vec<Vec<(u64, bool)>> = (0..spec.num_cores)
        .map(|core| {
            random_trace(10_000, 16 * KB as u64, 0xC0FE + core as u64)
                .into_iter()
                .map(|addr| (addr, addr % 3 == 0))
                .collect()
        })
        .collect();
    values.set(
        "sim.replay_shared_coherent_macc_per_s",
        shared_replay(spec.clone(), 16 * KB, &steps, &mut counts),
    );

    // Sixteen reader jobs per core over one shared 24 MB array, a random
    // line then its eight elements in order.
    let steps: Vec<Vec<(u64, bool)>> = (0..spec.num_cores * 16)
        .map(|job| {
            random_trace(800, (24 * MB / 64) as u64, 0xB10C + job as u64)
                .into_iter()
                .flat_map(|line| (0..8u64).map(move |e| (line * 64 + e * 8, false)))
                .collect()
        })
        .collect();
    values.set(
        "sim.replay_blocked_shared_macc_per_s",
        shared_replay(spec, 24 * MB, &steps, &mut counts),
    );

    values.set("sim.l1_misses", counts.l1_misses as f64);
    values.set("sim.l2_misses", counts.l2_misses as f64);
    values.set("sim.invalidations", counts.invalidations as f64);
    values.set("sim.writebacks", counts.writebacks as f64);
}

/// `tune.profile_oracle_eval_us`, `tune.scorer_scaling_w2`,
/// `autotune.analytic_config_us`.
pub fn tune_and_autotune(
    profile: &MachineProfile,
    oracle: &dyn Oracle,
    space: &ParamSpace,
    values: &mut Values,
) {
    let closed_form = ProfileOracle::new(profile.clone(), 64);
    let configs: Vec<_> = (0..space.len())
        .map(|i| space.config(&space.point(i)))
        .collect();
    values.set(
        "tune.profile_oracle_eval_us",
        per_call_ns(20, || {
            for config in &configs {
                black_box(closed_form.evaluate(config));
            }
        }) / configs.len() as f64
            / 1e3,
    );

    values.set(
        "autotune.analytic_config_us",
        per_call_ns(200, || {
            black_box(analytic_config(black_box(profile), space));
        }) / 1e3,
    );

    // One scorer worker against two, same session: how much of a second
    // vCPU the scorer turns into speed. Three sessions each, alternating,
    // fastest of each.
    let options = TuneOptions::new(Strategy::Line);
    let session = |workers: usize| {
        let start = Instant::now();
        black_box(tune(oracle, space, &options, workers));
        start.elapsed().as_secs_f64()
    };
    let (mut one, mut two) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        one = one.min(session(1));
        two = two.min(session(2));
    }
    values.set("tune.scorer_scaling_w2", one / two);
}

/// The tile-size question every workload asks: three matrices of
/// `elem_size`-byte elements in three quarters of cache level `level`.
pub fn tile_query(level: u8, elem_size: usize) -> AdviceQuery {
    AdviceQuery::Tile {
        level,
        elem_size,
        matrices: 3,
        occupancy: 0.75,
    }
}

/// `autotune.advice_battery_us`: `compute_advice` for every query kind
/// on a measured profile that has every stage.
pub fn advice_battery(measured: &MachineProfile, values: &mut Values) {
    let battery = [
        AdviceQuery::Threads { tolerance: 0.05 },
        tile_query(1, 8),
        AdviceQuery::Bcast {
            ranks: 0,
            bytes: 32 * KB,
        },
        AdviceQuery::Padding,
    ];
    for query in &battery {
        compute_advice(measured, query)
            .unwrap_or_else(|e| panic!("{query:?} on the measured profile: {e}"));
    }
    values.set(
        "autotune.advice_battery_us",
        per_call_ns(200, || {
            for query in &battery {
                black_box(compute_advice(black_box(measured), query)).ok();
            }
        }) / 1e3,
    );
}

/// `registry.handle_*`, `registry.canonical_json_us`,
/// `registry.profile_parse_us`, `registry.sha256_mb_per_s`: the pieces
/// under a request, in process.
pub fn registry_pieces(registry: &Registry, profile: &MachineProfile, values: &mut Values) {
    let digest = match registry.handle(Request::Put {
        profile: Box::new(profile.clone()),
        name: None,
    }) {
        servet_registry::Response::Stored { digest } => digest,
        other => panic!("in-process put answered {other:?}"),
    };
    let get = Request::Get {
        key: digest.clone(),
    };
    values.set(
        "registry.handle_get_us",
        per_call_ns(500, || {
            black_box(registry.handle(get.clone()));
        }) / 1e3,
    );
    let put = Request::Put {
        profile: Box::new(profile.clone()),
        name: None,
    };
    values.set(
        "registry.handle_put_us",
        per_call_ns(50, || {
            black_box(registry.handle(put.clone()));
        }) / 1e3,
    );
    let advise = Request::Advise {
        key: digest,
        query: tile_query(1, 8),
    };
    registry.handle(advise.clone());
    values.set(
        "registry.handle_advise_hit_us",
        per_call_ns(2000, || {
            black_box(registry.handle(advise.clone()));
        }) / 1e3,
    );

    values.set(
        "registry.canonical_json_us",
        per_call_ns(200, || {
            black_box(canonical_json(black_box(profile)));
        }) / 1e3,
    );
    let json = canonical_json(profile);
    values.set(
        "registry.profile_parse_us",
        per_call_ns(200, || {
            black_box(MachineProfile::from_json(black_box(&json)).expect("canonical JSON parses"));
        }) / 1e3,
    );
    let block = vec![0xA5u8; MB];
    let ns = per_call_ns(2, || {
        black_box(servet_registry::digest::sha256_hex(black_box(&block)));
    });
    values.set("registry.sha256_mb_per_s", 1e9 / ns);
}
