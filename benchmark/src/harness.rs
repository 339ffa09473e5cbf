//! How every run is shaped: set up, with one untimed warm-up round whose
//! outputs become the reference, then rounds of fixed slots until the time
//! is up and enough rounds are done — setting up afresh at a few points
//! along the way, so that the set-up times are a sample of the whole run.
//!
//! A slot is one operation with fixed inputs; a round runs every slot
//! once. Each slot is timed with one `Instant` pair, and its output is
//! checked after its clock stops. One thread drives everything.

use crate::metrics::Values;
use crate::sys::{self, Scratch};
use crate::timing::{median, nearest_rank, SlotSamples, FAST_STATE};
use crate::trace::{self, Profile, Tracer, SLOT_ROOT};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Rounds an untraced run times at least: twenty chances for each slot to
/// meet the host's fast state.
pub const MIN_ROUNDS: usize = 20;

/// Set-ups a run times at least; it times more while their total stays
/// under [`SETUP_BUDGET`].
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Points of an untraced run at which it sets up: the start, and five
/// more evenly spaced through the rounds, each with a sixth of the budget.
/// This host holds a speed state for seconds at a time, so set-ups taken
/// back to back all read one state and their median flips between the two
/// from run to run; rounds one second long, sampled as a stand-in, had a
/// median that spread 0.13 to 0.33 over ten runs when taken from a run's
/// first three and 0.11 to 0.18 from six spread over it. A traced run
/// reports no set-up time and its instance gathers the stage samples of
/// all its rounds, so it takes its set-ups at the start.
const SETUP_POINTS: u32 = 6;

/// One slot of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Name, unique within the workload.
    pub name: String,
    /// Operations the slot performs (requests on the wire; 1 elsewhere).
    pub ops: u32,
}

impl Slot {
    pub fn new(name: impl Into<String>, ops: u32) -> Self {
        Self {
            name: name.into(),
            ops,
        }
    }
}

/// What a workload gives the harness.
pub trait Workload: Sized {
    /// What one slot produces; checked after the slot's clock stops.
    type Output;

    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Whether slots are independent, so each round runs them in a fresh
    /// seeded order. A session's phases are not.
    const SHUFFLED: bool;

    /// Build inputs and start what must be started, from `seed`.
    fn build(seed: u64, scratch: &Scratch) -> Result<Self, String>;

    /// The fixed slot list.
    fn slots(&self) -> Vec<Slot>;

    /// Execute one slot. Calls into a layer go through `tracer`.
    fn run_slot(&mut self, slot: usize, tracer: &mut Tracer) -> Self::Output;

    /// Clean up after a round, outside every slot's clock.
    fn end_round(&mut self) {}

    /// Take the warm-up round's outputs, in slot order: verify them
    /// against truths that do not come from the measured path, and keep
    /// what [`Self::check`] compares later rounds with.
    fn adopt_warm_up(&mut self, outputs: Vec<Self::Output>) -> Result<(), String>;

    /// Whether `output` of `slot` is correct. May keep host-time samples
    /// the output carries.
    fn check(&mut self, slot: usize, output: Self::Output) -> bool;

    /// Direct-call figures of the layers this workload owns, taken once
    /// per traced run before its rounds.
    fn direct_calls(&mut self, _values: &mut Values) {}

    /// Per-layer metrics of a traced run.
    fn layer_metrics(&mut self, run: &TracedRun, values: &mut Values);

    /// Stop what `build` started.
    fn shut_down(self) {}
}

/// What a traced run hands to [`Workload::layer_metrics`].
pub struct TracedRun<'a> {
    /// Slot times (ms) of the untraced rounds.
    pub untraced: &'a SlotSamples,
    /// The spans of the traced rounds, folded.
    pub profile: &'a Profile<'a>,
}

/// Every slot time of a run, written beside the span dumps: what the
/// choice of `round_p10_ms`'s statistic was made from, and what to look at
/// when two runs disagree.
#[derive(Serialize)]
struct SlotLog {
    workload: String,
    seed: u64,
    trace: bool,
    setups_s: Vec<f64>,
    slots: Vec<SlotTimes>,
}

#[derive(Serialize)]
struct SlotTimes {
    name: String,
    ops: u32,
    /// One entry per round in which the slot's output was correct.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Empty `servet-obs`'s process-wide span log. It is bounded but large
/// (65 536 records); draining it after every round and every set-up keeps
/// the resident set independent of how many of either fit in the run.
fn drain_crate_spans() {
    servet_obs::take_spans();
}

/// One of a run's set-up points: stop `previous`, then set up at least
/// `at_least` times, and on while the point's total stays under `budget`,
/// stopping every instance but the last. Appends the seconds each took.
fn set_up_point<W: Workload>(
    seed: u64,
    scratch: &Scratch,
    mut previous: Option<W>,
    at_least: usize,
    budget: Duration,
    setups: &mut Vec<f64>,
) -> Result<W, String> {
    let (mut done, mut spent) = (0, Duration::ZERO);
    loop {
        if let Some(previous) = previous.take() {
            previous.shut_down();
        }
        let start = Instant::now();
        let workload = set_up::<W>(seed, scratch)?;
        let elapsed = start.elapsed();
        setups.push(elapsed.as_secs_f64());
        done += 1;
        spent += elapsed;
        if done >= at_least && spent + spent / done as u32 > budget {
            return Ok(workload);
        }
        previous = Some(workload);
    }
}

/// Build the workload and run its warm-up round.
fn set_up<W: Workload>(seed: u64, scratch: &Scratch) -> Result<W, String> {
    let mut workload = W::build(seed, scratch)?;
    let mut tracer = Tracer::new();
    let outputs = (0..workload.slots().len())
        .map(|slot| workload.run_slot(slot, &mut tracer))
        .collect();
    workload.end_round();
    workload.adopt_warm_up(outputs)?;
    drain_crate_spans();
    Ok(workload)
}

/// The stream a run's slot orders are drawn from: the slots are the same
/// for every seed, the order they run in is not.
fn order_stream(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(crate::machines::mix(seed, 0x51_07))
}

/// Run every slot once in `order`, timing each and checking its output
/// after its clock stops. Returns the slots attempted and failed.
pub fn run_round<W: Workload>(
    workload: &mut W,
    order: &[usize],
    tracer: &mut Tracer,
    traced_round: Option<u32>,
    samples: &mut SlotSamples,
) -> (u64, u64) {
    let mut failed = 0;
    for &slot in order {
        if let Some(round) = traced_round {
            tracer.enable(round, slot as u32);
        }
        let start = Instant::now();
        let output = tracer.span(SLOT_ROOT, |t| workload.run_slot(slot, t));
        let elapsed = start.elapsed();
        tracer.disable();
        if workload.check(slot, output) {
            samples.0[slot].push(elapsed.as_secs_f64() * 1e3);
        } else {
            failed += 1;
        }
    }
    workload.end_round();
    drain_crate_spans();
    (order.len() as u64, failed)
}

/// One run of workload `W`.
pub fn run<W: Workload>(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut values = Values::default();

    let points = if trace { 1 } else { SETUP_POINTS };
    let at_least = MIN_SETUPS.div_ceil(points as usize);
    let mut setups: Vec<f64> = Vec::new();
    let mut set_up_again = |previous: Option<W>| {
        set_up_point(
            seed,
            &scratch,
            previous,
            at_least,
            SETUP_BUDGET / points,
            &mut setups,
        )
    };
    let mut workload = set_up_again(None)?;
    let slots = workload.slots();

    // What counts towards `--seconds`: the rounds, and a traced run's
    // direct calls; not the set-ups in between.
    let window = Duration::from_secs(seconds);
    let measuring = Instant::now();
    if trace {
        workload.direct_calls(&mut values);
    }
    let mut measured = measuring.elapsed();
    let mut next_point = 1;

    let mut rng = order_stream(seed);
    let mut order: Vec<usize> = (0..slots.len()).collect();
    let mut tracer = Tracer::new();
    let mut untraced = SlotSamples::new(slots.len());
    let mut traced = SlotSamples::new(slots.len());
    let (mut attempted, mut failed) = (0, 0);
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || measured < window {
        if next_point < points && measured >= window * next_point / points {
            workload = set_up_again(Some(workload))?;
            next_point += 1;
        }
        let start = Instant::now();
        if W::SHUFFLED {
            order.shuffle(&mut rng);
        }
        // A traced run alternates untraced and traced rounds, so both see
        // the same mix of the host's speed states.
        let traced_round = (trace && rounds % 2 == 1).then_some((rounds / 2) as u32);
        let samples = if traced_round.is_some() {
            &mut traced
        } else {
            &mut untraced
        };
        let (a, f) = run_round(&mut workload, &order, &mut tracer, traced_round, samples);
        attempted += a;
        failed += f;
        rounds += 1;
        measured += start.elapsed();
    }
    let peak_rss_mb = sys::peak_rss_mb().map_err(|e| format!("peak resident set: {e}"))?;

    if trace {
        let profile = Profile::new(tracer.rows(), slots.len());
        let round_ms = untraced.fast_sum();
        let ops: u32 = slots.iter().map(|s| s.ops).sum();
        values.set("harness.rounds", rounds as f64);
        values.set("harness.slots", slots.len() as f64);
        values.set("harness.round_p50_ms", untraced.sum_of_quantiles(0.5));
        values.set("harness.round_p90_ms", untraced.sum_of_quantiles(0.9));
        values.set("harness.round_mean_ms", untraced.sum_of_means());
        values.set("harness.ops_per_s", f64::from(ops) / (round_ms / 1e3));
        values.set("harness.setup_repeats", setups.len() as f64);
        values.set(
            "harness.trace_overhead_frac",
            traced.fast_sum() / round_ms - 1.0,
        );
        values.set("harness.trace_coverage_frac", profile.coverage());
        let run = TracedRun {
            untraced: &untraced,
            profile: &profile,
        };
        workload.layer_metrics(&run, &mut values);

        let names: Vec<String> = slots.iter().map(|s| s.name.clone()).collect();
        let dump = trace::dump_json(W::NAME, seed, &names, &tracer);
        let path = sys::run_dir()
            .map_err(|e| format!("run directory: {e}"))?
            .join(format!("trace-{}-seed{seed}.json", W::NAME));
        std::fs::write(&path, dump).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        values.set("setup_s", median(&setups));
        values.set("round_p10_ms", untraced.fast_sum());
        values.set("peak_rss_mb", peak_rss_mb);
    }
    workload.shut_down();
    let log = SlotLog {
        workload: W::NAME.to_string(),
        seed,
        trace,
        setups_s: setups.clone(),
        slots: slots
            .iter()
            .enumerate()
            .map(|(at, slot)| SlotTimes {
                name: slot.name.clone(),
                ops: slot.ops,
                untraced_ms: untraced.0[at].clone(),
                traced_ms: traced.0[at].clone(),
            })
            .collect(),
    };
    let path = sys::run_dir()
        .map_err(|e| format!("run directory: {e}"))?
        .join(format!(
            "slots-{}-seed{seed}-trace{}.json",
            W::NAME,
            u8::from(trace)
        ));
    let json = serde_json::to_string(&log).expect("slot log serializes");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    for (slot, samples) in slots.iter().zip(&untraced.0) {
        eprintln!(
            "  {:<14} x{:<3} fastest {:>9.3} ms  median {:>9.3} ms  n {}",
            slot.name,
            slot.ops,
            nearest_rank(samples, FAST_STATE).unwrap_or(0.0),
            nearest_rank(samples, 0.5).unwrap_or(0.0),
            samples.len(),
        );
    }
    eprintln!(
        "{}: seed {seed}, {} set-ups, {rounds} rounds of {} slots in {:.1} s, {failed} of {attempted} slots failed",
        W::NAME,
        setups.len(),
        slots.len(),
        measuring.elapsed().as_secs_f64(),
    );
    Ok(Outcome {
        attempted,
        failed,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{six_machines, Accuracy, DETECT_FLOOR};
    use crate::workloads::{
        pipeline::Pipeline, registry_session::RegistrySession, suite_replay::SuiteReplay,
        tune_search::TuneSearch,
    };

    /// Set up `W` and run one checked round; the slots that failed.
    fn one_round<W: Workload>(seed: u64) -> u64 {
        let scratch = Scratch::create().unwrap();
        let mut workload =
            set_up::<W>(seed, &scratch).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", W::NAME));
        let slots = workload.slots().len();
        let order: Vec<usize> = (0..slots).collect();
        let (_, failed) = run_round(
            &mut workload,
            &order,
            &mut Tracer::new(),
            None,
            &mut SlotSamples::new(slots),
        );
        workload.shut_down();
        failed
    }

    #[test]
    fn slot_orders_differ_by_seed_and_hold_every_slot() {
        let orders = |seed: u64| -> Vec<Vec<usize>> {
            let mut rng = order_stream(seed);
            let mut order: Vec<usize> = (0..6).collect();
            (0..MIN_ROUNDS)
                .map(|_| {
                    order.shuffle(&mut rng);
                    order.clone()
                })
                .collect()
        };
        let (a, b) = (orders(1), orders(2));
        assert_eq!(a, orders(1));
        assert_ne!(a, b);
        for mut order in a.into_iter().chain(b) {
            order.sort_unstable();
            assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn every_workload_sets_up_and_passes_a_round() {
        // One at a time: they share the per-process scratch directory, and
        // `registry_session` pins whatever thread builds it.
        std::thread::spawn(|| {
            assert_eq!(one_round::<SuiteReplay>(3), 0);
            assert_eq!(one_round::<TuneSearch>(3), 0);
            assert_eq!(one_round::<Pipeline>(3), 0);
            assert_eq!(one_round::<RegistrySession>(3), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    #[ignore = "minutes even in release: seeds 1 to 40 on every workload, as the acceptance criteria ask"]
    fn seeds_1_to_40_pass_on_every_workload() {
        std::thread::spawn(|| {
            for seed in 1..=40 {
                assert_eq!(
                    one_round::<SuiteReplay>(seed),
                    0,
                    "suite_replay seed {seed}"
                );
                assert_eq!(one_round::<TuneSearch>(seed), 0, "tune_search seed {seed}");
                assert_eq!(one_round::<Pipeline>(seed), 0, "pipeline seed {seed}");
                assert_eq!(
                    one_round::<RegistrySession>(seed),
                    0,
                    "registry_session seed {seed}"
                );
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    #[ignore = "a minute in release: how DETECT_FLOOR was frozen"]
    fn detect_floor_is_one_under_the_worst_of_seeds_1_to_40() {
        let cases = six_machines();
        let worst = (1..=40)
            .map(|seed| {
                let mut accuracy = Accuracy::default();
                for case in &cases {
                    let (report, _) = servet_core::run_suite(&mut case.platform(seed), &case.suite);
                    accuracy.add(&case.spec, &report);
                }
                eprintln!("seed {seed}: {accuracy:?}");
                accuracy.levels_correct
            })
            .min()
            .unwrap();
        assert_eq!(worst, DETECT_FLOOR + 1);
    }
}
