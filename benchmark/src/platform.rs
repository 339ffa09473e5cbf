//! Benchmark-owned `Platform` implementations: a decorator that records
//! every call the suite makes, a platform that answers from such a
//! recording, and a decorator that puts a span around every call.
//!
//! Recording and replay are what let `suite_replay` time the suite's own
//! analysis — mcalibrator post-processing, the Fig. 3 fit, the clustering
//! — with the simulator out of the loop, as it is on real hardware where
//! measuring is the machine's time.

use crate::trace::Tracer;
use servet_core::platform::{CoreId, Platform, SharedStreamJob, TraverseJob};
use servet_sim::{CoherenceSpec, CoherenceTraffic};
use std::cell::{Cell, RefCell};

/// One measurement call and the answer the live platform gave.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    Traverse(CoreId, usize, usize, f64),
    TraverseConcurrent(Vec<TraverseJob>, usize, Vec<f64>),
    CopyBandwidth(Vec<CoreId>, Vec<f64>),
    TraversePattern(CoreId, usize, Vec<u64>, f64),
    Message(CoreId, CoreId, usize, f64),
    ConcurrentMessage(Vec<(CoreId, CoreId)>, usize, Vec<f64>),
    SharedStream(usize, Vec<SharedStreamJob>, Vec<f64>),
    TakeTraffic(Option<CoherenceTraffic>),
    TrafficTotal(Option<CoherenceTraffic>),
    Elapsed(f64),
}

/// Everything a suite run asked of a platform: the constant answers once,
/// the stateful calls in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    name: String,
    num_cores: usize,
    total_cores: usize,
    page_size: usize,
    messaging: bool,
    coherence_probes: bool,
    coherence_params: Option<CoherenceSpec>,
    calls: Vec<Call>,
}

/// Decorator that forwards to `inner` and logs every stateful call.
pub struct Recorder<'a> {
    inner: &'a mut dyn Platform,
    // `elapsed_seconds` and `coherence_traffic_total` take `&self`.
    calls: RefCell<Vec<Call>>,
}

impl<'a> Recorder<'a> {
    pub fn new(inner: &'a mut dyn Platform) -> Self {
        Self {
            inner,
            calls: RefCell::new(Vec::new()),
        }
    }

    /// The recording so far.
    pub fn finish(self) -> Recording {
        Recording {
            name: self.inner.name().to_string(),
            num_cores: self.inner.num_cores(),
            total_cores: self.inner.total_cores(),
            page_size: self.inner.page_size(),
            messaging: self.inner.supports_messaging(),
            coherence_probes: self.inner.supports_coherence_probes(),
            coherence_params: self.inner.coherence_params(),
            calls: self.calls.into_inner(),
        }
    }

    fn log(&self, call: Call) {
        self.calls.borrow_mut().push(call);
    }
}

impl Platform for Recorder<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }
    fn total_cores(&self) -> usize {
        self.inner.total_cores()
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn traverse_cycles(&mut self, core: CoreId, size: usize, stride: usize) -> f64 {
        let cycles = self.inner.traverse_cycles(core, size, stride);
        self.log(Call::Traverse(core, size, stride, cycles));
        cycles
    }
    fn traverse_concurrent_cycles(&mut self, jobs: &[TraverseJob], stride: usize) -> Vec<f64> {
        let cycles = self.inner.traverse_concurrent_cycles(jobs, stride);
        self.log(Call::TraverseConcurrent(
            jobs.to_vec(),
            stride,
            cycles.clone(),
        ));
        cycles
    }
    fn copy_bandwidth_gbs(&mut self, active: &[CoreId]) -> Vec<f64> {
        let gbs = self.inner.copy_bandwidth_gbs(active);
        self.log(Call::CopyBandwidth(active.to_vec(), gbs.clone()));
        gbs
    }
    fn traverse_pattern_cycles(&mut self, core: CoreId, size: usize, offsets: &[u64]) -> f64 {
        let cycles = self.inner.traverse_pattern_cycles(core, size, offsets);
        self.log(Call::TraversePattern(core, size, offsets.to_vec(), cycles));
        cycles
    }
    fn supports_messaging(&self) -> bool {
        self.inner.supports_messaging()
    }
    fn message_latency_us(&mut self, a: CoreId, b: CoreId, size: usize) -> f64 {
        let us = self.inner.message_latency_us(a, b, size);
        self.log(Call::Message(a, b, size, us));
        us
    }
    fn concurrent_message_latency_us(
        &mut self,
        pairs: &[(CoreId, CoreId)],
        size: usize,
    ) -> Vec<f64> {
        let us = self.inner.concurrent_message_latency_us(pairs, size);
        self.log(Call::ConcurrentMessage(pairs.to_vec(), size, us.clone()));
        us
    }
    fn supports_coherence_probes(&self) -> bool {
        self.inner.supports_coherence_probes()
    }
    fn shared_stream_cycles(&mut self, buffer_bytes: usize, jobs: &[SharedStreamJob]) -> Vec<f64> {
        let cycles = self.inner.shared_stream_cycles(buffer_bytes, jobs);
        self.log(Call::SharedStream(
            buffer_bytes,
            jobs.to_vec(),
            cycles.clone(),
        ));
        cycles
    }
    fn take_coherence_traffic(&mut self) -> Option<CoherenceTraffic> {
        let traffic = self.inner.take_coherence_traffic();
        self.log(Call::TakeTraffic(traffic));
        traffic
    }
    fn coherence_traffic_total(&self) -> Option<CoherenceTraffic> {
        let traffic = self.inner.coherence_traffic_total();
        self.log(Call::TrafficTotal(traffic));
        traffic
    }
    fn coherence_params(&self) -> Option<CoherenceSpec> {
        self.inner.coherence_params()
    }
    fn elapsed_seconds(&self) -> f64 {
        let seconds = self.inner.elapsed_seconds();
        self.log(Call::Elapsed(seconds));
        seconds
    }
}

/// A platform that answers every call from a [`Recording`], checking that
/// the call and its arguments are the recorded ones.
pub struct Replay<'a> {
    recording: &'a Recording,
    next: Cell<usize>,
    mismatches: Cell<usize>,
}

impl<'a> Replay<'a> {
    pub fn new(recording: &'a Recording) -> Self {
        Self {
            recording,
            next: Cell::new(0),
            mismatches: Cell::new(0),
        }
    }

    /// Calls that differed from the recording, plus recorded calls the
    /// run never made.
    pub fn mismatches(&self) -> usize {
        self.mismatches.get()
            + (self.recording.calls.len() - self.next.get().min(self.recording.calls.len()))
    }

    /// The recorded answer when `pick` accepts the next recorded call;
    /// otherwise count a mismatch and answer `fallback`, so the suite runs
    /// on to a report that cannot equal the live one.
    fn answer<T>(&self, pick: impl FnOnce(&Call) -> Option<T>, fallback: T) -> T {
        let at = self.next.get();
        self.next.set(at + 1);
        match self.recording.calls.get(at).and_then(pick) {
            Some(answer) => answer,
            None => {
                self.mismatches.set(self.mismatches.get() + 1);
                fallback
            }
        }
    }
}

impl Platform for Replay<'_> {
    fn name(&self) -> &str {
        &self.recording.name
    }
    fn num_cores(&self) -> usize {
        self.recording.num_cores
    }
    fn total_cores(&self) -> usize {
        self.recording.total_cores
    }
    fn page_size(&self) -> usize {
        self.recording.page_size
    }
    fn traverse_cycles(&mut self, core: CoreId, size: usize, stride: usize) -> f64 {
        self.answer(
            |call| match call {
                Call::Traverse(c, s, t, cycles) if (*c, *s, *t) == (core, size, stride) => {
                    Some(*cycles)
                }
                _ => None,
            },
            f64::NAN,
        )
    }
    fn traverse_concurrent_cycles(&mut self, jobs: &[TraverseJob], stride: usize) -> Vec<f64> {
        self.answer(
            |call| match call {
                Call::TraverseConcurrent(j, t, cycles) if j == jobs && *t == stride => {
                    Some(cycles.clone())
                }
                _ => None,
            },
            vec![f64::NAN; jobs.len()],
        )
    }
    fn copy_bandwidth_gbs(&mut self, active: &[CoreId]) -> Vec<f64> {
        self.answer(
            |call| match call {
                Call::CopyBandwidth(a, gbs) if a == active => Some(gbs.clone()),
                _ => None,
            },
            vec![f64::NAN; active.len()],
        )
    }
    fn traverse_pattern_cycles(&mut self, core: CoreId, size: usize, offsets: &[u64]) -> f64 {
        self.answer(
            |call| match call {
                Call::TraversePattern(c, s, o, cycles)
                    if (*c, *s) == (core, size) && o == offsets =>
                {
                    Some(*cycles)
                }
                _ => None,
            },
            f64::NAN,
        )
    }
    fn supports_messaging(&self) -> bool {
        self.recording.messaging
    }
    fn message_latency_us(&mut self, a: CoreId, b: CoreId, size: usize) -> f64 {
        self.answer(
            |call| match call {
                Call::Message(x, y, s, us) if (*x, *y, *s) == (a, b, size) => Some(*us),
                _ => None,
            },
            f64::NAN,
        )
    }
    fn concurrent_message_latency_us(
        &mut self,
        pairs: &[(CoreId, CoreId)],
        size: usize,
    ) -> Vec<f64> {
        self.answer(
            |call| match call {
                Call::ConcurrentMessage(p, s, us) if p == pairs && *s == size => Some(us.clone()),
                _ => None,
            },
            vec![f64::NAN; pairs.len()],
        )
    }
    fn supports_coherence_probes(&self) -> bool {
        self.recording.coherence_probes
    }
    fn shared_stream_cycles(&mut self, buffer_bytes: usize, jobs: &[SharedStreamJob]) -> Vec<f64> {
        self.answer(
            |call| match call {
                Call::SharedStream(b, j, cycles) if *b == buffer_bytes && j == jobs => {
                    Some(cycles.clone())
                }
                _ => None,
            },
            vec![f64::NAN; jobs.len()],
        )
    }
    fn take_coherence_traffic(&mut self) -> Option<CoherenceTraffic> {
        self.answer(
            |call| match call {
                Call::TakeTraffic(traffic) => Some(*traffic),
                _ => None,
            },
            None,
        )
    }
    fn coherence_traffic_total(&self) -> Option<CoherenceTraffic> {
        self.answer(
            |call| match call {
                Call::TrafficTotal(traffic) => Some(*traffic),
                _ => None,
            },
            None,
        )
    }
    fn coherence_params(&self) -> Option<CoherenceSpec> {
        self.recording.coherence_params
    }
    fn elapsed_seconds(&self) -> f64 {
        self.answer(
            |call| match call {
                Call::Elapsed(seconds) => Some(*seconds),
                _ => None,
            },
            f64::NAN,
        )
    }
}

/// Span names for the seven measurement calls, in trait order.
pub type CallNames = [&'static str; 7];

/// Names when the platform underneath is the simulator.
pub const SIM_CALLS: CallNames = [
    "sim.traverse",
    "sim.traverse_concurrent",
    "sim.copy_bandwidth",
    "sim.traverse_pattern",
    "net.message",
    "net.concurrent_message",
    "sim.shared_stream",
];

/// Names when the platform underneath is a [`Replay`]: no call reaches
/// `sim` or `net`, and the spans must not say one did.
pub const REPLAY_CALLS: CallNames = ["harness.replay_call"; 7];

/// Decorator that puts a span around each of the seven measurement calls.
/// The cheap getters and ledger reads pass straight through.
pub struct Traced<'a> {
    inner: &'a mut dyn Platform,
    tracer: &'a mut Tracer,
    names: &'static CallNames,
}

impl<'a> Traced<'a> {
    pub fn new(
        inner: &'a mut dyn Platform,
        tracer: &'a mut Tracer,
        names: &'static CallNames,
    ) -> Self {
        Self {
            inner,
            tracer,
            names,
        }
    }
}

impl Platform for Traced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }
    fn total_cores(&self) -> usize {
        self.inner.total_cores()
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn traverse_cycles(&mut self, core: CoreId, size: usize, stride: usize) -> f64 {
        let inner = &mut *self.inner;
        self.tracer
            .span(self.names[0], |_| inner.traverse_cycles(core, size, stride))
    }
    fn traverse_concurrent_cycles(&mut self, jobs: &[TraverseJob], stride: usize) -> Vec<f64> {
        let inner = &mut *self.inner;
        self.tracer.span(self.names[1], |_| {
            inner.traverse_concurrent_cycles(jobs, stride)
        })
    }
    fn copy_bandwidth_gbs(&mut self, active: &[CoreId]) -> Vec<f64> {
        let inner = &mut *self.inner;
        self.tracer
            .span(self.names[2], |_| inner.copy_bandwidth_gbs(active))
    }
    fn traverse_pattern_cycles(&mut self, core: CoreId, size: usize, offsets: &[u64]) -> f64 {
        let inner = &mut *self.inner;
        self.tracer.span(self.names[3], |_| {
            inner.traverse_pattern_cycles(core, size, offsets)
        })
    }
    fn supports_messaging(&self) -> bool {
        self.inner.supports_messaging()
    }
    fn message_latency_us(&mut self, a: CoreId, b: CoreId, size: usize) -> f64 {
        let inner = &mut *self.inner;
        self.tracer
            .span(self.names[4], |_| inner.message_latency_us(a, b, size))
    }
    fn concurrent_message_latency_us(
        &mut self,
        pairs: &[(CoreId, CoreId)],
        size: usize,
    ) -> Vec<f64> {
        let inner = &mut *self.inner;
        self.tracer.span(self.names[5], |_| {
            inner.concurrent_message_latency_us(pairs, size)
        })
    }
    fn supports_coherence_probes(&self) -> bool {
        self.inner.supports_coherence_probes()
    }
    fn shared_stream_cycles(&mut self, buffer_bytes: usize, jobs: &[SharedStreamJob]) -> Vec<f64> {
        let inner = &mut *self.inner;
        self.tracer.span(self.names[6], |_| {
            inner.shared_stream_cycles(buffer_bytes, jobs)
        })
    }
    fn take_coherence_traffic(&mut self) -> Option<CoherenceTraffic> {
        self.inner.take_coherence_traffic()
    }
    fn coherence_traffic_total(&self) -> Option<CoherenceTraffic> {
        self.inner.coherence_traffic_total()
    }
    fn coherence_params(&self) -> Option<CoherenceSpec> {
        self.inner.coherence_params()
    }
    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::{run_suite, SimPlatform, SuiteConfig};

    fn live() -> SimPlatform {
        SimPlatform::tiny_cluster().with_noise(0.003).with_seed(5)
    }

    fn config() -> SuiteConfig {
        SuiteConfig {
            run_false_sharing: true,
            ..SuiteConfig::small(256 * 1024)
        }
    }

    #[test]
    fn decorators_are_transparent() {
        let (plain, plain_manifest) = run_suite(&mut live(), &config());

        let mut platform = live();
        let mut recorder = Recorder::new(&mut platform);
        let (recorded, _) = run_suite(&mut recorder, &config());
        assert_eq!(recorded, plain);

        let mut platform = live();
        let mut tracer = Tracer::new();
        tracer.enable(0, 0);
        let (traced, traced_manifest) = run_suite(
            &mut Traced::new(&mut platform, &mut tracer, &SIM_CALLS),
            &config(),
        );
        assert_eq!(traced, plain);
        assert_eq!(traced_manifest.counters, plain_manifest.counters);
        tracer.disable();
        let names: std::collections::BTreeSet<&str> =
            tracer.rows().iter().map(|r| r.name).collect();
        for expected in [
            "sim.traverse",
            "sim.traverse_concurrent",
            "sim.copy_bandwidth",
            "net.message",
            "net.concurrent_message",
            "sim.shared_stream",
        ] {
            assert!(names.contains(expected), "no {expected} span in {names:?}");
        }
    }

    #[test]
    fn replay_reproduces_the_live_report() {
        let mut platform = live();
        let mut recorder = Recorder::new(&mut platform);
        let (live_report, live_manifest) = run_suite(&mut recorder, &config());
        let recording = recorder.finish();
        assert!(recording.calls.len() > 100);

        let mut replay = Replay::new(&recording);
        let (replayed, manifest) = run_suite(&mut replay, &config());
        assert_eq!(replay.mismatches(), 0);
        assert_eq!(replayed, live_report);
        assert_eq!(manifest.counters, live_manifest.counters);
        assert_eq!(manifest.coherence, live_manifest.coherence);
    }

    #[test]
    fn replay_detects_changed_arguments_and_missing_calls() {
        let mut platform = live();
        let mut recorder = Recorder::new(&mut platform);
        let (live_report, _) = run_suite(&mut recorder, &config());
        let recording = recorder.finish();

        // A different sweep asks for different sizes.
        let mut other = config();
        other.mcalibrator.max_size /= 2;
        let mut replay = Replay::new(&recording);
        let (report, _) = run_suite(&mut replay, &other);
        assert!(replay.mismatches() > 0);
        assert_ne!(report, live_report);

        // One argument off by one.
        let mut tampered = recording.clone();
        let first = tampered
            .calls
            .iter_mut()
            .find_map(|c| match c {
                Call::Traverse(_, size, _, _) => Some(size),
                _ => None,
            })
            .unwrap();
        *first += 1;
        let mut replay = Replay::new(&tampered);
        run_suite(&mut replay, &config());
        assert_eq!(replay.mismatches(), 1);

        // A run that stops early leaves recorded calls unanswered.
        let replay = Replay::new(&recording);
        replay.elapsed_seconds();
        assert_eq!(replay.mismatches(), recording.calls.len() - 1);
    }
}
