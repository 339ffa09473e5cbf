//! The benchmark's own spans: one per call it makes into a layer.
//!
//! Spans are recorded from the benchmark's side of each crate boundary —
//! around `run_suite`, around every `Platform` call the suite makes (the
//! [`crate::platform::Traced`] decorator), around every oracle
//! evaluation, every wire request, every search session. Spans inside the
//! crates are a later issue. A layer's *self time* is its span minus the
//! part its children cover.
//!
//! A traced `suite_replay` run closes millions of spans, so the tracer
//! folds each into a per-(name, round, slot) row as it closes — duration,
//! self time, count — and keeps whole spans only for the first
//! [`DUMPED_ROUNDS`] traced rounds, which is what the span dump holds.
//! Everything stays in memory until the run ends.

use crate::timing::SlotSamples;
use serde::Serialize;
use std::time::Instant;

/// How many traced rounds the span dump keeps; the metrics use them all.
pub const DUMPED_ROUNDS: u32 = 3;

/// Name of the root span the harness opens around each slot.
pub const SLOT_ROOT: &str = "harness.slot";

/// One completed span, as dumped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Layer-qualified name (`"sim.traverse"`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index, in the dump, of the span that was open when this one opened.
    pub parent: Option<u32>,
    /// Traced round the span belongs to (0-based among traced rounds).
    pub round: u32,
    /// Slot the span belongs to.
    pub slot: u32,
}

/// The spans of one name within one (round, slot), folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub name: &'static str,
    pub round: u32,
    pub slot: u32,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − children's durations).
    pub self_ns: u64,
    /// Spans folded in.
    pub count: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    /// Σ duration of the children closed so far. Children of one parent
    /// never overlap here (one driving thread; adopted evaluations run
    /// one at a time on one scorer thread), so this is the covered part.
    children_ns: u64,
    /// Where the span sits in `kept`, when the round is being kept.
    kept: Option<u32>,
}

/// In-memory span recorder. Disabled (the default between traced rounds)
/// it records nothing and [`Tracer::span`] is one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    round: u32,
    slot: u32,
    open: Vec<Open>,
    /// Rows of the slot being traced; few names, searched linearly.
    current: Vec<Row>,
    rows: Vec<Row>,
    kept: Vec<Span>,
}

impl Tracer {
    /// A disabled tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: false,
            round: 0,
            slot: 0,
            open: Vec::new(),
            current: Vec::new(),
            rows: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record spans from now on, attributing them to `round` and `slot`.
    pub fn enable(&mut self, round: u32, slot: u32) {
        self.enabled = true;
        self.round = round;
        self.slot = slot;
    }

    /// Stop recording and file the slot's rows.
    pub fn disable(&mut self) {
        debug_assert!(self.open.is_empty(), "disabled with spans open");
        self.enabled = false;
        self.rows.append(&mut self.current);
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn open_at(&mut self, name: &'static str, start_ns: u64) {
        let kept = (self.round < DUMPED_ROUNDS).then(|| {
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|o| o.kept),
                round: self.round,
                slot: self.slot,
            });
            (self.kept.len() - 1) as u32
        });
        self.open.push(Open {
            name,
            start_ns,
            children_ns: 0,
            kept,
        });
    }

    fn close_at(&mut self, end_ns: u64) {
        let span = self.open.pop().expect("a span is open");
        let duration = end_ns.saturating_sub(span.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += duration;
        }
        if let Some(index) = span.kept {
            self.kept[index as usize].end_ns = end_ns;
        }
        let row = match self.current.iter_mut().find(|r| r.name == span.name) {
            Some(row) => row,
            None => {
                self.current.push(Row {
                    name: span.name,
                    round: self.round,
                    slot: self.slot,
                    total_ns: 0,
                    self_ns: 0,
                    count: 0,
                });
                self.current.last_mut().expect("just pushed")
            }
        };
        row.total_ns += duration;
        row.self_ns += duration.saturating_sub(span.children_ns);
        row.count += 1;
    }

    /// Run `f` inside a span named `name` (a plain call when disabled).
    /// `f` receives the tracer back so it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = self.ns_since_epoch(Instant::now());
        self.open_at(name, start);
        let result = f(self);
        let end = self.ns_since_epoch(Instant::now());
        self.close_at(end);
        result
    }

    /// Adopt spans timed elsewhere (on a scorer thread, where the tracer
    /// cannot go) as children of the innermost open span.
    pub fn adopt(&mut self, name: &'static str, intervals: &[(Instant, Instant)]) {
        if !self.enabled {
            return;
        }
        for (start, end) in intervals {
            let (start, end) = (self.ns_since_epoch(*start), self.ns_since_epoch(*end));
            self.open_at(name, start);
            self.close_at(end);
        }
    }

    /// The rows of every slot traced so far.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Whole spans of the first [`DUMPED_ROUNDS`] traced rounds, in
    /// opening order (parents precede children).
    pub fn kept_spans(&self) -> &[Span] {
        &self.kept
    }
}

/// The rows of a run — what the per-layer metrics are read from.
#[derive(Debug)]
pub struct Profile<'a> {
    slots: usize,
    rounds: u32,
    rows: &'a [Row],
}

impl<'a> Profile<'a> {
    /// View `rows` of a workload with `slots` slots.
    pub fn new(rows: &'a [Row], slots: usize) -> Self {
        Self {
            slots,
            rounds: rows.iter().map(|r| r.round + 1).max().unwrap_or(0),
            rows,
        }
    }

    fn samples(&self, name: &str, pick: impl Fn(&Row) -> u64) -> SlotSamples {
        let mut samples = SlotSamples::new(self.slots);
        for row in self.rows.iter().filter(|r| r.name == name) {
            samples.0[row.slot as usize].push(pick(row) as f64 / 1e6);
        }
        samples
    }

    /// Milliseconds per round inside spans named `name`: per slot, the
    /// fastest traced round's total; summed over slots — the same
    /// arithmetic as `round_p10_ms`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.samples(name, |r| r.total_ns).fast_sum()
    }

    /// As [`Self::total_ms`], over self time.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.samples(name, |r| r.self_ns).fast_sum()
    }

    /// Spans named `name` per traced round. The work is fixed per seed,
    /// so every round has the same count and the mean is that count.
    pub fn calls_per_round(&self, name: &str) -> f64 {
        let total: u64 = self
            .rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.count)
            .sum();
        total as f64 / f64::from(self.rounds.max(1))
    }

    /// Share of slot time that falls inside a named layer span: the
    /// slot roots' covered part over their duration.
    pub fn coverage(&self) -> f64 {
        let roots = || self.rows.iter().filter(|r| r.name == SLOT_ROOT);
        let total: u64 = roots().map(|r| r.total_ns).sum();
        let own: u64 = roots().map(|r| r.self_ns).sum();
        if total == 0 {
            return 0.0;
        }
        (total - own) as f64 / total as f64
    }
}

#[derive(Serialize)]
struct Dump {
    workload: String,
    seed: u64,
    slots: Vec<String>,
    traced_rounds: u32,
    dumped_rounds: u32,
    spans: Vec<Span>,
}

/// The span dump of a run, as JSON.
pub fn dump_json(workload: &str, seed: u64, slots: &[String], tracer: &Tracer) -> String {
    let traced_rounds = tracer.rows().iter().map(|r| r.round + 1).max().unwrap_or(0);
    let dump = Dump {
        workload: workload.to_string(),
        seed,
        slots: slots.to_vec(),
        traced_rounds,
        dumped_rounds: traced_rounds.min(DUMPED_ROUNDS),
        spans: tracer.kept_spans().to_vec(),
    };
    serde_json::to_string(&dump).expect("dump serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// slot [0,100) ⊃ suite [10,90) ⊃ {traverse [20,40), traverse [50,60)},
    /// then a wire call [90,98) directly under the slot; times × `scale`.
    fn hand_built_slot(tracer: &mut Tracer, round: u32, scale: u64) {
        tracer.enable(round, 0);
        tracer.open_at(SLOT_ROOT, 0);
        tracer.open_at("core.run_suite", 10 * scale);
        tracer.open_at("sim.traverse", 20 * scale);
        tracer.close_at(40 * scale);
        tracer.open_at("sim.traverse", 50 * scale);
        tracer.close_at(60 * scale);
        tracer.close_at(90 * scale);
        tracer.open_at("registry.put", 90 * scale);
        tracer.close_at(98 * scale);
        tracer.close_at(100 * scale);
        tracer.disable();
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new();
        hand_built_slot(&mut tracer, 0, 1);
        let row = |name: &str| *tracer.rows().iter().find(|r| r.name == name).unwrap();
        assert_eq!(
            (row(SLOT_ROOT).total_ns, row(SLOT_ROOT).self_ns),
            (100, 100 - 80 - 8)
        );
        assert_eq!(
            (
                row("core.run_suite").total_ns,
                row("core.run_suite").self_ns
            ),
            (80, 80 - 20 - 10)
        );
        assert_eq!(
            (row("sim.traverse").total_ns, row("sim.traverse").self_ns),
            (30, 30)
        );
        assert_eq!(row("sim.traverse").count, 2);
        assert_eq!(row("registry.put").self_ns, 8);
        let parents: Vec<_> = tracer
            .kept_spans()
            .iter()
            .map(|s| (s.name, s.parent))
            .collect();
        assert_eq!(
            parents,
            [
                (SLOT_ROOT, None),
                ("core.run_suite", Some(0)),
                ("sim.traverse", Some(1)),
                ("sim.traverse", Some(1)),
                ("registry.put", Some(0)),
            ]
        );
    }

    #[test]
    fn profile_takes_the_fastest_round_per_slot_and_sums_slots() {
        // Three rounds, the third twice as slow.
        let mut tracer = Tracer::new();
        hand_built_slot(&mut tracer, 0, 1_000_000);
        hand_built_slot(&mut tracer, 1, 1_000_000);
        hand_built_slot(&mut tracer, 2, 2_000_000);
        let profile = Profile::new(tracer.rows(), 1);
        assert_eq!(profile.total_ms("sim.traverse"), 30.0);
        assert_eq!(profile.self_ms("core.run_suite"), 50.0);
        assert_eq!(profile.total_ms("core.run_suite"), 80.0);
        assert_eq!(profile.calls_per_round("sim.traverse"), 2.0);
        assert_eq!(profile.calls_per_round("net.message"), 0.0);
        assert_eq!(profile.total_ms("net.message"), 0.0);
        // Covered: (80 + 8) of every 100.
        assert!((profile.coverage() - 0.88).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_real_spans_and_adopts_foreign_intervals() {
        let mut tracer = Tracer::new();
        tracer.span("ignored", |_| ());
        assert!(
            tracer.kept_spans().is_empty(),
            "a disabled tracer records nothing"
        );
        tracer.enable(2, 1);
        tracer.span("outer", |t| {
            t.span("inner", |_| ());
            let now = Instant::now();
            t.adopt("foreign", &[(now, now), (now, now)]);
        });
        tracer.disable();
        let spans = tracer.kept_spans();
        assert_eq!(
            spans.iter().map(|s| (s.name, s.parent)).collect::<Vec<_>>(),
            [
                ("outer", None),
                ("inner", Some(0)),
                ("foreign", Some(0)),
                ("foreign", Some(0))
            ]
        );
        assert!(spans.iter().all(|s| s.round == 2 && s.slot == 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(
            tracer
                .rows()
                .iter()
                .find(|r| r.name == "foreign")
                .unwrap()
                .count,
            2
        );
    }

    #[test]
    fn dump_keeps_the_first_rounds_and_metrics_keep_all() {
        let mut tracer = Tracer::new();
        for round in 0..DUMPED_ROUNDS + 2 {
            hand_built_slot(&mut tracer, round, 1);
        }
        assert_eq!(tracer.kept_spans().len(), DUMPED_ROUNDS as usize * 5);
        assert_eq!(tracer.rows().len(), (DUMPED_ROUNDS as usize + 2) * 4);
        let json = dump_json("w", 7, &["s".to_string()], &tracer);
        assert!(json.starts_with(&format!(
            "{{\"workload\":\"w\",\"seed\":7,\"slots\":[\"s\"],\"traced_rounds\":{},\"dumped_rounds\":{},\"spans\":[{{\"name\":\"harness.slot\"",
            DUMPED_ROUNDS + 2,
            DUMPED_ROUNDS
        )));
    }
}
