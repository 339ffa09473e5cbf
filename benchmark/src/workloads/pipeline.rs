//! `pipeline`: the path ROADMAP aim 1 names, one machine per slot — spec
//! → `Machine::with_seed` → `run_suite` → profile → `put` → `advise` →
//! `tune` over a loopback `serve`.
//!
//! Simulator traversal is at least nine tenths of it at both MB (Dempsey)
//! and KB (zoo) cache scale, so a simulator change shows here and an
//! analysis or serving change must not. It is also the only place the
//! registry is used warm, with long compute between requests.

use super::suite::{self, StageSamples, SuiteOutput};
use crate::direct;
use crate::harness::{Slot, TracedRun, Workload};
use crate::machines::{six_machines, MachineCase};
use crate::metrics::Values;
use crate::platform::SIM_CALLS;
use crate::sys::Scratch;
use crate::timing::{nearest_rank, FAST_STATE};
use crate::trace::Tracer;
use servet_core::profile::MachineProfile;
use servet_registry::{
    serve, Registry, RegistryClient, Request, Response, ServerConfig, ServerHandle, TuneQuery,
};
use servet_tune::{Strategy, TuneOptions};
use std::sync::Arc;

/// Spans around the three wire requests of a slot, in order.
const WIRE: [&str; 3] = ["registry.put", "registry.advise", "registry.tune"];

pub struct Pipeline {
    seed: u64,
    cases: Vec<MachineCase>,
    server: ServerHandle,
    client: RegistryClient,
    /// An in-process registry over a store of its own, given the same
    /// requests: what the wire replies are checked against.
    shadow: Registry,
    reference: Vec<SuiteOutput>,
    /// The replies of a warm registry (every later round re-sends what
    /// the warm-up round sent, so the memos hit).
    expected: Vec<Vec<Response>>,
    stages: StageSamples,
}

pub struct Output {
    suite: SuiteOutput,
    replies: [Response; 3],
}

/// A machine's profile goes through three requests: this `put`, then
/// [`keyed_requests`] under the digest the `put` returned.
fn put_request(profile: &MachineProfile) -> Request {
    Request::Put {
        profile: Box::new(profile.clone()),
        name: None,
    }
}

/// `advise` and `tune` for the profile stored under `key`. Every profile
/// has an L1, so neither fails by design.
fn keyed_requests(key: &str) -> [Request; 2] {
    [
        Request::Advise {
            key: key.to_string(),
            query: direct::tile_query(1, 8),
        },
        Request::Tune {
            key: key.to_string(),
            query: TuneQuery {
                space: None,
                options: TuneOptions::new(Strategy::Line),
                n: 64,
            },
        },
    ]
}

/// The digest a `put` reply carries; empty when it carries none, which
/// makes the requests keyed by it fail visibly.
fn stored_digest(reply: &Response) -> &str {
    match reply {
        Response::Stored { digest } => digest,
        _ => "",
    }
}

impl Workload for Pipeline {
    type Output = Output;
    const NAME: &'static str = "pipeline";
    const SHUFFLED: bool = true;

    fn build(seed: u64, scratch: &Scratch) -> Result<Self, String> {
        let open = |name: &str| {
            let dir = scratch.join(name);
            let _ = std::fs::remove_dir_all(&dir);
            Registry::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))
        };
        let config = ServerConfig {
            workers: 2,
            thread_prefix: "bench-pipeline".into(),
            ..ServerConfig::default()
        };
        let server = serve(Arc::new(open("pipeline-store")?), "127.0.0.1:0", config)
            .map_err(|e| format!("serve: {e}"))?;
        let client = RegistryClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let cases = six_machines();
        Ok(Self {
            seed,
            stages: StageSamples::new(cases.len()),
            cases,
            server,
            client,
            shadow: open("pipeline-shadow")?,
            reference: Vec::new(),
            expected: Vec::new(),
        })
    }

    fn slots(&self) -> Vec<Slot> {
        self.cases
            .iter()
            .map(|c| Slot::new(c.name.clone(), 1))
            .collect()
    }

    fn run_slot(&mut self, slot: usize, tracer: &mut Tracer) -> Output {
        let case = &self.cases[slot];
        let mut platform = tracer.span("sim.machine_new", |_| case.platform(self.seed));
        let suite = suite::run_one(&mut platform, &case.suite, tracer, &SIM_CALLS);

        let client = &mut self.client;
        let mut call = |name: &'static str, request: &Request| {
            tracer.span(name, |_| {
                client.call(request).unwrap_or_else(|e| Response::Error {
                    error: format!("wire: {e}"),
                })
            })
        };
        let stored = call(WIRE[0], &put_request(&suite.report.profile));
        let [advise, tune] = keyed_requests(stored_digest(&stored));
        let advice = call(WIRE[1], &advise);
        let tuned = call(WIRE[2], &tune);
        Output {
            suite,
            replies: [stored, advice, tuned],
        }
    }

    fn adopt_warm_up(&mut self, outputs: Vec<Output>) -> Result<(), String> {
        for (case, output) in self.cases.iter().zip(&outputs) {
            let profile = &output.suite.report.profile;
            let digest = servet_registry::profile_digest(profile);
            let requests = || {
                [put_request(profile)]
                    .into_iter()
                    .chain(keyed_requests(&digest))
            };
            for (request, reply) in requests().zip(&output.replies) {
                let in_process = self.shadow.handle(request);
                if in_process != *reply || matches!(reply, Response::Error { .. }) {
                    return Err(format!(
                        "{}: the wire answered {reply:?}, Registry::handle {in_process:?}",
                        case.name
                    ));
                }
            }
            let warm: Vec<Response> = requests()
                .map(|request| self.shadow.handle(request))
                .collect();
            self.expected.push(warm);
        }
        self.reference = outputs.into_iter().map(|o| o.suite).collect();
        suite::check_accuracy(&self.cases, &self.reference.iter().collect::<Vec<_>>())
    }

    fn check(&mut self, slot: usize, output: Output) -> bool {
        // A traced round runs the suite through the `Traced` decorator:
        // equality with the undecorated reference is its transparency.
        let ok = output.suite.same_results(&self.reference[slot])
            && output.replies[..] == self.expected[slot][..];
        if ok {
            self.stages
                .record(slot, std::slice::from_ref(&output.suite));
        }
        ok
    }

    fn direct_calls(&mut self, values: &mut Values) {
        direct::net(values);
    }

    fn layer_metrics(&mut self, run: &TracedRun, values: &mut Values) {
        let profile = run.profile;
        let machines = self.cases.len() as f64;
        for (name, ms, calls) in [
            (
                "sim.traverse",
                "sim.traverse_ms",
                Some("sim.traverse_calls"),
            ),
            (
                "sim.traverse_concurrent",
                "sim.traverse_concurrent_ms",
                Some("sim.traverse_concurrent_calls"),
            ),
            ("sim.traverse_pattern", "sim.traverse_pattern_ms", None),
            ("sim.copy_bandwidth", "sim.copy_bandwidth_ms", None),
            ("sim.shared_stream", "sim.shared_stream_ms", None),
            ("net.message", "net.message_ms", Some("net.message_calls")),
            (
                "net.concurrent_message",
                "net.concurrent_message_ms",
                Some("net.concurrent_message_calls"),
            ),
        ] {
            values.set(ms, profile.total_ms(name));
            if let Some(calls) = calls {
                values.set(calls, profile.calls_per_round(name));
            }
        }
        values.set(
            "sim.machine_new_us",
            profile.total_ms("sim.machine_new") * 1e3 / machines,
        );
        let fastest = |slot: usize| nearest_rank(&run.untraced.0[slot], FAST_STATE).unwrap_or(0.0);
        values.set("sim.suite_dempsey_ms", fastest(0));
        values.set(
            "sim.suite_zoo_kb_ms",
            (2..self.cases.len()).map(fastest).sum::<f64>() / (machines - 2.0),
        );
        values.set(
            "registry.pipeline_wire_ms",
            WIRE.iter().map(|name| profile.total_ms(name)).sum::<f64>() / machines,
        );
        suite::layer_metrics(
            &self.cases,
            &self.reference.iter().collect::<Vec<_>>(),
            &self.stages,
            profile,
            &SIM_CALLS,
            values,
        );
    }

    fn shut_down(self) {
        drop(self.client);
        self.server.shutdown();
    }
}
