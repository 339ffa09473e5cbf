//! `registry_session`: the serving layer alone. One closed-loop client on
//! one connection — an autotuned application waits for its answer before
//! it asks again — and one cold session per round against a fresh `serve`
//! over an empty store, one slot per phase.
//!
//! `sim`, `core` and `stats` do nothing here. Writes sit beside reads and
//! memo misses beside hits as separate slots, so a gain for one that
//! costs the other shows in the slots and nets out in `round_p10_ms`.
//!
//! The process is pinned to one CPU: the session's three threads hand
//! work to one another, and spread over two vCPUs every hand-over is a
//! cross-CPU wake-up — host scheduling, not program time
//! (`registry.unpinned_round_ms` measures it). An open-loop,
//! many-connection workload is left to a later issue: it needs more
//! connections than this host has CPUs and per-stage server timing.

use crate::direct;
use crate::harness::{self, Slot, TracedRun, Workload};
use crate::machines::{mix, registry_population};
use crate::metrics::Values;
use crate::sys::{self, CpuSet, Scratch};
use crate::timing::{nearest_rank, SlotSamples, FAST_STATE};
use crate::trace::Tracer;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use servet_core::{run_suite, SimPlatform, SuiteConfig};
use servet_registry::{
    serve, AdviceQuery, Registry, Request, Response, ServerConfig, ServerHandle, ServerStats,
    TuneQuery,
};
use servet_tune::compare::ground_truth_profile;
use servet_tune::{Strategy, TuneOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

/// Profiles a session stores.
const PROFILES: usize = 24;

/// Rounds `registry.unpinned_round_ms` is taken over.
const UNPINNED_ROUNDS: usize = 10;

/// The request phases of a session, between `start` and `shutdown`:
/// slot name, span name, per-request metric.
const PHASES: [(&str, &str, &str); 10] = [
    ("put_new", "registry.put", "registry.put_new_us"),
    ("get_cold", "registry.get", "registry.get_cold_us"),
    ("get_warm", "registry.get", "registry.get_warm_us"),
    ("advise_miss", "registry.advise", "registry.advise_miss_us"),
    ("advise_hit", "registry.advise", "registry.advise_hit_us"),
    ("tune_miss", "registry.tune", "registry.tune_miss_us"),
    ("tune_hit", "registry.tune", "registry.tune_hit_us"),
    ("put_again", "registry.put", "registry.put_again_us"),
    ("list", "registry.list", "registry.list_us"),
    ("stats", "registry.stats", "registry.stats_us"),
];
const STATS_PHASE: usize = 9;
const START: usize = 0;
const SHUTDOWN: usize = PHASES.len() + 1;

/// The server's own per-operation medians, from the `stats` reply.
const SERVER_OPS: [(&str, &str); 5] = [
    ("put", "registry.server_put_us_p50"),
    ("get", "registry.server_get_us_p50"),
    ("advise", "registry.server_advise_us_p50"),
    ("tune", "registry.server_tune_us_p50"),
    ("list", "registry.server_list_us_p50"),
];

/// The request lines of one phase and the replies they must draw.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Newline-terminated request lines.
    pub requests: Vec<String>,
    /// Reply lines, without the newline.
    pub expected: Vec<String>,
}

/// The requests of every phase, in `seed`'s order. What they contain does
/// not depend on the seed.
pub fn session_requests(seed: u64) -> Vec<Vec<Request>> {
    let profiles: Vec<_> = registry_population(PROFILES)
        .iter()
        .map(ground_truth_profile)
        .collect();
    let digests: Vec<String> = profiles
        .iter()
        .map(servet_registry::profile_digest)
        .collect();
    let put = || -> Vec<Request> {
        profiles
            .iter()
            .map(|p| Request::Put {
                profile: Box::new(p.clone()),
                name: None,
            })
            .collect()
    };
    let get: Vec<Request> = digests
        .iter()
        .map(|d| Request::Get { key: d.clone() })
        .collect();
    // Tile sizes for both cache levels and two element sizes, and the
    // padding: every ground-truth profile can answer all five. (`threads`
    // and `bcast` need memory and communication stages these profiles do
    // not have, and no slot may fail by design.)
    let mut queries: Vec<AdviceQuery> = Vec::new();
    for level in [1, 2] {
        for elem_size in [4, 8] {
            queries.push(direct::tile_query(level, elem_size));
        }
    }
    queries.push(AdviceQuery::Padding);
    let advise: Vec<Request> = digests
        .iter()
        .flat_map(|d| {
            queries.iter().map(move |q| Request::Advise {
                key: d.clone(),
                query: q.clone(),
            })
        })
        .collect();
    let tune: Vec<Request> = digests
        .iter()
        .map(|d| Request::Tune {
            key: d.clone(),
            query: TuneQuery {
                space: None,
                options: TuneOptions::new(Strategy::Line),
                n: 64,
            },
        })
        .collect();
    let times = |requests: &[Request], n: usize| -> Vec<Request> {
        (0..n).flat_map(|_| requests.iter().cloned()).collect()
    };
    let mut phases = vec![
        put(),
        get.clone(),
        times(&get, 4),
        advise.clone(),
        times(&advise, 3),
        tune.clone(),
        times(&tune, 3),
        put(),
        vec![Request::List; 4],
        vec![Request::Stats; 8],
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 0x5E55));
    for phase in &mut phases {
        phase.shuffle(&mut rng);
    }
    phases
}

/// What byte equality with the in-process registry cannot show, checked
/// on the in-process replies themselves: no scripted request fails; a
/// `get` after `put` returns the profile under a stable digest (the key
/// is the content's own hash); `list` holds every stored entry, sorted by
/// digest.
fn check_reply(get_key: Option<&str>, reply: &Response) -> Result<(), String> {
    match reply {
        Response::Error { error } => Err(format!("a scripted request fails: {error}")),
        Response::Profile { digest, profile } => {
            if get_key == Some(digest.as_str())
                && servet_registry::profile_digest(profile) == *digest
            {
                Ok(())
            } else {
                Err(format!("get {get_key:?} returned a profile under {digest}"))
            }
        }
        Response::Listing { entries } => {
            if entries.len() == PROFILES && entries.windows(2).all(|w| w[0].digest < w[1].digest) {
                Ok(())
            } else {
                Err(format!(
                    "list returned {} entries, or unsorted ones",
                    entries.len()
                ))
            }
        }
        _ => Ok(()),
    }
}

/// A `stats` reply is right when it parses, knows every stored profile,
/// and its request count did not run backwards.
fn check_stats(lines: &[String]) -> Option<ServerStats> {
    let mut last: Option<ServerStats> = None;
    for line in lines {
        let Ok(Response::Stats { stats }) = serde_json::from_str::<Response>(line) else {
            return None;
        };
        if stats.profiles != PROFILES || last.as_ref().is_some_and(|l| stats.requests <= l.requests)
        {
            return None;
        }
        last = Some(stats);
    }
    last
}

/// One blocking NDJSON connection.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(server: &ServerHandle) -> std::io::Result<Self> {
        let stream = TcpStream::connect(server.addr())?;
        stream.set_nodelay(true)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line, wait for its reply line.
    fn exchange(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        if reply.pop() != Some('\n') {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }
}

pub struct RegistrySession {
    store: PathBuf,
    scripts: Vec<Script>,
    session: Option<(ServerHandle, Wire)>,
    /// The last `stats` reply of the latest checked round.
    last_stats: Option<ServerStats>,
    /// Per [`SERVER_OPS`] entry, the server-side median of each round.
    server_p50_us: SlotSamples,
}

pub enum Output {
    /// `start` and `shutdown`: whether it worked.
    Lifecycle(Result<(), String>),
    /// A request phase: the reply lines.
    Replies(Vec<String>),
}

impl Workload for RegistrySession {
    type Output = Output;
    const NAME: &'static str = "registry_session";
    const SHUFFLED: bool = false;

    fn build(seed: u64, scratch: &Scratch) -> Result<Self, String> {
        sys::pin()?;
        // The replies come from an in-process registry over a store of
        // its own, taken through the same session.
        let shadow_dir = scratch.join("session-shadow");
        let _ = std::fs::remove_dir_all(&shadow_dir);
        let shadow =
            Registry::open(&shadow_dir).map_err(|e| format!("{}: {e}", shadow_dir.display()))?;
        let scripts = session_requests(seed)
            .into_iter()
            .map(|phase| {
                let mut script = Script {
                    requests: Vec::new(),
                    expected: Vec::new(),
                };
                for request in phase {
                    let mut line = serde_json::to_string(&request).expect("request serializes");
                    line.push('\n');
                    script.requests.push(line);
                    let key = match &request {
                        Request::Get { key } => Some(key.clone()),
                        _ => None,
                    };
                    let reply = shadow.handle(request);
                    check_reply(key.as_deref(), &reply)?;
                    script
                        .expected
                        .push(serde_json::to_string(&reply).expect("reply serializes"));
                }
                Ok(script)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            store: scratch.join("session-store"),
            scripts,
            session: None,
            last_stats: None,
            server_p50_us: SlotSamples::new(SERVER_OPS.len()),
        })
    }

    fn slots(&self) -> Vec<Slot> {
        let mut slots = vec![Slot::new("start", 1)];
        for ((name, _, _), script) in PHASES.iter().zip(&self.scripts) {
            slots.push(Slot::new(*name, script.requests.len() as u32));
        }
        slots.push(Slot::new("shutdown", 1));
        slots
    }

    fn run_slot(&mut self, slot: usize, tracer: &mut Tracer) -> Output {
        match slot {
            START => Output::Lifecycle(tracer.span("registry.start", |_| {
                let registry = Registry::open(&self.store).map_err(|e| format!("open: {e}"))?;
                let config = ServerConfig {
                    workers: 2,
                    thread_prefix: "bench-session".into(),
                    ..ServerConfig::default()
                };
                let server = serve(Arc::new(registry), "127.0.0.1:0", config)
                    .map_err(|e| format!("serve: {e}"))?;
                let wire = Wire::connect(&server).map_err(|e| format!("connect: {e}"))?;
                self.session = Some((server, wire));
                Ok(())
            })),
            SHUTDOWN => Output::Lifecycle(tracer.span("registry.shutdown", |_| {
                let (server, wire) = self.session.take().ok_or("no session to shut down")?;
                drop(wire);
                server.shutdown();
                Ok(())
            })),
            _ => {
                let (_, span, _) = PHASES[slot - 1];
                let Some((_, wire)) = self.session.as_mut() else {
                    return Output::Replies(Vec::new());
                };
                Output::Replies(
                    self.scripts[slot - 1]
                        .requests
                        .iter()
                        .map(|request| {
                            tracer.span(span, |_| {
                                wire.exchange(request)
                                    .unwrap_or_else(|e| format!("wire: {e}"))
                            })
                        })
                        .collect(),
                )
            }
        }
    }

    fn end_round(&mut self) {
        // A round that failed half-way may have left a server running.
        if let Some((server, wire)) = self.session.take() {
            drop(wire);
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }

    fn adopt_warm_up(&mut self, outputs: Vec<Output>) -> Result<(), String> {
        for (slot, output) in outputs.into_iter().enumerate() {
            if !self.check(slot, output) {
                return Err(format!(
                    "{}: the wire's replies are not Registry::handle's",
                    self.slots()[slot].name
                ));
            }
        }
        self.server_p50_us = SlotSamples::new(SERVER_OPS.len());
        Ok(())
    }

    fn check(&mut self, slot: usize, output: Output) -> bool {
        match output {
            Output::Lifecycle(result) => result.is_ok(),
            Output::Replies(lines) if slot - 1 == STATS_PHASE => {
                let Some(stats) = check_stats(&lines)
                    .filter(|_| lines.len() == self.scripts[STATS_PHASE].requests.len())
                else {
                    return false;
                };
                for (samples, (op, _)) in self.server_p50_us.0.iter_mut().zip(SERVER_OPS) {
                    if let Some(latency) = stats.ops.iter().find(|o| o.op == op) {
                        samples.push(latency.p50_ns as f64 / 1e3);
                    }
                }
                self.last_stats = Some(stats);
                true
            }
            // Byte for byte what the in-process registry answered; a
            // malformed or `busy:` line cannot be.
            Output::Replies(lines) => lines == self.scripts[slot - 1].expected,
        }
    }

    fn direct_calls(&mut self, values: &mut Values) {
        // The same round with the affinity left alone: what cross-CPU
        // wake-ups add. Each round starts its own server, whose threads
        // inherit the mask in force when they start.
        let pinned = CpuSet::current().expect("affinity was readable at set-up");
        sys::unpinned()
            .expect("build pinned")
            .apply()
            .expect("restoring the original mask");
        let slots = self.slots().len();
        let order: Vec<usize> = (0..slots).collect();
        let mut samples = SlotSamples::new(slots);
        let mut tracer = Tracer::new();
        for _ in 0..UNPINNED_ROUNDS {
            let (_, failed) = harness::run_round(self, &order, &mut tracer, None, &mut samples);
            assert_eq!(failed, 0, "an unpinned round failed its checks");
        }
        pinned.apply().expect("pinning again");
        values.set("registry.unpinned_round_ms", samples.fast_sum());
        self.server_p50_us = SlotSamples::new(SERVER_OPS.len());

        let dir = self.store.with_file_name("session-direct");
        let _ = std::fs::remove_dir_all(&dir);
        let registry =
            Registry::open(&dir).expect("opening a registry under the scratch directory");
        let population = registry_population(1);
        direct::registry_pieces(&registry, &ground_truth_profile(&population[0]), values);
        let _ = std::fs::remove_dir_all(&dir);

        // A measured profile with every stage, so that every advice kind
        // has an answer.
        let suite = SuiteConfig {
            run_false_sharing: true,
            ..SuiteConfig::small(256 * 1024)
        };
        let measured = run_suite(&mut SimPlatform::tiny_cluster(), &suite)
            .0
            .profile;
        direct::advice_battery(&measured, values);
    }

    fn layer_metrics(&mut self, run: &TracedRun, values: &mut Values) {
        let slots = self.slots();
        let per_request = |slot: usize| {
            nearest_rank(&run.untraced.0[slot], FAST_STATE).unwrap_or(0.0) * 1e3
                / f64::from(slots[slot].ops)
        };
        values.set("registry.start_us", per_request(START));
        values.set("registry.shutdown_us", per_request(SHUTDOWN));
        for (phase, (_, _, metric)) in PHASES.iter().enumerate() {
            values.set(metric, per_request(phase + 1));
        }
        for (samples, (_, metric)) in self.server_p50_us.0.iter().zip(SERVER_OPS) {
            values.set(metric, nearest_rank(samples, FAST_STATE).unwrap_or(0.0));
        }
        values.set(
            "registry.wire_overhead_us",
            values.get("registry.get_warm_us") - values.get("registry.handle_get_us"),
        );
        let requests: usize = self.scripts.iter().map(|s| s.requests.len()).sum();
        // Request lines and reply lines, newlines included. `stats` replies
        // carry latencies and vary in length, so only their requests count.
        let replied = self
            .scripts
            .iter()
            .enumerate()
            .filter(|(phase, _)| *phase != STATS_PHASE);
        let bytes: usize = self
            .scripts
            .iter()
            .flat_map(|s| &s.requests)
            .map(String::len)
            .sum::<usize>()
            + replied
                .flat_map(|(_, s)| &s.expected)
                .map(|line| line.len() + 1)
                .sum::<usize>();
        values.set("registry.requests", requests as f64);
        values.set("registry.bytes_per_req", bytes as f64 / requests as f64);
        if let Some(stats) = &self.last_stats {
            let share = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
            values.set("registry.busy_rejects", stats.accept.rejected as f64);
            values.set(
                "registry.advice_memo_hit_frac",
                share(stats.advice_hits, stats.advice_misses),
            );
            values.set(
                "registry.profile_cache_hit_frac",
                share(stats.profile_hits, stats.profile_misses),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Order-free fingerprint of a phase.
    fn sorted(phase: &[Request]) -> Vec<String> {
        let mut lines: Vec<String> = phase
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn scripts_hold_the_same_requests_in_another_order_for_another_seed() {
        let a = session_requests(1);
        let b = session_requests(2);
        assert_eq!(a, session_requests(1));
        assert_eq!(
            a.iter().map(Vec::len).collect::<Vec<_>>(),
            [24, 24, 96, 120, 360, 24, 72, 24, 4, 8]
        );
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 756);
        assert_eq!(a.len(), PHASES.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(sorted(x), sorted(y));
        }
        assert_ne!(a, b, "another seed must give another order");
    }

    #[test]
    fn stats_replies_must_parse_and_count_forwards() {
        let reply = |requests: u64, profiles: usize| {
            serde_json::to_string(&Response::Stats {
                stats: ServerStats {
                    requests,
                    profiles,
                    ..ServerStats::default()
                },
            })
            .unwrap()
        };
        assert_eq!(
            check_stats(&[reply(5, PROFILES), reply(6, PROFILES)])
                .unwrap()
                .requests,
            6
        );
        assert!(check_stats(&[reply(5, PROFILES), reply(5, PROFILES)]).is_none());
        assert!(check_stats(&[reply(5, PROFILES - 1)]).is_none());
        assert!(
            check_stats(&["{\"reply\":\"error\",\"error\":\"busy: retry\"}".to_string()]).is_none()
        );
        assert!(check_stats(&["not json".to_string()]).is_none());
    }
}
