//! `servet loadgen`: a multiplexing load generator for the registry
//! server — the measurement half of the event-driven front end.
//!
//! Two kinds of load compose in one run:
//!
//! * **Held connections** (`conns`): opened up front and parked on the
//!   calling thread. A held connection never sends a request, so when
//!   the hold ends one nonblocking read per socket tells its fate: *any*
//!   inbound byte is the server's `busy:` rejection and an EOF is an
//!   eviction — both are counted, making "zero rejects at steady state"
//!   a measurable claim.
//! * **Request traffic** (`ops` over `op_workers` threads): each worker
//!   drives a [`crate::client::RetryingRegistryClient`] (decorrelated
//!   jitter, per-worker seed) in either **closed-loop** mode
//!   (back-to-back, measures service capacity) or **open-loop** mode (a
//!   fixed arrival rate; latency is measured from the *scheduled* send
//!   time, so queueing delay is not hidden — the coordinated-omission
//!   correction).
//!
//! The outcome is a [`LoadgenReport`] with throughput and a
//! p50/p99/p999 latency trajectory; `servet loadgen --out FILE` writes it
//! as JSON ([`LoadgenReport::to_json`]).

use crate::client::{RetryPolicy, RetryingRegistryClient};
use crate::poll::raise_nofile_limit;
use serde::{Deserialize, Serialize};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Connections opened between 1 ms breathers, pacing the SYN storm.
const CONNECT_BATCH: usize = 256;

/// How request traffic is paced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Mode {
    /// Back-to-back: each worker issues its next request the moment the
    /// previous response lands. Measures service capacity.
    Closed,
    /// Fixed arrival rate (total ops/s across all workers): requests
    /// are issued on a schedule and latency is measured from the
    /// scheduled instant, so a stalled server shows up as latency
    /// instead of silently thinning the load.
    Open {
        /// Total target arrival rate, ops per second.
        rate_hz: f64,
    },
}

/// Tunables for [`run`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to aim at.
    pub addr: SocketAddr,
    /// Connections to open and hold for the duration of the run.
    pub conns: usize,
    /// Requests to issue while the connections are held (0 = hold only).
    pub ops: u64,
    /// Threads driving request traffic.
    pub op_workers: usize,
    /// Pacing of the request traffic.
    pub mode: Mode,
    /// How long to hold the connection plateau after the last op (also
    /// the minimum run length — rejects need time to surface).
    pub hold: Duration,
    /// Base seed for the per-worker retry jitter streams.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 7431)),
            conns: 512,
            ops: 0,
            op_workers: 4,
            mode: Mode::Closed,
            hold: Duration::from_secs(2),
            seed: 0x0005_e7e7,
        }
    }
}

/// Latency quantiles over one run's request traffic, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Requests measured.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Worst observed.
    pub max_ns: u64,
}

impl LatencyStats {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u128 = samples.iter().map(|&v| v as u128).sum();
        let at = |q: f64| -> u64 {
            let idx = ((q * (samples.len() - 1) as f64).round() as usize).min(samples.len() - 1);
            samples[idx]
        };
        Self {
            count,
            mean_ns: (sum / count as u128) as u64,
            p50_ns: at(0.50),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
            max_ns: *samples.last().unwrap(),
        }
    }
}

/// What one [`run`] measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Connections requested.
    pub conns_target: usize,
    /// Connections actually established and held.
    pub conns_opened: usize,
    /// Connect attempts that failed outright.
    pub connect_failures: u64,
    /// Held connections that received bytes (the server's `busy:`
    /// rejection — a held connection never asks for anything).
    pub busy_rejects: u64,
    /// Held connections closed under us (EOF or reset).
    pub early_closes: u64,
    /// Requests requested / completed / failed.
    pub ops_requested: u64,
    /// Requests that completed successfully.
    pub ops_done: u64,
    /// Requests that failed even after retries.
    pub ops_failed: u64,
    /// Completed requests per second of request traffic: from the first
    /// request to the last op worker's finish. The hold that follows is
    /// not counted, so the figure measures the server, not `hold`.
    pub throughput_ops_per_s: f64,
    /// Latency quantiles (`None` when `ops == 0`).
    pub latency: Option<LatencyStats>,
    /// Whole-run wall time, seconds.
    pub elapsed_s: f64,
    /// How the request traffic was paced.
    pub mode: Mode,
}

impl LoadgenReport {
    /// Every connection was held to the end and nothing was rejected —
    /// the steady-state acceptance criterion.
    pub fn clean(&self) -> bool {
        self.connect_failures == 0
            && self.busy_rejects == 0
            && self.early_closes == 0
            && self.ops_failed == 0
            && self.conns_opened == self.conns_target
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("loadgen report serializes")
    }
}

/// Drive one load-generation run against `config.addr`.
///
/// Phases: raise the fd limit, establish the connection plateau, fire
/// the request traffic (if any) while the plateau holds, keep holding
/// for [`LoadgenConfig::hold`], read each held connection's fate, then
/// tear down and report.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let started = Instant::now();
    let _ = raise_nofile_limit();

    // Phase 1: the plateau.
    let mut held: Vec<TcpStream> = Vec::with_capacity(config.conns);
    let mut connect_failures = 0u64;
    for i in 0..config.conns {
        if i > 0 && i % CONNECT_BATCH == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        match TcpStream::connect(config.addr) {
            Ok(stream) => {
                stream.set_nonblocking(true)?;
                held.push(stream);
            }
            Err(_) => connect_failures += 1,
        }
    }
    let conns_opened = held.len();

    // Phase 2: request traffic from worker threads while the plateau
    // holds.
    let ops_done = Arc::new(AtomicU64::new(0));
    let ops_failed = Arc::new(AtomicU64::new(0));
    let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let op_phase_start = Instant::now();
    let workers: Vec<_> = if config.ops > 0 {
        let n_workers = config.op_workers.clamp(1, config.ops.min(64) as usize);
        (0..n_workers)
            .map(|w| {
                let addr = config.addr;
                let ops_done = Arc::clone(&ops_done);
                let ops_failed = Arc::clone(&ops_failed);
                let samples = Arc::clone(&samples);
                let mode = config.mode;
                // Spread the total evenly; the first workers absorb the
                // remainder.
                let quota = config.ops / n_workers as u64
                    + u64::from((config.ops % n_workers as u64) > w as u64);
                let policy = RetryPolicy {
                    jitter_seed: config.seed.wrapping_add(w as u64),
                    ..RetryPolicy::default()
                };
                std::thread::spawn(move || {
                    let mut client = RetryingRegistryClient::new(addr, policy);
                    let mut local: Vec<u64> = Vec::with_capacity(quota as usize);
                    let t0 = Instant::now();
                    for k in 0..quota {
                        let scheduled = match mode {
                            Mode::Closed => Instant::now(),
                            Mode::Open { rate_hz } => {
                                // Global slot (w, w + n, w + 2n, ...) on
                                // the shared arrival schedule.
                                let slot = w as u64 + k * n_workers as u64;
                                let due =
                                    t0 + Duration::from_secs_f64(slot as f64 / rate_hz.max(1e-9));
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                due
                            }
                        };
                        // Alternate the two cheap read-only ops so the mix
                        // exercises both the cache path and the stats path.
                        let outcome = if k % 2 == 0 {
                            client.with_retry(|c| c.list()).map(|_| ())
                        } else {
                            client.with_retry(|c| c.stats()).map(|_| ())
                        };
                        match outcome {
                            Ok(()) => {
                                ops_done.fetch_add(1, Ordering::Relaxed);
                                local.push(
                                    scheduled.elapsed().as_nanos().min(u64::MAX as u128) as u64
                                );
                            }
                            Err(_) => {
                                ops_failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    if let Ok(mut all) = samples.lock() {
                        all.extend_from_slice(&local);
                    }
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    // The plateau holds until the workers finish and the hold elapses.
    let hold_until = Instant::now() + config.hold;
    for w in workers {
        let _ = w.join();
    }
    // Throughput is over the request traffic alone, not the hold after it.
    let op_elapsed = op_phase_start.elapsed();
    std::thread::sleep(hold_until.saturating_duration_since(Instant::now()));

    // Phase 3: one nonblocking read per held connection. Any byte is a
    // busy reject, EOF or an error an early close, nothing yet a
    // connection still held.
    let mut busy_rejects = 0u64;
    let mut early_closes = 0u64;
    let mut buf = [0u8; 4096];
    for mut stream in held {
        match stream.read(&mut buf) {
            Ok(0) => early_closes += 1,
            Ok(_) => busy_rejects += 1,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => early_closes += 1,
        }
    }

    let done = ops_done.load(Ordering::Relaxed);
    let failed = ops_failed.load(Ordering::Relaxed);
    let latency = if config.ops > 0 {
        let all = samples
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default();
        Some(LatencyStats::from_samples(all))
    } else {
        None
    };
    Ok(LoadgenReport {
        conns_target: config.conns,
        conns_opened,
        connect_failures,
        busy_rejects,
        early_closes,
        ops_requested: config.ops,
        ops_done: done,
        ops_failed: failed,
        throughput_ops_per_s: if config.ops > 0 && op_elapsed.as_secs_f64() > 0.0 {
            done as f64 / op_elapsed.as_secs_f64()
        } else {
            0.0
        },
        latency,
        elapsed_s: started.elapsed().as_secs_f64(),
        mode: config.mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_pick_sane_quantiles() {
        let stats = LatencyStats::from_samples((1..=1000).collect());
        assert_eq!(stats.count, 1000);
        assert_eq!(stats.max_ns, 1000);
        assert!(stats.p50_ns >= 490 && stats.p50_ns <= 510, "{stats:?}");
        assert!(stats.p99_ns >= 985 && stats.p99_ns <= 995, "{stats:?}");
        assert!(stats.p999_ns >= 997, "{stats:?}");
        assert_eq!(LatencyStats::from_samples(Vec::new()).count, 0);
    }

    #[test]
    fn report_json_round_trips() {
        let report = LoadgenReport {
            conns_target: 512,
            conns_opened: 512,
            connect_failures: 0,
            busy_rejects: 0,
            early_closes: 0,
            ops_requested: 100,
            ops_done: 99,
            ops_failed: 1,
            throughput_ops_per_s: 1234.5,
            latency: Some(LatencyStats {
                count: 99,
                mean_ns: 1_000,
                p50_ns: 900,
                p99_ns: 5_000,
                p999_ns: 9_000,
                max_ns: 10_000,
            }),
            elapsed_s: 1.5,
            mode: Mode::Open { rate_hz: 250.0 },
        };
        let back: LoadgenReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(!report.clean(), "one failed op must not be clean");
        // The hold-only shape: no ops, no latency block.
        let hold_only = LoadgenReport {
            ops_requested: 0,
            ops_done: 0,
            ops_failed: 0,
            latency: None,
            mode: Mode::Closed,
            ..report
        };
        let back: LoadgenReport = serde_json::from_str(&hold_only.to_json()).unwrap();
        assert_eq!(back, hold_only);
        assert!(hold_only.clean());
    }
}
