//! Evaluation oracles: what a search strategy asks "how fast is this
//! configuration?".
//!
//! Two implementations with deliberately different semantics:
//!
//! * [`SimOracle`] **simulates** the kernel. It replays the exact access
//!   sequence of a threaded, blocked matrix multiply on a
//!   [`servet_sim::Machine`] and scores a configuration by its makespan
//!   in cycles. Tiling, thread count, placement, and accumulator padding
//!   all change the sequence or the core mapping, so their costs emerge
//!   from the cache/coherence/bus models for the same reasons they do on
//!   hardware. The sequence is never held in memory: each thread's share
//!   is generated a strip of the loop nest at a time, as the lockstep
//!   [`servet_sim::Machine::run_streams`] engine consumes it — and under
//!   [`Oracle::evaluate_bounded`] the replay stops as soon as the
//!   makespan provably exceeds the cutoff, which is how a search spends
//!   most evaluations. Configurations that run the same program (spread
//!   placement at one thread per stride, padding at one thread) name it
//!   through [`Oracle::canonical`], so a search simulates it once.
//! * [`ProfileOracle`] **prices** the kernel with a closed-form cost
//!   model over a measured [`MachineProfile`] — the mcalibrator curve
//!   for the tile's working set, the §III-C concurrency advice for bus
//!   saturation, the Fig. 5 sharing groups for placement, and the
//!   false-sharing sweep for padding. It is not a simulation: it is the
//!   cheap oracle a *registry* can serve about a machine it has never
//!   run on, and the cross-check that search over it lands near the
//!   analytic advice derived from the same profile.
//!
//! Both are deterministic and [`Sync`], so strategies may score
//! candidates from parallel workers in any order and still produce
//! bit-identical results.

use crate::space::{Config, Param, ParamSpace};
use servet_autotune::advise_padding;
use servet_autotune::concurrency::{advise_memory_threads, DEFAULT_TOLERANCE};
use servet_autotune::tiling::{self, select_tile};
use servet_core::profile::MachineProfile;
use servet_sim::{Machine, MachineSpec, StreamJob};

/// Dimension name of the tile edge (elements).
pub const TILE: &str = "tile";
/// Dimension name of the thread count.
pub const THREADS: &str = "threads";
/// Dimension name of the placement policy: `0` = compact (thread *t* on
/// core *t*), `1` = spread (threads strided across the cores, one per
/// sharing group first).
pub const PLACEMENT: &str = "placement";
/// Dimension name of the per-thread accumulator padding (bytes between
/// per-thread slots of the shared accumulator array).
pub const PAD: &str = "pad";

/// Largest accumulator padding the kernel arena reserves room for.
const MAX_PAD: u64 = 4096;
/// One accumulator store is issued every this many inner-loop updates.
const ACC_EVERY: usize = 16;

/// A deterministic, thread-safe cost function over configurations.
/// Lower scores are better.
pub trait Oracle: Sync {
    /// Human-readable oracle name, recorded in tune reports.
    fn name(&self) -> String;
    /// Score one configuration. Must be deterministic and free of
    /// interior mutability — strategies call it from several threads.
    fn evaluate(&self, config: &Config) -> f64;
    /// Score one configuration, or give up once its score is known to be
    /// above `cutoff` — what the search calls, with the best score it
    /// holds. The contract: a return `<= cutoff` is the exact score
    /// [`Self::evaluate`] gives; a return `> cutoff` says only that the
    /// exact score is `> cutoff` (any such value will do: `f64::INFINITY`,
    /// a lower bound, the exact score itself). A score equal to the cutoff
    /// must come back exact, so ties break as they would unbounded.
    /// Evaluating in full, the default, always honours it.
    fn evaluate_bounded(&self, config: &Config, cutoff: f64) -> f64 {
        let _ = cutoff;
        self.evaluate(config)
    }
    /// `Some(c)` when `config` is scored exactly as the different
    /// configuration `c` — the same program under another name — so a
    /// search that has scored one need not score the other. Applying it to
    /// `c` must return `None`. The default knows of no such pairs.
    fn canonical(&self, config: &Config) -> Option<Config> {
        let _ = config;
        None
    }
}

/// The standard kernel space for an `n × n` blocked matmul on a machine
/// with `cores` cores: tile edges (powers of two from 8 up to
/// `min(n, 64)`), thread counts (powers of two up to `cores`), the
/// placement policy, and the accumulator padding (packed / one line /
/// four lines).
pub fn kernel_space(cores: usize, n: usize) -> ParamSpace {
    assert!(n >= 8, "kernel needs n >= 8");
    let max_tile_exp = (n.min(64) as f64).log2() as u32;
    let max_thread_exp = (cores.max(1) as f64).log2() as u32;
    ParamSpace::new(vec![
        Param::log2(TILE, 3, max_tile_exp.max(3)),
        Param::log2(THREADS, 0, max_thread_exp),
        Param::fixed_set(PLACEMENT, &[0, 1]),
        Param::fixed_set(PAD, &[8, 64, 256]),
    ])
}

/// Read a dimension with a default, so oracles accept partial configs
/// (a space without a `pad` dimension still evaluates).
fn value(config: &Config, name: &str, default: u64) -> u64 {
    config.get(name).copied().unwrap_or(default)
}

/// Steps a [`ThreadTrace`] keeps ahead of the replay: one refill runs
/// whole strips until this many are buffered. Large enough that the
/// refill's loop-carried state is touched once per thousand steps, small
/// enough (16 KB a thread) to stay in the host's L1.
const REFILL_STEPS: usize = 1024;

/// The access trace of one thread's share of the blocked multiply —
/// rows `[r0, r1)` of `C += A × B` in i-k-j tile order — generated as it
/// is replayed.
///
/// The trace of an `n = 48` evaluation is 236 544 steps however it is
/// configured, ~3.8 MB as a vector; this holds the loop nest's indices
/// instead and refills a [`REFILL_STEPS`]-step buffer one strip at a
/// time. (Resuming the nest at every single step was measured slower
/// than materialising it; per-strip resumption is faster than both.)
struct ThreadTrace {
    n: usize,
    tile: usize,
    rows: (usize, usize),
    acc_addr: u64,
    /// Tile origin `(ib, kb, jb)` and the strip `(i, k)` within it that
    /// the next refill starts at.
    ib: usize,
    kb: usize,
    jb: usize,
    i: usize,
    k: usize,
    since_acc: usize,
    buf: Vec<(u64, bool)>,
    /// Next step of `buf` to hand out.
    pos: usize,
    /// Steps generated so far, the undrained rest of `buf` included.
    generated: u64,
}

impl ThreadTrace {
    fn new(n: usize, tile: usize, rows: (usize, usize), acc_addr: u64) -> Self {
        Self {
            n,
            tile: tile.clamp(1, n),
            rows,
            acc_addr,
            ib: rows.0,
            kb: 0,
            jb: 0,
            i: rows.0,
            k: 0,
            since_acc: 0,
            buf: Vec::with_capacity(REFILL_STEPS + 3 * n),
            pos: 0,
            generated: 0,
        }
    }

    /// Steps in the whole trace: an `A` load per `(i, k)` per column
    /// block, a `B` load and a `C` store per update, an accumulator store
    /// per [`ACC_EVERY`] updates.
    fn len(&self) -> usize {
        let (n, rows) = (self.n, self.rows.1 - self.rows.0);
        let updates = rows * n * n;
        rows * n * n.div_ceil(self.tile) + 2 * updates + updates / ACC_EVERY
    }

    /// Steps handed out so far: the accesses the simulator made.
    fn replayed(&self) -> u64 {
        self.generated - (self.buf.len() - self.pos) as u64
    }

    /// The next step. Must not be called more than [`Self::len`] times.
    #[inline]
    fn next(&mut self) -> (u64, bool) {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let step = self.buf[self.pos];
        self.pos += 1;
        step
    }

    /// Replace the drained buffer with the next whole `(i, k)` strips:
    /// the load of `A[i][k]`, then per column of the tile the load of
    /// `B[k][j]` and the store to `C[i][j]`, with a store to this thread's
    /// accumulator slot every [`ACC_EVERY`] updates.
    fn refill(&mut self) {
        let (n, t, rows) = (self.n, self.tile, self.rows);
        let elem = 8u64;
        let b_base = (n * n) as u64 * elem;
        let c_base = 2 * b_base;
        let addr = |base: u64, r: usize, c: usize| base + ((r * n + c) as u64) * elem;
        let steps = &mut self.buf;
        steps.clear();
        self.pos = 0;
        while steps.len() < REFILL_STEPS && self.ib < rows.1 {
            let (i, k) = (self.i, self.k);
            steps.push((addr(0, i, k), false));
            for j in self.jb..(self.jb + t).min(n) {
                steps.push((addr(b_base, k, j), false));
                steps.push((addr(c_base, i, j), true));
                self.since_acc += 1;
                if self.since_acc == ACC_EVERY {
                    steps.push((self.acc_addr, true));
                    self.since_acc = 0;
                }
            }
            // Step the nest: k, then i, within the tile; past its last
            // strip the tile origin moves on, jb innermost.
            self.k += 1;
            if self.k < (self.kb + t).min(n) {
                continue;
            }
            self.i += 1;
            if self.i == (self.ib + t).min(rows.1) {
                self.jb += t;
                if self.jb >= n {
                    self.jb = 0;
                    self.kb += t;
                    if self.kb >= n {
                        self.kb = 0;
                        self.ib += t;
                    }
                }
                self.i = self.ib;
            }
            self.k = self.kb;
        }
        self.generated += steps.len() as u64;
    }
}

/// The specification [`ThreadTrace`] is tested against: the same trace,
/// materialised by the plain loop nest.
#[cfg(test)]
fn thread_trace(n: usize, tile: usize, rows: (usize, usize), acc_addr: u64) -> Vec<(u64, bool)> {
    let elem = 8u64;
    let b_base = (n * n) as u64 * elem;
    let c_base = 2 * b_base;
    let addr = |base: u64, r: usize, c: usize| base + ((r * n + c) as u64) * elem;
    let t = tile.clamp(1, n);
    let mut steps = Vec::new();
    let mut since_acc = 0usize;
    let mut ib = rows.0;
    while ib < rows.1 {
        let mut kb = 0;
        while kb < n {
            let mut jb = 0;
            while jb < n {
                for i in ib..(ib + t).min(rows.1) {
                    for k in kb..(kb + t).min(n) {
                        steps.push((addr(0, i, k), false));
                        for j in jb..(jb + t).min(n) {
                            steps.push((addr(b_base, k, j), false));
                            steps.push((addr(c_base, i, j), true));
                            since_acc += 1;
                            if since_acc == ACC_EVERY {
                                steps.push((acc_addr, true));
                                since_acc = 0;
                            }
                        }
                    }
                }
                jb += t;
            }
            kb += t;
        }
        ib += t;
    }
    steps
}

/// Cycle cost of the threaded blocked matmul on a simulated machine.
///
/// Every evaluation builds a fresh [`Machine`] from the spec and seed
/// (page placement included), allocates one *shared* arena holding A, B,
/// C and the per-thread accumulators, and replays all thread traces in
/// lockstep. The score is the makespan: the slowest thread's finish
/// time in cycles.
pub struct SimOracle {
    spec: MachineSpec,
    seed: u64,
    n: usize,
}

impl SimOracle {
    /// An oracle for an `n × n` matmul on `spec`, with `seed` driving
    /// the simulator's page allocator.
    pub fn new(spec: MachineSpec, seed: u64, n: usize) -> Self {
        assert!(n >= 8, "kernel needs n >= 8");
        Self { spec, seed, n }
    }

    /// The machine being simulated.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The standard kernel space for this machine and problem size.
    pub fn space(&self) -> ParamSpace {
        kernel_space(self.spec.num_cores, self.n)
    }

    /// The program `config` runs: `(tile, threads, spread, pad)` as the
    /// replay uses them — clamped, with the choices that change no core
    /// and no address put in one form. Spread placement strides threads
    /// `(cores / threads).max(1)` cores apart, so at a stride of one (and
    /// for a lone thread) it is compact; thread `t`'s accumulator is at
    /// `t · pad`, so a lone thread's pad moves nothing. Both
    /// [`Oracle::evaluate_bounded`] and [`Oracle::canonical`] read it.
    fn kernel(&self, config: &Config) -> (usize, usize, bool, u64) {
        let cores = self.spec.num_cores;
        let tile = value(config, TILE, 8).clamp(1, self.n as u64) as usize;
        let threads = value(config, THREADS, 1).clamp(1, cores as u64) as usize;
        if threads == 1 {
            return (tile, 1, false, 8);
        }
        let spread = value(config, PLACEMENT, 0) != 0 && (cores / threads).max(1) > 1;
        (
            tile,
            threads,
            spread,
            value(config, PAD, 64).clamp(8, MAX_PAD),
        )
    }
}

impl Oracle for SimOracle {
    fn name(&self) -> String {
        format!("sim:{}:n{}", self.spec.name, self.n)
    }

    fn evaluate(&self, config: &Config) -> f64 {
        self.evaluate_bounded(config, f64::INFINITY)
    }

    fn evaluate_bounded(&self, config: &Config, cutoff: f64) -> f64 {
        let n = self.n;
        let cores = self.spec.num_cores;
        let (tile, threads, spread, pad) = self.kernel(config);

        let mut m = Machine::with_seed(self.spec.clone(), self.seed);
        let arena = m.alloc_shared_array(3 * n * n * 8 + cores * MAX_PAD as usize + 64);
        m.reset();
        let acc_base = (3 * n * n * 8) as u64;
        let stride = (cores / threads).max(1);
        let mut traces: Vec<(usize, ThreadTrace)> = (0..threads)
            .filter_map(|t| {
                let rows = (t * n / threads, (t + 1) * n / threads);
                if rows.0 == rows.1 {
                    return None; // more threads than rows: this one idles
                }
                let core = if spread {
                    (t * stride) % cores
                } else {
                    t % cores
                };
                let acc = acc_base + t as u64 * pad;
                Some((core, ThreadTrace::new(n, tile, rows, acc)))
            })
            .collect();
        let jobs = traces
            .iter_mut()
            .map(|(core, trace)| StreamJob {
                core: *core,
                array: &arena,
                len: trace.len(),
                next: move |_| trace.next(),
            })
            .collect();
        let finish = m.run_streams(jobs, cutoff);
        let total = |of: fn(&ThreadTrace) -> u64| traces.iter().map(|(_, t)| of(t)).sum();
        servet_obs::counter("tune.trace_steps_generated").add(total(|t| t.generated));
        servet_obs::counter("sim.replay_accesses").add(total(ThreadTrace::replayed));
        match finish {
            Some(clocks) => clocks.into_iter().fold(f64::NEG_INFINITY, f64::max),
            None => {
                servet_obs::counter("tune.evaluations_pruned").incr();
                f64::INFINITY
            }
        }
    }

    /// `config` with placement and pad as the replay resolves them (a
    /// stride of one core, a lone thread), when that differs — the
    /// dimensions `config` names, no others.
    fn canonical(&self, config: &Config) -> Option<Config> {
        let (_, _, spread, pad) = self.kernel(config);
        let mut canon: Option<Config> = None;
        for (name, resolved) in [(PLACEMENT, u64::from(spread)), (PAD, pad)] {
            if config.get(name).is_some_and(|&v| v != resolved) {
                canon
                    .get_or_insert_with(|| config.clone())
                    .insert(name.into(), resolved);
            }
        }
        canon
    }
}

/// Closed-form cost model of the same kernel over a measured profile.
///
/// The score is *predicted* cycles: per-access cost of the tile's
/// working set read off the mcalibrator curve (or classified against
/// the detected cache sizes when the curve is absent), divided by the
/// thread count, then multiplied by contention factors for bus
/// saturation (§III-C advice), compact placement into shared caches
/// (Fig. 5 groups), and under-padded accumulators (false-sharing
/// sweep). Scores are comparable *within* this oracle, not against
/// [`SimOracle`] cycles.
pub struct ProfileOracle {
    profile: MachineProfile,
    n: usize,
}

impl ProfileOracle {
    /// An oracle pricing an `n × n` matmul against `profile`.
    pub fn new(profile: MachineProfile, n: usize) -> Self {
        assert!(n >= 8, "kernel needs n >= 8");
        Self { profile, n }
    }

    /// The standard kernel space for the profiled machine.
    pub fn space(&self) -> ParamSpace {
        kernel_space(self.profile.total_cores.max(1), self.n)
    }

    /// Per-access cycles at working-set size `ws`: linear interpolation
    /// on the measured mcalibrator curve, else a coarse classification
    /// against the detected cache sizes.
    fn per_access_cycles(&self, ws: usize) -> f64 {
        if let Some(mc) = &self.profile.mcalibrator {
            if !mc.sizes.is_empty() && mc.sizes.len() == mc.cycles.len() {
                let w = ws as f64;
                if w <= mc.sizes[0] as f64 {
                    return mc.cycles[0];
                }
                for i in 1..mc.sizes.len() {
                    let (s0, s1) = (mc.sizes[i - 1] as f64, mc.sizes[i] as f64);
                    if w <= s1 {
                        let f = (w - s0) / (s1 - s0).max(1.0);
                        return mc.cycles[i - 1] + f * (mc.cycles[i] - mc.cycles[i - 1]);
                    }
                }
                return *mc.cycles.last().expect("non-empty");
            }
        }
        // No curve: hit costs grow roughly 5× per level in the machines
        // this repo models; beyond the last level, memory.
        let mut sizes: Vec<usize> = self.profile.cache_levels.iter().map(|l| l.size).collect();
        sizes.sort_unstable();
        for (i, size) in sizes.iter().enumerate() {
            if ws as f64 <= 0.75 * *size as f64 {
                return 2.0 * 5f64.powi(i as i32);
            }
        }
        120.0
    }

    /// Size of the largest group of cores sharing any cache level (1 if
    /// every level is private or undetected).
    fn max_sharing_group(&self) -> usize {
        let Some(shared) = &self.profile.shared_caches else {
            return 1;
        };
        shared
            .levels
            .iter()
            .flat_map(|l| l.groups.iter().map(Vec::len))
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

impl Oracle for ProfileOracle {
    fn name(&self) -> String {
        format!("profile:{}:n{}", self.profile.machine, self.n)
    }

    fn evaluate(&self, config: &Config) -> f64 {
        let n = self.n;
        let cores = self.profile.total_cores.max(1);
        let tile = value(config, TILE, 8).clamp(1, n as u64) as usize;
        let threads = value(config, THREADS, 1).clamp(1, cores as u64) as usize;
        let spread = value(config, PLACEMENT, 0) != 0;
        let pad = value(config, PAD, 64) as usize;

        let work = (2 * n * n * n + n * n) as f64; // B+C inner accesses, A loads
        let per = self.per_access_cycles(3 * tile * tile * 8);
        let mut cycles = per * work / threads as f64;

        // Bus saturation: when the full problem spills the last cache,
        // threads beyond the measured sweet spot serialize on memory.
        let last_cache = self.profile.cache_levels.iter().map(|l| l.size).max();
        let spills = last_cache.is_none_or(|c| 3 * n * n * 8 > c);
        if spills {
            if let Some(memory) = &self.profile.memory {
                if let Some(adv) = advise_memory_threads(memory, DEFAULT_TOLERANCE) {
                    if threads > adv.threads_per_group {
                        cycles *= threads as f64 / adv.threads_per_group as f64;
                    }
                }
            }
        }

        // Compact placement stacks threads into one sharing group; they
        // evict each other (Fig. 5's mutual-eviction slowdown, linearized).
        if !spread {
            let sharers = threads.min(self.max_sharing_group());
            cycles *= 1.0 + 0.10 * (sharers.saturating_sub(1)) as f64;
        }

        // Under-padded accumulators ping-pong at the measured cost.
        if threads > 1 {
            if let Some(advice) = advise_padding(&self.profile) {
                if pad < advice.pad_bytes {
                    cycles *= advice.worst_ratio.unwrap_or(1.5).max(1.0);
                }
            }
        }
        cycles
    }
}

/// The purely analytic configuration `servet-autotune` derives from a
/// profile, snapped onto `space`'s grid — the baseline every search is
/// compared against.
///
/// Tile from [`select_tile`] (L1, the usual innermost-blocking target),
/// threads = every core, placement spread when a *partial* sharing
/// group exists (so co-scheduled threads avoid mutual eviction), pad
/// from [`advise_padding`] (falling back to one 64-byte line). Each
/// value is clamped to the nearest grid value (below for tile/threads,
/// above for pad), so the analytic config is always a point of the
/// space — an exhaustive search can never lose to it.
pub fn analytic_config(profile: &MachineProfile, space: &ParamSpace) -> Config {
    let pick_le = |values: &[u64], target: u64| {
        values
            .iter()
            .copied()
            .filter(|&v| v <= target)
            .max()
            .unwrap_or_else(|| values.iter().copied().min().expect("non-empty"))
    };
    let pick_ge = |values: &[u64], target: u64| {
        values
            .iter()
            .copied()
            .filter(|&v| v >= target)
            .min()
            .unwrap_or_else(|| values.iter().copied().max().expect("non-empty"))
    };
    let total = profile.total_cores.max(1);
    space
        .params
        .iter()
        .map(|p| {
            let v = match p.name.as_str() {
                TILE => {
                    let tile = select_tile(
                        profile,
                        tiling::DEFAULT_LEVEL,
                        tiling::DEFAULT_ELEM_SIZE,
                        tiling::DEFAULT_MATRICES,
                        tiling::DEFAULT_OCCUPANCY,
                    )
                    .map(|c| c.tile as u64)
                    .unwrap_or(8);
                    pick_le(&p.values, tile)
                }
                THREADS => pick_le(&p.values, total as u64),
                PLACEMENT => {
                    let partial_group = (1..=profile.num_cache_levels() as u8).any(|l| {
                        let peers = profile.cores_sharing_cache(l, 0);
                        !peers.is_empty() && peers.len() + 1 < total
                    });
                    if partial_group && p.values.contains(&1) {
                        1
                    } else {
                        p.values[0]
                    }
                }
                PAD => {
                    let advised = advise_padding(profile)
                        .map(|a| a.pad_bytes as u64)
                        .unwrap_or(64);
                    pick_ge(&p.values, advised)
                }
                _ => p.values[0],
            };
            (p.name.clone(), v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::cache_detect::{CacheLevelEstimate, DetectionMethod};

    fn profile_with_caches(sizes: &[usize], cores: usize) -> MachineProfile {
        MachineProfile {
            schema_version: servet_core::profile::SCHEMA_VERSION,
            machine: "synthetic".into(),
            cores_per_node: cores,
            total_cores: cores,
            page_size: 1024,
            mcalibrator: None,
            cache_levels: sizes
                .iter()
                .enumerate()
                .map(|(i, &size)| CacheLevelEstimate {
                    level: (i + 1) as u8,
                    size,
                    method: DetectionMethod::GradientPeak,
                })
                .collect(),
            shared_caches: None,
            memory: None,
            communication: None,
            micro: None,
            false_sharing: None,
        }
    }

    #[test]
    fn kernel_space_has_the_four_dimensions() {
        let s = kernel_space(4, 32);
        let names: Vec<&str> = s.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec![TILE, THREADS, PLACEMENT, PAD]);
        assert_eq!(s.params[0].values, vec![8, 16, 32]);
        assert_eq!(s.params[1].values, vec![1, 2, 4]);
    }

    #[test]
    fn sim_oracle_is_deterministic() {
        let o = SimOracle::new(servet_sim::presets::tiny_smp(), 7, 16);
        let cfg = o.space().config(&o.space().midpoint());
        assert_eq!(o.evaluate(&cfg).to_bits(), o.evaluate(&cfg).to_bits());
    }

    /// The generator is the loop nest: step for step and in length, over
    /// ragged tiles, row shares that do not divide, tiles larger than `n`.
    #[test]
    fn generated_trace_is_the_loop_nest() {
        for n in [8, 13, 16, 48, 50] {
            for tile in [1, 3, 8, 16, 32, 64] {
                for threads in 1..=4 {
                    for t in 0..threads {
                        let rows = (t * n / threads, (t + 1) * n / threads);
                        let acc = (3 * n * n * 8 + t * 64) as u64;
                        let spec = thread_trace(n, tile, rows, acc);
                        let mut generated = ThreadTrace::new(n, tile, rows, acc);
                        let case = format!("n={n} tile={tile} rows={rows:?}");
                        assert_eq!(generated.len(), spec.len(), "{case}: length");
                        for (at, &step) in spec.iter().enumerate() {
                            assert_eq!(generated.next(), step, "{case}: step {at}");
                        }
                        assert_eq!(generated.generated, spec.len() as u64, "{case}");
                        assert_eq!(generated.replayed(), spec.len() as u64, "{case}");
                    }
                }
            }
        }
    }

    /// The 54 scores of `tiny_smp`, `n = 48`, seed 7, as the materialised
    /// trace through `run_traces` gave them at the commit before the
    /// generator: FNV-1a over the scores' bits in space order, and one of
    /// the two tied winners spelled out.
    #[test]
    fn sim_oracle_scores_match_the_materialised_replay() {
        let o = SimOracle::new(servet_sim::presets::tiny_smp(), 7, 48);
        let space = o.space();
        assert_eq!(space.len(), 54);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..space.len() {
            let cfg = space.config(&space.point(i));
            let score = o.evaluate(&cfg);
            if (cfg[TILE], cfg[THREADS], cfg[PLACEMENT], cfg[PAD]) == (16, 4, 0, 256) {
                assert_eq!(score.to_bits(), 0x4104_fd60_0000_0005, "{score}");
            }
            for byte in score.to_bits().to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0xfa91_ba16_1d11_d64d);
    }

    /// The contract of `evaluate_bounded`, on every point of two spaces
    /// and on both sides of every exact score: at or under the cutoff the
    /// exact bits come back, above it something above the cutoff.
    #[test]
    fn sim_oracle_bounded_scores_are_exact_or_above_the_cutoff() {
        let mut pruned = 0;
        for spec in [
            servet_sim::presets::tiny_smp(),
            servet_sim::presets::tiny_shared_l2(),
        ] {
            let o = SimOracle::new(spec, 7, 16);
            let space = o.space();
            for i in 0..space.len() {
                let cfg = space.config(&space.point(i));
                let exact = o.evaluate(&cfg);
                assert!(exact.is_finite() && exact > 0.0);
                for cutoff in [
                    0.0,
                    0.5 * exact,
                    exact.next_down(),
                    exact,
                    exact.next_up(),
                    1.5 * exact,
                    f64::INFINITY,
                ] {
                    let bounded = o.evaluate_bounded(&cfg, cutoff);
                    if exact <= cutoff {
                        assert_eq!(bounded.to_bits(), exact.to_bits(), "{cfg:?} under {cutoff}");
                    } else {
                        assert!(bounded > cutoff, "{cfg:?}: {bounded} under {cutoff}");
                        pruned += usize::from(bounded != exact);
                    }
                }
            }
        }
        assert!(pruned > 0, "no evaluation ever stopped early");
    }

    /// The contract of `canonical` on the standard spaces: every point
    /// scores exactly as its canonical configuration, which is a point of
    /// the space and its own canonical form. On Dunnington 16 threads
    /// stride one core apart without occupying all 24 cores.
    #[test]
    fn sim_oracle_canonical_configurations_score_the_same_bits() {
        use servet_sim::presets;
        let mut cases: Vec<(MachineSpec, usize)> = Vec::new();
        for spec in [
            presets::tiny_smp(),
            presets::tiny_shared_l2(),
            presets::tiny_numa(),
        ] {
            cases.extend([(spec.clone(), 16), (spec, 48)]);
        }
        cases.push((presets::dunnington(), 16));
        let (mut points, mut classes) = (0, 0);
        for (spec, n) in cases {
            let o = SimOracle::new(spec, 7, n);
            let space = o.space();
            let configs: Vec<Config> = (0..space.len())
                .map(|i| space.config(&space.point(i)))
                .collect();
            let scores: Vec<u64> = configs.iter().map(|c| o.evaluate(c).to_bits()).collect();
            for (cfg, &score) in configs.iter().zip(&scores) {
                let Some(canon) = o.canonical(cfg) else {
                    classes += 1;
                    continue;
                };
                let case = format!("{} {cfg:?} as {canon:?}", o.name());
                let rep = space.point_of(&canon).expect(&case);
                assert_eq!(o.canonical(&canon), None, "{case}: canonical twice");
                assert_eq!(scores[space.index(&rep)], score, "{case}");
            }
            points += space.len();
        }
        assert_eq!((points, classes), (300 + 60, 180 + 44));
        let sixteen_spread: Config = [(TILE, 8), (THREADS, 16), (PLACEMENT, 1), (PAD, 64)]
            .map(|(name, v)| (name.to_string(), v))
            .into();
        let o = SimOracle::new(presets::dunnington(), 7, 16);
        assert_eq!(o.canonical(&sixteen_spread).map(|c| c[PLACEMENT]), Some(0));
    }

    /// A one-thread configuration of the kernel with tile edge `tile`.
    fn serial(tile: u64) -> Config {
        [(TILE, tile), (THREADS, 1), (PLACEMENT, 0), (PAD, 64)]
            .map(|(name, v)| (name.to_string(), v))
            .into()
    }

    #[test]
    fn sim_oracle_prefers_fitting_tiles() {
        // At n = 64 the 96 KB problem spills tiny_smp's 64 KB L2, so the
        // untiled order streams from memory while 16-element tiles stay
        // cache-resident (below L2 size the stride prefetcher hides the
        // order).
        let o = SimOracle::new(servet_sim::presets::tiny_smp(), 7, 64);
        let tiled = o.evaluate(&serial(16));
        let untiled = o.evaluate(&serial(64));
        assert!(tiled < untiled, "tiled {tiled} vs untiled {untiled}");
    }

    #[test]
    fn selected_tile_is_near_optimal_on_sim() {
        // The tile `select_tile` derives from tiny_smp's 8 KB L1 must cost
        // within 15 % of the best of a range of sampled tiles.
        let choice = select_tile(&profile_with_caches(&[8 * 1024], 1), 1, 8, 3, 0.75).unwrap();
        let o = SimOracle::new(servet_sim::presets::tiny_smp(), 0x5EED, 48);
        let chosen = o.evaluate(&serial(choice.tile as u64));
        let best = [8, 16, 24, 32, 48]
            .map(|tile| o.evaluate(&serial(tile)))
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        assert!(
            chosen <= best * 1.15,
            "chosen tile {} costs {chosen}, best sampled {best}",
            choice.tile
        );
    }

    #[test]
    fn sim_oracle_threads_beat_serial_on_private_caches() {
        let o = SimOracle::new(servet_sim::presets::tiny_smp(), 7, 32);
        let cfg = |threads: u64| {
            let mut c = Config::new();
            c.insert(TILE.into(), 8);
            c.insert(THREADS.into(), threads);
            c.insert(PLACEMENT.into(), 0);
            c.insert(PAD.into(), 64);
            c
        };
        let serial = o.evaluate(&cfg(1));
        let quad = o.evaluate(&cfg(4));
        assert!(quad < serial, "4 threads {quad} vs serial {serial}");
    }

    #[test]
    fn sim_oracle_charges_packed_accumulators() {
        let o = SimOracle::new(servet_sim::presets::tiny_smp(), 7, 16);
        let cfg = |pad: u64| {
            let mut c = Config::new();
            c.insert(TILE.into(), 8);
            c.insert(THREADS.into(), 4);
            c.insert(PLACEMENT.into(), 0);
            c.insert(PAD.into(), pad);
            c
        };
        let packed = o.evaluate(&cfg(8));
        let padded = o.evaluate(&cfg(64));
        assert!(
            packed > padded,
            "packed accumulators {packed} should cost more than padded {padded}"
        );
    }

    #[test]
    fn profile_oracle_orders_tiles_by_cache_fit() {
        let profile = profile_with_caches(&[8 * 1024, 64 * 1024], 4);
        let o = ProfileOracle::new(profile, 64);
        let cfg = |tile: u64| {
            let mut c = Config::new();
            c.insert(TILE.into(), tile);
            c.insert(THREADS.into(), 1);
            c
        };
        // 16² tiles (6 KB) fit L1; 64² (96 KB) spill to memory.
        assert!(o.evaluate(&cfg(16)) < o.evaluate(&cfg(64)));
    }

    #[test]
    fn analytic_config_is_a_space_point() {
        let profile = profile_with_caches(&[8 * 1024, 64 * 1024], 4);
        let space = kernel_space(4, 32);
        let cfg = analytic_config(&profile, &space);
        for p in &space.params {
            assert!(
                p.values.contains(&cfg[&p.name]),
                "{} = {} not on the grid",
                p.name,
                cfg[&p.name]
            );
        }
        assert_eq!(cfg[THREADS], 4);
        assert_eq!(cfg[PLACEMENT], 0, "private caches: compact");
        assert_eq!(cfg[PAD], 64, "no measurement: one line");
        assert_eq!(cfg[TILE], 16, "0.75·8 KB budget → 16-element tiles");
    }
}
