//! The cycle engine: traversals over the simulated cache hierarchy.
//!
//! A [`Machine`] instantiates one [`SetAssocCache`] per sharing group of
//! every cache level of its [`MachineSpec`], plus a per-core stride
//! prefetcher and a per-bus serialization clock. Its strided driver,
//! [`Machine::traverse_shared`], runs the Saavedra–Smith style traversal
//! that mcalibrator is built on — on one core, or on several cores in
//! lockstep so that shared caches see interleaved access streams and
//! evict each other's lines, exactly the effect the shared-cache
//! benchmark (paper Fig. 5) measures.
//!
//! # The fast path
//!
//! Every downstream consumer (zoo sweeps, the false-sharing stage,
//! `servet-tune`'s trace oracle) bottlenecks on the per-access loop, so
//! everything an access needs is resolved before the loop runs, at the
//! coarsest grain it is constant over:
//!
//! * **per machine**, at construction: `LevelParam`s (line shifts,
//!   indexing flags, hit costs), scalar fields (page shift/mask, memory
//!   latency, coherence line shift), and each core's path through the
//!   hierarchy as one contiguous slice of cache-instance indices;
//! * **per lane switch**, in `Machine::lockstep`: that slice, the core's
//!   prefetcher, TLB and bus clock, the array's page table and `asid` tag,
//!   whether the array goes through the coherence directory at all, and
//!   the job's clock and progress, which live in locals until the lane
//!   gives way;
//! * **per access**: translation, one [`SetAssocCache::touch`] per level
//!   until one hits — a level's line key is computed when the level is
//!   reached, and a level that misses takes the line in that same call —
//!   and the cost arithmetic. No spec-struct chasing, no divisions, no
//!   allocation (the coherence invalidation set lands in a reused scratch
//!   vector).
//!
//! All four public drivers ([`Machine::traverse_shared`],
//! [`Machine::run_traces`], [`Machine::run_trace`],
//! [`Machine::run_streams`]) describe their jobs as
//! lanes and run them through one lockstep scheduler: the waiting lanes
//! sit in a binary heap keyed by virtual clock, and the running lane's
//! accesses are replayed as a *block* until its clock reaches the
//! next-earliest clock (the heap's top). A lane that is still the
//! earliest then keeps running; otherwise it replaces the top, which runs
//! next. A single-job run is one block. While the lane is strictly
//! minimal the original one-access-per-selection `min_by` scan would have
//! picked it too — and the heap breaks ties toward the smallest job
//! index, exactly as `min_by` does — so the access interleaving, and
//! therefore every counter and every cycle count, is bit-identical while
//! the dispatch cost drops from O(jobs) per access to one O(log jobs)
//! sift-down per lane switch. A read that hits a cache level private to
//! the accessing core additionally skips the coherence directory — a
//! provable MESI no-op while at most one shared address space exists (the
//! skip proof is documented in `Machine::lockstep`) — and so does a write
//! hit by a core the directory's owned-line record shows holding the line
//! Modified (`CoherenceEngine::access_into`). The pre-fast-path engine
//! is retained as [`crate::reference::ReferenceMachine`] and the
//! differential suite holds the two to bit-identical results.
//!
//! Each driver call is its own time origin: its lanes, the memory buses
//! and the snoop bus all start at cycle 0. Caches, TLBs, prefetchers and
//! the directory carry over from call to call until [`Machine::reset`].
//!
//! # A cold pass priced from its census
//!
//! A single-core strided traversal of a private array on a freshly reset
//! machine — mcalibrator's every trial — is priced from a count of its
//! lines per cache set instead of replayed (the `census` submodule states
//! when that is exact). Its clock reaches the engine's bits in
//! per-binade runs rather than access by access (DESIGN.md §11, "The
//! clock in per-binade runs"); the cache contents the pass leaves behind
//! are written in only if a later driver call comes before the next
//! reset.
//!
//! # Not replaying
//!
//! A lane's pattern is an `FnMut`, so its accesses may come from a slice
//! (`run_traces`) or from a generator that holds a loop nest's indices
//! (`run_streams`), and `run_streams` takes a *cutoff*: the replay is
//! abandoned as soon as some lane's clock plus its remaining accesses at
//! the machine's cheapest hit cost exceeds it. That is a lower bound on
//! the lane's finish (TLB misses, coherence transactions and bus waits
//! only add) and so on the makespan; it is discounted by N·ε because the
//! engine's running sum may round below the one product the bound is
//! (`Lane::cannot_finish_by`). A search that only wants the best
//! configuration passes the best makespan it holds and never pays for the
//! rest of a loser. Every other driver is the same code at `cutoff = ∞`.
//!
//! The schedule replaces the heap's top instead of popping and pushing,
//! and keeps a lane that is still the earliest without touching the heap
//! at all. On the oracle's kernel on `tiny_smp`, where two and four lanes
//! make one-access blocks, that alone took the replay to 0.79–0.89 of its
//! time, and a lone lane to 0.96–1.00 (in one process, bit-identical;
//! EXPERIMENTS.md, "Performance"). Tried before it and kept out, on
//! measurement (bit-identical prototypes): a linear first-minimum scan
//! for the heap — the four-lane `sim.oracle_eval_ms` 11.5–14.3 →
//! 8.5–14.1, inside its spread, but the 64-lane
//! `sim.replay_blocked_shared_macc_per_s` 13.6–18.6 → 5.3–7.3 Macc/s
//! (traced `tune_search`, 4 s, seeds 1–3, six alternating pairs); a
//! branchless min/second-min over `to_bits` keys — 8.5 → 7.7 ms at 4
//! lanes, nothing at 2, and the 64-lane replay 33 → 24 Macc/s; per-access
//! lane selection — a single lane 3.7 → 5.6 ms. One heap serves every
//! lane count.

use crate::cache::SetAssocCache;
use crate::coherence::{CoherenceEngine, CoherenceTraffic};
use crate::prefetch::StridePrefetcher;
use crate::spec::{CoreId, Indexing, MachineSpec};
use crate::vm::AddressSpace;
use std::sync::Arc;

mod census;

/// A benchmark array: a span of virtual memory in its own address space
/// (each benchmark process allocates its own array, as in the paper's MPI
/// implementation).
///
/// Arrays allocated with [`Machine::alloc_shared_array`] are *shared*:
/// several cores may access them concurrently and the MESI coherence
/// layer (when the machine has one) tracks their lines. Ordinary arrays
/// are private to one benchmark process and skip coherence bookkeeping
/// entirely, which keeps the pre-coherence stages bit-identical.
#[derive(Debug, Clone)]
pub struct SimArray {
    /// Behind an `Arc` so a pass the census owes the caches shares the
    /// page table rather than copying it.
    aspace: Arc<AddressSpace>,
    len: usize,
    shared: bool,
}

impl SimArray {
    /// Internal constructor, shared with the reference engine.
    pub(crate) fn new_raw(aspace: AddressSpace, len: usize, shared: bool) -> Self {
        Self {
            aspace: Arc::new(aspace),
            len,
            shared,
        }
    }

    /// Array length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing address space.
    pub(crate) fn aspace(&self) -> &AddressSpace {
        &self.aspace
    }

    /// Whether the array participates in coherence tracking.
    pub(crate) fn is_shared(&self) -> bool {
        self.shared
    }
}

/// One job of a strided lockstep traversal: `count` accesses per pass
/// starting at `offset`, `stride` bytes apart, reading or writing.
///
/// The paper's Fig. 1 loop (`for j = 0; j < size; j += A[j]`) is one
/// reading job over a private array: `offset` 0 and `count` the array's
/// length over the stride, rounded up. Several such jobs on several cores
/// are the shared-cache probe (Fig. 5). Jobs may also target the *same*
/// [`SimArray`] — the engine under the false-sharing sweep (two cores
/// writing `offset` and `offset + stride` of one line) and the
/// cache-mediated communication model (§III-D on-chip pairs).
#[derive(Debug, Clone, Copy)]
pub struct SharedJob<'a> {
    /// Core executing the accesses.
    pub core: CoreId,
    /// Array being accessed (usually shared with other jobs).
    pub array: &'a SimArray,
    /// Byte offset of the first access.
    pub offset: usize,
    /// Stride in bytes between accesses.
    pub stride: usize,
    /// Accesses per pass.
    pub count: usize,
    /// Whether the accesses are stores.
    pub write: bool,
}

/// One job of a multi-core trace replay: `core` replaying an explicit
/// `(virtual address, is_write)` step sequence over `array`.
///
/// Where a [`SharedJob`] describes a *strided* stream, a
/// `TraceJob` carries the exact access pattern of an arbitrary kernel —
/// the multi-threaded generalization of [`Machine::run_trace`], and the
/// evaluation engine under `servet-tune`'s simulator oracle (a blocked
/// matmul sliced across threads, with per-thread accumulator writes
/// whose spacing decides whether they false-share).
#[derive(Debug, Clone, Copy)]
pub struct TraceJob<'a> {
    /// Core executing the steps.
    pub core: CoreId,
    /// Array the addresses index into (shared arrays go through the
    /// coherence layer).
    pub array: &'a SimArray,
    /// The access sequence: `(vaddr, write)` per step.
    pub steps: &'a [(u64, bool)],
}

/// One job of a generated replay: `core` making the `len` accesses that
/// `next` hands out, over `array`.
///
/// A [`TraceJob`] whose steps are produced on demand rather than held in
/// memory — see [`Machine::run_streams`]. `next` is called exactly once
/// per access simulated, with the access's index, in ascending order; a
/// resumable generator may ignore the index.
pub struct StreamJob<'a, G> {
    /// Core executing the steps.
    pub core: CoreId,
    /// Array the addresses index into.
    pub array: &'a SimArray,
    /// Access `i` of the job: `(vaddr, write)`.
    pub next: G,
    /// Accesses in the job.
    pub len: usize,
}

/// Under a finite cutoff a lane's block ends after this many accesses at
/// the latest, so that a lane nobody interrupts is still tested against
/// the cutoff — often enough to stop early, rarely enough that the test
/// and the extra heap round trip do not show (one per thousand accesses).
const CUTOFF_CHECK_EVERY: usize = 1024;

/// Lockstep-scheduler heap entry. `BinaryHeap` is a max-heap, so the
/// ordering is inverted: "greater" means *scheduled sooner* — smaller
/// clock first, ties broken toward the smaller job index. That
/// tie-break reproduces exactly what the reference engine's
/// `(0..n).filter(unfinished).min_by(total_cmp)` selects (`min_by`
/// returns the **first** minimal element), so the heap-driven engine
/// replays accesses in the identical interleaving at O(log n) per block
/// instead of two O(n) scans per block.
#[derive(Debug, Clone, Copy)]
struct SchedEntry {
    clock: f64,
    idx: usize,
}

impl PartialEq for SchedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for SchedEntry {}
impl PartialOrd for SchedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SchedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .clock
            .total_cmp(&self.clock)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// One job inside the lockstep scheduler: where it runs, the pass of
/// accesses it repeats, and its progress on its own virtual clock.
struct Lane<'a, P> {
    core: CoreId,
    array: &'a SimArray,
    /// `(vaddr, write)` of access `i` of a pass, `i < period`; called
    /// with `i` ascending through each pass, so a generator that hands
    /// out a one-pass stream in order may ignore it.
    pattern: P,
    /// Accesses per pass.
    period: usize,
    /// Accesses to perform: every pass, warm-up included.
    total: usize,
    /// Accesses in the warm-up passes; the measured window opens when
    /// `done` reaches it.
    warm: usize,
    done: usize,
    /// Position within the current pass: `done % period`.
    idx: usize,
    clock: f64,
    /// The clock when the measured window opened.
    measure_start: f64,
}

impl<'a, P: FnMut(usize) -> (u64, bool)> Lane<'a, P> {
    fn new(
        core: CoreId,
        array: &'a SimArray,
        pattern: P,
        period: usize,
        warmup: usize,
        passes: usize,
    ) -> Self {
        Self {
            core,
            array,
            pattern,
            period,
            total: period * (warmup + passes),
            warm: period * warmup,
            done: 0,
            idx: 0,
            clock: 0.0,
            measure_start: 0.0,
        }
    }

    /// Whether the lane's finish time is provably above `cutoff`: every
    /// remaining access costs at least `min_access_cycles` (the machine's
    /// cheapest access; TLB misses, coherence transactions and bus waits
    /// only ever add), so `clock + remaining · c_min` is a lower bound on
    /// where its clock ends, and a lane's finish is a lower bound on the
    /// makespan.
    ///
    /// The engine reaches that finish by one rounded addition per access,
    /// the bound by one multiplication, and a running sum of N terms may
    /// fall short of the exact sum by up to N·ε relative. The product is
    /// therefore discounted by that much (N the lane's whole length)
    /// before the comparison: the error is always toward *not* cutting
    /// off, never toward cutting off a lane that would have landed exactly
    /// on the cutoff.
    fn cannot_finish_by(&self, min_access_cycles: f64, cutoff: f64) -> bool {
        let bound = self.clock + (self.total - self.done) as f64 * min_access_cycles;
        bound * (1.0 - (self.total + 4) as f64 * f64::EPSILON) > cutoff
    }
}

/// Per-cache-level constants hoisted out of the access loop.
#[derive(Debug, Clone, Copy)]
struct LevelParam {
    /// `log2(line_size)`.
    line_shift: u32,
    /// Whether the level is virtually indexed.
    virt: bool,
    /// Hit latency in cycles.
    hit_cycles: f64,
}

/// What the caches hold since the last [`Machine::reset`].
#[derive(Debug, Clone)]
enum Contents {
    /// Nothing: no access since the reset (or construction).
    Flushed,
    /// One cold strided pass, priced by the census but not yet written
    /// into the caches; the counters, prefetcher and bus already show it.
    Owed(census::OwedPass),
    /// Whatever the engine's accesses left.
    Live,
}

/// A simulated shared-memory machine.
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    /// Every cache instance of every level: one per sharing group.
    caches: Vec<SetAssocCache>,
    /// `cache_of[core * levels + level]` — the instance in `caches`
    /// serving `core` at `level`, so one core's path through the
    /// hierarchy is one contiguous slice.
    cache_of: Box<[usize]>,
    /// Hoisted per-level constants, L1 outward.
    levels: Box<[LevelParam]>,
    prefetchers: Vec<StridePrefetcher>,
    /// Per-core data TLBs (fully associative LRU over `(asid, vpage)`),
    /// when the spec declares one.
    tlbs: Vec<Option<SetAssocCache>>,
    /// Innermost memory resource index for each core, if any.
    bus_of: Vec<Option<usize>>,
    /// Cycles to move one last-level line across each core's innermost
    /// bus (0.0 for bus-less cores) — the division is paid once here,
    /// not per memory access.
    transfer_cycles: Vec<f64>,
    /// Cycle at which each memory resource becomes free, on the clock of
    /// the driver call in progress (every call starts it at 0).
    bus_free_at: Vec<f64>,
    /// MESI directory + snoop bus, when the spec enables coherence.
    coherence: Option<CoherenceEngine>,
    /// `solo[core * levels + level]` — whether `core`'s sharing group at
    /// `level` is just itself (a private cache instance).
    solo: Box<[bool]>,
    /// Shared arrays allocated over the machine's lifetime. While at
    /// most one shared address space exists, a read that hits a level
    /// private to the accessing core is provably a directory no-op (see
    /// [`Self::lockstep`]) and the fast path skips the directory probe.
    /// A second shared aspace could alias the first's physical frames
    /// (frames are drawn per-aspace from one pool), which would break
    /// the residency ⇒ valid-bit invariant, so the skip is disabled
    /// forever once a second shared array exists.
    shared_aspaces: u64,
    /// Scratch for coherence invalidation sets (reused, never shrunk).
    inv_scratch: Vec<CoreId>,
    /// `log2(page_size)` — translation is a shift, not a division.
    page_shift: u32,
    /// `page_size - 1`.
    page_mask: u64,
    /// Memory latency in cycles.
    mem_latency: f64,
    /// First-level hit cost (1.0 when the spec has no caches).
    l1_hit_cycles: f64,
    /// Line shift of the coherence granularity (first cache level).
    coh_line_shift: u32,
    /// TLB miss penalty (0.0 without a TLB).
    tlb_miss_cycles: f64,
    /// The least any access can cost: the cheapest of every level's hit,
    /// the first-level hit charged to prefetched and cache-supplied lines,
    /// and the memory latency. The cutoff's lower bound is built on it.
    min_access_cycles: f64,
    contents: Contents,
    /// The census's reused buffers.
    census: census::Scratch,
    /// Strided traversals priced by the census since construction.
    census_priced: u64,
    next_asid: u64,
    seed: u64,
}

impl Machine {
    /// Build a machine from a validated spec. Panics on an invalid spec —
    /// specs are code, not user input.
    pub fn new(spec: MachineSpec) -> Self {
        Self::with_seed(spec, 0x5EED)
    }

    /// Build a machine with an explicit RNG seed for page allocation.
    pub fn with_seed(spec: MachineSpec, seed: u64) -> Self {
        spec.validate().expect("invalid machine spec");
        let nlev = spec.caches.len();
        let mut caches = Vec::new();
        let mut cache_of = vec![usize::MAX; spec.num_cores * nlev].into_boxed_slice();
        let mut solo = vec![false; spec.num_cores * nlev].into_boxed_slice();
        for (li, cl) in spec.caches.iter().enumerate() {
            for group in &cl.sharing {
                for &c in group {
                    cache_of[c * nlev + li] = caches.len();
                    solo[c * nlev + li] = group.len() == 1;
                }
                caches.push(SetAssocCache::with_geometry(
                    cl.size,
                    cl.line_size,
                    cl.associativity,
                ));
            }
        }
        let levels: Box<[LevelParam]> = spec
            .caches
            .iter()
            .map(|cl| LevelParam {
                line_shift: cl.line_size.trailing_zeros(),
                virt: matches!(cl.indexing, Indexing::Virtual),
                hit_cycles: cl.hit_cycles,
            })
            .collect();
        let prefetchers = (0..spec.num_cores)
            .map(|_| StridePrefetcher::new(spec.prefetch_max_stride))
            .collect();
        let tlbs = (0..spec.num_cores)
            .map(|_| spec.tlb.map(|t| SetAssocCache::new(1, t.entries)))
            .collect();
        let bus_of: Vec<Option<usize>> = (0..spec.num_cores)
            .map(|c| {
                spec.memory
                    .resources
                    .iter()
                    .position(|r| r.cores.contains(&c))
            })
            .collect();
        let bus_bytes_per_cycle: Vec<f64> = spec
            .memory
            .resources
            .iter()
            .map(|r| r.capacity_gbs / spec.clock_ghz)
            .collect();
        let last_line = spec.caches.last().map_or(64, |c| c.line_size) as f64;
        let transfer_cycles = bus_of
            .iter()
            .map(|b| b.map_or(0.0, |bus| last_line / bus_bytes_per_cycle[bus]))
            .collect();
        let bus_free_at = vec![0.0; spec.memory.resources.len()];
        let coherence = spec
            .coherence
            .map(|c| CoherenceEngine::new(c, spec.num_cores));
        let page_shift = spec.page_size.trailing_zeros();
        let page_mask = spec.page_size as u64 - 1;
        let mem_latency = spec.memory.latency_cycles;
        let l1_hit_cycles = spec.caches.first().map_or(1.0, |c| c.hit_cycles);
        let coh_line_shift = spec
            .caches
            .first()
            .map_or(6, |c| c.line_size.trailing_zeros());
        let tlb_miss_cycles = spec.tlb.map_or(0.0, |t| t.miss_cycles);
        let min_access_cycles = levels
            .iter()
            .map(|lp| lp.hit_cycles)
            .fold(l1_hit_cycles.min(mem_latency), f64::min);
        Self {
            spec,
            caches,
            cache_of,
            levels,
            prefetchers,
            tlbs,
            bus_of,
            transfer_cycles,
            bus_free_at,
            coherence,
            solo,
            shared_aspaces: 0,
            inv_scratch: Vec::with_capacity(64),
            page_shift,
            page_mask,
            mem_latency,
            l1_hit_cycles,
            coh_line_shift,
            tlb_miss_cycles,
            min_access_cycles,
            contents: Contents::Flushed,
            census: census::Scratch::default(),
            census_priced: 0,
            next_asid: 1,
            seed,
        }
    }

    /// The machine's specification.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Allocate a benchmark array using the machine's page policy.
    pub fn alloc_array(&mut self, len_bytes: usize) -> SimArray {
        let asid = self.next_asid;
        self.next_asid += 1;
        let (page, policy) = (self.spec.page_size, self.spec.page_alloc);
        SimArray {
            aspace: Arc::new(AddressSpace::new(asid, len_bytes, page, policy, self.seed)),
            len: len_bytes,
            shared: false,
        }
    }

    /// Allocate a *shared* benchmark array: cores accessing it through
    /// [`Self::traverse_shared`] go through the MESI coherence layer
    /// (when the machine has one). One address space, so every core sees
    /// the same virtual addresses — the model of a threads-on-one-node
    /// probe rather than the paper's process-per-core MPI layout.
    pub fn alloc_shared_array(&mut self, len_bytes: usize) -> SimArray {
        let mut arr = self.alloc_array(len_bytes);
        arr.shared = true;
        self.shared_aspaces += 1;
        arr
    }

    /// Flush every cache and TLB, reset the prefetchers and drop the
    /// coherence directory's state and traffic (by epoch stamp, O(1)).
    /// The bus clocks need no reset: every driver call starts them at 0.
    /// A pass the census still owes the caches is dropped unwritten.
    pub fn reset(&mut self) {
        self.contents = Contents::Flushed;
        for c in &mut self.caches {
            c.flush();
        }
        for p in &mut self.prefetchers {
            p.reset();
        }
        for t in self.tlbs.iter_mut().flatten() {
            t.flush();
        }
        if let Some(engine) = &mut self.coherence {
            engine.reset();
        }
    }

    /// Snoop-bus traffic accumulated so far; `None` when the spec has no
    /// coherence layer.
    pub fn coherence_traffic(&self) -> Option<CoherenceTraffic> {
        self.coherence.as_ref().map(|e| e.traffic())
    }

    /// Return the accumulated traffic and zero the counters (directory
    /// state is kept). `None` without coherence.
    pub fn take_coherence_traffic(&mut self) -> Option<CoherenceTraffic> {
        self.coherence.as_mut().map(|e| e.take_traffic())
    }

    /// Line key for a level: physical caches key on the physical line,
    /// virtual ones on `(asid, virtual line)`.
    #[inline(always)]
    fn level_key(lp: &LevelParam, asid_tag: u64, vaddr: u64, paddr: u64) -> u64 {
        if lp.virt {
            asid_tag | (vaddr >> lp.line_shift)
        } else {
            paddr >> lp.line_shift
        }
    }

    /// Run every lane to completion in lockstep: always advance the
    /// most-behind unfinished lane, replaying it as a *block* while it
    /// stays the soonest. The lane that runs is exactly the one the
    /// reference engine's linear `min_by` scan would pick (see
    /// [`SchedEntry`]).
    ///
    /// The other lanes wait in a heap; its top's clock is the block's
    /// replay limit. A block ends when the lane finishes (the top is
    /// popped), when its clock reaches the limit, or after `budget`
    /// accesses. An unfinished lane is then compared with the top: if it
    /// is still the soonest — a budget stop, or a tie it wins on index —
    /// it keeps running with no heap operation; otherwise it is written
    /// over the top (one sift-down) and the old top runs next. That is
    /// "push, then pop" in one step, and since no two entries compare
    /// equal, the order in which lanes run does not depend on how the
    /// heap lays them out.
    ///
    /// Everything that depends only on the lane is resolved when it is
    /// picked (see the module docs); its clock and progress live in locals
    /// and are written back when its block ends. Memory-bus and snoop-bus
    /// serialization both happen against the lane's own virtual clock.
    ///
    /// Returns `false`, leaving the lanes wherever they were, as soon as
    /// some lane cannot finish by `cutoff` (see [`Lane::cannot_finish_by`]);
    /// the test runs before the first access and after every block, and
    /// under a finite cutoff a block is at most [`CUTOFF_CHECK_EVERY`]
    /// accesses long so that a lane running alone is tested too. With
    /// `cutoff = ∞` the test never fires and blocks are unbounded: that is
    /// the path every traversal and unbounded replay takes.
    ///
    /// A pass the census owes the caches is written in first, so the
    /// lanes see what the engine would have left.
    fn lockstep<P: FnMut(usize) -> (u64, bool)>(
        &mut self,
        lanes: &mut [Lane<'_, P>],
        cutoff: f64,
    ) -> bool {
        self.settle_owed_pass();
        self.restart_clocks();
        let c_min = self.min_access_cycles;
        if lanes.iter().any(|l| l.cannot_finish_by(c_min, cutoff)) {
            return false;
        }
        // At infinity nothing can be cut off; skipping the test there keeps
        // it out of the one-access blocks of every concurrent traversal.
        let bounded = cutoff < f64::INFINITY;
        let budget = if bounded {
            CUTOFF_CHECK_EVERY
        } else {
            usize::MAX
        };
        let (page_shift, page_mask) = (self.page_shift, self.page_mask);
        let (coh_line_shift, tlb_miss_cycles) = (self.coh_line_shift, self.tlb_miss_cycles);
        let (l1_hit_cycles, mem_latency) = (self.l1_hit_cycles, self.mem_latency);
        let may_skip = self.shared_aspaces <= 1;
        let nlev = self.levels.len();
        let Self {
            levels,
            cache_of,
            solo,
            caches,
            prefetchers,
            tlbs,
            bus_of,
            transfer_cycles,
            bus_free_at,
            coherence,
            inv_scratch,
            ..
        } = self;
        let levels = &levels[..];
        let cache_of = &cache_of[..];
        // Every clock starts at 0, so lane 0 runs first (ties go to the
        // smaller index) and the rest wait.
        let mut heap: std::collections::BinaryHeap<SchedEntry> = (1..lanes.len())
            .map(|idx| SchedEntry { clock: 0.0, idx })
            .collect();
        let mut cur = 0;
        loop {
            let lane = &mut lanes[cur];
            let core = lane.core;
            let array = lane.array;
            let aspace = array.aspace();
            let asid_tag = aspace.asid() << 40;
            let path = &cache_of[core * nlev..][..nlev];
            let solo = &solo[core * nlev..][..nlev];
            let prefetcher = &mut prefetchers[core];
            let mut tlb = tlbs[core].as_mut();
            let mut bus_free = bus_of[core].map(|bus| &mut bus_free_at[bus]);
            let transfer = transfer_cycles[core];
            // The directory, for a shared array on a machine that models
            // coherence. A private array never enters it (each benchmark
            // process owns its pages), so the pre-coherence stages time out
            // bit-identically.
            let mut directory = coherence.as_mut().filter(|_| array.shared);
            let (period, total, warm) = (lane.period, lane.total, lane.warm);
            let mut clock = lane.clock;
            let mut done = lane.done;
            let mut idx = lane.idx;
            // The top stays put while this lane runs, so its clock is the
            // limit of every block until the lane gives way.
            let limit = heap.peek().map_or(f64::INFINITY, |e| e.clock);
            // One exit test per access serves both ends: the block's budget
            // is folded into the access count it stops at.
            let mut stop = total.min(done.saturating_add(budget));
            let next = loop {
                let (vaddr, write) = (lane.pattern)(idx);
                // Translation is a shift/mask: pages are power-of-two sized
                // and `frame * page_size` has no low bits set.
                let vpage = vaddr >> page_shift;
                let paddr = (aspace.frame_of(vpage as usize) << page_shift) | (vaddr & page_mask);
                // Translation cost first: a TLB miss costs extra regardless
                // of where the data itself is found.
                let mut tlb_penalty = 0.0;
                if let Some(tlb) = tlb.as_deref_mut() {
                    if !tlb.touch(asid_tag | vpage) {
                        tlb_penalty = tlb_miss_cycles;
                    }
                }
                let covered = prefetcher.access(vaddr);
                // Walk outward until a level holds the line. Each level that
                // misses takes the line in the same `touch`; the levels below
                // the hit are not consulted.
                let mut hit_level = nlev; // nlev = memory
                for (li, (lp, &mine)) in levels.iter().zip(path).enumerate() {
                    if caches[mine].touch(Self::level_key(lp, asid_tag, vaddr, paddr)) {
                        hit_level = li;
                        break;
                    }
                }
                // Coherence: the directory decides the transaction cost and
                // which remote copies die. The misses above have already
                // filled this core's caches, which commutes with this step:
                // invalidations only ever reach *other* sharing groups.
                let mut coh_extra = 0.0;
                let mut supplied_by_cache = false;
                if let Some(engine) = directory.as_deref_mut() {
                    // Read-hit directory skip: a read that hits a level
                    // *private* to this core proves the core already holds a
                    // valid copy, so the directory access would be a strict
                    // no-op (no state change, no traffic, zero extra cycles —
                    // MESI reads of a held line are silent). The proof needs
                    // line residency to imply the valid bit, which holds
                    // while at most one shared address space exists (see
                    // `shared_aspaces`): every invalidation then removes
                    // exactly the victim's resident keys, so a stale resident
                    // copy is impossible. Writes by a Modified owner are
                    // skipped inside the engine (`access_into`). The retained
                    // reference engine always probes its directory and the
                    // differential suite holds the two engines to identical
                    // traffic and cycles, skips included.
                    let skip = !write && hit_level < nlev && may_skip && solo[hit_level];
                    if !skip {
                        let res = engine.access_into(
                            core,
                            paddr >> coh_line_shift,
                            write,
                            hit_level < nlev,
                            clock,
                            inv_scratch,
                        );
                        coh_extra = res.extra_cycles;
                        supplied_by_cache = res.supplied_by_cache;
                        // Physically remove invalidated copies from every
                        // cache instance the victims do not share with the
                        // writer. The victims see the same address space
                        // (shared array), so the writer's line keys are
                        // theirs too.
                        for &victim in inv_scratch.iter() {
                            let theirs = &cache_of[victim * nlev..][..nlev];
                            for (lp, (&theirs, &mine)) in levels.iter().zip(theirs.iter().zip(path))
                            {
                                if theirs != mine {
                                    let key = Self::level_key(lp, asid_tag, vaddr, paddr);
                                    caches[theirs].invalidate(key);
                                }
                            }
                        }
                    }
                }
                let (cost, mem) = if hit_level < nlev {
                    (
                        levels[hit_level].hit_cycles + tlb_penalty + coh_extra,
                        false,
                    )
                } else if covered || supplied_by_cache {
                    // The line arrived without a memory access: prefetched,
                    // or supplied cache-to-cache by the previous owner. The
                    // demand access costs an L1 hit plus any coherence
                    // transactions.
                    (l1_hit_cycles + tlb_penalty + coh_extra, false)
                } else {
                    (mem_latency + tlb_penalty + coh_extra, true)
                };
                match bus_free.as_deref_mut() {
                    Some(free) if mem => {
                        let start = clock.max(*free);
                        *free = start + transfer;
                        clock = start + transfer + cost;
                    }
                    _ => clock += cost,
                }
                done += 1;
                idx += 1;
                if idx == period {
                    idx = 0;
                }
                if done == warm {
                    lane.measure_start = clock;
                }
                if done < stop && clock < limit {
                    continue;
                }
                // The block ends.
                lane.clock = clock;
                lane.done = done;
                lane.idx = idx;
                if done >= total {
                    break heap.pop();
                }
                if bounded && lane.cannot_finish_by(c_min, cutoff) {
                    return false;
                }
                let me = SchedEntry { clock, idx: cur };
                match heap.peek_mut() {
                    Some(mut top) if *top > me => {
                        let next = *top;
                        *top = me;
                        break Some(next);
                    }
                    _ => stop = total.min(done.saturating_add(budget)),
                }
            };
            match next {
                Some(SchedEntry { idx, .. }) => cur = idx,
                None => return true,
            }
        }
    }

    /// Start the memory and snoop buses at cycle 0, as every driver call
    /// does with its lanes: a bus left busy by the previous call would
    /// otherwise hold this call's first memory access until the previous
    /// call's finish time.
    fn restart_clocks(&mut self) {
        self.bus_free_at.fill(0.0);
        if let Some(engine) = &mut self.coherence {
            engine.restart_snoop_clock();
        }
    }

    /// Run `warmup` un-measured passes followed by `passes` measured passes
    /// of every job concurrently in lockstep, one access at a time from
    /// whichever core's virtual clock is furthest behind. Returns average
    /// measured cycles per access, per job.
    ///
    /// One job is the engine under the paper's Fig. 1 loop: the simulator
    /// performs the same address sequence the real kernel would. Several
    /// jobs share caches, so shared levels see the interleaved streams and
    /// evict each other's lines, and memory accesses serialize on each
    /// core's innermost bus. The MESI layer tracks every access to a
    /// shared array: stores invalidate remote copies, ping-ponging lines
    /// pay snoop transactions, and the traffic shows up in
    /// [`Self::coherence_traffic`].
    ///
    /// One job on a freshly reset machine is usually priced from its
    /// census rather than replayed (module docs); the result, the
    /// counters and what later calls see are the same either way.
    pub fn traverse_shared(
        &mut self,
        jobs: &[SharedJob<'_>],
        warmup: usize,
        passes: usize,
    ) -> Vec<f64> {
        assert!(!jobs.is_empty());
        assert!(passes > 0, "need at least one measured pass");
        for j in jobs {
            assert!(j.stride > 0, "stride must be positive");
            assert!(j.count > 0, "need at least one access per pass");
            assert!(j.core < self.spec.num_cores, "core out of range");
            let span = j.offset + (j.count - 1) * j.stride;
            assert!(span < j.array.len().max(1), "job walks past its array");
        }
        if let [job] = jobs {
            if let Some(cycles) = self.census(job, warmup, passes) {
                return vec![cycles];
            }
        }
        self.replay_strided(jobs, warmup, passes)
    }

    /// [`Self::traverse_shared`] on the engine, access by access.
    fn replay_strided(&mut self, jobs: &[SharedJob<'_>], warmup: usize, passes: usize) -> Vec<f64> {
        let mut lanes: Vec<_> = jobs
            .iter()
            .map(|j| {
                let (offset, stride, write) = (j.offset, j.stride, j.write);
                let pass = move |i| ((offset + i * stride) as u64, write);
                Lane::new(j.core, j.array, pass, j.count, warmup, passes)
            })
            .collect();
        self.lockstep(&mut lanes, f64::INFINITY);
        lanes
            .iter()
            .map(|l| (l.clock - l.measure_start) / (l.total - l.warm) as f64)
            .collect()
    }

    /// Replay an arbitrary virtual-address trace on one core and return
    /// the average cycles per access.
    ///
    /// This is the evaluation hook for autotuned kernels: a blocked matrix
    /// multiply, say, can generate its exact access pattern and measure
    /// how a tile size behaves on this machine's hierarchy.
    pub fn run_trace(&mut self, core: CoreId, array: &SimArray, addrs: &[u64]) -> f64 {
        assert!(!addrs.is_empty(), "empty trace");
        let mut lane = [Lane::new(
            core,
            array,
            |i| (addrs[i], false),
            addrs.len(),
            0,
            1,
        )];
        self.lockstep(&mut lane, f64::INFINITY);
        lane[0].clock / addrs.len() as f64
    }

    /// Replay several explicit traces concurrently in lockstep, one
    /// access at a time from whichever core's virtual clock is furthest
    /// behind — the multi-core generalization of [`Self::run_trace`].
    /// Shared caches see the interleaved streams, stores to shared
    /// arrays go through the MESI layer, and memory accesses serialize
    /// on each core's innermost bus. Returns the **total** cycles each
    /// job took (its finish time on its own virtual clock); the longest
    /// entry is the kernel's makespan.
    pub fn run_traces(&mut self, jobs: &[TraceJob<'_>]) -> Vec<f64> {
        let streams = jobs
            .iter()
            .map(|j| {
                let steps = j.steps;
                StreamJob {
                    core: j.core,
                    array: j.array,
                    next: move |i| steps[i],
                    len: steps.len(),
                }
            })
            .collect();
        self.run_streams(streams, f64::INFINITY)
            .expect("nothing is cut off at infinity")
    }

    /// [`Self::run_traces`] over steps generated as they are replayed, and
    /// abandoned as soon as the makespan is known to exceed `cutoff`.
    ///
    /// Returns each job's finish time, or `None` when some job's finish —
    /// and so the longest, the makespan — is provably above `cutoff`. The
    /// proof is a lower bound (every access still to come costs at least
    /// the machine's cheapest hit), taken before the first access and then
    /// at least every 1024 accesses of each lane. A replay that returns
    /// `Some` had a makespan ≤ `cutoff` *or* was simply never caught:
    /// `Some` is always the exact result, and `None` is never returned
    /// for a makespan ≤ `cutoff`. After `None` the machine's caches and
    /// counters are wherever the replay stopped. With
    /// `cutoff = f64::INFINITY` this is `run_traces`, access for access.
    pub fn run_streams<G: FnMut(usize) -> (u64, bool)>(
        &mut self,
        jobs: Vec<StreamJob<'_, G>>,
        cutoff: f64,
    ) -> Option<Vec<f64>> {
        assert!(!jobs.is_empty());
        let mut lanes: Vec<_> = jobs
            .into_iter()
            .map(|j| {
                assert!(j.len > 0, "empty trace");
                assert!(j.core < self.spec.num_cores, "core out of range");
                Lane::new(j.core, j.array, j.next, j.len, 0, 1)
            })
            .collect();
        self.lockstep(&mut lanes, cutoff)
            .then(|| lanes.iter().map(|l| l.clock).collect())
    }

    /// How many strided traversals since construction were priced from
    /// their census instead of replayed.
    pub fn census_priced(&self) -> u64 {
        self.census_priced
    }

    /// Convenience: hit/miss statistics of the cache instance serving
    /// `core` at `level` (1-based).
    pub fn cache_stats(&self, level: u8, core: CoreId) -> Option<(u64, u64)> {
        let li = self.spec.caches.iter().position(|c| c.level == level)?;
        Some(self.caches[self.cache_of[core * self.levels.len() + li]].stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::vm::PageAllocPolicy;
    use crate::{KB, MB};

    /// The paper's Fig. 1 loop as a job: `core` reading all of `array`,
    /// `stride` bytes apart.
    fn strided(core: CoreId, array: &SimArray, stride: usize) -> SharedJob<'_> {
        SharedJob {
            core,
            array,
            offset: 0,
            stride,
            count: array.len().div_ceil(stride),
            write: false,
        }
    }

    /// Traversal cost of an array that fits L1 is the L1 hit cost.
    #[test]
    fn l1_resident_array_hits() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_array(4 * KB);
        let cycles = m.traverse_shared(&[strided(0, &arr, KB)], 1, 3)[0];
        assert!((cycles - 2.0).abs() < 1e-9, "cycles = {cycles}");
    }

    /// An array larger than L1 but within L2 costs the L2 hit time.
    #[test]
    fn l2_resident_array_costs_l2() {
        // 32 KB: beyond the 8 KB L1, well within the (physically indexed)
        // 64 KB L2 — use coloring so no page-set overflows.
        let mut spec = presets::tiny_smp();
        spec.page_alloc = PageAllocPolicy::Colored;
        let mut m = Machine::new(spec);
        let arr = m.alloc_array(32 * KB);
        let cycles = m.traverse_shared(&[strided(0, &arr, KB)], 1, 3)[0];
        assert!((cycles - 10.0).abs() < 0.5, "cycles = {cycles}");
    }

    /// An array much larger than every cache costs about the memory latency.
    #[test]
    fn memory_resident_array_costs_memory() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_array(512 * KB);
        let cycles = m.traverse_shared(&[strided(0, &arr, KB)], 1, 2)[0];
        // latency 100 + fsb transfer 64 B at 3 GB/s / 1 GHz = ~21.3 cy.
        assert!(cycles > 100.0 && cycles < 140.0, "cycles = {cycles}");
    }

    /// The cycles-per-access curve is monotone through the hierarchy.
    #[test]
    fn cost_rises_with_array_size() {
        let mut m = Machine::new(presets::tiny_smp());
        let mut last = 0.0;
        for size in [4 * KB, 16 * KB, 48 * KB, 256 * KB] {
            let arr = m.alloc_array(size);
            m.reset();
            let c = m.traverse_shared(&[strided(0, &arr, KB)], 1, 2)[0];
            assert!(c >= last - 0.5, "cost not monotone at {size}: {c} < {last}");
            last = c;
        }
    }

    /// Deterministic: same seed, same measurements.
    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut m = Machine::with_seed(presets::tiny_smp(), seed);
            let arr = m.alloc_array(128 * KB);
            m.traverse_shared(&[strided(0, &arr, KB)], 1, 2)[0]
        };
        assert_eq!(run(1), run(1));
    }

    /// Each driver call is its own time origin: after a warm-up
    /// `run_trace`, a second one over the same strided addresses reads
    /// what the measured pass of one `traverse_shared` reads, and does
    /// not wait out the bus backlog of the first. The two differ only in
    /// rounding: the measured pass is a difference of two clocks, the
    /// second call one clock from 0.
    #[test]
    fn back_to_back_run_traces_start_from_a_free_bus() {
        for (spec, size) in [(presets::tiny_smp(), 128 * KB), (presets::dempsey(), MB)] {
            let mut m = Machine::with_seed(spec, 7);
            let arr = m.alloc_array(size);
            let addrs: Vec<u64> = (0..size as u64).step_by(KB).collect();
            m.reset();
            m.run_trace(0, &arr, &addrs);
            let second = m.run_trace(0, &arr, &addrs);
            m.reset();
            let one = m.traverse_shared(&[strided(0, &arr, KB)], 1, 1)[0];
            let name = &m.spec().name;
            assert!(
                (second - one).abs() < 1e-12 * one,
                "{name}: {second} vs {one}"
            );
        }
    }

    /// The snoop bus restarts with every driver call too. Two cores
    /// ping-pong one line of a shared array in two calls, nothing measured
    /// before the first access: the second call finds the lines already
    /// in the caches, so its slower core costs at most what the first
    /// call's did — unless its first transaction waits for the snoop bus
    /// until the first call's finish time.
    #[test]
    fn back_to_back_coherent_calls_start_from_a_free_snoop_bus() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_shared_array(4 * KB);
        let job = |core, offset| SharedJob {
            core,
            array: &arr,
            offset,
            stride: 64,
            count: 16,
            write: true,
        };
        let jobs = [job(0, 0), job(1, 8)];
        m.reset();
        let first = m.traverse_shared(&jobs, 0, 2);
        let second = m.traverse_shared(&jobs, 0, 2);
        let slower = |cycles: &[f64]| cycles.iter().copied().fold(0.0, f64::max);
        assert!(
            slower(&second) <= slower(&first),
            "second call {second:?} after {first:?}"
        );
    }

    /// Two cores thrashing a shared L2 see a large slowdown; private-L2
    /// cores do not — the Fig. 5 signal.
    #[test]
    fn shared_l2_pair_thrashes() {
        let spec = presets::tiny_shared_l2(); // 128 KB L2 shared by {0,1},{2,3}
        let mut m = Machine::new(spec);
        let size = 2 * 128 * KB / 3;
        let a = m.alloc_array(size);
        let b = m.alloc_array(size);
        m.reset();
        let refc = m.traverse_shared(&[strided(0, &a, KB)], 1, 2)[0];
        m.reset();
        let pair = m.traverse_shared(&[strided(0, &a, KB), strided(1, &b, KB)], 1, 2);
        let ratio = pair[0] / refc;
        assert!(ratio > 2.0, "sharing ratio = {ratio}");

        m.reset();
        let apart = m.traverse_shared(&[strided(0, &a, KB), strided(2, &b, KB)], 1, 2);
        let ratio = apart[0] / refc;
        assert!(ratio < 1.5, "non-sharing ratio = {ratio}");
    }

    /// Small-stride traversal is hidden by the prefetcher: this is why
    /// mcalibrator strides by 1 KB (§III-A).
    #[test]
    fn prefetcher_hides_small_strides() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_array(256 * KB);
        m.reset();
        let seq = m.traverse_shared(&[strided(0, &arr, 64)], 1, 1)[0];
        m.reset();
        let spaced = m.traverse_shared(&[strided(0, &arr, KB)], 1, 1)[0];
        assert!(
            seq < spaced / 4.0,
            "prefetched sequential {seq} should be far below strided {spaced}"
        );
    }

    /// Concurrent memory streams serialize on the shared bus. With one
    /// outstanding access per core, queuing only appears when the line
    /// transfer time rivals the memory latency, so this test narrows the
    /// bus until it must.
    #[test]
    fn bus_serializes_memory_streams() {
        let mut spec = presets::tiny_smp();
        // 0.2 GB/s at 1 GHz -> 320 cycles per 64 B line, >> 100 cy latency.
        spec.memory.resources[0].capacity_gbs = 0.2;
        let mut m = Machine::new(spec);
        let size = 512 * KB;
        let a = m.alloc_array(size);
        let b = m.alloc_array(size);
        m.reset();
        let solo = m.traverse_shared(&[strided(0, &a, KB)], 1, 1)[0];
        m.reset();
        let both = m.traverse_shared(&[strided(0, &a, KB), strided(1, &b, KB)], 1, 1);
        assert!(
            both[0] > solo * 1.3,
            "no bus contention visible: solo {solo}, both {}",
            both[0]
        );
    }

    /// Dunnington ground truth: core 0 + 12 share L2 (ratio > 2), core
    /// 0 + 1 do not. This is the heart of paper Fig. 8(a).
    #[test]
    fn dunnington_l2_sharing_visible() {
        let spec = presets::dunnington();
        let l2 = spec.cache_size(2).unwrap();
        let mut m = Machine::new(spec);
        let size = 2 * l2 / 3;
        let a = m.alloc_array(size);
        let b = m.alloc_array(size);
        m.reset();
        let refc = m.traverse_shared(&[strided(0, &a, KB)], 1, 2)[0];
        m.reset();
        let sharing = m.traverse_shared(&[strided(0, &a, KB), strided(12, &b, KB)], 1, 2);
        m.reset();
        let apart = m.traverse_shared(&[strided(0, &a, KB), strided(1, &b, KB)], 1, 2);
        let r_share = sharing[0] / refc;
        let r_apart = apart[0] / refc;
        assert!(r_share > 2.0, "0-12 ratio = {r_share}");
        assert!(r_apart < 2.0, "0-1 ratio = {r_apart}");
    }

    /// A TLB-equipped machine charges misses once the page working set
    /// exceeds the entry count.
    #[test]
    fn tlb_misses_appear_beyond_capacity() {
        let spec = presets::tiny_with_tlb(); // 64 entries, 25 cy, 1 KB pages
        let mut m = Machine::new(spec);
        // 32 pages: fits the TLB -> steady state has no penalty.
        let small = m.alloc_array(32 * KB);
        m.reset();
        let c_small = m.traverse_shared(&[strided(0, &small, KB)], 1, 2)[0];
        // 128 pages: cyclic LRU thrashes all 64 entries -> +25 cy each.
        let large = m.alloc_array(128 * KB);
        m.reset();
        let c_large = m.traverse_shared(&[strided(0, &large, KB)], 1, 2)[0];
        // Compare with the TLB-free machine at the same sizes.
        let mut base = Machine::new(presets::tiny_smp());
        let small0 = base.alloc_array(32 * KB);
        base.reset();
        let b_small = base.traverse_shared(&[strided(0, &small0, KB)], 1, 2)[0];
        let large0 = base.alloc_array(128 * KB);
        base.reset();
        let b_large = base.traverse_shared(&[strided(0, &large0, KB)], 1, 2)[0];
        assert!((c_small - b_small).abs() < 1.0, "{c_small} vs {b_small}");
        assert!(
            c_large > b_large + 20.0,
            "TLB penalty missing: {c_large} vs {b_large}"
        );
    }

    /// Two cores writing the *same* line of a shared array ping-pong it:
    /// every store invalidates the other core's Modified copy. Writes a
    /// full line apart see none of that.
    #[test]
    fn false_sharing_ping_pong_costs_and_counts() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_shared_array(4 * KB);
        let line = m.spec().caches[0].line_size;
        let job = |core, offset| SharedJob {
            core,
            array: &arr,
            offset,
            stride: line,
            count: 8,
            write: true,
        };
        m.reset();
        let same_line = m.traverse_shared(&[job(0, 0), job(1, 8)], 1, 4);
        let t_shared = m.coherence_traffic().unwrap();
        m.reset();
        let padded = m.traverse_shared(&[job(0, 0), job(1, 8 * line)], 1, 4);
        let t_padded = m.coherence_traffic().unwrap();
        assert!(
            same_line[0] > 4.0 * padded[0],
            "no ping-pong visible: {same_line:?} vs {padded:?}"
        );
        assert!(t_shared.invalidations > 0, "{t_shared:?}");
        assert!(t_shared.writebacks > 0, "{t_shared:?}");
        assert!(t_shared.coherence_misses > 0, "{t_shared:?}");
        // Disjoint lines: each core keeps its lines Modified after the
        // first exchange-free claim.
        assert_eq!(t_padded.coherence_misses, 0, "{t_padded:?}");
    }

    /// A handoff (one core writes, the other reads the same lines) is
    /// served cache-to-cache: interventions, not memory traffic.
    #[test]
    fn producer_consumer_handoff_uses_interventions() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_shared_array(4 * KB);
        let line = m.spec().caches[0].line_size;
        m.reset();
        m.traverse_shared(
            &[
                SharedJob {
                    core: 0,
                    array: &arr,
                    offset: 0,
                    stride: line,
                    count: 16,
                    write: true,
                },
                SharedJob {
                    core: 1,
                    array: &arr,
                    offset: 0,
                    stride: line,
                    count: 16,
                    write: false,
                },
            ],
            1,
            4,
        );
        let t = m.coherence_traffic().unwrap();
        assert!(t.interventions > 0, "{t:?}");
        assert!(t.writebacks > 0, "{t:?}");
    }

    /// Private arrays never touch the directory: read-only suite stages
    /// are bit-identical with and without the coherence layer.
    #[test]
    fn coherence_layer_leaves_private_traversals_untouched() {
        let with = presets::tiny_smp();
        let mut without = presets::tiny_smp();
        without.coherence = None;
        let run = |spec: MachineSpec| {
            let mut m = Machine::with_seed(spec, 77);
            let a = m.alloc_array(96 * KB);
            let b = m.alloc_array(96 * KB);
            m.reset();
            m.traverse_shared(&[strided(0, &a, KB), strided(1, &b, KB)], 1, 2)
        };
        assert_eq!(run(with.clone()), run(without));
        let mut m = Machine::new(with);
        let a = m.alloc_array(32 * KB);
        m.traverse_shared(&[strided(0, &a, KB)], 1, 2);
        assert_eq!(
            m.coherence_traffic().unwrap(),
            crate::coherence::CoherenceTraffic::default()
        );
    }

    /// Traffic counters are a pure function of the access sequence:
    /// bit-identical across fresh runs with the same seed.
    #[test]
    fn coherence_traffic_is_deterministic() {
        let run = || {
            let mut m = Machine::with_seed(presets::tiny_shared_l2(), 9);
            let arr = m.alloc_shared_array(8 * KB);
            m.reset();
            let cycles = m.traverse_shared(
                &[
                    SharedJob {
                        core: 0,
                        array: &arr,
                        offset: 0,
                        stride: 64,
                        count: 32,
                        write: true,
                    },
                    SharedJob {
                        core: 2,
                        array: &arr,
                        offset: 16,
                        stride: 64,
                        count: 32,
                        write: true,
                    },
                ],
                1,
                3,
            );
            (cycles, m.coherence_traffic().unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn take_coherence_traffic_drains() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_shared_array(KB);
        m.traverse_shared(
            &[
                SharedJob {
                    core: 0,
                    array: &arr,
                    offset: 0,
                    stride: 64,
                    count: 4,
                    write: true,
                },
                SharedJob {
                    core: 1,
                    array: &arr,
                    offset: 0,
                    stride: 64,
                    count: 4,
                    write: true,
                },
            ],
            0,
            2,
        );
        let t = m.take_coherence_traffic().unwrap();
        assert!(t.transactions() > 0);
        assert_eq!(
            m.coherence_traffic().unwrap(),
            crate::coherence::CoherenceTraffic::default()
        );
    }

    /// run_traces on one core agrees with run_trace on the same
    /// read-only sequence (total = avg × len), and a two-core replay of
    /// a ping-ponging shared line costs more than disjoint-line writes.
    #[test]
    fn run_traces_matches_run_trace_and_sees_coherence() {
        let mut m = Machine::with_seed(presets::tiny_smp(), 11);
        let arr = m.alloc_array(64 * KB);
        let addrs: Vec<u64> = (0..256u64).map(|i| (i * 1031) % (64 * KB as u64)).collect();
        m.reset();
        let avg = m.run_trace(0, &arr, &addrs);
        let steps: Vec<(u64, bool)> = addrs.iter().map(|&a| (a, false)).collect();
        let mut m2 = Machine::with_seed(presets::tiny_smp(), 11);
        let arr2 = m2.alloc_array(64 * KB);
        m2.reset();
        let total = m2.run_traces(&[TraceJob {
            core: 0,
            array: &arr2,
            steps: &steps,
        }]);
        assert!(
            (total[0] - avg * addrs.len() as f64).abs() < 1e-6,
            "{} vs {}",
            total[0],
            avg * addrs.len() as f64
        );

        // Two writers on one line ping-pong; a line apart they do not.
        let mut m = Machine::new(presets::tiny_smp());
        let shared = m.alloc_shared_array(4 * KB);
        let line = m.spec().caches[0].line_size as u64;
        let near: Vec<Vec<(u64, bool)>> = (0..2)
            .map(|c| (0..32).map(|_| (c * 8, true)).collect())
            .collect();
        let far: Vec<Vec<(u64, bool)>> = (0..2)
            .map(|c| (0..32).map(|_| (c * 8 * line, true)).collect())
            .collect();
        m.reset();
        let t_near = m.run_traces(&[
            TraceJob {
                core: 0,
                array: &shared,
                steps: &near[0],
            },
            TraceJob {
                core: 1,
                array: &shared,
                steps: &near[1],
            },
        ]);
        m.reset();
        let t_far = m.run_traces(&[
            TraceJob {
                core: 0,
                array: &shared,
                steps: &far[0],
            },
            TraceJob {
                core: 1,
                array: &shared,
                steps: &far[1],
            },
        ]);
        let near_max = t_near.iter().cloned().fold(0.0, f64::max);
        let far_max = t_far.iter().cloned().fold(0.0, f64::max);
        assert!(
            near_max > 2.0 * far_max,
            "ping-pong {near_max} vs padded {far_max}"
        );
    }

    /// Seeded steps over a shared arena, a third of them stores, with a
    /// hot line every lane writes: hits, misses, bus waits and coherence
    /// transactions all take part.
    fn mixed_steps(lanes: usize, len: usize, arena: usize) -> Vec<Vec<(u64, bool)>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..lanes)
            .map(|_| {
                (0..len)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let addr = if i % 7 == 0 {
                            0
                        } else {
                            ((state >> 33) % arena as u64) & !7
                        };
                        (addr, state >> 61 < 3)
                    })
                    .collect()
            })
            .collect()
    }

    fn stream_jobs<'a>(
        cores: &[CoreId],
        array: &'a SimArray,
        steps: &'a [Vec<(u64, bool)>],
    ) -> Vec<StreamJob<'a, impl FnMut(usize) -> (u64, bool) + 'a>> {
        cores
            .iter()
            .zip(steps)
            .map(|(&core, steps)| StreamJob {
                core,
                array,
                next: move |i| steps[i],
                len: steps.len(),
            })
            .collect()
    }

    /// With nothing to cut off, a generated replay is `run_traces`: the
    /// finish times, every cache's counters and the snoop traffic.
    #[test]
    fn run_streams_at_infinity_is_run_traces() {
        for spec in [presets::tiny_smp(), presets::tiny_shared_l2()] {
            let cores = [0, 1, 3];
            let steps = mixed_steps(cores.len(), 3000, 96 * KB);
            let run = |streamed: bool| {
                let mut m = Machine::with_seed(spec.clone(), 5);
                let arena = m.alloc_shared_array(96 * KB);
                m.reset();
                let clocks = if streamed {
                    m.run_streams(stream_jobs(&cores, &arena, &steps), f64::INFINITY)
                        .expect("nothing is cut off at infinity")
                } else {
                    let jobs: Vec<_> = cores
                        .iter()
                        .zip(&steps)
                        .map(|(&core, steps)| TraceJob {
                            core,
                            array: &arena,
                            steps,
                        })
                        .collect();
                    m.run_traces(&jobs)
                };
                let bits: Vec<u64> = clocks.iter().map(|c| c.to_bits()).collect();
                let stats: Vec<_> = (0..m.spec().num_cores)
                    .flat_map(|c| [m.cache_stats(1, c), m.cache_stats(2, c)])
                    .collect();
                (bits, stats, m.coherence_traffic())
            };
            assert_eq!(run(true), run(false), "{}", spec.name);
        }
    }

    /// The cutoff never costs an exact result. For cutoffs on both sides
    /// of the makespan — the makespan itself and its two neighbours
    /// included — a replay that completes returns the unbounded clocks
    /// bit for bit, and one that is cut off had a makespan above the
    /// cutoff.
    #[test]
    fn cutoff_is_sound_on_both_sides_of_the_makespan() {
        let cores = [0, 1, 2];
        for (trial, len) in [400, 1500, 5000].into_iter().enumerate() {
            let steps = mixed_steps(cores.len(), len, 64 * KB);
            let run = |cutoff: f64| {
                let mut m = Machine::with_seed(presets::tiny_smp(), trial as u64);
                let arena = m.alloc_shared_array(64 * KB);
                m.reset();
                m.run_streams(stream_jobs(&cores, &arena, &steps), cutoff)
            };
            let exact = run(f64::INFINITY).expect("nothing is cut off at infinity");
            let makespan = exact.iter().cloned().fold(0.0, f64::max);
            for cutoff in [
                0.0,
                0.3 * makespan,
                0.9 * makespan,
                makespan.next_down(),
                makespan,
                makespan.next_up(),
                2.0 * makespan,
            ] {
                match run(cutoff) {
                    Some(clocks) => assert_eq!(clocks, exact, "len {len} cutoff {cutoff}"),
                    None => assert!(makespan > cutoff, "len {len}: {makespan} cut at {cutoff}"),
                }
            }
            assert!(run(0.3 * makespan).is_none(), "len {len}: never cut off");
        }
    }

    /// The lower bound is one product where the engine makes one rounded
    /// addition per access. A lane of nothing but hits, at a cost binary
    /// cannot represent, finishes *below* `len × cost` by the rounding of
    /// its running sum — and must still not be cut off by its own finish
    /// time, which is what the bound's N·ε discount is for.
    #[test]
    fn cutoff_equal_to_a_rounded_finish_is_not_cut_off() {
        let mut spec = presets::tiny_smp();
        spec.caches[0].hit_cycles = 0.1;
        let len = 200_000;
        let run = |cutoff: f64| {
            let mut m = Machine::new(spec.clone());
            let arr = m.alloc_array(4 * KB);
            m.reset();
            let hits = |len| StreamJob {
                core: 0,
                array: &arr,
                next: |_| (0, false),
                len,
            };
            // Bring the line in first, so that every access below hits.
            m.run_streams(vec![hits(1)], f64::INFINITY);
            m.run_streams(vec![hits(len)], cutoff)
        };
        let finish = run(f64::INFINITY).expect("nothing is cut off at infinity")[0];
        assert!(
            finish < len as f64 * 0.1,
            "the running sum did not round below the product: {finish}"
        );
        assert_eq!(run(finish), Some(vec![finish]));
        assert_eq!(run(finish * (1.0 - 1e-6)), None);
    }

    /// A lane running alone is tested against the cutoff as well: it
    /// stops within `CUTOFF_CHECK_EVERY` accesses of the first one at
    /// which its lower bound passes the cutoff.
    #[test]
    fn lone_lane_stops_within_one_check_interval_of_the_bound() {
        let spec = presets::tiny_smp();
        let c_min = spec.caches[0].hit_cycles;
        let (len, stride) = (20_000usize, KB);
        let pattern = move |i: usize| ((i * stride % (512 * KB)) as u64, false);
        // Clock after the first `upto` accesses, unbounded.
        let clock_after = |upto: usize| {
            let mut m = Machine::new(spec.clone());
            let arr = m.alloc_array(512 * KB);
            m.reset();
            let job = StreamJob {
                core: 0,
                array: &arr,
                next: pattern,
                len: upto,
            };
            m.run_streams(vec![job], f64::INFINITY).expect("unbounded")[0]
        };
        let cutoff = 0.2 * clock_after(len);
        let mut made = 0usize;
        let mut m = Machine::new(spec.clone());
        let arr = m.alloc_array(512 * KB);
        m.reset();
        let job = StreamJob {
            core: 0,
            array: &arr,
            next: |i| {
                made += 1;
                pattern(i)
            },
            len,
        };
        assert_eq!(m.run_streams(vec![job], cutoff), None);
        let bound = |done: usize| clock_after(done) + (len - done) as f64 * c_min;
        assert!(made > CUTOFF_CHECK_EVERY && made < len / 2, "made {made}");
        assert!(bound(made) > cutoff, "stopped before the bound passed");
        assert!(
            bound(made - CUTOFF_CHECK_EVERY) <= cutoff,
            "ran more than a check interval past the bound ({made} accesses)"
        );
    }

    #[test]
    fn cache_stats_accessible() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_array(4 * KB);
        m.traverse_shared(&[strided(0, &arr, KB)], 0, 1);
        let (h, mi) = m.cache_stats(1, 0).unwrap();
        assert!(h + mi > 0);
        assert!(m.cache_stats(9, 0).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_stride_panics() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_array(4 * KB);
        let job = SharedJob {
            stride: 0,
            ..strided(0, &arr, KB)
        };
        m.traverse_shared(&[job], 0, 1);
    }

    #[test]
    fn array_accessors() {
        let mut m = Machine::new(presets::tiny_smp());
        let arr = m.alloc_array(8 * KB);
        assert_eq!(arr.len(), 8 * KB);
        assert!(!arr.is_empty());
        assert_eq!(arr.aspace().num_pages(), 8 * KB / m.spec().page_size);
    }
}
