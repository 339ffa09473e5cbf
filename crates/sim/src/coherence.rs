//! MESI cache-coherence layer over the set-associative cache models.
//!
//! The paper's §III-B shared-cache and §III-D communication stages infer
//! cross-core effects purely from aggregate timings; this module gives the
//! simulator the mechanism those timings come from on real hardware: a
//! per-line MESI state machine, a snoop-bus transaction model with
//! configurable latencies, and traffic counters (invalidations,
//! writebacks, cache-to-cache interventions, upgrades) that the detection
//! stages can decompose misses with.
//!
//! The engine is deliberately a *directory*, not an actor system: one
//! [`CoherenceEngine`] owned by the [`crate::machine::Machine`] tracks the
//! per-core MESI state of every physical line ever written or read while
//! coherence is enabled, keyed by the physical line address at the first
//! cache level's line granularity. The cycle engine consults it on every
//! access; the engine answers with extra cycles (snoop-bus wait plus
//! transaction latency) and bookkeeping (which remote copies to
//! invalidate, whether a miss was a coherence miss or a capacity miss).
//!
//! The directory is an open-addressed hash table with a seeded
//! multiplicative hash, power-of-two capacity and linear probing. Nothing
//! observable depends on table order: lines are looked up by exact key
//! only, never iterated, and per-line state is packed into core bitmasks
//! whose derived outputs (invalidation sets, sharer counts) are read in
//! ascending core order by construction. Determinism therefore does not
//! lean on sorted iteration — the order-independence test replays one
//! trace under several hash seeds and demands identical traffic. Slots
//! are epoch-stamped: [`CoherenceEngine::reset`] bumps the epoch and
//! every slot becomes logically empty, making `Machine::reset` O(1)
//! instead of a directory teardown.
//!
//! Beside the table, each core has a small direct-mapped record of lines
//! it provably holds Modified, so that an owner's write hit, the commonest
//! store of the search oracle's kernel, is answered without a probe
//! ([`CoherenceEngine::access_into`]; the proof is DESIGN.md's "Owned-write
//! skip").
//!
//! The previous `BTreeMap` directory is retained verbatim as
//! [`reference::ReferenceEngine`] for the differential suite.
//!
//! Two simplifications, both deterministic and both documented here
//! because they matter for interpreting counters:
//!
//! * Evictions are silent: a core that loses a line to capacity keeps its
//!   directory state until the next coherence transaction touches the
//!   line. Real S/E evictions are silent too; the model extends this to M
//!   (the writeback is charged lazily, when a remote core next requests
//!   the line).
//! * Invalidations are applied to the other cores' caches using the
//!   *accessing* core's line keys, which is exact whenever the cores
//!   share one address space — the case for every coherence probe (the
//!   false-sharing sweep and the cache-mediated communication model both
//!   traverse a single shared [`crate::machine::SimArray`]).

use serde::{Deserialize, Serialize};
use servet_stats::rng::mix64;

use crate::spec::CoreId;

/// Latencies of the snoop-bus transactions the MESI layer can issue, in
/// core cycles. These are machine parameters — presets set them, the zoo
/// perturbs them, and run manifests record them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoherenceSpec {
    /// Cycles to invalidate the remote copies of a line on a store.
    pub invalidate_cycles: f64,
    /// Cycles for the owner of a Modified line to write it back when
    /// another core requests the line.
    pub writeback_cycles: f64,
    /// Cycles for a cache-to-cache transfer (the requester receives the
    /// line from the previous owner instead of from memory).
    pub intervention_cycles: f64,
    /// Cycles for a Shared→Modified upgrade broadcast.
    pub upgrade_cycles: f64,
    /// Cycles each transaction occupies the snoop bus. Concurrent
    /// transactions serialize on this, exactly like memory accesses
    /// serialize on the front-side bus.
    pub bus_occupancy_cycles: f64,
}

impl Default for CoherenceSpec {
    fn default() -> Self {
        Self {
            invalidate_cycles: 12.0,
            writeback_cycles: 40.0,
            intervention_cycles: 25.0,
            upgrade_cycles: 10.0,
            bus_occupancy_cycles: 4.0,
        }
    }
}

impl CoherenceSpec {
    /// Validate the parameters; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("invalidate_cycles", self.invalidate_cycles),
            ("writeback_cycles", self.writeback_cycles),
            ("intervention_cycles", self.intervention_cycles),
            ("upgrade_cycles", self.upgrade_cycles),
            ("bus_occupancy_cycles", self.bus_occupancy_cycles),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("coherence {name} = {v} must be finite and >= 0"));
            }
        }
        Ok(())
    }
}

/// MESI state of one core's copy of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MesiState {
    /// Dirty and exclusive: this core owns the only valid copy.
    Modified,
    /// Clean and exclusive: memory is up to date, no other copies.
    Exclusive,
    /// Clean, possibly replicated in other cores' caches.
    Shared,
    /// No valid copy.
    Invalid,
}

/// Snoop-bus traffic accumulated since construction or the last reset.
///
/// All counters are exact integers so that determinism is checkable
/// bit-for-bit: the acceptance gate for the zoo requires identical
/// traffic across runs and worker counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoherenceTraffic {
    /// Remote copies invalidated by stores.
    pub invalidations: u64,
    /// Modified lines written back on a remote request.
    pub writebacks: u64,
    /// Cache-to-cache transfers (line supplied by the previous owner).
    pub interventions: u64,
    /// Shared→Modified upgrade broadcasts.
    pub upgrades: u64,
    /// Misses on lines this core lost to a remote invalidation — the
    /// coherence share of the §III-B miss decomposition.
    pub coherence_misses: u64,
    /// Misses with no preceding invalidation (capacity/cold misses) on
    /// lines the directory tracks.
    pub capacity_misses: u64,
}

impl CoherenceTraffic {
    /// Total snoop-bus transactions issued.
    pub fn transactions(&self) -> u64 {
        self.writebacks + self.interventions + self.upgrades
    }

    /// Fraction of classified misses that were coherence misses; 0 when
    /// no miss has been classified.
    pub fn coherence_miss_fraction(&self) -> f64 {
        let total = self.coherence_misses + self.capacity_misses;
        if total == 0 {
            0.0
        } else {
            self.coherence_misses as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot of the same
    /// monotone counters (saturating, so a stale baseline cannot wrap).
    pub fn since(&self, earlier: &CoherenceTraffic) -> CoherenceTraffic {
        CoherenceTraffic {
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            interventions: self.interventions.saturating_sub(earlier.interventions),
            upgrades: self.upgrades.saturating_sub(earlier.upgrades),
            coherence_misses: self
                .coherence_misses
                .saturating_sub(earlier.coherence_misses),
            capacity_misses: self.capacity_misses.saturating_sub(earlier.capacity_misses),
        }
    }

    /// Counter-wise sum with another traffic snapshot.
    pub fn plus(&self, other: &CoherenceTraffic) -> CoherenceTraffic {
        CoherenceTraffic {
            invalidations: self.invalidations + other.invalidations,
            writebacks: self.writebacks + other.writebacks,
            interventions: self.interventions + other.interventions,
            upgrades: self.upgrades + other.upgrades,
            coherence_misses: self.coherence_misses + other.coherence_misses,
            capacity_misses: self.capacity_misses + other.capacity_misses,
        }
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == CoherenceTraffic::default()
    }
}

/// What the cycle engine must do after consulting the directory for one
/// access.
#[derive(Debug, Clone)]
pub struct CoherenceOutcome {
    /// Extra cycles this access pays: snoop-bus wait plus transaction
    /// latencies.
    pub extra_cycles: f64,
    /// Remote cores whose cached copies of the line must be removed
    /// (sorted ascending; deterministic).
    pub invalidate_cores: Vec<CoreId>,
    /// Whether a miss on this access was a coherence miss (the line was
    /// invalidated out from under this core).
    pub coherence_miss: bool,
    /// Whether the line was supplied cache-to-cache by the previous
    /// owner (an intervention): the access does not go to memory.
    pub supplied_by_cache: bool,
}

/// Allocation-free sibling of [`CoherenceOutcome`]: the cycle engine's
/// hot path receives the invalidation set through a caller-owned scratch
/// vector instead of a per-access allocation.
#[derive(Debug, Clone, Copy)]
pub struct CoherenceResult {
    /// Extra cycles this access pays.
    pub extra_cycles: f64,
    /// Whether a miss on this access was a coherence miss.
    pub coherence_miss: bool,
    /// Whether the line was supplied cache-to-cache.
    pub supplied_by_cache: bool,
}

/// One open-addressed directory slot. A slot is live iff its `epoch`
/// matches the table's; per-core MESI states are packed into bitmasks
/// (`valid`/`modified`/`exclusive`), which is also what makes remote-copy
/// scans O(1) mask ops instead of per-core loops.
#[derive(Debug, Clone, Copy, Default)]
struct DirSlot {
    key: u64,
    epoch: u64,
    /// Cores holding a non-Invalid copy.
    valid: u64,
    /// Cores holding the line Modified (subset of `valid`).
    modified: u64,
    /// Cores holding the line Exclusive (subset of `valid`).
    exclusive: u64,
    /// Cores whose copy was invalidated and not yet re-fetched (the
    /// coherence-miss classifier).
    invalidated: u64,
}

/// The per-machine MESI directory and snoop bus.
#[derive(Debug, Clone)]
pub struct CoherenceEngine {
    spec: CoherenceSpec,
    num_cores: usize,
    /// Open-addressed line directory: power-of-two capacity, linear
    /// probing, epoch-stamped slots (slots from an older epoch read as
    /// empty, so reset never touches the table).
    slots: Box<[DirSlot]>,
    /// `slots.len() - 1`.
    index_mask: usize,
    /// Live entries in the current epoch.
    len: usize,
    /// Current epoch; starts at 1 so zero-initialized slots are empty.
    epoch: u64,
    /// Hash seed, XORed into keys before mixing.
    hash_seed: u64,
    traffic: CoherenceTraffic,
    /// Cycle at which the snoop bus becomes free.
    snoop_free_at: f64,
    /// Lines each core provably holds Modified: `OWNED_PER_CORE` entries
    /// per core, direct-mapped on the line's low bits. An entry is a hint
    /// that is never wrong, not a complete record: every write sets the
    /// writer's entry, and every transition that takes a core's M bit
    /// away clears its entry for that line. A vacant entry holds a line
    /// that maps to another index (see [`vacant`]), so it never matches.
    owned: Box<[u64]>,
    /// Whether any entry of `owned` was written since it was last
    /// vacated, so that a reset of a directory no write reached is O(1).
    owned_live: bool,
}

/// Initial directory capacity (slots). Grows by doubling at 3/4 load.
const INITIAL_DIR_CAPACITY: usize = 1024;

/// Entries per core of the owned-line record (a power of two). One row
/// of the oracle's `C` tile plus a thread's accumulator fit with room to
/// spare; a miss in the record only costs the directory probe it saves.
const OWNED_PER_CORE: usize = 64;

/// The value a vacant owned-record entry at flat index `i` holds: a line
/// whose index is `i ^ 1`, never `i` (`OWNED_PER_CORE` is even), so no
/// lookup at `i` can match it.
fn vacant(i: usize) -> u64 {
    (i ^ 1) as u64
}

/// The owned-record index of `line` for `core`.
#[inline(always)]
fn owned_index(core: CoreId, line: u64) -> usize {
    core * OWNED_PER_CORE + (line as usize & (OWNED_PER_CORE - 1))
}

impl CoherenceEngine {
    /// Build an engine for a machine with `num_cores` cores.
    pub fn new(spec: CoherenceSpec, num_cores: usize) -> Self {
        Self::with_hash_seed(spec, num_cores, 0x5EED_C0DE_D1CE_u64)
    }

    /// Build an engine with an explicit directory hash seed. Observable
    /// behavior is seed-independent (the order-independence test relies
    /// on exactly this constructor).
    pub fn with_hash_seed(spec: CoherenceSpec, num_cores: usize, hash_seed: u64) -> Self {
        assert!(
            num_cores <= 64,
            "coherence directory tracks at most 64 cores"
        );
        Self {
            spec,
            num_cores,
            slots: vec![DirSlot::default(); INITIAL_DIR_CAPACITY].into_boxed_slice(),
            index_mask: INITIAL_DIR_CAPACITY - 1,
            len: 0,
            epoch: 1,
            hash_seed,
            traffic: CoherenceTraffic::default(),
            snoop_free_at: 0.0,
            owned: (0..num_cores * OWNED_PER_CORE).map(vacant).collect(),
            owned_live: false,
        }
    }

    /// The engine's transaction latencies.
    pub fn spec(&self) -> &CoherenceSpec {
        &self.spec
    }

    /// Traffic accumulated so far.
    pub fn traffic(&self) -> CoherenceTraffic {
        self.traffic
    }

    /// Return the accumulated traffic and zero the counters, keeping the
    /// directory state and the snoop-bus clock.
    pub fn take_traffic(&mut self) -> CoherenceTraffic {
        std::mem::take(&mut self.traffic)
    }

    /// Drop all directory state, traffic and the snoop-bus clock.
    ///
    /// O(1): the epoch stamp advances and every slot becomes logically
    /// empty without being touched; capacity is retained for reuse.
    pub fn reset(&mut self) {
        self.epoch += 1;
        self.len = 0;
        self.traffic = CoherenceTraffic::default();
        self.snoop_free_at = 0.0;
        if std::mem::take(&mut self.owned_live) {
            for (i, e) in self.owned.iter_mut().enumerate() {
                *e = vacant(i);
            }
        }
    }

    /// Free the snoop bus at cycle 0, keeping the directory and traffic:
    /// the machine calls this when a run starts its clocks from 0.
    pub(crate) fn restart_snoop_clock(&mut self) {
        self.snoop_free_at = 0.0;
    }

    #[inline]
    fn slot_index(&self, key: u64) -> usize {
        mix64(key ^ self.hash_seed) as usize & self.index_mask
    }

    /// Find the live slot for `key`, if any.
    #[inline]
    fn find(&self, key: u64) -> Option<&DirSlot> {
        let mut i = self.slot_index(key);
        loop {
            let s = &self.slots[i];
            if s.epoch != self.epoch {
                return None;
            }
            if s.key == key {
                return Some(s);
            }
            i = (i + 1) & self.index_mask;
        }
    }

    /// Find or claim the slot for `key`; returns its index.
    #[inline]
    fn find_or_insert(&mut self, key: u64) -> usize {
        // Keep load below 3/4 so probe chains stay short.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.slot_index(key);
        loop {
            let s = &self.slots[i];
            if s.epoch != self.epoch {
                self.slots[i] = DirSlot {
                    key,
                    epoch: self.epoch,
                    ..DirSlot::default()
                };
                self.len += 1;
                return i;
            }
            if s.key == key {
                return i;
            }
            i = (i + 1) & self.index_mask;
        }
    }

    /// Double the table, re-slotting live entries. Layout after growth is
    /// a pure function of the live set and the seed — deterministic.
    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![DirSlot::default(); new_cap].into_boxed_slice(),
        );
        self.index_mask = new_cap - 1;
        for s in old.iter().filter(|s| s.epoch == self.epoch) {
            let mut i = self.slot_index(s.key);
            while self.slots[i].epoch == self.epoch {
                i = (i + 1) & self.index_mask;
            }
            self.slots[i] = *s;
        }
    }

    /// MESI state `core` holds for `phys_line` (Invalid if untracked).
    pub fn state_of(&self, core: CoreId, phys_line: u64) -> MesiState {
        let bit = 1u64 << core;
        match self.find(phys_line) {
            None => MesiState::Invalid,
            Some(s) if s.valid & bit == 0 => MesiState::Invalid,
            Some(s) if s.modified & bit != 0 => MesiState::Modified,
            Some(s) if s.exclusive & bit != 0 => MesiState::Exclusive,
            Some(_) => MesiState::Shared,
        }
    }

    /// Whether `core`'s owned-line record says it holds `phys_line`
    /// Modified. `true` is a proof; `false` says nothing.
    #[inline(always)]
    fn owns(&self, core: CoreId, phys_line: u64) -> bool {
        self.owned[owned_index(core, phys_line)] == phys_line
    }

    /// Serialize one transaction on the snoop bus: returns the wait +
    /// occupancy cycles the requester pays, and advances the bus clock.
    #[inline]
    fn bus_transaction(&mut self, now: f64) -> f64 {
        let start = now.max(self.snoop_free_at);
        self.snoop_free_at = start + self.spec.bus_occupancy_cycles;
        (start - now) + self.spec.bus_occupancy_cycles
    }

    /// Record an access by `core` to `phys_line` at virtual time `now`
    /// and advance the MESI state machine.
    ///
    /// `cache_hit` is what the cache model said *before* coherence: it is
    /// used only to classify misses, never to decide transitions (the
    /// directory is authoritative for ownership).
    pub fn access(
        &mut self,
        core: CoreId,
        phys_line: u64,
        write: bool,
        cache_hit: bool,
        now: f64,
    ) -> CoherenceOutcome {
        let mut invalidate_cores = Vec::new();
        let res = self.access_into(
            core,
            phys_line,
            write,
            cache_hit,
            now,
            &mut invalidate_cores,
        );
        CoherenceOutcome {
            extra_cycles: res.extra_cycles,
            invalidate_cores,
            coherence_miss: res.coherence_miss,
            supplied_by_cache: res.supplied_by_cache,
        }
    }

    /// Allocation-free core of [`Self::access`]: the remote cores to
    /// invalidate are appended to `invalidate_out` (cleared first, filled
    /// in ascending core order).
    #[inline]
    pub fn access_into(
        &mut self,
        core: CoreId,
        phys_line: u64,
        write: bool,
        cache_hit: bool,
        now: f64,
        invalidate_out: &mut Vec<CoreId>,
    ) -> CoherenceResult {
        invalidate_out.clear();
        // Owned-write skip: a write hit by a core whose record says it
        // holds the line Modified is silent, so the directory is not
        // probed. The full transition would change nothing: the M branch
        // of a write has no transaction (no latency, no snoop-bus time),
        // a hit is never classified as a miss, and the invalidated bit it
        // clears is already clear (an invalidation clears the core's M
        // bit, and the core's next access, the one that makes it M again,
        // clears its invalidated bit).
        if write && cache_hit && self.owns(core, phys_line) {
            return CoherenceResult {
                extra_cycles: 0.0,
                coherence_miss: false,
                supplied_by_cache: false,
            };
        }
        self.transition(core, phys_line, write, cache_hit, now, invalidate_out)
    }

    /// [`Self::access_into`] through the directory: find the line's slot,
    /// classify the miss, run the MESI transition and charge the snoop bus.
    fn transition(
        &mut self,
        core: CoreId,
        phys_line: u64,
        write: bool,
        cache_hit: bool,
        now: f64,
        invalidate_out: &mut Vec<CoreId>,
    ) -> CoherenceResult {
        let bit = 1u64 << core;
        let si = self.find_or_insert(phys_line);
        let slot = &mut self.slots[si];

        // Classify the miss before mutating anything: a miss on a line
        // the directory saw invalidated out from under this core is a
        // coherence miss; any other tracked miss is capacity/cold.
        let coherence_miss = !cache_hit && slot.invalidated & bit != 0;
        if !cache_hit {
            if coherence_miss {
                self.traffic.coherence_misses += 1;
            } else {
                self.traffic.capacity_misses += 1;
            }
        }
        slot.invalidated &= !bit;

        let remote = slot.valid & !bit;
        let remote_modified = slot.modified & !bit != 0;

        let mut latency = 0.0;
        let mut transactions = 0u32;
        let mut invalidate_mask = 0u64;
        let mut supplied_by_cache = false;

        if write {
            if slot.modified & bit != 0 {
                // Already Modified: silent.
            } else if slot.exclusive & bit != 0 {
                // E→M is silent: no other copy exists.
                slot.exclusive &= !bit;
                slot.modified |= bit;
            } else if slot.valid & bit != 0 {
                // Shared: broadcast an upgrade to every sharer.
                self.traffic.upgrades += 1;
                latency += self.spec.upgrade_cycles;
                transactions += 1;
                if remote != 0 {
                    self.traffic.invalidations += remote.count_ones() as u64;
                    latency += self.spec.invalidate_cycles;
                    invalidate_mask = remote;
                }
                slot.modified |= bit;
            } else {
                // Invalid: read-for-ownership — fetch the line,
                // invalidating every remote copy; a dirty owner writes
                // back and supplies the line cache-to-cache.
                if remote_modified {
                    self.traffic.writebacks += 1;
                    self.traffic.interventions += 1;
                    latency += self.spec.writeback_cycles + self.spec.intervention_cycles;
                    transactions += 1;
                    supplied_by_cache = true;
                }
                if remote != 0 {
                    self.traffic.invalidations += remote.count_ones() as u64;
                    latency += self.spec.invalidate_cycles;
                    transactions += 1;
                    invalidate_mask = remote;
                }
                slot.valid |= bit;
                slot.modified |= bit;
            }
            if invalidate_mask != 0 {
                disown(&mut self.owned, slot.modified & invalidate_mask, phys_line);
                slot.valid &= !invalidate_mask;
                slot.modified &= !invalidate_mask;
                slot.exclusive &= !invalidate_mask;
                slot.invalidated |= invalidate_mask;
                let mut m = invalidate_mask;
                while m != 0 {
                    let c = m.trailing_zeros() as usize;
                    invalidate_out.push(c);
                    m &= m - 1;
                }
            }
            // Every write branch leaves the writer Modified.
            let entry = &mut self.owned[owned_index(core, phys_line)];
            if *entry != phys_line {
                *entry = phys_line;
                self.owned_live = true;
            }
        } else if slot.valid & bit == 0 {
            if remote_modified {
                // The dirty owner writes back and supplies the line;
                // both copies end Shared.
                self.traffic.writebacks += 1;
                self.traffic.interventions += 1;
                latency += self.spec.writeback_cycles + self.spec.intervention_cycles;
                transactions += 1;
                supplied_by_cache = true;
                // Every Modified holder downgrades to Shared.
                disown(&mut self.owned, slot.modified, phys_line);
                slot.modified = 0;
                slot.valid |= bit;
            } else if remote != 0 {
                slot.valid |= bit;
            } else {
                slot.valid |= bit;
                slot.exclusive |= bit;
            }
        }

        let mut extra = latency;
        for _ in 0..transactions {
            extra += self.bus_transaction(now + extra);
        }
        CoherenceResult {
            extra_cycles: extra,
            coherence_miss,
            supplied_by_cache,
        }
    }

    /// Number of cores the directory was built for.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }
}

/// Vacate the owned-record entry for `phys_line` of every core in
/// `cores`: those cores are losing their M bit for it.
#[inline]
fn disown(owned: &mut [u64], mut cores: u64, phys_line: u64) {
    while cores != 0 {
        let i = owned_index(cores.trailing_zeros() as usize, phys_line);
        if owned[i] == phys_line {
            owned[i] = vacant(i);
        }
        cores &= cores - 1;
    }
}

pub mod reference {
    //! The pre-fast-path coherence engine, retained for differential
    //! testing: a `BTreeMap` directory with one `Vec<MesiState>` per
    //! line. Transitions and counters are the original code, so the
    //! differential suite can demand bit-identical [`CoherenceTraffic`]
    //! and invalidation sets from the hashed engine.

    use super::{CoherenceOutcome, CoherenceSpec, CoherenceTraffic, MesiState};
    use crate::spec::CoreId;
    use std::collections::BTreeMap;

    /// Directory entry: the MESI state each core holds for one line,
    /// plus which cores have lost their copy to an invalidation and not
    /// yet re-accessed the line.
    #[derive(Debug, Clone)]
    struct LineDir {
        states: Vec<MesiState>,
        invalidated: u64,
    }

    impl LineDir {
        fn new(num_cores: usize) -> Self {
            Self {
                states: vec![MesiState::Invalid; num_cores],
                invalidated: 0,
            }
        }
    }

    /// The original `BTreeMap`-directory MESI engine.
    #[derive(Debug, Clone)]
    pub struct ReferenceEngine {
        spec: CoherenceSpec,
        num_cores: usize,
        lines: BTreeMap<u64, LineDir>,
        traffic: CoherenceTraffic,
        snoop_free_at: f64,
    }

    impl ReferenceEngine {
        /// Build an engine for a machine with `num_cores` cores.
        pub fn new(spec: CoherenceSpec, num_cores: usize) -> Self {
            assert!(
                num_cores <= 64,
                "coherence directory tracks at most 64 cores"
            );
            Self {
                spec,
                num_cores,
                lines: BTreeMap::new(),
                traffic: CoherenceTraffic::default(),
                snoop_free_at: 0.0,
            }
        }

        /// Traffic accumulated so far.
        pub fn traffic(&self) -> CoherenceTraffic {
            self.traffic
        }

        /// Return the accumulated traffic and zero the counters.
        pub fn take_traffic(&mut self) -> CoherenceTraffic {
            std::mem::take(&mut self.traffic)
        }

        /// Drop all directory state, traffic and the snoop-bus clock.
        pub fn reset(&mut self) {
            self.lines.clear();
            self.traffic = CoherenceTraffic::default();
            self.snoop_free_at = 0.0;
        }

        /// Free the snoop bus at cycle 0, keeping the directory and
        /// traffic.
        pub(crate) fn restart_snoop_clock(&mut self) {
            self.snoop_free_at = 0.0;
        }

        /// MESI state `core` holds for `phys_line`.
        pub fn state_of(&self, core: CoreId, phys_line: u64) -> MesiState {
            self.lines
                .get(&phys_line)
                .map_or(MesiState::Invalid, |d| d.states[core])
        }

        fn bus_transaction(&mut self, now: f64) -> f64 {
            let start = now.max(self.snoop_free_at);
            self.snoop_free_at = start + self.spec.bus_occupancy_cycles;
            (start - now) + self.spec.bus_occupancy_cycles
        }

        /// Record an access and advance the MESI state machine (original
        /// per-core-state transition code).
        pub fn access(
            &mut self,
            core: CoreId,
            phys_line: u64,
            write: bool,
            cache_hit: bool,
            now: f64,
        ) -> CoherenceOutcome {
            let num_cores = self.num_cores;
            let dir = self
                .lines
                .entry(phys_line)
                .or_insert_with(|| LineDir::new(num_cores));

            let was_invalidated = dir.invalidated & (1 << core) != 0;
            let coherence_miss = !cache_hit && was_invalidated;
            if !cache_hit {
                if coherence_miss {
                    self.traffic.coherence_misses += 1;
                } else {
                    self.traffic.capacity_misses += 1;
                }
            }
            dir.invalidated &= !(1 << core);

            let my_state = dir.states[core];
            let remote: Vec<CoreId> = (0..num_cores)
                .filter(|&c| c != core && dir.states[c] != MesiState::Invalid)
                .collect();
            let remote_modified = remote.iter().any(|&c| dir.states[c] == MesiState::Modified);

            let mut latency = 0.0;
            let mut transactions = 0u32;
            let mut invalidate_cores = Vec::new();
            let mut supplied_by_cache = false;

            if write {
                match my_state {
                    MesiState::Modified => {}
                    MesiState::Exclusive => {
                        dir.states[core] = MesiState::Modified;
                    }
                    MesiState::Shared => {
                        self.traffic.upgrades += 1;
                        latency += self.spec.upgrade_cycles;
                        transactions += 1;
                        if !remote.is_empty() {
                            self.traffic.invalidations += remote.len() as u64;
                            latency += self.spec.invalidate_cycles;
                            invalidate_cores = remote.clone();
                        }
                        dir.states[core] = MesiState::Modified;
                    }
                    MesiState::Invalid => {
                        if remote_modified {
                            self.traffic.writebacks += 1;
                            self.traffic.interventions += 1;
                            latency += self.spec.writeback_cycles + self.spec.intervention_cycles;
                            transactions += 1;
                            supplied_by_cache = true;
                        }
                        if !remote.is_empty() {
                            self.traffic.invalidations += remote.len() as u64;
                            latency += self.spec.invalidate_cycles;
                            transactions += 1;
                            invalidate_cores = remote.clone();
                        }
                        dir.states[core] = MesiState::Modified;
                    }
                }
                for &c in &invalidate_cores {
                    dir.states[c] = MesiState::Invalid;
                    dir.invalidated |= 1 << c;
                }
            } else {
                match my_state {
                    MesiState::Modified | MesiState::Exclusive | MesiState::Shared => {}
                    MesiState::Invalid => {
                        if remote_modified {
                            self.traffic.writebacks += 1;
                            self.traffic.interventions += 1;
                            latency += self.spec.writeback_cycles + self.spec.intervention_cycles;
                            transactions += 1;
                            supplied_by_cache = true;
                            for c in 0..num_cores {
                                if dir.states[c] == MesiState::Modified {
                                    dir.states[c] = MesiState::Shared;
                                }
                            }
                            dir.states[core] = MesiState::Shared;
                        } else if !remote.is_empty() {
                            dir.states[core] = MesiState::Shared;
                        } else {
                            dir.states[core] = MesiState::Exclusive;
                        }
                    }
                }
            }

            let mut extra = latency;
            for _ in 0..transactions {
                extra += self.bus_transaction(now + extra);
            }
            CoherenceOutcome {
                extra_cycles: extra,
                invalidate_cores,
                coherence_miss,
                supplied_by_cache,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceEngine;
    use super::*;

    fn engine() -> CoherenceEngine {
        CoherenceEngine::new(CoherenceSpec::default(), 4)
    }

    #[test]
    fn default_spec_validates() {
        CoherenceSpec::default().validate().unwrap();
        let bad = CoherenceSpec {
            invalidate_cycles: -1.0,
            ..CoherenceSpec::default()
        };
        assert!(bad.validate().is_err());
        let nan = CoherenceSpec {
            writeback_cycles: f64::NAN,
            ..CoherenceSpec::default()
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn first_read_is_exclusive_then_silent_upgrade() {
        let mut e = engine();
        e.access(0, 7, false, false, 0.0);
        assert_eq!(e.state_of(0, 7), MesiState::Exclusive);
        let out = e.access(0, 7, true, true, 0.0);
        assert_eq!(e.state_of(0, 7), MesiState::Modified);
        assert_eq!(out.extra_cycles, 0.0);
        assert_eq!(e.traffic().transactions(), 0);
    }

    #[test]
    fn second_reader_shares() {
        let mut e = engine();
        e.access(0, 7, false, false, 0.0);
        e.access(1, 7, false, false, 0.0);
        assert_eq!(e.state_of(0, 7), MesiState::Exclusive);
        assert_eq!(e.state_of(1, 7), MesiState::Shared);
        assert_eq!(e.traffic().transactions(), 0);
    }

    #[test]
    fn write_to_shared_upgrades_and_invalidates() {
        let mut e = engine();
        e.access(0, 7, false, false, 0.0);
        e.access(1, 7, false, false, 0.0);
        e.access(2, 7, false, false, 0.0);
        // Make core 0 Shared too (it currently is Exclusive only if no
        // one else read; here two others read, but 0 stays E in this
        // simplified model until a transaction downgrades it — write
        // from core 1 must still invalidate 0 and 2).
        let out = e.access(1, 7, true, true, 0.0);
        assert_eq!(e.state_of(1, 7), MesiState::Modified);
        assert_eq!(e.state_of(0, 7), MesiState::Invalid);
        assert_eq!(e.state_of(2, 7), MesiState::Invalid);
        assert_eq!(out.invalidate_cores, vec![0, 2]);
        let t = e.traffic();
        assert_eq!(t.upgrades, 1);
        assert_eq!(t.invalidations, 2);
        assert!(out.extra_cycles > 0.0);
    }

    #[test]
    fn read_of_modified_line_forces_writeback_and_intervention() {
        let mut e = engine();
        e.access(0, 7, false, false, 0.0);
        e.access(0, 7, true, true, 0.0); // 0 now Modified
        let out = e.access(1, 7, false, false, 0.0);
        assert_eq!(e.state_of(0, 7), MesiState::Shared);
        assert_eq!(e.state_of(1, 7), MesiState::Shared);
        let t = e.traffic();
        assert_eq!(t.writebacks, 1);
        assert_eq!(t.interventions, 1);
        let spec = CoherenceSpec::default();
        assert!(out.extra_cycles >= spec.writeback_cycles + spec.intervention_cycles);
    }

    #[test]
    fn ping_pong_writes_generate_sustained_traffic() {
        let mut e = engine();
        for round in 0..10 {
            let now = round as f64 * 100.0;
            e.access(0, 7, true, round == 0, now);
            e.access(1, 7, true, false, now + 50.0);
        }
        let t = e.traffic();
        // After the first exchange every write invalidates the other
        // core's Modified copy: writeback + intervention + invalidation.
        assert!(t.invalidations >= 18, "{t:?}");
        assert!(t.writebacks >= 17, "{t:?}");
        assert!(t.coherence_misses > 0, "{t:?}");
    }

    #[test]
    fn miss_classification_splits_coherence_from_capacity() {
        let mut e = engine();
        e.access(0, 7, false, false, 0.0); // cold: capacity bucket
        e.access(1, 7, true, false, 0.0); // invalidates 0's copy
        let out = e.access(0, 7, false, false, 0.0); // coherence miss
        assert!(out.coherence_miss);
        let t = e.traffic();
        assert_eq!(t.coherence_misses, 1);
        // Cold misses from cores 0 and 1.
        assert_eq!(t.capacity_misses, 2);
        assert!((t.coherence_miss_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn snoop_bus_serializes_transactions() {
        let spec = CoherenceSpec {
            bus_occupancy_cycles: 10.0,
            ..CoherenceSpec::default()
        };
        let mut e = CoherenceEngine::new(spec, 2);
        e.access(0, 1, false, false, 0.0);
        e.access(1, 1, false, false, 0.0);
        // Two upgrades issued back-to-back at the same virtual time: the
        // second must wait for the first's bus occupancy.
        let a = e.access(0, 1, true, true, 100.0);
        let b = e.access(1, 1, true, false, 100.0);
        assert!(b.extra_cycles > a.extra_cycles, "{a:?} vs {b:?}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = engine();
        e.access(0, 7, false, false, 0.0);
        e.access(1, 7, true, false, 0.0);
        assert_ne!(e.traffic(), CoherenceTraffic::default());
        e.reset();
        assert_eq!(e.traffic(), CoherenceTraffic::default());
        assert_eq!(e.state_of(0, 7), MesiState::Invalid);
        // The epoch-stamped table is reusable after reset: a line from
        // the previous epoch reads as untracked and re-inserts cleanly.
        e.access(0, 7, false, false, 0.0);
        assert_eq!(e.state_of(0, 7), MesiState::Exclusive);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut e = engine();
            for i in 0..200u64 {
                let core = (i % 3) as usize;
                let line = i % 5;
                e.access(core, line, i % 2 == 0, i % 4 == 0, i as f64);
            }
            e.traffic()
        };
        assert_eq!(run(), run());
    }

    /// Observable outputs are independent of the hash seed: the
    /// determinism argument no longer leans on sorted iteration.
    #[test]
    fn traffic_is_hash_seed_independent() {
        let run = |seed: u64| {
            let mut e = CoherenceEngine::with_hash_seed(CoherenceSpec::default(), 8, seed);
            let mut invalidations = Vec::new();
            for i in 0..3000u64 {
                let core = (i % 7) as usize;
                let line = (i * 17) % 101;
                let out = e.access(core, line, i % 2 == 0, i % 4 == 0, i as f64);
                invalidations.push(out.invalidate_cores);
            }
            (e.traffic(), invalidations)
        };
        let base = run(1);
        assert_eq!(base, run(0xDEAD_BEEF));
        assert_eq!(base, run(u64::MAX));
    }

    /// Growth past the initial capacity preserves every line's state.
    #[test]
    fn directory_growth_preserves_state() {
        let mut e = CoherenceEngine::new(CoherenceSpec::default(), 2);
        let lines = 4 * super::INITIAL_DIR_CAPACITY as u64;
        for l in 0..lines {
            e.access(0, l, l % 2 == 0, false, 0.0);
        }
        for l in 0..lines {
            let want = if l % 2 == 0 {
                MesiState::Modified
            } else {
                MesiState::Exclusive
            };
            assert_eq!(e.state_of(0, l), want, "line {l}");
        }
    }

    /// The hashed engine and the retained BTreeMap engine agree on every
    /// outcome and the final traffic over a seeded random access stream.
    #[test]
    fn differential_against_reference_engine() {
        let mut rng = servet_stats::rng::ChaCha8Rng::seed_from_u64(0xD1FF);
        for cores in [1usize, 2, 4, 13, 64] {
            let mut fast = CoherenceEngine::new(CoherenceSpec::default(), cores);
            let mut slow = ReferenceEngine::new(CoherenceSpec::default(), cores);
            let mut now = 0.0f64;
            for _ in 0..5000 {
                let core = rng.gen_range(0..cores);
                let line = rng.gen_range(0..512u64);
                let write = rng.f64() < 0.5;
                let hit = rng.f64() < 0.6;
                now += rng.gen_range(0.0..10.0);
                let a = fast.access(core, line, write, hit, now);
                let b = slow.access(core, line, write, hit, now);
                assert_eq!(a.extra_cycles.to_bits(), b.extra_cycles.to_bits());
                assert_eq!(a.invalidate_cores, b.invalidate_cores);
                assert_eq!(a.coherence_miss, b.coherence_miss);
                assert_eq!(a.supplied_by_cache, b.supplied_by_cache);
                for c in 0..cores {
                    assert_eq!(fast.state_of(c, line), slow.state_of(c, line));
                }
            }
            assert_eq!(fast.traffic(), slow.traffic());
        }
    }

    /// The owned-line record is never wrong: after every access, each
    /// line a core's record holds is a line the directory says that core
    /// holds Modified. Several cores read and write a few hot lines (so
    /// remote reads downgrade and remote writes invalidate owners) and
    /// more lines than the directory's initial capacity takes before it
    /// grows, with resets between rounds.
    #[test]
    fn owned_record_implies_modified() {
        let mut rng = servet_stats::rng::ChaCha8Rng::seed_from_u64(0x0D3E);
        let cases = if cfg!(debug_assertions) { 6 } else { 60 };
        for case in 0..cases {
            let cores = rng.gen_range(2..9usize);
            let mut e = CoherenceEngine::new(CoherenceSpec::default(), cores);
            let hot = rng.gen_range(1..2 * OWNED_PER_CORE as u64);
            let wide = 2 * INITIAL_DIR_CAPACITY as u64;
            let write_rate = rng.f64();
            let mut out = Vec::new();
            for round in 0..3 {
                for step in 0..3000 {
                    let core = rng.gen_range(0..cores);
                    let line = if rng.f64() < 0.5 {
                        rng.gen_range(0..hot)
                    } else {
                        rng.gen_range(0..wide)
                    };
                    let write = rng.f64() < write_rate;
                    let hit = rng.f64() < 0.8;
                    e.access_into(core, line, write, hit, step as f64, &mut out);
                    for (i, &held) in e.owned.iter().enumerate() {
                        let c = i / OWNED_PER_CORE;
                        if e.owns(c, held) {
                            assert_eq!(
                                e.state_of(c, held),
                                MesiState::Modified,
                                "case {case} round {round} step {step}: core {c} line {held}"
                            );
                        }
                    }
                }
                // A reset keeps the grown table; the first round grew it.
                assert!(
                    e.slots.len() > INITIAL_DIR_CAPACITY,
                    "case {case}: no growth"
                );
                e.reset();
                assert!(e.owned.iter().enumerate().all(|(i, &l)| l == vacant(i)));
            }
        }
    }

    #[test]
    fn traffic_since_and_plus() {
        let a = CoherenceTraffic {
            invalidations: 10,
            writebacks: 5,
            interventions: 4,
            upgrades: 3,
            coherence_misses: 2,
            capacity_misses: 1,
        };
        let b = CoherenceTraffic {
            invalidations: 4,
            writebacks: 5,
            interventions: 1,
            upgrades: 0,
            coherence_misses: 2,
            capacity_misses: 0,
        };
        let d = a.since(&b);
        assert_eq!(d.invalidations, 6);
        assert_eq!(d.writebacks, 0);
        assert_eq!(d.interventions, 3);
        assert!(!d.is_empty());
        assert_eq!(b.plus(&d).invalidations, a.invalidations);
        assert!(CoherenceTraffic::default().is_empty());
        // Saturating: a stale baseline cannot wrap.
        assert_eq!(b.since(&a).invalidations, 0);
    }
}
