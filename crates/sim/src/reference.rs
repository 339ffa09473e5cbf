//! The retained pre-fast-path simulator, for differential testing.
//!
//! [`ReferenceMachine`] is a faithful copy of the cycle engine as it
//! stood before the throughput rewrite: per-access division-based
//! address translation, per-level spec lookups (line shifts recomputed
//! with `trailing_zeros` on every access), [`ReferenceCache`]'s
//! `Vec<Vec<u64>>` sets with `remove`/`insert` LRU shifting,
//! [`ReferenceEngine`]'s `BTreeMap` directory with a per-access
//! invalidation `Vec`, and the one-access-per-selection lockstep loops.
//! It is deliberately *not* shared code with [`crate::machine::Machine`]
//! — the point is that the two implementations agree bit-for-bit while
//! taking different paths, so the differential suite
//! (`tests/differential.rs`) has real teeth.
//!
//! It mirrors [`crate::machine::Machine`]'s allocation, reset and
//! statistics calls and three of its four drivers — `traverse_shared`,
//! `run_trace` and `run_traces` — so a test can drive either engine
//! with the same harness. The fourth, `run_streams`, is
//! `run_traces` over generated steps with a cutoff; the fast engine's
//! own tests hold it to `run_traces` access for access.

// Frozen pre-rewrite code: style lints stay silenced rather than
// "fixed", because any edit here weakens the differential baseline.
#![allow(clippy::unnecessary_unwrap, clippy::while_let_loop)]

use crate::cache::reference::ReferenceCache;
use crate::coherence::reference::ReferenceEngine;
use crate::coherence::CoherenceTraffic;
use crate::machine::{SharedJob, SimArray, TraceJob};
use crate::prefetch::StridePrefetcher;
use crate::spec::{CoreId, Indexing, MachineSpec};
use crate::vm::AddressSpace;

/// The pre-rewrite simulated machine: same observable behavior as
/// [`crate::machine::Machine`], original data structures and hot path.
#[derive(Debug, Clone)]
pub struct ReferenceMachine {
    spec: MachineSpec,
    /// `caches[level][group]`.
    caches: Vec<Vec<ReferenceCache>>,
    /// `group_of[level][core]` — index into `caches[level]`.
    group_of: Vec<Vec<usize>>,
    prefetchers: Vec<StridePrefetcher>,
    tlbs: Vec<Option<ReferenceCache>>,
    bus_of: Vec<Option<usize>>,
    bus_free_at: Vec<f64>,
    bus_bytes_per_cycle: Vec<f64>,
    coherence: Option<ReferenceEngine>,
    next_asid: u64,
    seed: u64,
}

impl ReferenceMachine {
    /// Build a reference machine with an explicit page-allocation seed.
    /// Seeds line up with [`crate::machine::Machine::with_seed`], so the
    /// two engines allocate identical page mappings.
    pub fn with_seed(spec: MachineSpec, seed: u64) -> Self {
        spec.validate().expect("invalid machine spec");
        let mut caches = Vec::new();
        let mut group_of = Vec::new();
        for cl in &spec.caches {
            let instances: Vec<ReferenceCache> = cl
                .sharing
                .iter()
                .map(|_| ReferenceCache::with_geometry(cl.size, cl.line_size, cl.associativity))
                .collect();
            let mut map = vec![usize::MAX; spec.num_cores];
            for (gi, group) in cl.sharing.iter().enumerate() {
                for &c in group {
                    map[c] = gi;
                }
            }
            caches.push(instances);
            group_of.push(map);
        }
        let prefetchers = (0..spec.num_cores)
            .map(|_| StridePrefetcher::new(spec.prefetch_max_stride))
            .collect();
        let tlbs = (0..spec.num_cores)
            .map(|_| spec.tlb.map(|t| ReferenceCache::new(1, t.entries)))
            .collect();
        let bus_of = (0..spec.num_cores)
            .map(|c| {
                spec.memory
                    .resources
                    .iter()
                    .position(|r| r.cores.contains(&c))
            })
            .collect();
        let bus_bytes_per_cycle = spec
            .memory
            .resources
            .iter()
            .map(|r| r.capacity_gbs / spec.clock_ghz)
            .collect();
        let bus_free_at = vec![0.0; spec.memory.resources.len()];
        let coherence = spec
            .coherence
            .map(|c| ReferenceEngine::new(c, spec.num_cores));
        Self {
            spec,
            caches,
            group_of,
            prefetchers,
            tlbs,
            bus_of,
            bus_free_at,
            bus_bytes_per_cycle,
            coherence,
            next_asid: 1,
            seed,
        }
    }

    /// Allocate a benchmark array using the machine's page policy.
    pub fn alloc_array(&mut self, len_bytes: usize) -> SimArray {
        let asid = self.next_asid;
        self.next_asid += 1;
        SimArray::new_raw(
            AddressSpace::new(
                asid,
                len_bytes,
                self.spec.page_size,
                self.spec.page_alloc,
                self.seed,
            ),
            len_bytes,
            false,
        )
    }

    /// Allocate a *shared* benchmark array tracked by the MESI layer.
    pub fn alloc_shared_array(&mut self, len_bytes: usize) -> SimArray {
        let asid = self.next_asid;
        self.next_asid += 1;
        SimArray::new_raw(
            AddressSpace::new(
                asid,
                len_bytes,
                self.spec.page_size,
                self.spec.page_alloc,
                self.seed,
            ),
            len_bytes,
            true,
        )
    }

    /// Flush every cache, reset prefetchers and the coherence directory.
    /// The bus clocks restart at every driver call instead.
    pub fn reset(&mut self) {
        for level in &mut self.caches {
            for c in level {
                c.flush();
            }
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

    /// Start the memory and snoop buses free at cycle 0, where every
    /// driver call starts its clocks.
    fn restart_bus_clocks(&mut self) {
        for b in &mut self.bus_free_at {
            *b = 0.0;
        }
        if let Some(engine) = &mut self.coherence {
            engine.restart_snoop_clock();
        }
    }

    /// Snoop-bus traffic accumulated so far, if coherence is modeled.
    pub fn coherence_traffic(&self) -> Option<CoherenceTraffic> {
        self.coherence.as_ref().map(|e| e.traffic())
    }

    /// Line key for `level`, recomputing the shift from the spec each
    /// call (the original cost model).
    #[inline]
    fn line_key(&self, level: usize, aspace: &AddressSpace, vaddr: u64, paddr: u64) -> u64 {
        let cl = &self.spec.caches[level];
        let line_shift = cl.line_size.trailing_zeros();
        match cl.indexing {
            Indexing::Physical => paddr >> line_shift,
            Indexing::Virtual => (aspace.asid() << 40) | (vaddr >> line_shift),
        }
    }

    /// One access: the original division-based, spec-chasing path.
    fn access(
        &mut self,
        core: CoreId,
        array: &SimArray,
        vaddr: u64,
        write: bool,
        now: f64,
    ) -> (f64, bool) {
        let aspace = array.aspace();
        let paddr = aspace.translate(vaddr);
        let mut tlb_penalty = 0.0;
        if let (Some(tlb), Some(spec)) = (self.tlbs[core].as_mut(), self.spec.tlb) {
            let key = (aspace.asid() << 40) | (vaddr / self.spec.page_size as u64);
            if !tlb.probe(key) {
                tlb.insert(key);
                tlb_penalty = spec.miss_cycles;
            }
        }
        let covered = self.prefetchers[core].access(vaddr);
        let nlev = self.spec.caches.len();
        let mut hit_level = nlev;
        for li in 0..nlev {
            let key = self.line_key(li, aspace, vaddr, paddr);
            let g = self.group_of[li][core];
            if self.caches[li][g].probe(key) {
                hit_level = li;
                break;
            }
        }
        let mut coh_extra = 0.0;
        let mut supplied_by_cache = false;
        if array.is_shared() && self.coherence.is_some() {
            let line_shift = self
                .spec
                .caches
                .first()
                .map_or(6, |c| c.line_size.trailing_zeros());
            let phys_line = paddr >> line_shift;
            let outcome = self.coherence.as_mut().expect("checked above").access(
                core,
                phys_line,
                write,
                hit_level < nlev,
                now,
            );
            coh_extra = outcome.extra_cycles;
            supplied_by_cache = outcome.supplied_by_cache;
            for &victim in &outcome.invalidate_cores {
                for li in 0..nlev {
                    let gv = self.group_of[li][victim];
                    if gv != self.group_of[li][core] {
                        let key = self.line_key(li, aspace, vaddr, paddr);
                        self.caches[li][gv].invalidate(key);
                    }
                }
            }
        }
        for li in 0..hit_level {
            let key = self.line_key(li, aspace, vaddr, paddr);
            let g = self.group_of[li][core];
            self.caches[li][g].insert(key);
        }
        if hit_level == nlev {
            if covered || supplied_by_cache {
                let l1 = self.spec.caches.first().map_or(1.0, |c| c.hit_cycles);
                (l1 + tlb_penalty + coh_extra, false)
            } else {
                (
                    self.spec.memory.latency_cycles + tlb_penalty + coh_extra,
                    true,
                )
            }
        } else {
            (
                self.spec.caches[hit_level].hit_cycles + tlb_penalty + coh_extra,
                false,
            )
        }
    }

    /// Cycles to move one last-level line across `core`'s bus.
    fn line_transfer_cycles(&self, core: CoreId) -> f64 {
        let Some(bus) = self.bus_of[core] else {
            return 0.0;
        };
        let line = self.spec.caches.last().map_or(64, |c| c.line_size) as f64;
        line / self.bus_bytes_per_cycle[bus]
    }

    /// Lockstep shared-buffer traversal, one access per scheduler
    /// selection (the original loop); see
    /// [`crate::machine::Machine::traverse_shared`].
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
        self.restart_bus_clocks();
        let total: Vec<usize> = jobs.iter().map(|j| j.count * (warmup + passes)).collect();
        let warm: Vec<usize> = jobs.iter().map(|j| j.count * warmup).collect();

        let n = jobs.len();
        let mut clock = vec![0.0f64; n];
        let mut done = vec![0usize; n];
        let mut measure_start = vec![0.0f64; n];
        loop {
            let Some(i) = (0..n)
                .filter(|&i| done[i] < total[i])
                .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
            else {
                break;
            };
            let job = &jobs[i];
            let idx = done[i] % job.count;
            let vaddr = (job.offset + idx * job.stride) as u64;
            let (cost, mem) = self.access(job.core, job.array, vaddr, job.write, clock[i]);
            if mem {
                if let Some(bus) = self.bus_of[job.core] {
                    let transfer = self.line_transfer_cycles(job.core);
                    let start = clock[i].max(self.bus_free_at[bus]);
                    self.bus_free_at[bus] = start + transfer;
                    clock[i] = start + transfer + cost;
                } else {
                    clock[i] += cost;
                }
            } else {
                clock[i] += cost;
            }
            done[i] += 1;
            if done[i] == warm[i] {
                measure_start[i] = clock[i];
            }
        }
        (0..n)
            .map(|i| {
                let measured = (total[i] - warm[i]) as f64;
                (clock[i] - measure_start[i]) / measured
            })
            .collect()
    }

    /// Single-core trace replay; see
    /// [`crate::machine::Machine::run_trace`].
    pub fn run_trace(&mut self, core: CoreId, array: &SimArray, addrs: &[u64]) -> f64 {
        assert!(!addrs.is_empty(), "empty trace");
        self.restart_bus_clocks();
        let mut clock = 0.0f64;
        let mut bus_free = self.bus_free_at.clone();
        for &vaddr in addrs {
            let (cost, mem) = self.access(core, array, vaddr, false, clock);
            if mem {
                if let Some(bus) = self.bus_of[core] {
                    let transfer = self.line_transfer_cycles(core);
                    let start = clock.max(bus_free[bus]);
                    bus_free[bus] = start + transfer;
                    clock = start + transfer + cost;
                } else {
                    clock += cost;
                }
            } else {
                clock += cost;
            }
        }
        self.bus_free_at = bus_free;
        clock / addrs.len() as f64
    }

    /// Multi-core lockstep trace replay, one access per selection; see
    /// [`crate::machine::Machine::run_traces`].
    pub fn run_traces(&mut self, jobs: &[TraceJob<'_>]) -> Vec<f64> {
        assert!(!jobs.is_empty());
        for j in jobs {
            assert!(!j.steps.is_empty(), "empty trace");
            assert!(j.core < self.spec.num_cores, "core out of range");
        }
        self.restart_bus_clocks();
        let n = jobs.len();
        let mut clock = vec![0.0f64; n];
        let mut done = vec![0usize; n];
        loop {
            let Some(i) = (0..n)
                .filter(|&i| done[i] < jobs[i].steps.len())
                .min_by(|&a, &b| clock[a].total_cmp(&clock[b]))
            else {
                break;
            };
            let job = &jobs[i];
            let (vaddr, write) = job.steps[done[i]];
            let (cost, mem) = self.access(job.core, job.array, vaddr, write, clock[i]);
            if mem {
                if let Some(bus) = self.bus_of[job.core] {
                    let transfer = self.line_transfer_cycles(job.core);
                    let start = clock[i].max(self.bus_free_at[bus]);
                    self.bus_free_at[bus] = start + transfer;
                    clock[i] = start + transfer + cost;
                } else {
                    clock[i] += cost;
                }
            } else {
                clock[i] += cost;
            }
            done[i] += 1;
        }
        clock
    }

    /// Hit/miss statistics of the cache serving `core` at `level`
    /// (1-based).
    pub fn cache_stats(&self, level: u8, core: CoreId) -> Option<(u64, u64)> {
        let li = self.spec.caches.iter().position(|c| c.level == level)?;
        let g = self.group_of[li][core];
        Some(self.caches[li][g].stats())
    }
}
