//! The census path of [`Machine::traverse_shared`]: a cold strided pass
//! priced from a count of its lines per cache set, not replayed access
//! by access through the LRU sets.
//!
//! # When the count decides every access
//!
//! It runs when the job is one core's traversal of a private array on a
//! machine with no access since [`Machine::reset`], the core has no TLB,
//! every level's line is at most the stride and at most a page, and the
//! stride is beyond the prefetcher's reach (or prefetching is off). Then
//! one pass touches distinct lines at every level, no access is ever
//! covered by the prefetcher, and every pass visits the same lines in the
//! same order. The accesses that reach one set are therefore a cyclic
//! sequence over the `X` lines mapped there, and an LRU set holds a line
//! iff fewer than its `K` ways of other lines were used since the line's
//! last use (its stack distance). In a cyclic sequence that distance is
//! `X − 1` at every reuse: a set with `X ≤ K` hits on every pass after
//! the first, one with `X > K` misses on all of them.
//!
//! Level by level: pass 0 misses everywhere (empty caches, distinct
//! lines). A level whose used sets all overflow misses every access and
//! hands the whole cyclic stream on. Let *j* be the first level with a
//! used set that fits. From pass 1 on its fitting sets hit, and the
//! accesses to its overflowing sets go on — to memory when *j* is the
//! last level. Before any other level they would make a filtered stream
//! whose first reuse still sees pass 0's other lines, a transient the
//! count does not describe, so such a traversal goes to the engine. The
//! census counts the levels in this order and stops at *j*.
//!
//! # The clock
//!
//! The clock comes out with the engine's bits, though it is not summed
//! access by access: inside one binade every addition the engine makes
//! is an exact integer step on the mantissa, so a run of accesses that
//! stays in its binade is added as a count times a step ([`Clock`]; the
//! argument is DESIGN.md §11's "The clock in per-binade runs").
//!
//! # What the pass leaves behind
//!
//! Every level ends the traversal holding exactly what one cold pass
//! leaves in it: a level that sees every access holds the last `K` lines
//! of each set in the pass's order however many passes ran, and a level
//! below *j* saw pass 0 only. The counters and the prefetcher are
//! written at once; the contents are owed, written in by
//! [`Machine::settle_owed_pass`] at the top of the next driver call and
//! dropped by `reset`. A trial loop that resets before every traversal,
//! as `SimPlatform`'s does, never writes them.

use super::{Contents, Machine, SharedJob};
use crate::spec::CoreId;
use crate::vm::AddressSpace;
use std::sync::Arc;

/// About how many set counters a scan reads in the time it takes to
/// find one access's set again (translation, key, set index).
const ACCESS_COST_IN_SETS: usize = 8;

/// A cold pass priced by the census and not yet written into the caches.
#[derive(Debug, Clone)]
pub(super) struct OwedPass {
    core: CoreId,
    /// The array's own page table, shared.
    aspace: Arc<AddressSpace>,
    offset: usize,
    stride: usize,
    count: usize,
}

/// The census's buffers, reused from traversal to traversal.
#[derive(Debug, Clone, Default)]
pub(super) struct Scratch {
    /// Lines per set of the level being counted, sized to the largest
    /// level counted so far. All zero between traversals.
    counts: Vec<u32>,
    /// Bit `i`: whether access `i` hits level *j* on every pass after
    /// the first; it goes to memory otherwise. Filled only when some
    /// accesses do and some do not.
    fits: Vec<u64>,
    /// The last priced traversal's passes, as [`Clock::traverse`] logs
    /// them.
    #[cfg(test)]
    log: Vec<PassLog>,
}

impl Machine {
    /// Price `warmup + passes` passes of `job` from its census, or `None`
    /// (with nothing changed) when the census cannot prove the engine's
    /// answer and the engine must replay it.
    pub(super) fn census(
        &mut self,
        job: &SharedJob<'_>,
        warmup: usize,
        passes: usize,
    ) -> Option<f64> {
        let spec = &self.spec;
        // (A machine without caches has no sets to count.)
        let eligible = matches!(self.contents, Contents::Flushed)
            && !spec.caches.is_empty()
            && !job.array.is_shared()
            && self.tlbs[job.core].is_none()
            && (spec.prefetch_max_stride == 0 || job.stride > spec.prefetch_max_stride)
            && spec
                .caches
                .iter()
                .all(|c| c.line_size <= job.stride.min(spec.page_size));
        if !eligible {
            return None;
        }
        let (core, n) = (job.core, job.count);
        let nlev = self.levels.len();
        let path = &self.cache_of[core * nlev..][..nlev];
        let caches = &self.caches;
        let aspace = job.array.aspace();
        let asid_tag = aspace.asid() << 40;
        let (page_shift, page_mask) = (self.page_shift, self.page_mask);
        let Scratch { counts, fits, .. } = &mut self.census;
        // The sets a pass's accesses fall in at level `l`, in access order.
        let slots = |l: usize| {
            let (lp, cache) = (&self.levels[l], &caches[path[l]]);
            (0..n).map(move |i| {
                let vaddr = (job.offset + i * job.stride) as u64;
                let frame = aspace.frame_of((vaddr >> page_shift) as usize);
                let paddr = (frame << page_shift) | (vaddr & page_mask);
                cache.set_of(Self::level_key(lp, asid_tag, vaddr, paddr))
            })
        };
        // Count one level at a time, outward, up to the first level *j*
        // with a set that fits, and how many of a pass's accesses fall in
        // such sets there: the levels past it do not change the answer.
        let mut first_fit = None;
        for l in 0..nlev {
            let cache = &caches[path[l]];
            let (sets, ways) = (cache.num_sets(), cache.associativity() as u32);
            if counts.len() < sets {
                counts.resize(sets, 0);
            }
            slots(l).for_each(|s| counts[s] += 1);
            // Each per-set question is answered over the accesses or over
            // the level's sets, whichever costs less: a small array on a
            // large cache touches a handful of its sets.
            let few = n * ACCESS_COST_IN_SETS < sets;
            let fit = if few {
                slots(l).filter(|&s| counts[s] <= ways).count()
            } else {
                counts[..sets]
                    .iter()
                    .filter(|&&c| c <= ways)
                    .map(|&c| c as usize)
                    .sum()
            };
            // When only some accesses hit at the last level, `fits` says
            // which; before another level they leave a transient the count
            // does not describe.
            let partial = 0 < fit && fit < n;
            if partial && l + 1 == nlev {
                fits.clear();
                fits.resize(n.div_ceil(64), 0);
                for (i, s) in slots(l).enumerate() {
                    if counts[s] <= ways {
                        fits[i / 64] |= 1 << (i % 64);
                    }
                }
            }
            if few {
                slots(l).for_each(|s| counts[s] = 0);
            } else {
                counts[..sets].fill(0);
            }
            if partial && l + 1 < nlev {
                return None;
            }
            if fit > 0 {
                first_fit = Some((l, fit));
                break;
            }
        }
        // Where the passes after the first are served: level *j*'s hit
        // cost, or nowhere when no level has a set that fits.
        let (hit_cycles, fit) =
            first_fit.map_or((0.0, 0), |(j, fit)| (self.levels[j].hit_cycles, fit));

        // The engine's costs. With no TLB and no coherence (a private
        // array) its TLB and coherence terms are 0.0, which leave a cost
        // unchanged, and no access is prefetched.
        let bus = self.bus_of[core].map(|_| self.transfer_cycles[core]);
        let mut clock = Clock::new(0.0, hit_cycles, bus, self.mem_latency);
        let measure_start = clock.traverse(fits, n, fit, warmup, passes);
        #[cfg(test)]
        {
            self.census.log = std::mem::take(&mut clock.log);
        }

        // What the engine leaves: every level missed pass 0; above *j*
        // every later pass missed too, at *j* the fitting accesses hit,
        // and below it nothing arrived after pass 0.
        let (n64, later_passes) = (n as u64, (warmup + passes - 1) as u64);
        for (l, &c) in path.iter().enumerate() {
            let stats = match first_fit {
                Some((j, fit)) if l == j => {
                    let fit = fit as u64;
                    (later_passes * fit, n64 + later_passes * (n64 - fit))
                }
                Some((j, _)) if l > j => (0, n64),
                _ => (0, n64 + later_passes * n64),
            };
            self.caches[c].set_stats(stats);
        }
        // Every step, the wrap-around included, is out of the
        // prefetcher's reach: it ends untrained, remembering the last
        // address, as one access there leaves it.
        self.prefetchers[core].access((job.offset + (n - 1) * job.stride) as u64);
        // The bus clocks are left alone: only `run_block` reads them, and
        // `lockstep` restarts them before its first block.
        self.contents = Contents::Owed(OwedPass {
            core,
            aspace: Arc::clone(&job.array.aspace),
            offset: job.offset,
            stride: job.stride,
            count: n,
        });
        self.census_priced += 1;
        Some((clock.at - measure_start) / (n * passes) as f64)
    }

    /// Write an owed pass into the caches — one cold pass through every
    /// level of its core, where each access misses and takes its line —
    /// keeping the counters the census set; then the caches are live.
    pub(super) fn settle_owed_pass(&mut self) {
        let Contents::Owed(pass) = std::mem::replace(&mut self.contents, Contents::Live) else {
            return;
        };
        let nlev = self.levels.len();
        let path = &self.cache_of[pass.core * nlev..][..nlev];
        let asid_tag = pass.aspace.asid() << 40;
        let stats: Vec<_> = path.iter().map(|&c| self.caches[c].stats()).collect();
        for i in 0..pass.count {
            let vaddr = (pass.offset + i * pass.stride) as u64;
            let vpage = vaddr >> self.page_shift;
            let paddr = (pass.aspace.frame_of(vpage as usize) << self.page_shift)
                | (vaddr & self.page_mask);
            for (lp, &c) in self.levels.iter().zip(path) {
                let hit = self.caches[c].touch(Self::level_key(lp, asid_tag, vaddr, paddr));
                debug_assert!(!hit, "a cold pass hit");
            }
        }
        for (&c, &s) in path.iter().zip(&stats) {
            self.caches[c].set_stats(s);
        }
    }
}

/// The largest mantissa of a binade, counted in the binade's ulps.
const MANTISSA_MAX: u64 = (1 << 53) - 1;

/// A step no run may take: the addend it stands for is a tie in the
/// clock's binade, negative or not smaller than the binade, or the clock
/// is zero, subnormal or not finite. A count times it saturates above
/// [`MANTISSA_MAX`] unless the count is 0.
const NO_STEP: u64 = u64::MAX;

/// The binade a clock is in, and what one access adds to its mantissa
/// there.
#[derive(Debug, Clone, Copy)]
struct Binade {
    /// The clock's biased exponent: the binade's key.
    exp: u64,
    ulp: f64,
    /// Ulps a hit adds, or [`NO_STEP`].
    hit: u64,
    /// Ulps a miss adds (the bus transfer's and memory's, each rounded on
    /// its own), or [`NO_STEP`].
    miss: u64,
}

impl Binade {
    fn of(at: f64, hit: f64, bus: Option<f64>, mem: f64) -> Self {
        let exp = at.to_bits() >> 52;
        // A clock whose ulp would be subnormal (zero included), or that
        // is not finite, steps one access at a time.
        if exp <= 52 || exp >= 0x7ff {
            return Self {
                exp,
                ulp: 0.0,
                hit: NO_STEP,
                miss: NO_STEP,
            };
        }
        let ulp = f64::from_bits((exp - 52) << 52);
        // `x / ulp` divides by a power of two: it is exact.
        let steps = |x: f64| {
            let q = x / ulp;
            if (0.0..MANTISSA_MAX as f64).contains(&q) && q - q.floor() != 0.5 {
                q.round() as u64
            } else {
                NO_STEP
            }
        };
        let miss = match bus {
            Some(transfer) => steps(transfer).saturating_add(steps(mem)),
            None => steps(mem),
        };
        Self {
            exp,
            ulp,
            hit: steps(hit),
            miss,
        }
    }
}

/// The census's clock: the bits the engine's running sum reaches, added
/// in runs that stay in one binade (module docs).
///
/// A miss through a bus is `(clock + transfer) + mem`, the engine's
/// `start + transfer + cost` at `start = clock`: the engine starts a
/// transfer at `max(clock, free)`, and `free ≤ clock` after every miss
/// (`free` is the sum before adding `mem ≥ 0`), so the census keeps no
/// bus clock.
struct Clock {
    at: f64,
    hit: f64,
    bus: Option<f64>,
    mem: f64,
    binade: Binade,
    /// Per pass: the clock where it began and where it ended, and how
    /// many of its accesses took the engine's expression one by one.
    #[cfg(test)]
    log: Vec<PassLog>,
}

/// One pass of a [`Clock::traverse`]: its first and last clock, and its
/// accesses stepped one by one.
#[cfg(test)]
type PassLog = (f64, f64, usize);

impl Clock {
    fn new(at: f64, hit: f64, bus: Option<f64>, mem: f64) -> Self {
        Self {
            at,
            hit,
            bus,
            mem,
            binade: Binade::of(at, hit, bus, mem),
            #[cfg(test)]
            log: Vec::new(),
        }
    }

    /// The mantissa of `at` in its binade's ulps.
    fn mantissa(&self) -> u64 {
        self.at.to_bits() & ((1 << 52) - 1) | 1 << 52
    }

    /// One access, with the engine's expression.
    fn step(&mut self, hit: bool) {
        self.at = match self.bus {
            _ if hit => self.at + self.hit,
            Some(transfer) => self.at + transfer + self.mem,
            None => self.at + self.mem,
        };
        if self.at.to_bits() >> 52 != self.binade.exp {
            self.binade = Binade::of(self.at, self.hit, self.bus, self.mem);
        }
        #[cfg(test)]
        if let Some(pass) = self.log.last_mut() {
            pass.2 += 1;
        }
    }

    /// `hits` hits and `misses` misses in any order, if together they
    /// stay in the clock's binade; otherwise nothing, and `false`.
    fn take(&mut self, hits: u64, misses: u64) -> bool {
        debug_assert!(hits + misses > 0);
        let b = self.binade;
        let to = hits
            .saturating_mul(b.hit)
            .saturating_add(misses.saturating_mul(b.miss))
            .saturating_add(self.mantissa());
        let inside = to <= MANTISSA_MAX;
        if inside {
            self.at = to as f64 * b.ulp;
        }
        inside
    }

    /// `count` accesses that all hit or all miss: as many as stay in the
    /// binade at once, then the one that leaves it with the engine's
    /// expression, and so on.
    fn run(&mut self, hit: bool, mut count: u64) {
        while count > 0 {
            let b = self.binade;
            let step = if hit { b.hit } else { b.miss };
            let m = self.mantissa();
            let k = (MANTISSA_MAX - m)
                .checked_div(step)
                .map_or(count, |room| room.min(count));
            if k > 0 {
                self.at = (m + k * step) as f64 * b.ulp;
                count -= k;
            }
            if count > 0 {
                self.step(hit);
                count -= 1;
            }
        }
    }

    /// One pass of `n` accesses, `fit` of them hits, access `i` a hit iff
    /// bit `i` of `fits` is set: whole if it stays in the binade, else
    /// 64 accesses at a time, and the word it leaves the binade in one
    /// access at a time.
    fn pass(&mut self, fits: &[u64], n: usize, fit: usize) {
        if self.take(fit as u64, (n - fit) as u64) {
            return;
        }
        for (w, &bits) in fits.iter().enumerate() {
            let len = (n - 64 * w).min(64);
            let hits = (bits & (!0 >> (64 - len))).count_ones() as u64;
            if !self.take(hits, len as u64 - hits) {
                for i in 0..len {
                    self.step(bits >> i & 1 == 1);
                }
            }
        }
    }

    /// Pass 0, every access a miss, then `warmup + passes - 1` passes of
    /// `n` accesses of which `fit` hit (`fits` says which when not all or
    /// none do). Returns the clock when the measured passes began.
    fn traverse(
        &mut self,
        fits: &[u64],
        n: usize,
        fit: usize,
        warmup: usize,
        passes: usize,
    ) -> f64 {
        let mut measure_start = 0.0;
        for pass in 0..warmup + passes {
            if pass == warmup && pass > 0 {
                measure_start = self.at;
            }
            #[cfg(test)]
            self.log.push((self.at, self.at, 0));
            match if pass == 0 { 0 } else { fit } {
                0 => self.run(false, n as u64),
                hits if hits == n => self.run(true, n as u64),
                _ => self.pass(fits, n, fit),
            }
            #[cfg(test)]
            if let Some(pass) = self.log.last_mut() {
                pass.1 = self.at;
            }
        }
        measure_start
    }
}

#[cfg(test)]
mod tests {
    use super::super::SimArray;
    use super::*;
    use crate::{perturb, presets, MachineSpec, KB, MB};
    use servet_stats::rng::ChaCha8Rng;

    /// Drawn traversals per run: the release build (CI runs it beside
    /// `full_suite_sim`) draws ten times as many.
    const CASES: usize = if cfg!(debug_assertions) { 200 } else { 2000 };

    /// Accesses per pass at most, so that a drawn case stays cheap.
    const MAX_COUNT: usize = 4096;

    /// Every preset, and perturbations of each base the zoo draws from.
    fn specs() -> Vec<MachineSpec> {
        let mut specs = presets::paper_machines();
        let bases = [
            presets::tiny_smp(),
            presets::tiny_shared_l2(),
            presets::tiny_numa(),
            presets::mb_smp(),
        ];
        for seed in 0..6 {
            specs.extend(bases.iter().map(|base| perturb(base, seed)));
        }
        specs.extend(bases);
        specs.push(presets::tiny_with_tlb());
        specs
    }

    /// Hits and misses of every level on every core.
    fn all_stats(m: &Machine) -> Vec<Option<(u64, u64)>> {
        let spec = m.spec();
        (0..spec.num_cores)
            .flat_map(|core| spec.caches.iter().map(move |c| (c.level, core)))
            .map(|(level, core)| m.cache_stats(level, core))
            .collect()
    }

    fn bits(cycles: &[f64]) -> Vec<u64> {
        cycles.iter().map(|c| c.to_bits()).collect()
    }

    /// Whether one traversal was priced by the census.
    fn priced(m: &mut Machine, job: SharedJob<'_>, warmup: usize, passes: usize) -> bool {
        let before = m.census_priced();
        m.traverse_shared(&[job], warmup, passes);
        m.census_priced() > before
    }

    /// A job over all of `array` from `offset`, `stride` bytes apart.
    fn job(core: CoreId, array: &SimArray, offset: usize, stride: usize) -> SharedJob<'_> {
        SharedJob {
            core,
            array,
            offset,
            stride,
            count: (array.len() - 1 - offset) / stride + 1,
            write: false,
        }
    }

    /// The census against the engine it stands in for: on every preset
    /// and zoo perturbations, sizes on both sides of each level's
    /// capacity, offsets within the stride, strides from one line up,
    /// every warm-up/measured split in {0,1,2}×{1,2,3} and any core. The
    /// returned bits, every level's counters, and a second traversal made
    /// without a reset (through the contents the first one left behind)
    /// must all be the engine's.
    #[test]
    fn census_matches_the_engine() {
        let specs = specs();
        let mut rng = ChaCha8Rng::seed_from_u64(0xCE05);
        let mut taken = 0;
        for case in 0..CASES {
            let spec = &specs[rng.gen_range(0..specs.len())];
            let line = spec.caches.iter().map(|c| c.line_size).max().unwrap();
            let level = &spec.caches[rng.gen_range(0..spec.caches.len())];
            let size = (level.size * rng.gen_range(2..13usize) / 8).max(KB);
            let mut stride = if rng.f64() < 0.5 {
                line << rng.gen_range(0..7usize)
            } else {
                rng.gen_range(line..4 * KB + 1)
            };
            while size / stride > MAX_COUNT {
                stride *= 2;
            }
            let offset = rng.gen_range(0..stride.min(size));
            let core = rng.gen_range(0..spec.num_cores);
            let (warmup, passes) = (rng.gen_range(0..3usize), rng.gen_range(1..4usize));
            // The traversal that follows: the same array or another, on
            // the same core or any, at any stride — the prefetcher's
            // reach included — from the start or from one line past the
            // first traversal's last access.
            let again = rng.f64() < 0.7;
            let core2 = if rng.f64() < 0.5 {
                core
            } else {
                rng.gen_range(0..spec.num_cores)
            };
            let stride2 = [64, KB, stride][rng.gen_range(0..3usize)];
            let last = offset + (size - 1 - offset) / stride * stride;
            let offset2 = if rng.f64() < 0.5 && last + 64 < size {
                last + 64
            } else {
                0
            };
            let seed = rng.gen_range(0..1u64 << 32);
            let what = format!(
                "case {case}: {} size {size} stride {stride} offset {offset} core {core} \
                 {warmup}+{passes} passes, then {stride2} from {offset2} on core {core2} \
                 (same array: {again})",
                spec.name
            );
            let run = |census: bool| {
                let mut m = Machine::with_seed(spec.clone(), seed);
                let a = m.alloc_array(size);
                let b = m.alloc_array(size);
                m.reset();
                let first = job(core, &a, offset, stride);
                let cycles = if census {
                    m.traverse_shared(&[first], warmup, passes)
                } else {
                    m.replay_strided(&[first], warmup, passes)
                };
                let priced = m.census_priced() == 1;
                let stats = all_stats(&m);
                let second = job(core2, if again { &a } else { &b }, offset2, stride2);
                let after = m.traverse_shared(&[second], 1, 1);
                (priced, (bits(&cycles), stats, bits(&after), all_stats(&m)))
            };
            let (priced, census) = run(true);
            let (_, engine) = run(false);
            assert_eq!(census, engine, "{what}");
            taken += usize::from(priced);
        }
        assert!(
            taken * 2 > CASES,
            "only {taken} of {CASES} cases took the census"
        );
    }

    /// The census declines what it cannot prove, and the engine replays
    /// it: a core with a TLB, a stride the prefetcher reaches or one
    /// shorter than a line, a shared array, a machine that made accesses
    /// since its reset, and Dunnington's 3 MB L2 with sets of both kinds
    /// above its L3.
    #[test]
    fn census_declines_what_it_cannot_prove() {
        let mut m = Machine::new(presets::tiny_with_tlb());
        let a = m.alloc_array(32 * KB);
        assert!(!priced(&mut m, job(0, &a, 0, KB), 1, 2), "TLB");

        let mut m = Machine::new(presets::tiny_smp());
        let a = m.alloc_array(256 * KB);
        assert!(
            !priced(&mut m, job(0, &a, 0, 64), 1, 2),
            "prefetched stride"
        );
        m.reset();
        assert!(priced(&mut m, job(0, &a, 0, KB), 1, 2), "1 KB stride");
        assert!(!priced(&mut m, job(0, &a, 0, KB), 1, 2), "no reset");
        m.reset();
        assert!(priced(&mut m, job(0, &a, 0, KB), 1, 2), "reset again");
        let shared = m.alloc_shared_array(256 * KB);
        m.reset();
        assert!(!priced(&mut m, job(0, &shared, 0, KB), 1, 2), "shared");

        let mut spec = presets::tiny_smp();
        spec.prefetch_max_stride = 0;
        let mut m = Machine::new(spec);
        let a = m.alloc_array(256 * KB);
        assert!(!priced(&mut m, job(0, &a, 0, 32), 1, 2), "sub-line stride");
        m.reset();
        assert!(
            priced(&mut m, job(0, &a, 0, 64), 1, 2),
            "one line, no prefetcher"
        );

        let mut m = Machine::new(presets::dunnington());
        for (size, census) in [(32 * KB, true), (3 * MB, false), (12 * MB, true)] {
            let a = m.alloc_array(size);
            m.reset();
            let what = format!("Dunnington at {size}");
            assert_eq!(priced(&mut m, job(0, &a, 0, KB), 1, 2), census, "{what}");
        }
    }

    /// `reset` drops an owed pass unwritten: the next traversal starts
    /// from empty caches, as after a replayed pass.
    #[test]
    fn reset_drops_the_owed_pass() {
        let mut m = Machine::new(presets::dempsey());
        let a = m.alloc_array(MB);
        let first = m.traverse_shared(&[job(0, &a, 0, KB)], 1, 2);
        assert!(matches!(m.contents, Contents::Owed(_)));
        m.reset();
        assert!(matches!(m.contents, Contents::Flushed));
        assert_eq!(m.cache_stats(2, 0), Some((0, 0)));
        assert_eq!(m.traverse_shared(&[job(0, &a, 0, KB)], 1, 2), first);
        assert_eq!(m.census_priced(), 2);
    }

    /// An owed pass shares its array's page table, and `reset` lets go
    /// of it.
    #[test]
    fn owed_pass_shares_the_page_table() {
        let mut m = Machine::new(presets::dempsey());
        let a = m.alloc_array(MB);
        assert_eq!(Arc::strong_count(&a.aspace), 1);
        assert!(priced(&mut m, job(0, &a, 0, KB), 1, 2));
        assert_eq!(Arc::strong_count(&a.aspace), 2);
        m.reset();
        assert_eq!(Arc::strong_count(&a.aspace), 1);
    }

    /// The engine's clock over `accesses` (`true` a hit), access by
    /// access from `at` with its bus clock at 0: the specification
    /// [`Clock`] is held to.
    fn clock_spec(
        mut at: f64,
        (hit, bus, mem): (f64, Option<f64>, f64),
        accesses: impl IntoIterator<Item = bool>,
    ) -> f64 {
        let mut free = 0.0f64;
        for is_hit in accesses {
            match bus {
                Some(transfer) if !is_hit => {
                    let start = at.max(free);
                    free = start + transfer;
                    at = start + transfer + mem;
                }
                _ => at += if is_hit { hit } else { mem },
            }
        }
        at
    }

    /// The accesses of [`Clock::traverse`]'s passes, and the number of
    /// them before the measured window.
    fn traversal(fits: &[u64], n: usize, warmup: usize, passes: usize) -> (Vec<bool>, usize) {
        let accesses = (0..warmup + passes)
            .flat_map(|pass| (0..n).map(move |i| pass > 0 && fits[i / 64] >> (i % 64) & 1 == 1))
            .collect();
        (accesses, warmup * n)
    }

    /// A binade's ulp.
    fn ulp(x: f64) -> f64 {
        f64::from_bits(((x.to_bits() >> 52).max(53) - 52) << 52)
    }

    /// The run kernel against the access-by-access sum: from a zero
    /// clock, a clock just under a power of two or any clock; integer,
    /// dyadic and log-uniform costs, ties `(2j+1)·u/2` and addends below
    /// half an ulp of the clock's first binade; with and without a bus;
    /// passes where no access, every access or some hit; warm-up 0–2 and
    /// 1–3 measured passes. The clock where the measured passes begin and
    /// where they end must have the specification's bits.
    #[test]
    fn census_clock_runs_match_the_access_by_access_sum() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB1AD);
        for case in 0..CASES {
            let start = match rng.gen_range(0..3usize) {
                0 => 0.0,
                1 => {
                    let power = 2f64.powi(rng.gen_range(0..48usize) as i32);
                    f64::from_bits(power.to_bits() - rng.gen_range(1..2000u64))
                }
                _ => 10f64.powf(rng.gen_range(-2.0..12.0)),
            };
            // The ulp the first runs see (from a zero clock, that of the
            // first access's binade, drawn alike).
            let u = ulp(if start > 0.0 {
                start
            } else {
                10f64.powf(rng.gen_range(0.0..3.0))
            });
            let cost = |rng: &mut ChaCha8Rng| match rng.gen_range(0..5usize) {
                0 => rng.gen_range(0..400u64) as f64,
                1 => {
                    rng.gen_range(0..1u64 << 20) as f64
                        / 2f64.powi(rng.gen_range(0..24usize) as i32)
                }
                2 => 10f64.powf(rng.gen_range(-3.0..4.0)),
                3 => (2 * rng.gen_range(0..64u64) + 1) as f64 * u / 2.0,
                _ => rng.f64() * u / 2.0,
            };
            let bus = rng.f64() < 0.5;
            let costs = (cost(&mut rng), bus.then(|| cost(&mut rng)), cost(&mut rng));
            let n = rng.gen_range(1..300usize);
            let density = [0.0, 1.0, rng.f64()][rng.gen_range(0..3usize)];
            let mut fits = vec![0u64; n.div_ceil(64)];
            for i in 0..n {
                if rng.f64() < density {
                    fits[i / 64] |= 1 << (i % 64);
                }
            }
            let fit = fits.iter().map(|w| w.count_ones() as usize).sum();
            let (warmup, passes) = (rng.gen_range(0..3usize), rng.gen_range(1..4usize));

            let (hit, bus, mem) = costs;
            let mut clock = Clock::new(start, hit, bus, mem);
            let measure_start = clock.traverse(&fits, n, fit, warmup, passes);
            let (accesses, warm) = traversal(&fits, n, warmup, passes);
            let spec_start = if warm == 0 {
                0.0
            } else {
                clock_spec(start, costs, accesses[..warm].iter().copied())
            };
            let spec_end = clock_spec(start, costs, accesses.iter().copied());
            assert_eq!(
                (measure_start.to_bits(), clock.at.to_bits()),
                (spec_start.to_bits(), spec_end.to_bits()),
                "case {case}: from {start:e}, costs {costs:?}, {n} accesses, {fit} hits, \
                 {warmup}+{passes} passes"
            );
        }
    }

    /// The run kernel engages on every preset's mcalibrator sweep (one
    /// trial per size, as `SimPlatform` traverses it): no pass steps more
    /// than 64 accesses one by one for each binade its clock crosses, a
    /// pass from a zero clock counting its first access's binade as one.
    #[test]
    fn census_clock_steps_few_accesses_one_by_one() {
        let presets = [
            presets::dempsey(),
            presets::athlon3200(),
            presets::finis_terrae_node(),
            presets::dunnington(),
            presets::mb_smp(),
            presets::tiny_smp(),
            presets::tiny_shared_l2(),
            presets::tiny_numa(),
        ];
        let binade = |x: f64| (x.to_bits() >> 52) as usize;
        for spec in presets {
            // mcalibrator's sizes: doubling up to a threshold, then in
            // linear steps (`McalibratorConfig::default()` for the MB
            // machines, `small(256 KB)` for the KB ones).
            let kb_scale = spec.caches.iter().all(|c| c.size < MB);
            let (mut size, double_until, step, max) = if kb_scale {
                (KB, 32 * KB, 32 * KB, 256 * KB)
            } else {
                (4 * KB, 2 * MB, MB, 64 * MB)
            };
            let mut m = Machine::new(spec);
            let mut traversals = 0;
            while size <= max {
                let a = m.alloc_array(size);
                m.reset();
                let job = job(0, &a, 0, KB);
                if priced(&mut m, job, 1, 2) {
                    traversals += 1;
                    let first = clock_spec(
                        0.0,
                        (
                            0.0,
                            m.bus_of[0].map(|_| m.transfer_cycles[0]),
                            m.mem_latency,
                        ),
                        [false],
                    );
                    for (pass, &(start, end, stepped)) in m.census.log.iter().enumerate() {
                        let crossed = if start == 0.0 {
                            binade(end) - binade(first) + 1
                        } else {
                            binade(end) - binade(start)
                        };
                        assert!(
                            stepped <= 64 * crossed,
                            "{} at {size} bytes, pass {pass}: {stepped} accesses stepped \
                             one by one, {crossed} binades crossed",
                            m.spec().name
                        );
                    }
                }
                size = if size < double_until {
                    2 * size
                } else {
                    size + step
                };
            }
            assert!(traversals > 0, "{}: nothing priced", m.spec().name);
        }
    }
}
