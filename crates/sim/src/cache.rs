//! Set-associative LRU cache model.
//!
//! Lines are identified by an opaque 64-bit key that already encodes the
//! address space (for virtually indexed caches) or the physical address (for
//! physically indexed ones); the cache extracts its set index from the key's
//! low bits and keeps per-set LRU order.
//!
//! The production model ([`SetAssocCache`]) stores every way of every set in
//! one flat, contiguous array with a fixed stride of `associativity` slots
//! per set, most-recently-used first within each set's occupied prefix. Set
//! selection uses a mask when the set count is a power of two (every
//! spec-validated machine cache, and the fully associative TLB with its
//! single set) and falls back to a modulo for arbitrary set counts handed to
//! [`SetAssocCache::new`] directly.
//!
//! It has one access operation, [`SetAssocCache::touch`]: find the set once,
//! scan it, and leave the line most-recently-used — moved to the front on a
//! hit, inserted there on a miss with the LRU line of a full set dropped. A
//! caller that walks a hierarchy calls it level by level until one hits;
//! there is no separate lookup and fill. The common widths (2, 4, 8 and 16
//! ways) each get a kernel compiled for that width — an unrolled scan, a
//! constant-size shift on a miss, and on a hit a move of just the slots in
//! front of the line — behind one runtime `match`; every other width takes a
//! prefix-scanning fallback.
//!
//! The previous `Vec<Vec<u64>>` model is retained verbatim as
//! [`reference::ReferenceCache`], with its separate `probe` and `insert`:
//! the differential suite replays identical traces through both and demands
//! bit-identical hits, misses and eviction decisions (the same pattern PR 5
//! used for the binomial kernels).

/// A set-associative cache with LRU replacement, packed into one flat
/// way array.
///
/// The model is timing-free: it answers *hit or miss* and mutates LRU
/// state; the cycle engine in [`crate::machine`] attaches costs.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// All ways of all sets: set `s` owns `ways[s*assoc .. (s+1)*assoc]`,
    /// with its `occupied[s]` resident lines first, MRU order.
    ways: Box<[u64]>,
    /// Resident-line count per set.
    occupied: Box<[u16]>,
    associativity: usize,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two.
    set_mask: u64,
    /// Whether `set_mask` is usable (power-of-two set count).
    pow2_sets: bool,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build a cache with `num_sets` sets of `associativity` ways.
    pub fn new(num_sets: usize, associativity: usize) -> Self {
        assert!(num_sets > 0, "cache needs at least one set");
        assert!(associativity > 0, "cache needs at least one way");
        assert!(
            associativity <= u16::MAX as usize,
            "associativity too large"
        );
        Self {
            ways: vec![0u64; num_sets * associativity].into_boxed_slice(),
            occupied: vec![0u16; num_sets].into_boxed_slice(),
            associativity,
            num_sets: num_sets as u64,
            set_mask: (num_sets as u64).wrapping_sub(1),
            pow2_sets: num_sets.is_power_of_two(),
            hits: 0,
            misses: 0,
        }
    }

    /// Build a cache from a geometry in bytes.
    ///
    /// Degenerate geometries (a size smaller than one full set, as perturbed
    /// sweeps can produce) clamp to a single set instead of panicking.
    pub fn with_geometry(size: usize, line_size: usize, associativity: usize) -> Self {
        let num_sets = (size / (line_size * associativity)).max(1);
        Self::new(num_sets, associativity)
    }

    /// Set index for a line key.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.pow2_sets {
            (line & self.set_mask) as usize
        } else {
            (line % self.num_sets) as usize
        }
    }

    /// Access `line` and leave it most-recently-used: a hit moves it to the
    /// front of its set, a miss inserts it there and, when the set was
    /// full, drops the set's LRU line. Returns whether it was a hit.
    #[inline(always)]
    pub fn touch(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let occupied = &mut self.occupied[set];
        let base = set * self.associativity;
        let ways = &mut self.ways[base..base + self.associativity];
        // One kernel per common width; every other width (the fully
        // associative TLB included) takes the prefix-scanning fallback.
        // The kernels stay out of line: this wrapper is inlined into each
        // replay loop, and the loops share one copy of each kernel.
        let hit = match ways.len() {
            2 => touch_fixed::<2>(ways, occupied, line),
            4 => touch_fixed::<4>(ways, occupied, line),
            8 => touch_fixed::<8>(ways, occupied, line),
            16 => touch_fixed::<16>(ways, occupied, line),
            _ => touch_any(ways, occupied, line),
        };
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Whether `line` is resident, without touching LRU state or counters.
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.associativity;
        let n = self.occupied[set] as usize;
        self.ways[base..base + n].contains(&line)
    }

    /// Remove `line` if resident (a coherence invalidation). Does not
    /// touch the hit/miss counters: the cost of losing the line shows up
    /// as a later miss, which is what the coherence-miss classifier
    /// counts. Returns whether the line was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.associativity;
        let n = self.occupied[set] as usize;
        let ways = &mut self.ways[base..base + n];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            // Close the gap, preserving LRU order of the survivors.
            ways.copy_within(pos + 1.., pos);
            self.occupied[set] = (n - 1) as u16;
            true
        } else {
            false
        }
    }

    /// Drop every line and reset counters.
    pub fn flush(&mut self) {
        self.occupied.fill(0);
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.occupied.iter().map(|&n| n as usize).sum()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.num_sets as usize * self.associativity
    }

    /// Number of ways.
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets as usize
    }

    /// `(hits, misses)` since construction or the last flush.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit fraction since construction or the last flush; 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// [`SetAssocCache::touch`] on one `W`-way set.
///
/// The scan covers all `W` slots whatever the occupancy, so it unrolls into
/// `W` compares. Slots past the occupied prefix hold stale keys; the prefix
/// comes first and holds each line at most once, so the *first* match lies
/// inside the prefix exactly when the line is resident.
#[inline(never)]
fn touch_fixed<const W: usize>(ways: &mut [u64], occupied: &mut u16, line: u64) -> bool {
    let ways: &mut [u64; W] = ways.try_into().expect("a W-way set");
    let n = *occupied as usize;
    let pos = ways.iter().position(|&l| l == line).unwrap_or(W);
    if pos < n {
        // Slide the `pos` more recent lines down one slot. A hit at MRU
        // moves nothing, and the loop is written slot by slot so it stays
        // inline: a variable-length `copy_within` here is a `memmove` call
        // on the path hit-dominated replays spend their time in.
        for i in (1..W).rev() {
            if i <= pos {
                ways[i] = ways[i - 1];
            }
        }
        ways[0] = line;
        true
    } else {
        // Shifting the whole set drops the LRU line of a full set and
        // moves only stale slots past the prefix of a partial one.
        ways.copy_within(..W - 1, 1);
        ways[0] = line;
        *occupied = (n + 1).min(W) as u16;
        false
    }
}

/// [`SetAssocCache::touch`] on one set of any width: scans the occupied
/// prefix only.
#[inline(never)]
fn touch_any(ways: &mut [u64], occupied: &mut u16, line: u64) -> bool {
    let n = *occupied as usize;
    let found = ways[..n].iter().position(|&l| l == line);
    // Slide down the lines in front of the hit, or on a miss every
    // resident line that fits beside the new one.
    let moved = found.unwrap_or(n.min(ways.len() - 1));
    ways.copy_within(..moved, 1);
    ways[0] = line;
    if found.is_none() {
        *occupied = moved as u16 + 1;
    }
    found.is_some()
}

pub mod reference {
    //! The pre-fast-path cache model, retained for differential testing.
    //!
    //! This is the original `SetAssocCache`: one heap `Vec` per set,
    //! modulo set selection, LRU maintained by `Vec::remove` +
    //! `Vec::insert`. Its API mirrors the packed model exactly so the
    //! differential suite (and [`crate::reference::ReferenceMachine`])
    //! can drive both with the same code.

    /// A set-associative LRU cache backed by one `Vec` per set.
    #[derive(Debug, Clone)]
    pub struct ReferenceCache {
        /// `sets[s]` holds the line keys resident in set `s`, most
        /// recently used first.
        sets: Vec<Vec<u64>>,
        associativity: usize,
        num_sets: u64,
        hits: u64,
        misses: u64,
    }

    impl ReferenceCache {
        /// Build a cache with `num_sets` sets of `associativity` ways.
        pub fn new(num_sets: usize, associativity: usize) -> Self {
            assert!(num_sets > 0, "cache needs at least one set");
            assert!(associativity > 0, "cache needs at least one way");
            Self {
                sets: vec![Vec::with_capacity(associativity); num_sets],
                associativity,
                num_sets: num_sets as u64,
                hits: 0,
                misses: 0,
            }
        }

        /// Build a cache from a geometry in bytes (clamped to ≥ 1 set,
        /// matching the packed model).
        pub fn with_geometry(size: usize, line_size: usize, associativity: usize) -> Self {
            let num_sets = (size / (line_size * associativity)).max(1);
            Self::new(num_sets, associativity)
        }

        /// Set index for a line key.
        #[inline]
        fn set_of(&self, line: u64) -> usize {
            (line % self.num_sets) as usize
        }

        /// Look up `line`; on hit, refresh its LRU position.
        #[inline]
        pub fn probe(&mut self, line: u64) -> bool {
            let set = self.set_of(line);
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&l| l == line) {
                let l = ways.remove(pos);
                ways.insert(0, l);
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        /// Insert `line` as MRU, evicting the LRU line of its set if
        /// full. Returns the evicted line, if any.
        #[inline]
        pub fn insert(&mut self, line: u64) -> Option<u64> {
            let set = self.set_of(line);
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&l| l == line) {
                let l = ways.remove(pos);
                ways.insert(0, l);
                return None;
            }
            let evicted = if ways.len() == self.associativity {
                ways.pop()
            } else {
                None
            };
            ways.insert(0, line);
            evicted
        }

        /// Whether `line` is resident, without touching LRU state.
        pub fn contains(&self, line: u64) -> bool {
            self.sets[self.set_of(line)].contains(&line)
        }

        /// Remove `line` if resident; returns whether it was present.
        pub fn invalidate(&mut self, line: u64) -> bool {
            let set = self.set_of(line);
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&l| l == line) {
                ways.remove(pos);
                true
            } else {
                false
            }
        }

        /// Drop every line and reset counters.
        pub fn flush(&mut self) {
            for s in &mut self.sets {
                s.clear();
            }
            self.hits = 0;
            self.misses = 0;
        }

        /// Number of resident lines.
        pub fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }

        /// Total line capacity.
        pub fn capacity_lines(&self) -> usize {
            self.sets.len() * self.associativity
        }

        /// Number of ways.
        pub fn associativity(&self) -> usize {
            self.associativity
        }

        /// Number of sets.
        pub fn num_sets(&self) -> usize {
            self.sets.len()
        }

        /// `(hits, misses)` since construction or the last flush.
        pub fn stats(&self) -> (u64, u64) {
            (self.hits, self.misses)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceCache;
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.touch(7));
        assert!(c.touch(7));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn geometry_constructor() {
        let c = SetAssocCache::with_geometry(32 * 1024, 64, 8);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.capacity_lines(), 512);
        assert_eq!(c.associativity(), 8);
    }

    #[test]
    fn degenerate_geometry_clamps_to_one_set() {
        // Smaller than one full set: 4 KB with 256 B lines at 32 ways
        // yields 4096 / (256*32) = 0 sets before clamping.
        let c = SetAssocCache::with_geometry(4 * 1024, 256, 32);
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.capacity_lines(), 32);
        let r = ReferenceCache::with_geometry(4 * 1024, 256, 32);
        assert_eq!(r.num_sets(), 1);

        // Exactly one set survives undisturbed.
        let c = SetAssocCache::with_geometry(256 * 32, 256, 32);
        assert_eq!(c.num_sets(), 1);

        // Huge lines: 1 KB cache with 4 KB sector lines.
        let mut c = SetAssocCache::with_geometry(1024, 4096, 2);
        assert_eq!(c.num_sets(), 1);
        for line in 1..=3 {
            assert!(!c.touch(line));
        }
        assert!(!c.contains(1) && c.contains(2) && c.contains(3));
    }

    #[test]
    fn non_power_of_two_sets_still_map_by_modulo() {
        let mut c = SetAssocCache::new(3, 1);
        for line in 0..3u64 {
            c.touch(line);
        }
        assert_eq!(c.resident_lines(), 3);
        // Line 3 aliases set 0 (3 % 3) and evicts line 0.
        c.touch(3);
        assert!(!c.contains(0) && c.contains(3));
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(1, 2);
        c.touch(10);
        c.touch(20);
        assert!(c.touch(10)); // 10 now MRU, 20 LRU
        assert!(!c.touch(30));
        assert!(c.contains(10));
        assert!(c.contains(30));
        assert!(!c.contains(20));
    }

    #[test]
    fn lines_map_to_distinct_sets() {
        let mut c = SetAssocCache::new(4, 1);
        for line in 0..4u64 {
            c.touch(line);
        }
        assert_eq!(c.resident_lines(), 4);
        // A fifth line aliases set 0 and evicts line 0.
        c.touch(4);
        assert!(!c.contains(0) && c.contains(4));
    }

    #[test]
    fn cyclic_thrash_beyond_capacity() {
        // Cyclic LRU access over capacity+1 lines in one set misses forever —
        // the behavior that makes overfull page sets miss in the paper's
        // probabilistic model.
        let assoc = 4u64;
        let mut c = SetAssocCache::new(1, assoc as usize);
        for _ in 0..4 {
            for l in 0..=assoc {
                assert!(!c.touch(l), "line {l} unexpectedly hit");
            }
        }
    }

    #[test]
    fn within_capacity_always_hits_after_warmup() {
        let mut c = SetAssocCache::new(2, 2);
        let lines = [0u64, 1, 2, 3]; // exactly fills both sets
        for &l in &lines {
            c.touch(l);
        }
        for _ in 0..3 {
            for &l in &lines {
                assert!(c.touch(l));
            }
        }
    }

    #[test]
    fn invalidate_removes_without_counting() {
        let mut c = SetAssocCache::new(2, 2);
        c.touch(5);
        assert!(c.invalidate(5));
        assert!(!c.contains(5));
        assert!(!c.invalidate(5));
        // Counters untouched by invalidation itself.
        assert_eq!(c.stats(), (0, 1));
        // The freed way is usable again.
        assert!(!c.touch(5));
        assert!(c.touch(5));
    }

    #[test]
    fn invalidate_preserves_lru_order_of_survivors() {
        let mut c = SetAssocCache::new(1, 4);
        for l in [1u64, 2, 3, 4] {
            c.touch(l);
        }
        // MRU..LRU = 4 3 2 1; drop 3, then fill two more: 1 must go first.
        assert!(c.invalidate(3));
        c.touch(5); // set now 5 4 2 1
        assert!(c.contains(1));
        c.touch(6);
        assert!(!c.contains(1) && c.contains(2));
        c.touch(7);
        assert!(!c.contains(2) && c.contains(4));
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = SetAssocCache::new(2, 2);
        c.touch(1);
        c.touch(1);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats(), (0, 0));
        assert_eq!(c.hit_rate(), 0.0);
        // Stale slots left behind by the flush never match.
        assert!(!c.touch(1));
    }

    #[test]
    fn hit_rate_tracks_touches() {
        let mut c = SetAssocCache::new(1, 1);
        c.touch(5); // miss
        c.touch(5); // hit
        c.touch(5); // hit
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// Seeded random op streams hold `touch` equal to the reference
    /// model's `probe` + `insert` — return value, residency, counters and
    /// the complete eviction order, with invalidations interleaved — for
    /// every associativity on both sides of each specialised width, over
    /// power-of-two and other set counts: the cache-level differential
    /// gate.
    #[test]
    fn differential_random_ops_match_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xCAFE);
        for assoc in 1..=17usize {
            for sets in [1usize, 3, 4, 7, 64] {
                let universe = (sets * assoc * 3) as u64;
                let mut fast = SetAssocCache::new(sets, assoc);
                let mut slow = ReferenceCache::new(sets, assoc);
                let what = format!("{sets} sets x {assoc} ways");
                let same_residency = |fast: &SetAssocCache, slow: &ReferenceCache| {
                    for line in 0..universe + (assoc * sets) as u64 {
                        assert_eq!(fast.contains(line), slow.contains(line), "{what}: {line}");
                    }
                };
                for _ in 0..3000 {
                    let line = rng.gen_range(0..universe);
                    match rng.gen_range(0..8) {
                        0 => assert_eq!(fast.invalidate(line), slow.invalidate(line), "{what}"),
                        1 => assert_eq!(fast.contains(line), slow.contains(line), "{what}"),
                        _ => {
                            let hit = slow.probe(line);
                            assert_eq!(fast.touch(line), hit, "{what}: line {line}");
                            if !hit {
                                if let Some(evicted) = slow.insert(line) {
                                    assert!(!fast.contains(evicted), "{what}: kept {evicted}");
                                }
                            }
                        }
                    }
                }
                assert_eq!(fast.stats(), slow.stats(), "{what}");
                assert_eq!(fast.resident_lines(), slow.resident_lines(), "{what}");
                same_residency(&fast, &slow);
                // Push one fresh line per set per round: both models must
                // give up their old lines in the same order.
                for fresh in universe..universe + (assoc * sets) as u64 {
                    assert!(!fast.touch(fresh), "{what}");
                    slow.probe(fresh);
                    slow.insert(fresh);
                    same_residency(&fast, &slow);
                }
            }
        }
    }
}
