//! Virtual memory: per-process address spaces and page-frame allocation.
//!
//! The paper's key observation (§III-A, after Yotov et al.): "contiguity in
//! virtual memory does not imply adjacency in physical memory", so tests of
//! physically indexed caches see conflict misses for arrays much smaller
//! than the cache. The OS policy decides how bad this is:
//!
//! * [`PageAllocPolicy::Random`] — frames drawn uniformly at random, the
//!   Linux-like default. Produces the binomial page-set occupancy the
//!   Fig. 3 algorithm models.
//! * [`PageAllocPolicy::Colored`] — page coloring: the frame's color bits
//!   equal the virtual page's, so physically indexed caches behave like
//!   virtually indexed ones (sharp transitions).
//! * [`PageAllocPolicy::Contiguous`] — superpage-style physically
//!   contiguous allocation, the non-portable workaround the paper
//!   criticizes.
//!
//! Every trial of a sweep maps a fresh array, so drawing a page table is
//! on the simulator's hot path: on 1 KB-page machines a page is drawn
//! about as often as it is accessed. The random policies keep the first
//! distinct frames of the placement stream, in stream order, and draw
//! them in bulk ([`ChaCha8Rng::fill_below`]): a rejected draw costs a
//! slot, not a branch, and taken frames live in a set hashed by one
//! multiply. The rejection zone is the one every committed number was
//! drawn through; it discards half the draws for `PHYS_FRAMES`, a power
//! of two, but a tighter zone would move every frame. A page costs about
//! 18–25 ns to draw (2 CPUs, x86_64), much of it the generator's
//! four-block SSE2 refill; with one scalar block at a time it cost
//! 29–39 ns.

pub use crate::spec::PageAllocPolicy;
use servet_stats::rng::ChaCha8Rng;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Number of physical frames in the simulated machine (4 KB pages →
/// 64 GB of physical memory). Large enough that random allocation almost
/// never recycles a frame between two arrays of one experiment.
const PHYS_FRAMES: u64 = 1 << 24;

/// Number of frame colors used by the [`PageAllocPolicy::Colored`] policy.
/// 256 colors × 4 KB pages = 1 MB per color way, enough to color every
/// cache in the presets.
const COLORS: u64 = 256;

/// The page-placement stream of address space `asid` on a machine seeded
/// with `seed`.
fn placement_rng(asid: u64, seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ asid.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The first `pages` distinct frames of `rng`'s draws in `0..n`, in
/// stream order. `frame(draw, v)` is the frame a draw offers virtual page
/// `v`; a frame already taken is redrawn for the same page. Each pass
/// draws as many values as pages are still open, into the open tail of
/// the table, then moves the new frames down: a page needs at least one
/// more draw, so no pass reads past where one draw at a time would stop.
fn distinct_frames(
    rng: &mut ChaCha8Rng,
    pages: usize,
    n: u64,
    frame: impl Fn(u64, usize) -> u64,
) -> Vec<u64> {
    let mut frames = vec![0; pages];
    let mut taken =
        HashSet::with_capacity_and_hasher(pages, BuildHasherDefault::<FrameHasher>::default());
    let mut kept = 0;
    while kept < pages {
        let open = kept;
        rng.fill_below(n, &mut frames[open..]);
        for i in open..pages {
            let f = frame(frames[i], kept);
            frames[kept] = f;
            kept += usize::from(taken.insert(f));
        }
    }
    frames
}

/// Hashes a frame with one multiply. Frames are the generator's own
/// uniform draws, not outside input, so hash flooding cannot arise and
/// SipHash would only cost time.
#[derive(Default)]
struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("frames hash as one u64")
    }

    fn write_u64(&mut self, frame: u64) {
        self.0 = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A process address space: a mapping from virtual pages to physical
/// frames, built eagerly for the span of one benchmark array.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Unique id, used to tag lines of virtually indexed caches so two
    /// processes' identical virtual addresses never alias.
    asid: u64,
    page_size: u64,
    /// `frames[v]` is the physical frame backing virtual page `v`.
    frames: Vec<u64>,
}

impl AddressSpace {
    /// Map `len_bytes` of virtual memory starting at virtual address 0,
    /// choosing frames according to `policy`. `seed` makes the mapping
    /// reproducible; distinct `asid`s draw distinct frames.
    pub fn new(
        asid: u64,
        len_bytes: usize,
        page_size: usize,
        policy: PageAllocPolicy,
        seed: u64,
    ) -> Self {
        assert!(page_size.is_power_of_two());
        let pages = len_bytes.div_ceil(page_size).max(1);
        assert!(
            pages as u64 <= PHYS_FRAMES,
            "{pages} pages do not fit in {PHYS_FRAMES} physical frames"
        );
        let mut rng = placement_rng(asid, seed);
        let frames = match policy {
            PageAllocPolicy::Random => distinct_frames(&mut rng, pages, PHYS_FRAMES, |f, _| f),
            // Preserve the virtual page's color; randomize the rest.
            PageAllocPolicy::Colored => {
                distinct_frames(&mut rng, pages, PHYS_FRAMES / COLORS, |high, v| {
                    high * COLORS + v as u64 % COLORS
                })
            }
            PageAllocPolicy::Contiguous => {
                let base = rng.gen_range(0..PHYS_FRAMES - pages as u64);
                (base..base + pages as u64).collect()
            }
        };
        Self {
            asid,
            page_size: page_size as u64,
            frames,
        }
    }

    /// The address-space id.
    pub(crate) fn asid(&self) -> u64 {
        self.asid
    }

    /// Number of mapped pages.
    pub fn num_pages(&self) -> usize {
        self.frames.len()
    }

    /// Translate a virtual address to a physical address.
    ///
    /// Panics if `vaddr` is outside the mapped span — benchmark kernels
    /// never touch unmapped memory, so an out-of-range access is a bug.
    #[inline]
    pub fn translate(&self, vaddr: u64) -> u64 {
        let vpage = (vaddr / self.page_size) as usize;
        let offset = vaddr % self.page_size;
        self.frames[vpage] * self.page_size + offset
    }

    /// Physical frame of virtual page `vpage`.
    pub fn frame_of(&self, vpage: usize) -> u64 {
        self.frames[vpage]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 4096;

    #[test]
    fn translation_preserves_offsets() {
        let a = AddressSpace::new(1, 8 * PS, PS, PageAllocPolicy::Random, 42);
        for vaddr in [0u64, 5, 4096, 4097, 8191, 8 * 4096 - 1] {
            let p = a.translate(vaddr);
            assert_eq!(p % PS as u64, vaddr % PS as u64);
        }
    }

    #[test]
    fn random_mapping_is_deterministic_per_seed() {
        let a = AddressSpace::new(1, 64 * PS, PS, PageAllocPolicy::Random, 7);
        let b = AddressSpace::new(1, 64 * PS, PS, PageAllocPolicy::Random, 7);
        let c = AddressSpace::new(1, 64 * PS, PS, PageAllocPolicy::Random, 8);
        for v in 0..64 {
            assert_eq!(a.frame_of(v), b.frame_of(v));
        }
        assert!((0..64).any(|v| a.frame_of(v) != c.frame_of(v)));
    }

    #[test]
    fn distinct_asids_draw_distinct_mappings() {
        let a = AddressSpace::new(1, 64 * PS, PS, PageAllocPolicy::Random, 7);
        let b = AddressSpace::new(2, 64 * PS, PS, PageAllocPolicy::Random, 7);
        assert!((0..64).any(|v| a.frame_of(v) != b.frame_of(v)));
    }

    #[test]
    fn frames_are_unique_within_a_space() {
        let a = AddressSpace::new(3, 512 * PS, PS, PageAllocPolicy::Random, 9);
        let mut seen = std::collections::HashSet::new();
        for v in 0..a.num_pages() {
            assert!(seen.insert(a.frame_of(v)), "frame reused at page {v}");
        }
    }

    #[test]
    fn colored_mapping_preserves_color() {
        let a = AddressSpace::new(4, 600 * PS, PS, PageAllocPolicy::Colored, 11);
        for v in 0..a.num_pages() {
            assert_eq!(a.frame_of(v) % COLORS, v as u64 % COLORS);
        }
    }

    #[test]
    fn contiguous_mapping_is_contiguous() {
        let a = AddressSpace::new(5, 32 * PS, PS, PageAllocPolicy::Contiguous, 13);
        let base = a.frame_of(0);
        for v in 0..32 {
            assert_eq!(a.frame_of(v), base + v as u64);
        }
    }

    #[test]
    fn zero_length_maps_one_page() {
        let a = AddressSpace::new(6, 0, PS, PageAllocPolicy::Random, 1);
        assert_eq!(a.num_pages(), 1);
    }

    #[test]
    fn partial_page_rounds_up() {
        let a = AddressSpace::new(7, PS + 1, PS, PageAllocPolicy::Random, 1);
        assert_eq!(a.num_pages(), 2);
    }

    /// More pages than frames would never finish drawing distinct frames;
    /// the check comes before the table is allocated.
    #[test]
    #[should_panic(expected = "do not fit in 16777216 physical frames")]
    fn more_pages_than_frames_panics() {
        AddressSpace::new(10, PHYS_FRAMES as usize + 1, 1, PageAllocPolicy::Random, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_translation_panics() {
        let a = AddressSpace::new(8, PS, PS, PageAllocPolicy::Random, 1);
        a.translate(2 * PS as u64);
    }

    /// FNV-1a over the frames' little-endian bytes, in virtual-page order.
    fn frame_digest(a: &AddressSpace) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for v in 0..a.num_pages() {
            for byte in a.frame_of(v).to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        h
    }

    /// Every frame of these page tables is pinned: the Fig. 3 fits of every
    /// committed result were measured on them.
    #[test]
    fn frames_are_pinned() {
        use PageAllocPolicy::{Colored, Random};
        let pinned = [
            (1, 71, 4096, 42, Random, 0xBB81_A832_0CA6_4E83),
            (3, 528, 1024, 7, Random, 0x31EF_5E93_20D3_7737),
            (9, 16_384, 1024, 2010, Random, 0xEA4F_28A5_B48B_077A),
            (4, 600, 4096, 11, Colored, 0xB1B2_D993_A514_C5E3),
            (2, 16_384, 4096, 5, Colored, 0x48D4_7D73_5D33_75B1),
        ];
        for (asid, pages, page_size, seed, policy, want) in pinned {
            let a = AddressSpace::new(asid, pages * page_size, page_size, policy, seed);
            let got = frame_digest(&a);
            assert_eq!(
                got, want,
                "{policy:?} asid {asid}, {pages} pages, seed {seed}: {got:#018X}"
            );
        }
        // Both 16 384-page cases redraw taken frames (the colored one for
        // seven pages), so the digests also pin which draw replaces a
        // taken frame and which page it lands on. For the random one:
        let mut rng = placement_rng(9, 2010);
        let drawn: HashSet<u64> = (0..16_384).map(|_| rng.gen_range(0..PHYS_FRAMES)).collect();
        assert!(drawn.len() < 16_384);
    }

    /// Pearson's statistic of `counts` against a uniform spread, and the
    /// 99.9th percentile of its χ² distribution (Wilson–Hilferty).
    fn chi_square(counts: &[usize]) -> (f64, f64) {
        let expected = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let stat = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        let df = (counts.len() - 1) as f64;
        let h = 2.0 / (9.0 * df);
        (stat, df * (1.0 - h + 3.09 * h.sqrt()).powi(3))
    }

    /// The binomial premise of Fig. 3: under `Random`, the pages of an
    /// array fall uniformly over the page sets of every physically indexed
    /// level of every preset (32 pages per set on average).
    #[test]
    fn random_frames_spread_over_page_sets() {
        use crate::presets::*;
        use crate::spec::Indexing;
        let machines = [
            dunnington(),
            finis_terrae_node(),
            dempsey(),
            athlon3200(),
            tiny_smp(),
            tiny_shared_l2(),
            tiny_numa(),
            tiny_with_tlb(),
            mb_smp(),
        ];
        let mut checked = 0;
        for spec in &machines {
            let page = spec.page_size;
            for (asid, level) in spec.caches.iter().enumerate() {
                let page_sets = level.num_sets() * level.line_size / page;
                if level.indexing != Indexing::Physical || page_sets < 2 {
                    continue;
                }
                let pages = 32 * page_sets;
                let a =
                    AddressSpace::new(asid as u64, pages * page, page, PageAllocPolicy::Random, 21);
                let mut counts = vec![0; page_sets];
                for v in 0..pages {
                    let set = (a.frame_of(v) as usize * page / level.line_size) % level.num_sets();
                    counts[set / (page / level.line_size)] += 1;
                }
                let (stat, bound) = chi_square(&counts);
                assert!(
                    stat < bound,
                    "{} L{}: chi-square {stat:.1} over {page_sets} page sets, bound {bound:.1}",
                    spec.name,
                    level.level
                );
                checked += 1;
            }
        }
        assert!(checked >= 8, "{checked} levels checked");
    }

    /// `Colored` keeps each page's colour and draws the frame's high bits
    /// uniformly: both their low six and their top six bits spread evenly.
    #[test]
    fn colored_frames_keep_colour_and_spread_high_bits() {
        let pages = 16_384;
        let a = AddressSpace::new(2, pages * PS, PS, PageAllocPolicy::Colored, 5);
        let high_frames = PHYS_FRAMES / COLORS;
        let (mut low, mut top) = (vec![0; 64], vec![0; 64]);
        for v in 0..pages {
            let frame = a.frame_of(v);
            assert_eq!(frame % COLORS, v as u64 % COLORS);
            let high = frame / COLORS;
            low[(high % 64) as usize] += 1;
            top[(high * 64 / high_frames) as usize] += 1;
        }
        for (bits, counts) in [("low", low), ("top", top)] {
            let (stat, bound) = chi_square(&counts);
            assert!(
                stat < bound,
                "{bits} bits: chi-square {stat:.1}, bound {bound:.1}"
            );
        }
    }
}
