//! The workspace's one seeded generator: splitmix64 for mixing seeds and
//! ChaCha8 for every seeded stream (page placement, measurement noise,
//! machine perturbation, placement search, property tests).
//!
//! Both are std-only, so the same seed draws the same numbers on every
//! machine that builds this crate. [`ChaCha8Rng`] covers what its callers
//! use and no more: a uniform `f64`, half-open ranges over `u64`, `usize`
//! and `f64`, a Fisher–Yates [`shuffle`](ChaCha8Rng::shuffle), and
//! [`fill_below`](ChaCha8Rng::fill_below), which fills a slice with the
//! values successive `gen_range(0..n)` calls return, without a branch per
//! rejected draw (the simulator's page tables are drawn this way).
//!
//! The generator refills four consecutive blocks (64 words) at a time.
//! On x86_64 one SSE2 kernel computes them, one block per 32-bit lane of
//! sixteen registers; SSE2 is part of the x86_64 baseline, so there is no
//! run-time detection and no second path to choose between. A block's
//! words cost about half what one scalar block at a time cost, and a
//! page table about 40 % less. An eight-lane AVX2 kernel would halve the
//! block again but draw a page only about 1 ns faster, behind run-time
//! detection and a third path, so it is not here. The scalar
//! `chacha_block` stays as the specification: the tests hold the kernel
//! to it word for word, and on every other architecture four calls of it
//! are the refill.

use std::ops::Range;

/// The golden-ratio increment of splitmix64.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: full avalanche, so every output bit depends
/// on every input bit.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the splitmix64 generator: advance `state` by the golden
/// gamma and return its mix.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix64(*state)
}

/// ChaCha's rounds in this generator.
const ROUNDS: usize = 8;

/// Blocks per refill.
const LANES: usize = 4;

/// One refill: [`LANES`] blocks of 16 words, each consecutive pair of
/// words one `u64`, the lower word low.
type Refill = [u64; 8 * LANES];

/// The 64-bit block counter in words 12 (low) and 13 (high).
fn counter(state: &[u32; 16]) -> u64 {
    u64::from(state[13]) << 32 | u64::from(state[12])
}

/// Set the block counter in words 12 and 13.
fn set_counter(state: &mut [u32; 16], counter: u64) {
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
}

/// One ChaCha block (Bernstein 2008; layout of RFC 7539 §2.3 with a
/// 64-bit block counter): `rounds` rounds over `input`, then the
/// feed-forward addition. The specification the SSE2 kernel is tested
/// against, and the refill off x86_64.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn chacha_block(input: &[u32; 16], rounds: usize) -> [u32; 16] {
    fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }
    let mut x = *input;
    for _ in 0..rounds / 2 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (out, inp) in x.iter_mut().zip(input) {
        *out = out.wrapping_add(*inp);
    }
    x
}

/// The blocks at counters `c … c + 3` of `input` (whose counter is `c`),
/// one [`chacha_block`] after another.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn refill_portable(input: &[u32; 16], out: &mut Refill) {
    let mut state = *input;
    for (block, pairs) in out.chunks_exact_mut(8).enumerate() {
        set_counter(&mut state, counter(input).wrapping_add(block as u64));
        let words = chacha_block(&state, ROUNDS);
        for (pair, w) in pairs.iter_mut().zip(words.chunks_exact(2)) {
            *pair = u64::from(w[0]) | u64::from(w[1]) << 32;
        }
    }
}

/// The four-block refill of `refill_portable` in SSE2 registers.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{counter, Refill, ROUNDS};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_slli_epi32,
        _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    /// `x` rotated left by `L` bits in every lane; `R` is `32 − L`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    /// One quarter round on words `a`, `b`, `c`, `d` of all four blocks.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl::<16, 16>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    /// The blocks at counters `c … c + 3` of `input` (whose counter is
    /// `c`), block `j` in lane `j` of each word's register. The counters
    /// are summed in `u64`, so a carry into word 13 is that block's own.
    #[target_feature(enable = "sse2")]
    pub(super) fn refill(input: &[u32; 16], out: &mut Refill) {
        let c = counter(input);
        let counters = |shift: u32| {
            let lane = |j: u64| (c.wrapping_add(j) >> shift) as u32 as i32;
            _mm_set_epi32(lane(3), lane(2), lane(1), lane(0))
        };
        let start: [__m128i; 16] = std::array::from_fn(|i| match i {
            12 => counters(0),
            13 => counters(32),
            _ => _mm_set1_epi32(input[i] as i32),
        });
        let mut x = start;
        for _ in 0..ROUNDS / 2 {
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for (v, s) in x.iter_mut().zip(start) {
            *v = _mm_add_epi32(*v, s);
        }
        // Transpose each group of four words: block j's words 4g … 4g + 3
        // go to pairs 8j + 2g and 8j + 2g + 1, a register's lanes 0 and 1
        // making one pair, the lower word low (x86_64 is little-endian).
        let dst = out.as_mut_ptr().cast::<__m128i>();
        for g in 0..4 {
            let [a, b, c, d] = [x[4 * g], x[4 * g + 1], x[4 * g + 2], x[4 * g + 3]];
            let ab_lo = _mm_unpacklo_epi32(a, b);
            let cd_lo = _mm_unpacklo_epi32(c, d);
            let ab_hi = _mm_unpackhi_epi32(a, b);
            let cd_hi = _mm_unpackhi_epi32(c, d);
            let blocks = [
                _mm_unpacklo_epi64(ab_lo, cd_lo),
                _mm_unpackhi_epi64(ab_lo, cd_lo),
                _mm_unpacklo_epi64(ab_hi, cd_hi),
                _mm_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (j, v) in blocks.into_iter().enumerate() {
                // SAFETY: `out` is 32 `u64`s, 16 registers' worth, and
                // 4j + g < 16; the unaligned store needs no alignment.
                unsafe { _mm_storeu_si128(dst.add(4 * j + g), v) };
            }
        }
    }
}

/// "expand 32-byte k"
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// ChaCha at 8 rounds, keyed by a 32-byte seed, with a 64-bit block
/// counter and a zero nonce; the 16 words of each block are handed out in
/// order, block after block.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Constants, key, the next refill's 64-bit block counter (words
    /// 12–13), zero nonce.
    state: [u32; 16],
    /// The last refill's blocks.
    buf: Refill,
    /// Next unread pair of `buf`; `buf.len()` when it is spent.
    index: usize,
}

impl ChaCha8Rng {
    /// Key the generator with a full 32-byte seed.
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for (word, bytes) in state[4..12].iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("four bytes"));
        }
        let buf = [0; 8 * LANES];
        Self {
            state,
            buf,
            index: buf.len(),
        }
    }

    /// Expand a `u64` into a full seed with the PCG32 stream `rand_core`
    /// uses, so nearby integers give unrelated generators.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(seed)
    }

    /// Compute the next four blocks into `buf` and advance the counter
    /// past them.
    fn refill(&mut self) {
        // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64
        // processor has the one feature the kernel enables.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            sse2::refill(&self.state, &mut self.buf)
        };
        #[cfg(not(target_arch = "x86_64"))]
        refill_portable(&self.state, &mut self.buf);
        let next = counter(&self.state).wrapping_add(LANES as u64);
        set_counter(&mut self.state, next);
        self.index = 0;
    }

    /// The next 64 random bits: two words of the stream, the first low.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.index == self.buf.len() {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// One value in the half-open `range`; panics when it is empty.
    #[inline]
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `0..n` without modulo bias (widening multiply with
    /// rejection).
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        let zone = zone(n);
        loop {
            let (value, accepted) = widen(self.next_u64(), n, zone);
            if accepted {
                return value;
            }
        }
    }

    /// Fill `out` with what `out.len()` successive `gen_range(0..n)` calls
    /// return, leaving the generator where those calls would. Every draw
    /// is written to the next open slot and the slot advances only if the
    /// draw is accepted, so a rejection costs no branch.
    pub fn fill_below(&mut self, n: u64, out: &mut [u64]) {
        let zone = zone(n);
        let mut k = 0;
        while k < out.len() {
            let (value, accepted) = widen(self.next_u64(), n, zone);
            out[k] = value;
            k += usize::from(accepted);
        }
    }
}

/// The largest low word [`widen`] accepts for `0..n`: one below
/// `n << n.leading_zeros()`, the zone of the `rand` stand-in this
/// generator replaced. It rejects up to half the draws (exactly half when
/// `n` is a power of two) where a tighter zone would reject almost none,
/// but every seeded number in the workspace was drawn through it.
#[inline]
fn zone(n: u64) -> u64 {
    assert!(n > 0, "cannot sample an empty range");
    (n << n.leading_zeros()).wrapping_sub(1)
}

/// One draw mapped into `0..n` by a widening multiply: the high word, and
/// whether the low word falls inside `zone` (no modulo bias).
#[inline]
fn widen(word: u64, n: u64, zone: u64) -> (u64, bool) {
    let wide = u128::from(word) * u128::from(n);
    ((wide >> 64) as u64, wide as u64 <= zone)
}

/// The top 53 bits of `word` as a fraction in `[0, 1)`.
#[inline]
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The point a fraction `u` in `[0, 1)` of the way along `range`, never
/// `range.end`: the scaled sum can round up to it (`1 + (1 − 2⁻⁵³)` is
/// 2.0), and then the largest value below it stands in.
#[inline]
fn lerp(range: Range<f64>, u: f64) -> f64 {
    let x = range.start + (range.end - range.start) * u;
    if x < range.end {
        x
    } else {
        range.end.next_down()
    }
}

/// A type [`ChaCha8Rng::gen_range`] can draw from a half-open range.
pub trait SampleRange: Sized {
    /// One value in `range`; panics when the range is empty.
    fn sample(rng: &mut ChaCha8Rng, range: Range<Self>) -> Self;
}

impl SampleRange for u64 {
    #[inline]
    fn sample(rng: &mut ChaCha8Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample an empty range");
        range.start + rng.below(range.end - range.start)
    }
}

impl SampleRange for usize {
    #[inline]
    fn sample(rng: &mut ChaCha8Rng, range: Range<Self>) -> Self {
        u64::sample(rng, range.start as u64..range.end as u64) as usize
    }
}

impl SampleRange for f64 {
    #[inline]
    fn sample(rng: &mut ChaCha8Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample an empty range");
        lerp(range, rng.f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_stream_is_pinned() {
        // The monte-carlo tune strategy, the registry client's backoff
        // jitter, the zoo's machine seeds and the cluster's jitter all
        // replay this stream.
        let mut state = 0;
        let drawn: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            drawn,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    /// The first draws of each kind for three seeds. These are the values
    /// the zoo, the simulator's page placement and every seeded test have
    /// been measured on: a change here moves every seeded number.
    #[test]
    fn chacha8_stream_is_pinned() {
        type Draws = ([u64; 2], [f64; 2], u64, usize, f64, [usize; 10]);
        let pinned: [(u64, Draws); 3] = [
            (
                0,
                (
                    [0xB585_F767_A79A_3B6C, 0x7746_A55F_BAD8_C037],
                    [0.6991432426747317, 0.0601711656341718],
                    879,
                    10,
                    1.815937904095997,
                    [0, 3, 5, 8, 2, 4, 6, 1, 7, 9],
                ),
            ),
            (
                42,
                (
                    [0xAE90_BFB5_395D_5BA1, 0xF345_3FC6_2579_9188],
                    [0.4275164028565197, 0.6273605211973403],
                    288,
                    5,
                    -0.26783776160836137,
                    [7, 1, 3, 0, 9, 5, 6, 4, 2, 8],
                ),
            ),
            (
                2010,
                (
                    [0xBE31_CF0C_D1BF_CD08, 0x945C_7533_530F_835E],
                    [0.5603424923469759, 0.7021936032770798],
                    475,
                    5,
                    1.645345709983797,
                    [1, 5, 2, 0, 3, 6, 7, 8, 4, 9],
                ),
            ),
        ];
        for (seed, want) in pinned {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let words = [rng.next_u64(), rng.next_u64()];
            let units = [rng.f64(), rng.f64()];
            let int = rng.gen_range(0..1000u64);
            let index = rng.gen_range(3..17usize);
            let real = rng.gen_range(-1.5..2.5);
            let mut order: [usize; 10] = std::array::from_fn(|i| i);
            rng.shuffle(&mut order);
            assert_eq!((words, units, int, index, real, order), want, "seed {seed}");
        }
    }

    /// Words keep their order across a block boundary (the ninth `u64`
    /// opens the second block), and a range just past 2⁶³ — where about
    /// half the draws fall in the rejection zone — stays pinned.
    #[test]
    fn block_boundary_and_rejection_are_pinned() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let words: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words[7..],
            [
                0xD96B_0F63_416F_0A7E,
                0x5D4D_854A_5C0F_A8CD,
                0xFD6E_D5DC_7E48_2577
            ]
        );
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let wide: Vec<u64> = (0..6).map(|_| rng.gen_range(0..(1 << 63) + 1)).collect();
        assert_eq!(
            wide,
            [
                1549428391081251997,
                6495800745555806873,
                6703005354132708722,
                3314551271235321619,
                9130884341011059388,
                1846866000883506228
            ]
        );
    }

    /// `fill_below` returns exactly the values of successive `gen_range`
    /// calls and leaves the generator where they would, rejections and
    /// block boundaries included.
    #[test]
    fn fill_below_matches_successive_gen_range() {
        for n in [1, 3, 1000, 1 << 24, (1 << 63) + 1, u64::MAX] {
            for len in [0, 1, 17, 1000] {
                let mut rng = ChaCha8Rng::seed_from_u64(n ^ len as u64);
                let mut clone = rng.clone();
                let mut filled = vec![0; len];
                rng.fill_below(n, &mut filled);
                let drawn: Vec<u64> = (0..len).map(|_| clone.gen_range(0..n)).collect();
                assert_eq!(filled, drawn, "n {n}, len {len}");
                for _ in 0..3 {
                    assert_eq!(rng.f64(), clone.f64(), "n {n}, len {len}");
                    assert_eq!(
                        rng.gen_range(0..n),
                        clone.gen_range(0..n),
                        "n {n}, len {len}"
                    );
                }
            }
        }
    }

    /// A refill of `key` at block counter `c`, as the words of four
    /// [`chacha_block`] calls at `c … c + 3`, and the generator state it
    /// starts from.
    fn scalar_refill(key: u64, c: u64) -> ([u32; 16], Vec<u32>) {
        let mut state = ChaCha8Rng::seed_from_u64(key).state;
        set_counter(&mut state, c);
        let words = (0..LANES as u64)
            .flat_map(|j| {
                let mut block = state;
                set_counter(&mut block, c.wrapping_add(j));
                chacha_block(&block, ROUNDS)
            })
            .collect();
        (state, words)
    }

    /// Random keys at counter 0, at a random counter, where the carry
    /// into word 13 falls inside the refill (`2³² − 2 … 2³² + 1`) and
    /// where the counter wraps.
    fn refill_cases() -> impl Iterator<Item = (u64, u64)> {
        let mut mix = 0x5EED;
        (0..16).flat_map(move |_| {
            let key = splitmix64(&mut mix);
            let random = splitmix64(&mut mix);
            [0, random, (1 << 32) - 2, u64::MAX - 1].map(|c| (key, c))
        })
    }

    /// A refill's pairs as words, the low word of each pair first.
    fn words(refill: &Refill) -> Vec<u32> {
        refill
            .iter()
            .flat_map(|&pair| [pair as u32, (pair >> 32) as u32])
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_refill_matches_four_scalar_blocks() {
        for (key, c) in refill_cases() {
            let (state, want) = scalar_refill(key, c);
            let mut out = [0; 8 * LANES];
            // SAFETY: SSE2 is part of the x86_64 baseline.
            unsafe { sse2::refill(&state, &mut out) };
            assert_eq!(words(&out), want, "key {key:#x}, counter {c:#x}");
        }
    }

    /// The refill of every architecture but x86_64, checked here too.
    #[test]
    fn portable_refill_matches_four_scalar_blocks() {
        for (key, c) in refill_cases() {
            let (state, want) = scalar_refill(key, c);
            let mut out = [0; 8 * LANES];
            refill_portable(&state, &mut out);
            assert_eq!(words(&out), want, "key {key:#x}, counter {c:#x}");
        }
    }

    /// A clone taken anywhere in a refill, its first and last pairs
    /// included, draws what the original and a fresh generator draw.
    #[test]
    fn clone_mid_refill_continues_identically() {
        let fresh: Vec<u64> = {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            (0..200).map(|_| rng.next_u64()).collect()
        };
        for taken in [0, 1, 17, 31, 32, 33, 95] {
            let mut rng = ChaCha8Rng::seed_from_u64(99);
            for _ in 0..taken {
                rng.next_u64();
            }
            let mut clone = rng.clone();
            for want in &fresh[taken..] {
                assert_eq!(rng.next_u64(), *want, "taken {taken}");
                assert_eq!(clone.next_u64(), *want, "taken {taken}");
            }
        }
    }

    /// The largest unit value scaled onto `1.0..2.0` rounds to 2.0; the
    /// draw stays below the end.
    #[test]
    fn float_range_excludes_its_end() {
        let top = unit(u64::MAX);
        assert_eq!(top, 1.0 - f64::EPSILON / 2.0);
        assert_eq!(1.0 + (2.0 - 1.0) * top, 2.0);
        for range in [1.0..2.0, 0.0..1.0, -1.5..2.5, 0.9..1.1, 1e-300..1e-299] {
            let x = lerp(range.clone(), top);
            assert!(range.contains(&x), "{x} outside {range:?}");
            assert_eq!(lerp(range.clone(), 0.0), range.start);
        }
        assert_eq!(lerp(1.0..2.0, top), 2.0f64.next_down());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        ChaCha8Rng::seed_from_u64(1).gen_range(5..5usize);
    }
}
