//! Stand-in for the parts of `rand` 0.8 the Servet crates use, owned by
//! the benchmark so the workspace builds offline. Deterministic per seed;
//! not promised to reproduce the published crate's streams.

use std::ops::Range;

/// A source of random words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32()) | u64::from(self.next_u32()) << 32
    }
}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    /// Build from a full 32-byte seed.
    fn from_seed(seed: [u8; 32]) -> Self;

    /// Expand a `u64` into a full seed with the PCG32 stream the
    /// published `rand_core` uses, so nearby integers give unrelated
    /// generators.
    fn seed_from_u64(mut state: u64) -> Self {
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
}

/// A type `Rng::gen` can produce.
pub trait Standard {
    /// One value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A type `Rng::gen_range` can draw from a half-open range.
pub trait SampleUniform: Sized {
    /// One value in `range`; panics when the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Uniform in `0..n` without modulo bias (widening multiply with
/// rejection).
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "cannot sample an empty range");
    let zone = (n << n.leading_zeros()).wrapping_sub(1);
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(n);
        if wide as u64 <= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample an empty range");
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add(below(rng, span) as $t)
            }
        }
    )*};
}
uniform_int!(u64, usize, i32);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample an empty range");
        range.start + (range.end - range.start) * f64::sample(rng)
    }
}

/// The convenience methods every generator gets.
pub trait Rng: RngCore {
    /// One value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// One value in the half-open `range`.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Slice helpers.
pub mod seq {
    use super::{below, Rng};

    /// Random reordering of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, below(rng, i as u64 + 1) as usize);
            }
        }
    }
}
