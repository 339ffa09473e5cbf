//! Stand-in `ChaCha8Rng` over the rand stand-in: the ChaCha block
//! function (Bernstein 2008; layout of RFC 7539 §2.3 with a 64-bit block
//! counter) at 8 rounds, keyed by the 32-byte seed, words handed out in
//! block order. Deterministic per seed; not promised to reproduce the
//! published crate's word order at buffer boundaries.

use rand::{RngCore, SeedableRng};

/// One ChaCha block: `rounds` rounds over `input`, then the feed-forward
/// addition.
pub fn chacha_block(input: &[u32; 16], rounds: usize) -> [u32; 16] {
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

/// "expand 32-byte k"
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A ChaCha generator with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Constants, key, 64-bit block counter (words 12–13), zero nonce.
    state: [u32; 16],
    block: [u32; 16],
    /// Next unread word of `block`; 16 when the block is spent.
    index: usize,
}

impl SeedableRng for ChaCha8Rng {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for (word, bytes) in state[4..12].iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("four bytes"));
        }
        Self {
            state,
            block: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            self.block = chacha_block(&self.state, 8);
            let counter =
                (u64::from(self.state[13]) << 32 | u64::from(self.state[12])).wrapping_add(1);
            self.state[12] = counter as u32;
            self.state[13] = (counter >> 32) as u32;
            self.index = 0;
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }
}
