//! ChaCha12 block generation (Bernstein's ChaCha with 12 rounds — the
//! variant the real `rand`'s `StdRng` settled on as the speed/quality
//! sweet spot). Only what a PRNG needs: key + 64-bit block counter, no
//! nonce/stream support, output consumed as a word stream.

/// One ChaCha block: 16 output words from 16 state words.
#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]; // "expand 32-byte k"
const ROUNDS: usize = 12;

/// The raw ChaCha12 core: 32-byte key, 64-bit block counter.
#[derive(Clone, Debug)]
pub struct ChaCha12Core {
    key: [u32; 8],
    counter: u64,
}

impl ChaCha12Core {
    pub fn new(seed: [u8; 32]) -> ChaCha12Core {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha12Core { key, counter: 0 }
    }

    /// Make block `block` the next one [`ChaCha12Core::next_block`]
    /// produces. The counter is the cipher's only state besides the key,
    /// so any block is reachable without generating the ones before it.
    pub fn set_block_pos(&mut self, block: u64) {
        self.counter = block;
    }

    /// Produce the next 16-word block and advance the counter.
    pub fn next_block(&mut self) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;
        let input = state;
        for _ in 0..ROUNDS / 2 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (s, i) in state.iter_mut().zip(input) {
            *s = s.wrapping_add(i);
        }
        self.counter = self.counter.wrapping_add(1);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_differ_and_are_reproducible() {
        let mut a = ChaCha12Core::new([1; 32]);
        let mut b = ChaCha12Core::new([1; 32]);
        let a1 = a.next_block();
        let a2 = a.next_block();
        assert_ne!(a1, a2, "consecutive blocks must differ");
        assert_eq!(a1, b.next_block(), "same key, same block");
        let mut c = ChaCha12Core::new([2; 32]);
        assert_ne!(a2, c.next_block(), "different key, different block");
    }

    #[test]
    fn avalanche_over_key_bits() {
        let mut k1 = [0u8; 32];
        let mut k2 = [0u8; 32];
        k2[0] = 1;
        let b1 = ChaCha12Core::new(k1).next_block();
        let b2 = ChaCha12Core::new(k2).next_block();
        let flipped: u32 = b1.iter().zip(b2).map(|(x, y)| (x ^ y).count_ones()).sum();
        // 512 output bits; a single key-bit flip should change ~half.
        assert!((150..=362).contains(&flipped), "poor diffusion: {flipped}");
        k1[0] = 1;
        assert_eq!(ChaCha12Core::new(k1).next_block(), b2);
    }
}
