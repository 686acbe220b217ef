//! Named generator types.

use crate::chacha::ChaCha12Core;
use crate::{RngCore, SeedableRng};

/// The workspace-standard generator: ChaCha12 with a 64-bit block
/// counter, buffered one block (16 words) at a time.
///
/// Mirrors the real `rand::rngs::StdRng` in spirit (same core cipher);
/// the exact output stream is defined by *this* vendored implementation
/// and is frozen with the repository.
#[derive(Clone, Debug)]
pub struct StdRng {
    core: ChaCha12Core,
    buf: [u32; 16],
    /// Next unread index into `buf`; 16 means "refill".
    idx: usize,
}

impl StdRng {
    #[inline]
    fn refill(&mut self) {
        self.buf = self.core.next_block();
        self.idx = 0;
    }

    /// Seek the word stream: the next `u32` drawn is word `word_offset`
    /// of this generator's stream, as if that many words had been drawn
    /// and discarded since seeding (a `u64` is two words). Mirrors the
    /// real `rand_chacha`'s method of the same name.
    ///
    /// ChaCha is counter-based, so word `w` is word `w % 16` of block
    /// `w / 16`, and seeking costs one block whatever the offset.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.core.set_block_pos((word_offset / 16) as u64);
        self.refill();
        self.idx = (word_offset % 16) as usize;
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Low word first, matching the little-endian word stream.
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> StdRng {
        StdRng {
            core: ChaCha12Core::new(seed),
            buf: [0; 16],
            idx: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_stream_crosses_block_boundaries() {
        let mut r = StdRng::seed_from_u64(11);
        // 40 u32s spans three 16-word blocks; just exercise the refill
        // path and check the stream stays reproducible.
        let a: Vec<u32> = (0..40).map(|_| r.next_u32()).collect();
        let mut r2 = StdRng::seed_from_u64(11);
        let b: Vec<u32> = (0..40).map(|_| r2.next_u32()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn set_word_pos_matches_draw_and_discard() {
        for pos in [0u64, 1, 15, 16, 17, 4_000_003] {
            let mut drawn = StdRng::seed_from_u64(23);
            for _ in 0..pos {
                drawn.next_u32();
            }
            let mut seeked = StdRng::seed_from_u64(23);
            seeked.set_word_pos(u128::from(pos));
            // 40 words run past the next block boundary from any offset.
            for k in 0..40 {
                assert_eq!(seeked.next_u32(), drawn.next_u32(), "word {pos} + {k}");
            }
        }
    }

    #[test]
    fn u64_is_two_u32s() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let x = a.next_u64();
        let lo = b.next_u32() as u64;
        let hi = b.next_u32() as u64;
        assert_eq!(x, lo | (hi << 32));
    }
}
