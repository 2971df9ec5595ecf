//! Offline stand-in for `rand_chacha`: a genuine ChaCha8 keystream RNG.
//!
//! The block function is the real ChaCha quarter-round construction
//! (Bernstein), keyed from a 64-bit seed the same simple way everywhere in
//! this workspace: the seed fills the key words. Streams are therefore
//! deterministic, high-quality and platform-independent — the properties
//! the workspace's datasets and initializers rely on — though the exact
//! values differ from the upstream `rand_chacha` crate (which seeds via
//! SplitMix and reads words in a different order). Nothing in the repo
//! asserts upstream-exact values, only per-seed determinism.

use rand::{Rng, SeedableRng};

const ROUNDS: usize = 8;

/// Word positions wrap at 2⁶⁸: 2⁶⁴ blocks of 16 words.
const WORD_POS_MASK: u128 = (1 << 68) - 1;

/// ChaCha8 random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// ChaCha state: 4 constant words, 8 key words, counter, 3 nonce words.
    state: [u32; 16],
    /// Current keystream block.
    block: [u32; 16],
    /// Next unread word in `block` (16 = exhausted).
    index: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (&w, &s)) in self
            .block
            .iter_mut()
            .zip(working.iter().zip(self.state.iter()))
        {
            *out = w.wrapping_add(s);
        }
        // 64-bit block counter in words 12–13.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.index = 0;
    }

    /// The 32-byte key this generator runs under: state words 4–11,
    /// each little-endian — upstream's `get_seed`. With the "expand
    /// 32-byte k" constants, a 64-bit block counter in words 12–13 from
    /// 0 and a zero nonce in words 14–15, it is the whole stream.
    pub fn get_seed(&self) -> [u8; 32] {
        let mut seed = [0u8; 32];
        for (bytes, word) in seed.chunks_exact_mut(4).zip(&self.state[4..12]) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        seed
    }

    /// Position of the next word `next_u32` returns, counted in 32-bit
    /// words from the start of the stream: word `pos % 16` of block
    /// `pos / 16`. The stream is 2⁶⁴ blocks long, so positions are
    /// modulo 2⁶⁸, as upstream's.
    pub fn get_word_pos(&self) -> u128 {
        let next_block = self.state[12] as u64 | ((self.state[13] as u64) << 32);
        let block = next_block.wrapping_sub(1) as u128;
        ((block << 4) + self.index as u128) & WORD_POS_MASK
    }

    /// Move to word `word_offset` of the stream (modulo 2⁶⁸): the next
    /// `next_u32` returns it. The same state stepping there would reach.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let block = ((word_offset & WORD_POS_MASK) >> 4) as u64;
        self.state[12] = block as u32;
        self.state[13] = (block >> 32) as u32;
        self.refill();
        self.index = (word_offset & 15) as usize;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let lo = seed as u32;
        let hi = (seed >> 32) as u32;
        let mut state = [0u32; 16];
        // "expand 32-byte k" constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        // Key: the seed words, lightly diffused so nearby seeds diverge.
        for (i, k) in state[4..12].iter_mut().enumerate() {
            let x = (lo ^ hi.rotate_left(i as u32 * 7))
                .wrapping_add(0x9e37_79b9u32.wrapping_mul(i as u32 + 1));
            *k = x ^ lo.rotate_left(i as u32 * 5) ^ hi;
        }
        let mut rng = Self {
            state,
            block: [0; 16],
            index: 16,
        };
        rng.refill();
        rng
    }
}

impl Rng for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        lo | (hi << 32)
    }

    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn floats_uniformish() {
        let mut r = ChaCha8Rng::seed_from_u64(7);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn seed_is_the_key_words() {
        let r = ChaCha8Rng::seed_from_u64(0x1234_5678_9abc_def0);
        let seed = r.get_seed();
        for (i, bytes) in seed.chunks_exact(4).enumerate() {
            assert_eq!(
                u32::from_le_bytes(bytes.try_into().unwrap()),
                r.state[4 + i]
            );
        }
    }

    #[test]
    fn word_pos_counts_the_words_read() {
        let mut r = ChaCha8Rng::seed_from_u64(3);
        for pos in 0..70u128 {
            assert_eq!(r.get_word_pos(), pos);
            r.next_u32();
        }
    }

    #[test]
    fn set_word_pos_equals_stepping() {
        let mut stepped = ChaCha8Rng::seed_from_u64(9);
        let words: Vec<u32> = (0..80).map(|_| stepped.next_u32()).collect();
        // Block starts, mid-block words and the last word of a block.
        for pos in [0usize, 1, 7, 15, 16, 17, 31, 33, 47, 63, 64, 70] {
            let mut r = ChaCha8Rng::seed_from_u64(9);
            r.next_u64();
            r.set_word_pos(pos as u128);
            assert_eq!(r.get_word_pos(), pos as u128);
            let rest: Vec<u32> = (pos..80).map(|_| r.next_u32()).collect();
            assert_eq!(rest, words[pos..], "from word {pos}");
        }
        // Setting a position after reading still lands on the same words.
        let mut r = ChaCha8Rng::seed_from_u64(9);
        r.set_word_pos(40);
        r.set_word_pos(5);
        assert_eq!(r.next_u32(), words[5]);
    }

    #[test]
    fn set_word_pos_carries_the_counter_into_its_high_word() {
        // Block 2³² − 1 is the last one whose counter fits word 12; the
        // next one carries into word 13.
        let last_low = ((1u128 << 32) - 1) << 4;
        let mut r = ChaCha8Rng::seed_from_u64(11);
        r.set_word_pos(last_low + 14);
        let across: Vec<u32> = (0..20).map(|_| r.next_u32()).collect();
        let mut next = ChaCha8Rng::seed_from_u64(11);
        next.set_word_pos(last_low + 16);
        assert_eq!((next.state[12], next.state[13]), (1, 1));
        assert_eq!(next.next_u32(), across[2]);
        assert_eq!(r.get_word_pos(), last_low + 34);
        // Positions wrap at 2⁶⁸ words, as the 64-bit counter does.
        let mut end = ChaCha8Rng::seed_from_u64(11);
        end.set_word_pos((1 << 68) - 1);
        end.next_u32();
        assert_eq!(end.get_word_pos(), 0);
        let mut start = ChaCha8Rng::seed_from_u64(11);
        end.set_word_pos(1 << 68);
        assert_eq!(end.next_u32(), start.next_u32());
    }

    #[test]
    fn nearby_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(0);
        let mut b = ChaCha8Rng::seed_from_u64(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
