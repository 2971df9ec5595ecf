//! The weight fill's lane body: uniform stream elements computed eight
//! ChaCha8 blocks at a time.
//!
//! Element `i` of the stream [`crate::init::xavier_uniform`] draws is a
//! pure function of keystream block `i / 8`: words `2(i % 8)` and
//! `2(i % 8) + 1` form a `u64`, whose top 53 bits scaled by 2⁻⁵³ are an
//! `f64` in `[0, 1)`, rounded to `f32` as `u`, and the element is
//! `lo + u · (hi − lo)` in `f32`, multiply and add rounded separately.
//! That is the shim's `gen_range(lo..=hi)` on a generator positioned at
//! word `2i` (the scalar oracle, [`super::scalar::uniform_fill`]). So
//! the stream can be computed a step of [`LANES`] blocks at a time —
//! lane `j` is block `b + j`, one `[u32; LANES]` per state word — and
//! cut anywhere on a step boundary.
//!
//! The body is plain safe Rust over fixed-width arrays, written once and
//! `#[inline(always)]`: the private `simd` module recompiles it under
//! `#[target_feature]`, where each array operation becomes vector
//! instructions, the way `scalar::fma` recompiles the scalar sources.
//! The `u64 → f64` step is the one that wants a wide target: with
//! AVX-512DQ a `u64` lane converts in one instruction, and on fc6's
//! 38 M elements the AVX-512 build ran 2–3× faster than the AVX2 one
//! (~70 ms against 145–210 ms, one process, pre-touched output).

use rand_chacha::ChaCha8Rng;

/// Stream elements per ChaCha block: 16 words, two per element.
pub const BLOCK_ELEMS: usize = 8;

/// Blocks per step of the lane body, one per lane.
pub const LANES: usize = 8;

/// Elements per step of the lane body ([`LANES`] blocks): a fill cut at
/// multiples of this computes every block once.
pub const STEP_ELEMS: usize = LANES * BLOCK_ELEMS;

/// "expand 32-byte k": state words 0–3 of every ChaCha block.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// 2⁻⁵³: scales the top 53 bits of a `u64` into `[0, 1)`.
const TWO_POW_M53: f64 = 1.0 / (1u64 << 53) as f64;

/// One state word across the lanes.
type Lanes = [u32; LANES];

/// The key words (state words 4–11) `rng` runs under.
pub fn key_words(rng: &ChaCha8Rng) -> [u32; 8] {
    let seed = rng.get_seed();
    std::array::from_fn(|w| u32::from_le_bytes(seed[4 * w..4 * w + 4].try_into().unwrap()))
}

#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|j| a[j].wrapping_add(b[j]))
}

#[inline(always)]
fn xor_rotate(a: Lanes, b: Lanes, r: u32) -> Lanes {
    std::array::from_fn(|j| (a[j] ^ b[j]).rotate_left(r))
}

#[inline(always)]
fn quarter_round(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotate(x[d], x[a], 16);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotate(x[b], x[c], 12);
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotate(x[d], x[a], 8);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotate(x[b], x[c], 7);
}

/// Fill `out` — whole steps of [`STEP_ELEMS`] — with the stream
/// elements of blocks `first_block ..` under `key`: `lo + u · (hi − lo)`
/// for each element's `u` (see the module docs).
///
/// # Panics
/// If `out.len()` is not a multiple of [`STEP_ELEMS`].
#[inline(always)]
pub fn uniform_steps(key: &[u32; 8], first_block: u64, lo: f32, hi: f32, out: &mut [f32]) {
    assert_eq!(out.len() % STEP_ELEMS, 0, "the lane body fills whole steps");
    let span = hi - lo;
    let mut input = [[0u32; LANES]; 16];
    for (w, &c) in CONSTANTS.iter().enumerate() {
        input[w] = [c; LANES];
    }
    for (w, &k) in key.iter().enumerate() {
        input[4 + w] = [k; LANES];
    }
    for (step, chunk) in out.chunks_exact_mut(STEP_ELEMS).enumerate() {
        // The 64-bit block counter of each lane, carried into word 13.
        let block0 = first_block.wrapping_add((step * LANES) as u64);
        let counter = |j: usize| block0.wrapping_add(j as u64);
        input[12] = std::array::from_fn(|j| counter(j) as u32);
        input[13] = std::array::from_fn(|j| (counter(j) >> 32) as u32);
        let mut x = input;
        // ChaCha8: four double rounds, columns then diagonals.
        for _ in 0..4 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (w, i) in x.iter_mut().zip(&input) {
            *w = add(*w, *i);
        }
        // Block `j` of the step is lane `j`: element `e` of it reads
        // words `2e`, `2e + 1` of that lane. Written per element, as the
        // oracle's `gen_f64`, so a build with AVX-512DQ converts the
        // `u64`s eight at a time.
        for (j, block) in chunk.chunks_exact_mut(BLOCK_ELEMS).enumerate() {
            for (e, v) in block.iter_mut().enumerate() {
                let bits = (x[2 * e][j] as u64 | (x[2 * e + 1][j] as u64) << 32) >> 11;
                let u = (bits as f64 * TWO_POW_M53) as f32;
                *v = lo + u * span;
            }
        }
    }
}

/// [`uniform_steps`] compiled for wider targets: the same source, so the
/// same bits. Calling one is only sound once the CPU has reported every
/// feature it enables (the dispatch layer checks before every call).
#[cfg(target_arch = "x86_64")]
pub(super) mod simd {
    #[target_feature(enable = "avx2")]
    pub fn uniform_steps_avx2(key: &[u32; 8], first_block: u64, lo: f32, hi: f32, out: &mut [f32]) {
        super::uniform_steps(key, first_block, lo, hi, out);
    }

    #[target_feature(enable = "avx2,avx512f,avx512dq,avx512vl")]
    pub fn uniform_steps_avx512(
        key: &[u32; 8],
        first_block: u64,
        lo: f32,
        hi: f32,
        out: &mut [f32],
    ) {
        super::uniform_steps(key, first_block, lo, hi, out);
    }
}
