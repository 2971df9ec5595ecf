//! Int8 integer microkernels: the slice quantizer, and GEMM band, GEMV
//! and SpMM-row with i32 accumulation and a dequantize-in-epilogue store.
//!
//! These are the quantized counterparts of the f32 kernels in
//! [`super::scalar`] / [`super::avx2`], dispatched through the same
//! [`KernelPath`] machinery. Operands are symmetric int8 (see
//! [`crate::quant`]): weights and activations are `q = clamp(round(x/s),
//! -127, 127)` for per-tensor scales, so a GEMM accumulates exact
//! integer products and multiplies the combined scale back in at the
//! store — `c = (Σ a_q·b_q) as f32 * (s_a·s_b)`, followed by the same
//! bias-add/ReLU sequence as the f32 [`Epilogue`].
//!
//! # Bitwise parity across paths
//!
//! Unlike f32, int8×int8→i32 accumulation is **exact**: |q| ≤ 127 so
//! every product fits in 15 bits and an i32 accumulator holds the sum
//! without rounding (callers keep `k` under [`MAX_K_I8`], asserted at
//! every entry). Exact integer addition is associative, so scalar and
//! AVX2 produce the *same* i32 totals regardless of blocking. The
//! dequantize store then performs an identical float sequence on both
//! paths — `i32 as f32` (one round-to-nearest-even, which is exactly
//! what `_mm256_cvtepi32_ps` performs), one `* scale`, one `+ bias`,
//! compare-and-mask ReLU, never an FMA — so the int8 kernels are
//! **bitwise identical on every path**, including `avx2-fma` (there is
//! no integer FMA; that path simply runs the AVX2 kernel).
//!
//! # Layouts
//!
//! * `A` is row-major i8 with row stride `kp` = `k` rounded up to even
//!   (odd-`k` rows are zero-padded — harmless under symmetric
//!   quantization, `0` maps to `0.0`).
//! * `B` is pair-interleaved panel-packed: `n.div_ceil(PANEL)` panels
//!   of `kp × PANEL` i8, where each panel stores depth *pairs*
//!   `(b[2t, j], b[2t+1, j])` contiguously per column `j`. One 16-byte
//!   load therefore yields a full `PANEL`-column pair slice in exactly
//!   the lane order `_mm256_madd_epi16` wants ([`store_row_pair_with`]
//!   writes it from two row-major rows).
//! * SpMM `B` is plain row-major i8 (`k × n`), matching the f32 SpMM.

use super::{EpiBias, Epilogue, KernelPath, PANEL};

/// Maximum depth (`kp`, or SpMM row nnz) the int8 kernels accept:
/// `MAX_K_I8 * 127 * 127 < i32::MAX`, so an i32 accumulator can never
/// wrap. Far above any layer in this workspace (Caffenet fc6 has
/// `k = 9216`).
pub const MAX_K_I8: usize = 1 << 17;

/// Quantize one value: `clamp(round(v * inv_scale), -127, 127)`.
/// `inv_scale` is `1.0 / scale` (hoisted by callers); `round` is half
/// away from zero, NaN maps to 0. The scalar oracle of
/// [`quantize_slice_with`].
#[inline]
pub fn quantize_i8(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-127.0, 127.0) as i8
}

/// Quantize `src` element-wise into `dst` (equal lengths, asserted):
/// `dst[i] = quantize_i8(src[i], inv_scale)`, bitwise on every
/// [`KernelPath`]. The one slice quantizer behind every `*_into` of
/// [`crate::quant`] and the int8 convolution's image quantize.
#[inline]
pub fn quantize_slice_with(path: KernelPath, src: &[f32], inv_scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize: src and dst lengths differ");
    match path {
        KernelPath::Scalar => scalar::quantize_slice(src, inv_scale, dst),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 verified available by `selected()`/`force()`
        // (see `gemm_i8_packed_band_with`); the lengths were asserted
        // equal above, which is all the kernel's raw loads and stores
        // rely on.
        KernelPath::Avx2 | KernelPath::Avx2Fma => unsafe {
            avx2::quantize_slice(src, inv_scale, dst)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::quantize_slice(src, inv_scale, dst),
    }
}

/// Write depth rows `2t` (`even`) and `2t + 1` (`odd`) of a `B` operand
/// into the pair-interleaved panel layout: column `j` of panel `p` gets
/// the adjacent bytes `(even[p*PANEL + j], odd[p*PANEL + j])` at
/// `p*kp*PANEL + t*2*PANEL + 2*j` — row `r`, column `j` of a panel sits
/// at `(r/2)*2*PANEL + 2*j + (r%2)`. `even` and `odd` hold whole panels
/// (callers zero the lanes past the last real column, and pass a zero
/// `odd` for the pad row of an odd depth), so all `2*PANEL` bytes of
/// pair `t` are written in every panel the rows cover, starting at
/// `packed`'s first panel.
#[inline]
pub fn store_row_pair_with(
    path: KernelPath,
    even: &[i8],
    odd: &[i8],
    t: usize,
    kp: usize,
    packed: &mut [i8],
) {
    assert_eq!(even.len(), odd.len());
    assert!(even.len().is_multiple_of(PANEL) && 2 * t < kp);
    assert!(packed.len() >= even.len() * kp, "packed B too short");
    match path {
        KernelPath::Scalar => scalar::store_row_pair(even, odd, t, kp, packed),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 verified available by `selected()`/`force()`
        // (see `gemm_i8_packed_band_with`); the asserts above are the
        // bounds of every raw load and store in the kernel.
        KernelPath::Avx2 | KernelPath::Avx2Fma => unsafe {
            avx2::store_row_pair(even, odd, t, kp, packed)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::store_row_pair(even, odd, t, kp, packed),
    }
}

/// One row band of the pair-interleaved int8 GEMM with a fused
/// dequantize + bias/ReLU store: rows `row0 .. row0 + c_band.len()/n`
/// of the row-major i8 `a_data` (row stride `kp`, even) against the
/// panel-packed i8 `b_data`, writing dequantized f32 into `c_band`.
///
/// `scale` is the combined dequantization factor (`s_a · s_b`); `epi`
/// is applied after it exactly as in the f32 fused kernels. Outputs are
/// bitwise identical on every [`KernelPath`] (see module docs).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8_packed_band_with(
    path: KernelPath,
    a_data: &[i8],
    kp: usize,
    n: usize,
    b_data: &[i8],
    c_band: &mut [f32],
    row0: usize,
    scale: f32,
    epi: Epilogue<'_>,
) {
    match path {
        KernelPath::Scalar => {
            scalar::gemm_i8_packed_band(a_data, kp, n, b_data, c_band, row0, scale, epi)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2`/`Avx2Fma` are only ever produced by
        // `super::selected()` / `super::force()`, both of which verify
        // via `is_available()` that the CPU reports the avx2 feature
        // the target_feature kernel requires (fma implies avx2 too;
        // integer kernels have no FMA variant). Slice bounds are
        // asserted inside the kernel before any raw load.
        KernelPath::Avx2 | KernelPath::Avx2Fma => unsafe {
            avx2::gemm_i8_packed_band(a_data, kp, n, b_data, c_band, row0, scale, epi)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::gemm_i8_packed_band(a_data, kp, n, b_data, c_band, row0, scale, epi),
    }
}

/// Int8 matvec against the pair-interleaved panel-packed `b_data`:
/// `c_row[..n] = dequant(a_row · B)` with `kp = a_row.len()` (even).
/// `row_abs` is the absolute output row this matvec computes — it
/// indexes a [`EpiBias::PerRow`] bias (0 for a standalone matvec).
/// The batch-1 shape of [`gemm_i8_packed_band_with`], bit-identical to
/// a 1-row band on every path.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemv_i8_packed_with(
    path: KernelPath,
    a_row: &[i8],
    n: usize,
    b_data: &[i8],
    c_row: &mut [f32],
    row_abs: usize,
    scale: f32,
    epi: Epilogue<'_>,
) {
    match path {
        KernelPath::Scalar => scalar::gemv_i8_packed(a_row, n, b_data, c_row, row_abs, scale, epi),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 verified available by `selected()`/`force()`
        // (see `gemm_i8_packed_band_with`); bounds asserted in the kernel.
        KernelPath::Avx2 | KernelPath::Avx2Fma => unsafe {
            avx2::gemv_i8_packed(a_row, n, b_data, c_row, row_abs, scale, epi)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::gemv_i8_packed(a_row, n, b_data, c_row, row_abs, scale, epi),
    }
}

/// Column-block width of the int8 SpMM row kernel's stack-resident i32
/// accumulator. Blocking exists because the output row is f32 but the
/// accumulation must be integer-exact; it never affects results (exact
/// integer sums are blocking-invariant).
const SPMM_I8_BLOCK: usize = 256;

/// One CSR row of int8 sparse×dense with a fused dequantize +
/// bias/ReLU store: `c_row = dequant(Σ_i values[i] * B[col_idx[i], :])`
/// over the row-major i8 `b_data` (`n` columns). The accumulator is
/// i32 (exact — f32 accumulation would lose integer exactness past
/// 2^24 on conv-sized rows), blocked over `SPMM_I8_BLOCK`-column
/// slices that re-walk the row's nonzeros. `bias`/`relu` mirror the
/// f32 [`super::spmm_row_with`] scalar-bias epilogue, applied
/// after the `* scale` dequantization.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn spmm_i8_row_with(
    path: KernelPath,
    values: &[i8],
    col_idx: &[u32],
    b_data: &[i8],
    n: usize,
    c_row: &mut [f32],
    scale: f32,
    bias: Option<f32>,
    relu: bool,
) {
    match path {
        KernelPath::Scalar => {
            scalar::spmm_i8_row(values, col_idx, b_data, n, c_row, scale, bias, relu)
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: avx2 verified available by `selected()`/`force()`
        // (see `gemm_i8_packed_band_with`); bounds asserted in the kernel.
        KernelPath::Avx2 | KernelPath::Avx2Fma => unsafe {
            avx2::spmm_i8_row(values, col_idx, b_data, n, c_row, scale, bias, relu)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::spmm_i8_row(values, col_idx, b_data, n, c_row, scale, bias, relu),
    }
}

/// Dequantize one accumulator slot and apply the epilogue — the single
/// shared float sequence both paths replay per element: `i32 as f32`,
/// `* scale`, `+ bias`, compare-ReLU. Kept scalar here as the
/// reference; the AVX2 store performs the same operations eight lanes
/// at a time (`_mm256_cvtepi32_ps` rounds exactly like `as f32`).
#[inline(always)]
fn dequant_one(acc: i32, scale: f32, bias: f32, has_bias: bool, relu: bool) -> f32 {
    let mut v = acc as f32 * scale;
    if has_bias {
        v += bias;
    }
    if relu {
        v = if v > 0.0 { v } else { 0.0 };
    }
    v
}

/// Portable reference kernels — the parity oracle for the AVX2 path.
mod scalar {
    use super::{dequant_one, quantize_i8, EpiBias, Epilogue, MAX_K_I8, PANEL, SPMM_I8_BLOCK};

    pub fn quantize_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = quantize_i8(v, inv_scale);
        }
    }

    pub fn store_row_pair(even: &[i8], odd: &[i8], t: usize, kp: usize, packed: &mut [i8]) {
        let rows = even.chunks_exact(PANEL).zip(odd.chunks_exact(PANEL));
        for (panel, (e, o)) in packed.chunks_exact_mut(kp * PANEL).zip(rows) {
            let pair = &mut panel[t * 2 * PANEL..(t + 1) * 2 * PANEL];
            for ((d, &e), &o) in pair.chunks_exact_mut(2).zip(e).zip(o) {
                d[0] = e;
                d[1] = o;
            }
        }
    }

    /// Dequantize-and-store one (possibly partial-width) panel slot.
    fn store_dequant(
        acc: &[i32; PANEL],
        row: &mut [f32],
        c0: usize,
        width: usize,
        row_abs: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        for (j, &a) in acc[..width].iter().enumerate() {
            let (bias, has_bias) = match epi.bias {
                Some(EpiBias::PerRow(b)) => (b[row_abs], true),
                Some(EpiBias::PerCol(b)) => (b[c0 + j], true),
                None => (0.0, false),
            };
            row[c0 + j] = dequant_one(a, scale, bias, has_bias, epi.relu);
        }
    }

    pub fn gemv_i8_packed(
        a_row: &[i8],
        n: usize,
        b_data: &[i8],
        c_row: &mut [f32],
        row_abs: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        let kp = a_row.len();
        assert!(kp.is_multiple_of(2), "int8 pack: depth {kp} must be even");
        assert!(kp <= MAX_K_I8, "int8 kernel: depth {kp} overflows i32");
        let panels = n.div_ceil(PANEL);
        let plen = kp * PANEL;
        assert!(b_data.len() >= panels * plen);
        assert!(c_row.len() >= n);
        epi.check(row_abs + 1, n);
        for p in 0..panels {
            let panel = &b_data[p * plen..(p + 1) * plen];
            let mut acc = [0i32; PANEL];
            for (t, pair) in panel.chunks_exact(2 * PANEL).enumerate() {
                let a0 = a_row[2 * t] as i32;
                let a1 = a_row[2 * t + 1] as i32;
                for (a, bp) in acc.iter_mut().zip(pair.chunks_exact(2)) {
                    *a += a0 * bp[0] as i32 + a1 * bp[1] as i32;
                }
            }
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            store_dequant(&acc, c_row, c0, width, row_abs, scale, epi);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn gemm_i8_packed_band(
        a_data: &[i8],
        kp: usize,
        n: usize,
        b_data: &[i8],
        c_band: &mut [f32],
        row0: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        let rows_here = c_band.len() / n.max(1);
        assert!(a_data.len() >= (row0 + rows_here) * kp);
        // Exact integer accumulation makes any row/panel blocking
        // bit-identical, so the band is simply the GEMV per row — no
        // separate register-blocked variant to keep in lockstep.
        for local_r in 0..rows_here {
            let r = row0 + local_r;
            gemv_i8_packed(
                &a_data[r * kp..(r + 1) * kp],
                n,
                b_data,
                &mut c_band[local_r * n..(local_r + 1) * n],
                r,
                scale,
                epi,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn spmm_i8_row(
        values: &[i8],
        col_idx: &[u32],
        b_data: &[i8],
        n: usize,
        c_row: &mut [f32],
        scale: f32,
        bias: Option<f32>,
        relu: bool,
    ) {
        assert_eq!(values.len(), col_idx.len());
        assert!(values.len() <= MAX_K_I8, "int8 spmm: row nnz overflows i32");
        assert!(c_row.len() >= n);
        let mut c0 = 0;
        while c0 < n {
            let width = SPMM_I8_BLOCK.min(n - c0);
            let mut acc = [0i32; SPMM_I8_BLOCK];
            for (&v, &ci) in values.iter().zip(col_idx.iter()) {
                let base = ci as usize * n + c0;
                let brow = &b_data[base..base + width];
                let vi = v as i32;
                for (a, &bv) in acc[..width].iter_mut().zip(brow.iter()) {
                    *a += vi * bv as i32;
                }
            }
            for (j, &a) in acc[..width].iter().enumerate() {
                c_row[c0 + j] = dequant_one(a, scale, bias.unwrap_or(0.0), bias.is_some(), relu);
            }
            c0 += width;
        }
    }
}

/// AVX2 int8 kernels (`x86_64` only). Same caller contract as
/// [`super::avx2`]: the dispatch layer above is the only caller and has
/// verified the avx2 CPU feature; slice invariants are asserted at
/// entry. `_mm256_madd_epi16` on sign-extended i8 pairs is exact (the
/// only saturating madd case needs two `-32768` inputs, unreachable
/// from i8), so these produce the same i32 totals as the scalar loops.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_op_in_unsafe_fn)]
mod avx2 {
    use super::{EpiBias, Epilogue, MAX_K_I8, PANEL, SPMM_I8_BLOCK};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    thread_local! {
        /// Per-thread scratch holding the current A band sign-extended
        /// to i16. Widening once per kernel call turns the per-panel
        /// activation broadcast from two scalar byte loads plus
        /// shift/or/`set1` (~5 uops, repeated for every panel pass)
        /// into a single `vpbroadcastd` from memory — the band kernel's
        /// former bottleneck. Purely a speed transform: the widened
        /// values are the same integers, so results stay bit-identical.
        static A16: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };

        /// Per-thread i32 accumulator spill for the depth-chunked band
        /// path (`pairs > KC_PAIRS`): 8 rows × panel-rounded `n`.
        static ACC32: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
    }

    /// Depth-pair chunk of the blocked band path. At Caffenet's deepest
    /// shapes (`kp` ≈ 2300+) the eight widened A rows plus one packed
    /// panel overflow L1 and every panel pass re-misses; chunking the
    /// depth walk keeps the live slices (8 × `KC_PAIRS` i16 of A,
    /// `KC_PAIRS × 16` i8 of B, the i32 spill row) cache-resident.
    /// Exact integer accumulation makes the re-blocking invisible in
    /// the results.
    const KC_PAIRS: usize = 256;

    /// `quantize_i8` on eight lanes, as i32: multiply, NaN → 0, clamp to
    /// ±127, round half away from zero. Clamping first is exact: the
    /// bounds are integers and rounding is monotonic. The rounding is
    /// `trunc(x + copysign(h, x))` with `h = 0.5 − 2⁻²⁵`, the largest
    /// float below 0.5: when `frac(|x|) < 0.5` the exact sum is below
    /// the last float before the next integer and rounds no higher;
    /// otherwise it lies within 2⁻²⁵ of that integer — under half the
    /// float spacing there — and rounds onto it (the one exact tie,
    /// `0.5 + h`, goes to the even 1.0). `_mm256_cvttps_epi32` is the
    /// truncation.
    #[inline(always)]
    unsafe fn quantize8(v: __m256, inv_scale: __m256) -> __m256i {
        let x = _mm256_mul_ps(v, inv_scale);
        let x = _mm256_and_ps(x, _mm256_cmp_ps(x, x, _CMP_ORD_Q));
        let x = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_set1_ps(-127.0)),
            _mm256_set1_ps(127.0),
        );
        let sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0));
        let half = _mm256_or_ps(sign, _mm256_set1_ps(0.499_999_97));
        _mm256_cvttps_epi32(_mm256_add_ps(x, half))
    }

    /// Slice quantizer; see the scalar oracle. 32 values per pass
    /// narrow i32 → i16 → i8 with two in-lane saturating packs (no
    /// value exceeds ±127, so nothing saturates) and one cross-lane
    /// permute that restores element order; then eight at a time, then
    /// the scalar expression.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer);
    /// `src.len() == dst.len()` (asserted by the dispatch layer).
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_slice(src: &[f32], inv_scale: f32, dst: &mut [i8]) {
        let n = src.len();
        let inv = _mm256_set1_ps(inv_scale);
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut i = 0;
        while i + 32 <= n {
            let a = quantize8(_mm256_loadu_ps(sp.add(i)), inv);
            let b = quantize8(_mm256_loadu_ps(sp.add(i + 8)), inv);
            let c = quantize8(_mm256_loadu_ps(sp.add(i + 16)), inv);
            let d = quantize8(_mm256_loadu_ps(sp.add(i + 24)), inv);
            // Per 128-bit lane: [a b | a b] and [c d | c d] as i16,
            // then [a b c d | a b c d] as i8 in 4-byte groups.
            let bytes = _mm256_packs_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
            let bytes = _mm256_permutevar8x32_epi32(bytes, order);
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, bytes);
            i += 32;
        }
        while i + 8 <= n {
            let q = quantize8(_mm256_loadu_ps(sp.add(i)), inv);
            let lo = _mm256_castsi256_si128(q);
            let hi = _mm256_extracti128_si256(q, 1);
            let words = _mm_packs_epi32(lo, hi);
            _mm_storel_epi64(dp.add(i) as *mut __m128i, _mm_packs_epi16(words, words));
            i += 8;
        }
        super::scalar::quantize_slice(&src[i..], inv_scale, &mut dst[i..]);
    }

    /// Pair store; see the scalar oracle. One `punpcklbw` interleaves a
    /// panel's eight `even` bytes with its eight `odd` bytes into the
    /// sixteen bytes of depth pair `t`.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer);
    /// `even.len() == odd.len()`, a multiple of `PANEL`; `2*t < kp`;
    /// `packed.len() >= even.len() * kp` (all asserted by the dispatch
    /// layer).
    #[target_feature(enable = "avx2")]
    pub unsafe fn store_row_pair(even: &[i8], odd: &[i8], t: usize, kp: usize, packed: &mut [i8]) {
        let (ep, op) = (even.as_ptr(), odd.as_ptr());
        let dst = packed.as_mut_ptr().add(t * 2 * PANEL);
        for p in 0..even.len() / PANEL {
            let e = _mm_loadl_epi64(ep.add(p * PANEL) as *const __m128i);
            let o = _mm_loadl_epi64(op.add(p * PANEL) as *const __m128i);
            // Last byte written: p*kp*PANEL + (t+1)*2*PANEL - 1, inside
            // panel `p` because 2*(t+1) <= kp.
            _mm_storeu_si128(
                dst.add(p * kp * PANEL) as *mut __m128i,
                _mm_unpacklo_epi8(e, o),
            );
        }
    }

    /// Sign-extend `rows` rows of the row-major i8 `a_data` (row stride
    /// `kp`, starting at `row0`) into `buf` as contiguous i16 rows.
    #[inline(always)]
    unsafe fn widen_rows(a_data: &[i8], row0: usize, rows: usize, kp: usize, buf: &mut Vec<i16>) {
        buf.resize(rows * kp, 0);
        for r in 0..rows {
            let src = a_data.as_ptr().add((row0 + r) * kp);
            let dst = buf.as_mut_ptr().add(r * kp);
            let mut t = 0;
            while t + 16 <= kp {
                let v = _mm_loadu_si128(src.add(t) as *const __m128i);
                _mm256_storeu_si256(dst.add(t) as *mut __m256i, _mm256_cvtepi8_epi16(v));
                t += 16;
            }
            while t < kp {
                *dst.add(t) = *src.add(t) as i16;
                t += 1;
            }
        }
    }

    /// Per-store epilogue state, bounds-checked once at kernel entry
    /// (mirror of the f32 `FusedEpi` in [`crate::kernels::avx2`]).
    #[derive(Clone, Copy)]
    struct EpiI8<'a> {
        row_bias: Option<&'a [f32]>,
        col_bias: Option<&'a [f32]>,
        relu: bool,
    }

    impl<'a> EpiI8<'a> {
        fn from_epilogue(epi: Epilogue<'a>, rows_needed: usize, n: usize) -> Self {
            epi.check(rows_needed, n);
            let (row_bias, col_bias) = match epi.bias {
                Some(EpiBias::PerRow(b)) => (Some(b), None),
                Some(EpiBias::PerCol(b)) => (None, Some(b)),
                None => (None, None),
            };
            EpiI8 {
                row_bias,
                col_bias,
                relu: epi.relu,
            }
        }
    }

    /// Broadcast the widened activation pair `(a[2t], a[2t+1])` into
    /// all eight 32-bit lanes as adjacent i16s — the left operand of
    /// `_mm256_madd_epi16` against a pair-interleaved B load. `aw` is
    /// an i16 row from [`widen_rows`], so one pair is exactly one
    /// (possibly unaligned) 32-bit load: a single `vpbroadcastd`.
    #[inline(always)]
    unsafe fn broadcast_pair(aw: *const i16, t: usize) -> __m256i {
        _mm256_set1_epi32((aw.add(2 * t) as *const i32).read_unaligned())
    }

    /// Load depth-pair `t` of one packed panel: 16 i8 → 16 i16 lanes in
    /// `(b[2t, j], b[2t+1, j])` column order.
    #[inline(always)]
    unsafe fn load_pair_panel(pn: *const i8, t: usize) -> __m256i {
        _mm256_cvtepi8_epi16(_mm_loadu_si128(pn.add(t * 2 * PANEL) as *const __m128i))
    }

    /// Dequantize one accumulator register and store it through the
    /// epilogue — element-wise the exact float sequence of the scalar
    /// `dequant_one`: `_mm256_cvtepi32_ps` rounds like `i32 as f32`
    /// (nearest-even), then one mul, one add, compare-and-mask ReLU.
    /// No FMA anywhere, so lanes are bitwise equal to scalar.
    #[inline(always)]
    unsafe fn store_dequant(
        acc: __m256i,
        row: &mut [f32],
        c0: usize,
        width: usize,
        row_abs: usize,
        scale: f32,
        fe: EpiI8<'_>,
    ) {
        let mut v = _mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_set1_ps(scale));
        if let Some(b) = fe.row_bias {
            v = _mm256_add_ps(v, _mm256_set1_ps(b[row_abs]));
        }
        if let Some(b) = fe.col_bias {
            let bv = if width == PANEL {
                // In bounds: width == PANEL implies c0 + PANEL <= n and
                // `from_epilogue` asserted b.len() >= n.
                _mm256_loadu_ps(b.as_ptr().add(c0))
            } else {
                let mut tmp = [0.0f32; PANEL];
                tmp[..width].copy_from_slice(&b[c0..c0 + width]);
                _mm256_loadu_ps(tmp.as_ptr())
            };
            v = _mm256_add_ps(v, bv);
        }
        if fe.relu {
            let pos = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
            v = _mm256_and_ps(v, pos);
        }
        if width == PANEL {
            _mm256_storeu_ps(row.as_mut_ptr().add(c0), v);
        } else {
            let mut tmp = [0.0f32; PANEL];
            _mm256_storeu_ps(tmp.as_mut_ptr(), v);
            row[c0..c0 + width].copy_from_slice(&tmp[..width]);
        }
    }

    /// Int8 GEMV over pair-interleaved panels; see the scalar oracle.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemv_i8_packed(
        a_row: &[i8],
        n: usize,
        b_data: &[i8],
        c_row: &mut [f32],
        row_abs: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        let kp = a_row.len();
        assert!(kp.is_multiple_of(2), "int8 pack: depth {kp} must be even");
        assert!(kp <= MAX_K_I8, "int8 kernel: depth {kp} overflows i32");
        let panels = n.div_ceil(PANEL);
        let plen = kp * PANEL;
        assert!(b_data.len() >= panels * plen);
        assert!(c_row.len() >= n);
        let fe = EpiI8::from_epilogue(epi, row_abs + 1, n);
        A16.with(|cell| {
            let buf = &mut *cell.borrow_mut();
            widen_rows(a_row, 0, 1, kp, buf);
            gemv_body(buf.as_ptr(), kp, n, b_data, c_row, row_abs, scale, fe);
        });
    }

    /// Shared GEMV body over a widened (i16) activation row: four
    /// panels per pass (4 independent madd/add chains) while the packed
    /// operand streams through once.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemv_body(
        ap: *const i16,
        kp: usize,
        n: usize,
        b_data: &[i8],
        c_row: &mut [f32],
        row_abs: usize,
        scale: f32,
        fe: EpiI8<'_>,
    ) {
        let pairs = kp / 2;
        let panels = n.div_ceil(PANEL);
        let plen = kp * PANEL;
        let mut p = 0;
        while p + 4 <= panels {
            let pn0 = b_data.as_ptr().add(p * plen);
            let pn1 = b_data.as_ptr().add((p + 1) * plen);
            let pn2 = b_data.as_ptr().add((p + 2) * plen);
            let pn3 = b_data.as_ptr().add((p + 3) * plen);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            for t in 0..pairs {
                let av = broadcast_pair(ap, t);
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(load_pair_panel(pn0, t), av));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(load_pair_panel(pn1, t), av));
                acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(load_pair_panel(pn2, t), av));
                acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(load_pair_panel(pn3, t), av));
            }
            for (i, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                let c0 = (p + i) * PANEL;
                let width = PANEL.min(n - c0);
                store_dequant(acc, c_row, c0, width, row_abs, scale, fe);
            }
            p += 4;
        }
        while p < panels {
            let pn = b_data.as_ptr().add(p * plen);
            let mut acc = _mm256_setzero_si256();
            for t in 0..pairs {
                let av = broadcast_pair(ap, t);
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(load_pair_panel(pn, t), av));
            }
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            store_dequant(acc, c_row, c0, width, row_abs, scale, fe);
            p += 1;
        }
    }

    /// Int8 GEMM band: four output rows × two packed panels per pass
    /// (eight live madd/add chains, each B load shared by four rows).
    /// Exact i32 accumulation keeps this bit-identical to the scalar
    /// row-at-a-time walk.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_i8_packed_band(
        a_data: &[i8],
        kp: usize,
        n: usize,
        b_data: &[i8],
        c_band: &mut [f32],
        row0: usize,
        scale: f32,
        epi: Epilogue<'_>,
    ) {
        assert!(kp.is_multiple_of(2), "int8 pack: depth {kp} must be even");
        assert!(kp <= MAX_K_I8, "int8 kernel: depth {kp} overflows i32");
        let panels = n.div_ceil(PANEL);
        let plen = kp * PANEL;
        let rows_here = c_band.len() / n.max(1);
        assert!(a_data.len() >= (row0 + rows_here) * kp);
        assert!(b_data.len() >= panels * plen);
        assert!(c_band.len() >= rows_here * n);
        let fe = EpiI8::from_epilogue(epi, row0 + rows_here, n);
        A16.with(|cell| {
            let buf = &mut *cell.borrow_mut();
            widen_rows(a_data, row0, rows_here, kp, buf);
            band_body(
                buf.as_ptr(),
                rows_here,
                row0,
                kp,
                n,
                b_data,
                c_band,
                scale,
                fe,
            );
        });
    }

    /// Accumulate depth-pairs `t0..t1` of one packed panel into eight
    /// row accumulators — the shared inner loop of both band variants.
    #[inline(always)]
    unsafe fn accum8(
        acc: &mut [__m256i; 8],
        pn: *const i8,
        ar: &[*const i16; 8],
        t0: usize,
        t1: usize,
    ) {
        for t in t0..t1 {
            let bv = load_pair_panel(pn, t);
            acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(bv, broadcast_pair(ar[0], t)));
            acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(bv, broadcast_pair(ar[1], t)));
            acc[2] = _mm256_add_epi32(acc[2], _mm256_madd_epi16(bv, broadcast_pair(ar[2], t)));
            acc[3] = _mm256_add_epi32(acc[3], _mm256_madd_epi16(bv, broadcast_pair(ar[3], t)));
            acc[4] = _mm256_add_epi32(acc[4], _mm256_madd_epi16(bv, broadcast_pair(ar[4], t)));
            acc[5] = _mm256_add_epi32(acc[5], _mm256_madd_epi16(bv, broadcast_pair(ar[5], t)));
            acc[6] = _mm256_add_epi32(acc[6], _mm256_madd_epi16(bv, broadcast_pair(ar[6], t)));
            acc[7] = _mm256_add_epi32(acc[7], _mm256_madd_epi16(bv, broadcast_pair(ar[7], t)));
        }
    }

    /// Band body over the widened A rows (`aw`, row stride `kp`): four
    /// output rows × one packed panel per pass, eight live madd/add
    /// chains, each B load shared by eight rows. One panel (not two)
    /// per pass keeps the streamed B working set at `kp × PANEL` bytes
    /// — small enough to stay L1-resident next to the widened A rows
    /// even at Caffenet's deepest `k` — while eight rows halve the
    /// per-row B traffic of a four-row block.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn band_body(
        aw: *const i16,
        rows_here: usize,
        row0: usize,
        kp: usize,
        n: usize,
        b_data: &[i8],
        c_band: &mut [f32],
        scale: f32,
        fe: EpiI8<'_>,
    ) {
        let panels = n.div_ceil(PANEL);
        let plen = kp * PANEL;
        let pairs = kp / 2;

        const RB: usize = 8;
        let mut local_r = 0;
        if pairs <= KC_PAIRS {
            // Shallow depth: the whole panel plus the A rows fit L1 —
            // accumulate each panel in registers, store once.
            while local_r + RB <= rows_here {
                let r = row0 + local_r;
                let ar: [*const i16; RB] = std::array::from_fn(|i| aw.add((local_r + i) * kp));
                for p in 0..panels {
                    let pn = b_data.as_ptr().add(p * plen);
                    let mut acc = [_mm256_setzero_si256(); RB];
                    accum8(&mut acc, pn, &ar, 0, pairs);
                    let c0 = p * PANEL;
                    let width = PANEL.min(n - c0);
                    for (i, a) in acc.into_iter().enumerate() {
                        let row = &mut c_band[(local_r + i) * n..(local_r + i + 1) * n];
                        store_dequant(a, row, c0, width, r + i, scale, fe);
                    }
                }
                local_r += RB;
            }
        } else {
            // Deep depth: chunk the depth walk, spilling partial i32
            // sums to a panel-rounded scratch (see [`KC_PAIRS`]).
            ACC32.with(|cell| {
                let spill = &mut *cell.borrow_mut();
                let stride = panels * PANEL;
                spill.resize(RB * stride, 0);
                while local_r + RB <= rows_here {
                    let r = row0 + local_r;
                    let ar: [*const i16; RB] = std::array::from_fn(|i| aw.add((local_r + i) * kp));
                    spill.fill(0);
                    let mut t0 = 0;
                    while t0 < pairs {
                        let t1 = (t0 + KC_PAIRS).min(pairs);
                        for p in 0..panels {
                            let pn = b_data.as_ptr().add(p * plen);
                            let sp = spill.as_mut_ptr().add(p * PANEL);
                            let mut acc: [__m256i; RB] = std::array::from_fn(|i| {
                                _mm256_loadu_si256(sp.add(i * stride) as *const __m256i)
                            });
                            accum8(&mut acc, pn, &ar, t0, t1);
                            for (i, a) in acc.into_iter().enumerate() {
                                _mm256_storeu_si256(sp.add(i * stride) as *mut __m256i, a);
                            }
                        }
                        t0 = t1;
                    }
                    for p in 0..panels {
                        let c0 = p * PANEL;
                        let width = PANEL.min(n - c0);
                        for i in 0..RB {
                            let a = _mm256_loadu_si256(
                                spill.as_ptr().add(i * stride + c0) as *const __m256i
                            );
                            let row = &mut c_band[(local_r + i) * n..(local_r + i + 1) * n];
                            store_dequant(a, row, c0, width, r + i, scale, fe);
                        }
                    }
                    local_r += RB;
                }
            });
        }
        // 4..8 remaining rows: one four-row pass, same single-panel walk.
        if local_r + 4 <= rows_here {
            let r = row0 + local_r;
            let ar: [*const i16; 4] = std::array::from_fn(|i| aw.add((local_r + i) * kp));
            for p in 0..panels {
                let pn = b_data.as_ptr().add(p * plen);
                let mut acc = [_mm256_setzero_si256(); 4];
                for t in 0..pairs {
                    let bv = load_pair_panel(pn, t);
                    acc[0] =
                        _mm256_add_epi32(acc[0], _mm256_madd_epi16(bv, broadcast_pair(ar[0], t)));
                    acc[1] =
                        _mm256_add_epi32(acc[1], _mm256_madd_epi16(bv, broadcast_pair(ar[1], t)));
                    acc[2] =
                        _mm256_add_epi32(acc[2], _mm256_madd_epi16(bv, broadcast_pair(ar[2], t)));
                    acc[3] =
                        _mm256_add_epi32(acc[3], _mm256_madd_epi16(bv, broadcast_pair(ar[3], t)));
                }
                let c0 = p * PANEL;
                let width = PANEL.min(n - c0);
                for (i, a) in acc.into_iter().enumerate() {
                    let row = &mut c_band[(local_r + i) * n..(local_r + i + 1) * n];
                    store_dequant(a, row, c0, width, r + i, scale, fe);
                }
            }
            local_r += 4;
        }
        // Trailing rows one at a time through the GEMV body.
        for local_r in local_r..rows_here {
            gemv_body(
                aw.add(local_r * kp),
                kp,
                n,
                b_data,
                &mut c_band[local_r * n..(local_r + 1) * n],
                row0 + local_r,
                scale,
                fe,
            );
        }
    }

    /// Int8 SpMM row; see the scalar oracle for the blocking contract.
    ///
    /// # Safety
    /// CPU must support AVX2 (verified by the dispatch layer).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn spmm_i8_row(
        values: &[i8],
        col_idx: &[u32],
        b_data: &[i8],
        n: usize,
        c_row: &mut [f32],
        scale: f32,
        bias: Option<f32>,
        relu: bool,
    ) {
        assert_eq!(values.len(), col_idx.len());
        assert!(values.len() <= MAX_K_I8, "int8 spmm: row nnz overflows i32");
        assert!(c_row.len() >= n);
        let mut c0 = 0;
        while c0 < n {
            let width = SPMM_I8_BLOCK.min(n - c0);
            let mut acc = [0i32; SPMM_I8_BLOCK];
            for (&v, &ci) in values.iter().zip(col_idx.iter()) {
                let base = ci as usize * n + c0;
                // Bounds for the raw 8-byte loads below: the full block
                // slice must be inside b_data.
                assert!(b_data.len() >= base + width);
                let brow = b_data.as_ptr().add(base);
                let vb = _mm256_set1_epi32(v as i32);
                let mut j = 0;
                while j + PANEL <= width {
                    let bv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(brow.add(j) as *const __m128i));
                    let av = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
                    let sum = _mm256_add_epi32(av, _mm256_mullo_epi32(bv, vb));
                    _mm256_storeu_si256(acc.as_mut_ptr().add(j) as *mut __m256i, sum);
                    j += PANEL;
                }
                let vi = v as i32;
                while j < width {
                    acc[j] += vi * *brow.add(j) as i32;
                    j += 1;
                }
            }
            for (j, &a) in acc[..width].iter().enumerate() {
                c_row[c0 + j] =
                    super::dequant_one(a, scale, bias.unwrap_or(0.0), bias.is_some(), relu);
            }
            c0 += width;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::available_paths;
    use super::*;

    fn det_i8(i: usize, m: usize) -> i8 {
        (((i * 37 + 11) % m) as i64 - (m as i64 / 2)) as i8
    }

    /// Pack a row-major i8 `k×n` matrix into pair-interleaved panels
    /// (test-local; the production pack in `crate::quant` quantizes
    /// from f32 and is tested there).
    fn pack_pairs(b: &[i8], k: usize, n: usize) -> (Vec<i8>, usize) {
        let kp = k.next_multiple_of(2);
        let panels = n.div_ceil(PANEL);
        let mut out = vec![0i8; panels * kp * PANEL];
        for p in 0..panels {
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            let dst = &mut out[p * kp * PANEL..(p + 1) * kp * PANEL];
            for r in 0..k {
                for j in 0..width {
                    dst[(r / 2) * 2 * PANEL + 2 * j + (r % 2)] = b[r * n + c0 + j];
                }
            }
        }
        (out, kp)
    }

    fn reference_gemm(a: &[i8], m: usize, k: usize, n: usize, b: &[i8], scale: f32) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for t in 0..k {
                    acc += a[r * k + t] as i32 * b[t * n + j] as i32;
                }
                c[r * n + j] = acc as f32 * scale;
            }
        }
        c
    }

    #[test]
    fn band_matches_reference_on_all_paths() {
        for &(m, k, n) in &[(1, 5, 3), (4, 8, 16), (7, 9, 13), (3, 0, 5), (5, 6, 1)] {
            let a: Vec<i8> = (0..m * k).map(|i| det_i8(i, 255)).collect();
            let b: Vec<i8> = (0..k * n).map(|i| det_i8(i + 3, 255)).collect();
            let (packed, kp) = pack_pairs(&b, k, n);
            // Re-pad A rows to the even stride.
            let mut ap = vec![0i8; m * kp];
            for r in 0..m {
                ap[r * kp..r * kp + k].copy_from_slice(&a[r * k..(r + 1) * k]);
            }
            let want = reference_gemm(&a, m, k, n, &b, 0.125);
            for path in available_paths() {
                let mut got = vec![0.0f32; m * n];
                gemm_i8_packed_band_with(
                    path,
                    &ap,
                    kp,
                    n,
                    &packed,
                    &mut got,
                    0,
                    0.125,
                    Epilogue::NONE,
                );
                assert_eq!(got, want, "path {} shape {m}x{k}x{n}", path.name());
            }
        }
    }

    #[test]
    fn epilogue_bias_and_relu_apply() {
        let (m, k, n) = (2, 4, 6);
        let a: Vec<i8> = (0..m * k).map(|i| det_i8(i, 9)).collect();
        let b: Vec<i8> = (0..k * n).map(|i| det_i8(i + 1, 9)).collect();
        let (packed, kp) = pack_pairs(&b, k, n);
        let row_bias = [10.0f32, -100.0];
        let plain = reference_gemm(&a, m, k, n, &b, 1.0);
        for path in available_paths() {
            let mut got = vec![0.0f32; m * n];
            gemm_i8_packed_band_with(
                path,
                &a,
                kp,
                n,
                &packed,
                &mut got,
                0,
                1.0,
                Epilogue {
                    bias: Some(EpiBias::PerRow(&row_bias)),
                    relu: true,
                },
            );
            for r in 0..m {
                for j in 0..n {
                    let want = (plain[r * n + j] + row_bias[r]).max(0.0);
                    assert_eq!(got[r * n + j], want, "path {}", path.name());
                }
            }
        }
    }

    #[test]
    fn spmm_row_matches_dense_reference_on_all_paths() {
        let (k, n) = (7, 300); // n spans two SPMM blocks
        let b: Vec<i8> = (0..k * n).map(|i| det_i8(i, 255)).collect();
        let values: Vec<i8> = vec![3, -127, 64];
        let col_idx: Vec<u32> = vec![0, 3, 6];
        let mut want = vec![0.0f32; n];
        for j in 0..n {
            let mut acc = 0i32;
            for (v, &c) in values.iter().zip(&col_idx) {
                acc += *v as i32 * b[c as usize * n + j] as i32;
            }
            want[j] = (acc as f32 * 0.5 - 1.0).max(0.0);
        }
        for path in available_paths() {
            let mut got = vec![0.0f32; n];
            spmm_i8_row_with(
                path,
                &values,
                &col_idx,
                &b,
                n,
                &mut got,
                0.5,
                Some(-1.0),
                true,
            );
            assert_eq!(got, want, "path {}", path.name());
        }
    }
}
