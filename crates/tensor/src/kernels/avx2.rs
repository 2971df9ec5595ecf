//! AVX2 + FMA microkernels (`x86_64` only), and the AVX-512F register
//! tiles of the f32 GEMM band ([`gemm_packed_band_zmm`]) and the row
//! GEMV ([`gemv_rows_zmm`]).
//!
//! Every function here is `unsafe` with the same contract: **the caller
//! must have verified that the CPU supports AVX2 and FMA** (and
//! AVX-512F for the zmm band) via `is_x86_feature_detected!` — the
//! dispatch layer in [`super`] is the only caller and does exactly
//! that. Slice-length invariants are
//! `assert!`ed at entry, so every raw load/store below is in bounds by
//! construction.
//!
//! Bit-identity: every kernel replays the scalar loop's exact
//! per-element operation sequence — same ascending-`kk` (or `-i`)
//! accumulation, each step one `_mm256_fmadd_ps` where the scalar code
//! has one `f32::mul_add` (the FMA contract in [`super`]), and the
//! scalar tails call `mul_add` themselves — just eight elements per
//! instruction. The epilogue's bias add stays a separate `_mm256_add_ps`:
//! Rust never contracts floating-point operations on its own.

#![allow(unsafe_op_in_unsafe_fn)]

use super::{EpiBias, Epilogue, PANEL, ROW_BLOCK};
use crate::pool::Pool2dParams;
use std::arch::x86_64::*;
use std::ops::Range;

/// In-register epilogue hook applied between the final accumulate and
/// the store. The GEMM/GEMV bodies are generic over this trait and
/// monomorphized: the plain kernels instantiate [`NoEpi`], whose
/// `apply` is the identity, so the unfused instruction stream is
/// exactly what it was before fusion existed — no extra FP operations,
/// no runtime branches.
trait EpiApply: Copy {
    /// Fold bias/ReLU into `acc` for output row `row_abs` (absolute
    /// row index), columns `c0 .. c0 + width`.
    ///
    /// # Safety
    /// Caller must run with AVX2 and FMA enabled (these are
    /// `#[inline(always)]` helpers expanded inside
    /// `#[target_feature(enable = "avx2,fma")]` kernels) and, for
    /// [`FusedEpi`], guarantee the bias-slice bounds checked by
    /// [`FusedEpi::from_epilogue`].
    unsafe fn apply(self, acc: __m256, row_abs: usize, c0: usize, width: usize) -> __m256;
}

/// Identity epilogue — the plain (unfused) kernels.
#[derive(Clone, Copy)]
struct NoEpi;

impl EpiApply for NoEpi {
    #[inline(always)]
    unsafe fn apply(self, acc: __m256, _row: usize, _c0: usize, _width: usize) -> __m256 {
        acc
    }
}

/// Bias + ReLU folded into the store. Exactly one of `row_bias` /
/// `col_bias` may be set (both `None` means ReLU-only fusion).
#[derive(Clone, Copy)]
struct FusedEpi<'a> {
    row_bias: Option<&'a [f32]>,
    col_bias: Option<&'a [f32]>,
    relu: bool,
}

impl<'a> FusedEpi<'a> {
    /// Split a dispatch-layer [`Epilogue`] into the per-store form,
    /// asserting bias bounds up front (`rows_needed` absolute rows for
    /// a per-row bias, `n` columns for a per-column bias) so every raw
    /// bias load in [`EpiApply::apply`] is in bounds by construction.
    fn from_epilogue(epi: Epilogue<'a>, rows_needed: usize, n: usize) -> Self {
        epi.check(rows_needed, n);
        let (row_bias, col_bias) = match epi.bias {
            Some(EpiBias::PerRow(b)) => (Some(b), None),
            Some(EpiBias::PerCol(b)) => (None, Some(b)),
            None => (None, None),
        };
        FusedEpi {
            row_bias,
            col_bias,
            relu: epi.relu,
        }
    }
}

impl EpiApply for FusedEpi<'_> {
    #[inline(always)]
    unsafe fn apply(self, mut acc: __m256, row_abs: usize, c0: usize, width: usize) -> __m256 {
        if let Some(b) = self.row_bias {
            acc = _mm256_add_ps(acc, _mm256_set1_ps(b[row_abs]));
        }
        if let Some(b) = self.col_bias {
            let bv = if width == PANEL {
                // In bounds: width == PANEL implies c0 + PANEL <= n,
                // and `from_epilogue` asserted b.len() >= n.
                _mm256_loadu_ps(b.as_ptr().add(c0))
            } else {
                // Partial-width tail panel: an 8-lane loadu from
                // b[c0..] could read past the bias slice, so stage
                // the valid lanes through a stack buffer.
                let mut tmp = [0.0f32; PANEL];
                tmp[..width].copy_from_slice(&b[c0..c0 + width]);
                _mm256_loadu_ps(tmp.as_ptr())
            };
            acc = _mm256_add_ps(acc, bv);
        }
        if self.relu {
            // `forward_into` ReLU semantics: lanes where acc > 0.0
            // keep acc; all others (negatives, -0.0, NaN) become +0.0.
            let pos = _mm256_cmp_ps(acc, _mm256_setzero_ps(), _CMP_GT_OQ);
            acc = _mm256_and_ps(acc, pos);
        }
        acc
    }
}

/// One multiply-accumulate step: `a*b + acc` as one fused multiply-add,
/// rounded once — per lane the scalar kernels' `a.mul_add(b, acc)`.
#[inline(always)]
unsafe fn madd(a: __m256, b: __m256, acc: __m256) -> __m256 {
    _mm256_fmadd_ps(a, b, acc)
}

/// Store a register to the (possibly partial-width) `width`-column slot
/// of an output row.
#[inline(always)]
unsafe fn store_panel(acc: __m256, row: &mut [f32], c0: usize, width: usize) {
    if width == PANEL {
        _mm256_storeu_ps(row.as_mut_ptr().add(c0), acc);
    } else {
        let mut tmp = [0.0f32; PANEL];
        _mm256_storeu_ps(tmp.as_mut_ptr(), acc);
        row[c0..c0 + width].copy_from_slice(&tmp[..width]);
    }
}

/// One row band of the packed-panel GEMM, AVX2 FMA (bit-identical
/// to [`super::scalar::gemm_packed_band`]), with `epi` applied
/// in-register before each store (see [`super::Epilogue`] for the
/// bit-identity argument). The identity epilogue instantiates the
/// `NoEpi` body, so the unfused instruction stream carries no
/// epilogue residue.
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn gemm_packed_band(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
    epi: Epilogue<'_>,
) {
    if epi.is_noop() {
        return gemm_band_body::<NoEpi>(a_data, k, n, b_data, c_band, row0, panels, NoEpi);
    }
    let rows_here = c_band.len() / n.max(1);
    let fe = FusedEpi::from_epilogue(epi, row0 + rows_here, n);
    gemm_band_body::<FusedEpi>(a_data, k, n, b_data, c_band, row0, panels, fe)
}

/// Shared band body; mirrors the scalar kernel's row/panel structure
/// with `__m256` registers replacing the `[f32; PANEL]` accumulators.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_band_body<E: EpiApply>(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
    epi: E,
) {
    let rows_here = c_band.len() / n.max(1);
    // Entry invariants: every raw pointer below stays inside these
    // asserted slice bounds (`panels` only ever narrows the walk).
    assert!(panels.end <= n.div_ceil(PANEL));
    assert!(a_data.len() >= (row0 + rows_here) * k);
    assert!(b_data.len() >= panels.end * k * PANEL);
    assert!(c_band.len() >= rows_here * n);

    // ROW_BLOCK output rows against panel *pairs*: 8 independent
    // fused multiply-add chains per `kk` step — enough to cover the
    // 4-cycle FMA latency at 2 issues/cycle, which a single-panel
    // kernel (4 chains) cannot.
    // Each output element still accumulates in ascending-`kk` order,
    // exactly like the scalar kernel: widening the tile adds more
    // concurrent elements, it never reorders any one element's sum.
    let plen = k * PANEL;
    let mut local_r = 0;
    while local_r + ROW_BLOCK <= rows_here {
        let r = row0 + local_r;
        let ar0 = a_data.as_ptr().add(r * k);
        let ar1 = a_data.as_ptr().add((r + 1) * k);
        let ar2 = a_data.as_ptr().add((r + 2) * k);
        let ar3 = a_data.as_ptr().add((r + 3) * k);
        let mut p = panels.start;
        while p + 2 <= panels.end {
            let pn0 = b_data.as_ptr().add(p * plen);
            let pn1 = b_data.as_ptr().add((p + 1) * plen);
            let mut acc00 = _mm256_setzero_ps();
            let mut acc01 = _mm256_setzero_ps();
            let mut acc10 = _mm256_setzero_ps();
            let mut acc11 = _mm256_setzero_ps();
            let mut acc20 = _mm256_setzero_ps();
            let mut acc21 = _mm256_setzero_ps();
            let mut acc30 = _mm256_setzero_ps();
            let mut acc31 = _mm256_setzero_ps();
            for kk in 0..k {
                let pv0 = _mm256_loadu_ps(pn0.add(kk * PANEL));
                let pv1 = _mm256_loadu_ps(pn1.add(kk * PANEL));
                let a0 = _mm256_set1_ps(*ar0.add(kk));
                acc00 = madd(a0, pv0, acc00);
                acc01 = madd(a0, pv1, acc01);
                let a1 = _mm256_set1_ps(*ar1.add(kk));
                acc10 = madd(a1, pv0, acc10);
                acc11 = madd(a1, pv1, acc11);
                let a2 = _mm256_set1_ps(*ar2.add(kk));
                acc20 = madd(a2, pv0, acc20);
                acc21 = madd(a2, pv1, acc21);
                let a3 = _mm256_set1_ps(*ar3.add(kk));
                acc30 = madd(a3, pv0, acc30);
                acc31 = madd(a3, pv1, acc31);
            }
            let c0 = p * PANEL;
            let c1 = (p + 1) * PANEL;
            let width1 = PANEL.min(n - c1);
            for (i, (lo, hi)) in [
                (acc00, acc01),
                (acc10, acc11),
                (acc20, acc21),
                (acc30, acc31),
            ]
            .into_iter()
            .enumerate()
            {
                let row = &mut c_band[(local_r + i) * n..(local_r + i + 1) * n];
                let r_abs = row0 + local_r + i;
                store_panel(epi.apply(lo, r_abs, c0, PANEL), row, c0, PANEL);
                store_panel(epi.apply(hi, r_abs, c1, width1), row, c1, width1);
            }
            p += 2;
        }
        // Odd trailing panel: the original single-panel, 4-chain kernel.
        for p in p..panels.end {
            let panel = b_data.as_ptr().add(p * plen);
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for kk in 0..k {
                let pv = _mm256_loadu_ps(panel.add(kk * PANEL));
                acc0 = madd(_mm256_set1_ps(*ar0.add(kk)), pv, acc0);
                acc1 = madd(_mm256_set1_ps(*ar1.add(kk)), pv, acc1);
                acc2 = madd(_mm256_set1_ps(*ar2.add(kk)), pv, acc2);
                acc3 = madd(_mm256_set1_ps(*ar3.add(kk)), pv, acc3);
            }
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            for (i, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                let row = &mut c_band[(local_r + i) * n..(local_r + i + 1) * n];
                store_panel(
                    epi.apply(acc, row0 + local_r + i, c0, width),
                    row,
                    c0,
                    width,
                );
            }
        }
        local_r += ROW_BLOCK;
    }
    // Remaining rows one at a time through the dedicated GEMV body
    // (extracted from this loop, so the band result is unchanged).
    for local_r in local_r..rows_here {
        let r = row0 + local_r;
        gemv_row_body::<E>(
            a_data.as_ptr().add(r * k),
            k,
            n,
            b_data,
            &mut c_band[local_r * n..(local_r + 1) * n],
            r,
            panels.clone(),
            epi,
        );
    }
}

/// Rows of the 512-bit main tile: twelve accumulators, one panel pair
/// each.
const ZMM_ROWS: usize = 12;

/// Panels of the 512-bit four-row tile: three pairs, twelve
/// accumulators.
const ZMM_PANELS: usize = 6;

/// One row band of the packed-panel GEMM on 512-bit registers — the
/// `zmm` tile of [`super::F32Tile`], bit-identical to
/// [`gemm_packed_band`] and to [`super::scalar::gemm_packed_band`].
///
/// A zmm holds one panel *pair*: its low half is row `kk` of panel
/// `p`, its high half row `kk` of panel `p + 1`, joined by one
/// `vinsertf64x4` (an AVX-512F instruction; the `f32x8` insert and
/// extract are AVX-512DQ and compile to out-of-line calls under this
/// feature set). Twelve rows run against each pair with `A` taken
/// through a broadcast FMA, and against an odd last panel in twelve
/// ymm accumulators; rows left over in groups of four run against
/// three pairs at a time; the [`gemm_packed_band`] body takes what a
/// four-row group leaves of the strip and the last one to three rows.
/// Each half of a finished zmm goes through
/// the ymm epilogue and store, so every output element is still one
/// ascending-`kk` FMA chain from `+0.0`, rounded per step exactly as
/// the scalar `mul_add`.
///
/// # Safety
/// CPU must support AVX-512F, AVX2 and FMA (verified by the dispatch
/// layer).
#[target_feature(enable = "avx512f,avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn gemm_packed_band_zmm(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
    epi: Epilogue<'_>,
) {
    if epi.is_noop() {
        return zmm_band_body::<NoEpi>(a_data, k, n, b_data, c_band, row0, panels, NoEpi);
    }
    let rows_here = c_band.len() / n.max(1);
    let fe = FusedEpi::from_epilogue(epi, row0 + rows_here, n);
    zmm_band_body::<FusedEpi>(a_data, k, n, b_data, c_band, row0, panels, fe)
}

/// The zmm band walk: which rows and panels each tile covers.
///
/// # Safety
/// Expanded inside `#[target_feature(enable = "avx512f,avx2,fma")]`
/// callers only.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn zmm_band_body<E: EpiApply>(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
    epi: E,
) {
    let rows_here = c_band.len() / n.max(1);
    // Entry invariants: every raw pointer in the tiles stays inside
    // these asserted slice bounds (the ymm calls assert their own).
    assert!(panels.end <= n.div_ceil(PANEL));
    assert!(a_data.len() >= (row0 + rows_here) * k);
    assert!(b_data.len() >= panels.end * k * PANEL);
    assert!(c_band.len() >= rows_here * n);

    let pairs_end = panels.start + panels.len() / 2 * 2;
    let mut r = 0;
    while r + ZMM_ROWS <= rows_here {
        for p in (panels.start..pairs_end).step_by(2) {
            tile_12x2(a_data, k, n, b_data, c_band, row0, r, p, epi);
        }
        r += ZMM_ROWS;
    }
    if pairs_end < panels.end {
        for r in (0..r).step_by(ZMM_ROWS) {
            tile_12x1(a_data, k, n, b_data, c_band, row0, r, pairs_end, epi);
        }
    }
    let sixes_end = panels.start + panels.len() / ZMM_PANELS * ZMM_PANELS;
    let quads = r;
    while r + ROW_BLOCK <= rows_here {
        for p in (panels.start..sixes_end).step_by(ZMM_PANELS) {
            tile_4x6(a_data, k, n, b_data, c_band, row0, r, p, epi);
        }
        r += ROW_BLOCK;
    }
    if sixes_end < panels.end && r > quads {
        let rest = sixes_end..panels.end;
        let c_quads = &mut c_band[quads * n..r * n];
        gemm_band_body(a_data, k, n, b_data, c_quads, row0 + quads, rest, epi);
    }
    if r < rows_here {
        gemm_band_body(
            a_data,
            k,
            n,
            b_data,
            &mut c_band[r * n..],
            row0 + r,
            panels,
            epi,
        );
    }
}

/// Row `kk` of panels `p` and `p + 1` as one zmm (low half panel `p`),
/// given `pn` = panel `p`'s start and `plen` = one panel's length.
///
/// # Safety
/// AVX-512F enabled in the caller; `pn .. pn + plen + (kk + 1) * PANEL`
/// readable (both panels of the pair cover depth `kk`).
#[inline(always)]
unsafe fn pair_row(pn: *const f32, plen: usize, kk: usize) -> __m512 {
    let lo = _mm512_castps256_ps512(_mm256_loadu_ps(pn.add(kk * PANEL)));
    let hi = _mm256_castps_pd(_mm256_loadu_ps(pn.add(plen + kk * PANEL)));
    _mm512_castpd_ps(_mm512_insertf64x4::<1>(_mm512_castps_pd(lo), hi))
}

/// Store a finished panel-pair accumulator into columns `c0 ..` of
/// output row `row` (absolute index `r_abs`): each half through the
/// ymm epilogue and [`store_panel`], the high half `width1` wide.
///
/// # Safety
/// AVX-512F enabled in the caller; `c0 + PANEL + width1 <= row.len()`,
/// `width1 <= PANEL`, and the epilogue's bias bounds checked by
/// `FusedEpi::from_epilogue`.
#[inline(always)]
unsafe fn store_pair<E: EpiApply>(
    acc: __m512,
    epi: E,
    row: &mut [f32],
    r_abs: usize,
    c0: usize,
    width1: usize,
) {
    let lo = _mm512_castps512_ps256(acc);
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(acc)));
    store_panel(epi.apply(lo, r_abs, c0, PANEL), row, c0, PANEL);
    let c1 = c0 + PANEL;
    store_panel(epi.apply(hi, r_abs, c1, width1), row, c1, width1);
}

/// Band rows `r .. r + 12` against panels `p`, `p + 1`: twelve named
/// accumulators (an indexed array of them spills on every `kk`), one
/// joined `B` row and twelve broadcast FMAs per `kk`.
///
/// # Safety
/// Expanded inside `zmm_band_body` only, whose entry asserts bound
/// every load; caller guarantees `r + 12` rows and `p + 2` panels.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_12x2<E: EpiApply>(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    r: usize,
    p: usize,
    epi: E,
) {
    let plen = k * PANEL;
    let pn = b_data.as_ptr().add(p * plen);
    let a = a_data.as_ptr().add((row0 + r) * k);
    let [mut c0, mut c1, mut c2, mut c3] = [_mm512_setzero_ps(); 4];
    let [mut c4, mut c5, mut c6, mut c7] = [_mm512_setzero_ps(); 4];
    let [mut c8, mut c9, mut c10, mut c11] = [_mm512_setzero_ps(); 4];
    for kk in 0..k {
        let bv = pair_row(pn, plen, kk);
        c0 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(kk)), bv, c0);
        c1 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(k + kk)), bv, c1);
        c2 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(2 * k + kk)), bv, c2);
        c3 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(3 * k + kk)), bv, c3);
        c4 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(4 * k + kk)), bv, c4);
        c5 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(5 * k + kk)), bv, c5);
        c6 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(6 * k + kk)), bv, c6);
        c7 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(7 * k + kk)), bv, c7);
        c8 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(8 * k + kk)), bv, c8);
        c9 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(9 * k + kk)), bv, c9);
        c10 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(10 * k + kk)), bv, c10);
        c11 = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(11 * k + kk)), bv, c11);
    }
    let col = p * PANEL;
    let width1 = PANEL.min(n - col - PANEL);
    let accs = [c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11];
    for (i, acc) in accs.into_iter().enumerate() {
        let row = &mut c_band[(r + i) * n..(r + i + 1) * n];
        store_pair(acc, epi, row, row0 + r + i, col, width1);
    }
}

/// Band rows `r .. r + 12` against the odd last panel `p`, on ymm:
/// twelve named accumulators, one `B` row and twelve broadcasts per
/// `kk` — three times the chains of the four-row ymm body, whose
/// single-panel pass waits on FMA latency.
///
/// # Safety
/// As [`tile_12x2`], for `r + 12` rows and panel `p`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_12x1<E: EpiApply>(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    r: usize,
    p: usize,
    epi: E,
) {
    let pn = b_data.as_ptr().add(p * k * PANEL);
    let a = a_data.as_ptr().add((row0 + r) * k);
    let [mut c0, mut c1, mut c2, mut c3] = [_mm256_setzero_ps(); 4];
    let [mut c4, mut c5, mut c6, mut c7] = [_mm256_setzero_ps(); 4];
    let [mut c8, mut c9, mut c10, mut c11] = [_mm256_setzero_ps(); 4];
    for kk in 0..k {
        let bv = _mm256_loadu_ps(pn.add(kk * PANEL));
        c0 = madd(_mm256_set1_ps(*a.add(kk)), bv, c0);
        c1 = madd(_mm256_set1_ps(*a.add(k + kk)), bv, c1);
        c2 = madd(_mm256_set1_ps(*a.add(2 * k + kk)), bv, c2);
        c3 = madd(_mm256_set1_ps(*a.add(3 * k + kk)), bv, c3);
        c4 = madd(_mm256_set1_ps(*a.add(4 * k + kk)), bv, c4);
        c5 = madd(_mm256_set1_ps(*a.add(5 * k + kk)), bv, c5);
        c6 = madd(_mm256_set1_ps(*a.add(6 * k + kk)), bv, c6);
        c7 = madd(_mm256_set1_ps(*a.add(7 * k + kk)), bv, c7);
        c8 = madd(_mm256_set1_ps(*a.add(8 * k + kk)), bv, c8);
        c9 = madd(_mm256_set1_ps(*a.add(9 * k + kk)), bv, c9);
        c10 = madd(_mm256_set1_ps(*a.add(10 * k + kk)), bv, c10);
        c11 = madd(_mm256_set1_ps(*a.add(11 * k + kk)), bv, c11);
    }
    let col = p * PANEL;
    let width = PANEL.min(n - col);
    let accs = [c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11];
    for (i, acc) in accs.into_iter().enumerate() {
        let row = &mut c_band[(r + i) * n..(r + i + 1) * n];
        store_panel(epi.apply(acc, row0 + r + i, col, width), row, col, width);
    }
}

/// Band rows `r .. r + 4` against panels `p .. p + 6`: twelve named
/// accumulators, three joined `B` rows and four broadcasts per `kk`.
///
/// # Safety
/// As [`tile_12x2`], for `r + 4` rows and `p + 6` panels.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_4x6<E: EpiApply>(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    r: usize,
    p: usize,
    epi: E,
) {
    let plen = k * PANEL;
    let (pn0, pn1, pn2) = {
        let pn = b_data.as_ptr().add(p * plen);
        (pn, pn.add(2 * plen), pn.add(4 * plen))
    };
    let a = a_data.as_ptr().add((row0 + r) * k);
    let [mut c00, mut c01, mut c02, mut c10] = [_mm512_setzero_ps(); 4];
    let [mut c11, mut c12, mut c20, mut c21] = [_mm512_setzero_ps(); 4];
    let [mut c22, mut c30, mut c31, mut c32] = [_mm512_setzero_ps(); 4];
    for kk in 0..k {
        let b0 = pair_row(pn0, plen, kk);
        let b1 = pair_row(pn1, plen, kk);
        let b2 = pair_row(pn2, plen, kk);
        let a0 = _mm512_set1_ps(*a.add(kk));
        c00 = _mm512_fmadd_ps(a0, b0, c00);
        c01 = _mm512_fmadd_ps(a0, b1, c01);
        c02 = _mm512_fmadd_ps(a0, b2, c02);
        let a1 = _mm512_set1_ps(*a.add(k + kk));
        c10 = _mm512_fmadd_ps(a1, b0, c10);
        c11 = _mm512_fmadd_ps(a1, b1, c11);
        c12 = _mm512_fmadd_ps(a1, b2, c12);
        let a2 = _mm512_set1_ps(*a.add(2 * k + kk));
        c20 = _mm512_fmadd_ps(a2, b0, c20);
        c21 = _mm512_fmadd_ps(a2, b1, c21);
        c22 = _mm512_fmadd_ps(a2, b2, c22);
        let a3 = _mm512_set1_ps(*a.add(3 * k + kk));
        c30 = _mm512_fmadd_ps(a3, b0, c30);
        c31 = _mm512_fmadd_ps(a3, b1, c31);
        c32 = _mm512_fmadd_ps(a3, b2, c32);
    }
    let col = p * PANEL;
    let width5 = PANEL.min(n - col - 5 * PANEL);
    let rows = [
        [c00, c01, c02],
        [c10, c11, c12],
        [c20, c21, c22],
        [c30, c31, c32],
    ];
    for (i, accs) in rows.into_iter().enumerate() {
        let row = &mut c_band[(r + i) * n..(r + i + 1) * n];
        let r_abs = row0 + r + i;
        store_pair(accs[0], epi, row, r_abs, col, PANEL);
        store_pair(accs[1], epi, row, r_abs, col + 2 * PANEL, PANEL);
        store_pair(accs[2], epi, row, r_abs, col + 4 * PANEL, width5);
    }
}

/// One row-major matvec against the panel-packed `b_data`: the band
/// kernel's single-row trailing path, extracted so batch-1 inference
/// calls it directly. Four panels per pass — 32 live accumulator
/// lanes — while B streams through once. `row_abs` is the absolute
/// output-row index, used only by a fused per-row bias; `panels` is
/// the panel range to cover (all of them on the batch-1 route, one
/// column strip as a band's trailing row).
///
/// # Safety
/// Expanded inside `#[target_feature(enable = "avx2,fma")]` callers only;
/// caller guarantees `a_row` points at `k` readable floats,
/// `panels.end <= n.div_ceil(PANEL)`,
/// `b_data.len() >= panels.end * k * PANEL` and `c_row.len() >= n`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemv_row_body<E: EpiApply>(
    a_row: *const f32,
    k: usize,
    n: usize,
    b_data: &[f32],
    c_row: &mut [f32],
    row_abs: usize,
    panels: Range<usize>,
    epi: E,
) {
    let plen = k * PANEL;
    {
        let mut p = panels.start;
        while p + 4 <= panels.end {
            let pn0 = b_data.as_ptr().add(p * plen);
            let pn1 = b_data.as_ptr().add((p + 1) * plen);
            let pn2 = b_data.as_ptr().add((p + 2) * plen);
            let pn3 = b_data.as_ptr().add((p + 3) * plen);
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for kk in 0..k {
                let av = _mm256_set1_ps(*a_row.add(kk));
                acc0 = madd(av, _mm256_loadu_ps(pn0.add(kk * PANEL)), acc0);
                acc1 = madd(av, _mm256_loadu_ps(pn1.add(kk * PANEL)), acc1);
                acc2 = madd(av, _mm256_loadu_ps(pn2.add(kk * PANEL)), acc2);
                acc3 = madd(av, _mm256_loadu_ps(pn3.add(kk * PANEL)), acc3);
            }
            for (i, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                let c0 = (p + i) * PANEL;
                let width = PANEL.min(n - c0);
                store_panel(epi.apply(acc, row_abs, c0, width), c_row, c0, width);
            }
            p += 4;
        }
        for p in p..panels.end {
            let panel = b_data.as_ptr().add(p * plen);
            let mut acc = _mm256_setzero_ps();
            for kk in 0..k {
                let av = _mm256_set1_ps(*a_row.add(kk));
                acc = madd(av, _mm256_loadu_ps(panel.add(kk * PANEL)), acc);
            }
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            store_panel(epi.apply(acc, row_abs, c0, width), c_row, c0, width);
        }
    }
}

/// Row-major matvec against panel-packed B (`k = a_row.len()`), AVX2
/// FMA — bit-identical to [`super::scalar::gemv_packed`] — with
/// `epi` fused into the store (a per-row bias indexes entry 0: the
/// matvec output is row 0 of a `1×n` result).
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gemv_packed(
    a_row: &[f32],
    n: usize,
    b_data: &[f32],
    c_row: &mut [f32],
    epi: Epilogue<'_>,
) {
    let panels = 0..n.div_ceil(PANEL);
    let (a, k) = (a_row.as_ptr(), a_row.len());
    // Entry invariants: every raw pointer in `gemv_row_body` stays
    // inside these asserted bounds.
    assert!(b_data.len() >= panels.end * k * PANEL);
    assert!(c_row.len() >= n);
    if epi.is_noop() {
        return gemv_row_body::<NoEpi>(a, k, n, b_data, c_row, 0, panels, NoEpi);
    }
    let fe = FusedEpi::from_epilogue(epi, 1, n);
    gemv_row_body::<FusedEpi>(a, k, n, b_data, c_row, 0, panels, fe)
}

/// How far ahead, in floats, the row GEMV prefetches each of the rows
/// it streams at once. 128, 256, 512 and 1024 read alike on Caffenet's
/// fc6–fc8 (`cargo bench -p cap-bench --bench gemm -- gemm_split/fc`),
/// and so did the `T1` and `T2` hints; `NTA` read a third.
const ROW_PREFETCH: usize = 256;

/// One register width of the row GEMV: `ROWS` rows of `W` per block,
/// one output row per lane.
trait RowLanes {
    /// Rows per block, the lanes of one register.
    const ROWS: usize;
    type V: Copy;
    /// `ROWS` registers.
    type Block: AsRef<[Self::V]>;
    unsafe fn zero() -> Self::V;
    unsafe fn splat(v: f32) -> Self::V;
    /// Lanes `< n` from `p`, zero above (`n <= ROWS`).
    unsafe fn load(p: *const f32, n: usize) -> Self::V;
    /// Lanes `< n` of `v` to `p`.
    unsafe fn store(v: Self::V, p: *mut f32, n: usize);
    /// `x·w + acc`, one rounding.
    unsafe fn madd(x: Self::V, w: Self::V, acc: Self::V) -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// `v > 0.0 ? v : +0.0` per lane.
    unsafe fn relu(v: Self::V) -> Self::V;
    /// Depths `kk .. kk + ROWS` of the `ROWS` rows of stride `k` from
    /// `w`, transposed: register `i` holds depth `kk + i`, lane `r`
    /// from row `r`. Each row is prefetched [`ROW_PREFETCH`] ahead.
    unsafe fn square_t(w: *const f32, k: usize, kk: usize) -> Self::Block;
}

/// [`RowLanes::square_t`] of only `rows` rows and `depth` depths, zero
/// elsewhere: the part copied into a zeroed square on the stack first.
/// Only the edges of `W` take it — a block's rows past a multiple of
/// `L::ROWS` (at most 16), a row's first step up to an aligned depth and
/// its last partial one.
///
/// # Safety
/// As [`RowLanes::square_t`], for `rows × depth` readable floats of
/// stride `k` from `w + kk`.
#[inline(always)]
unsafe fn part_t<L: RowLanes>(
    w: *const f32,
    k: usize,
    kk: usize,
    rows: usize,
    depth: usize,
) -> L::Block {
    let mut square = [0.0f32; 16 * 16];
    for r in 0..rows {
        let to = square.as_mut_ptr().add(r * L::ROWS);
        std::ptr::copy_nonoverlapping(w.add(r * k + kk), to, depth);
    }
    L::square_t(square.as_ptr(), L::ROWS, 0)
}

/// Eight rows per ymm.
struct Ymm;

impl RowLanes for Ymm {
    const ROWS: usize = 8;
    type V = __m256;
    type Block = [__m256; 8];

    #[inline(always)]
    unsafe fn zero() -> __m256 {
        _mm256_setzero_ps()
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> __m256 {
        _mm256_set1_ps(v)
    }

    #[inline(always)]
    unsafe fn load(p: *const f32, n: usize) -> __m256 {
        if n == 8 {
            _mm256_loadu_ps(p)
        } else {
            _mm256_maskload_ps(p, lanes_below(n))
        }
    }

    #[inline(always)]
    unsafe fn store(v: __m256, p: *mut f32, n: usize) {
        if n == 8 {
            _mm256_storeu_ps(p, v);
        } else {
            _mm256_maskstore_ps(p, lanes_below(n), v);
        }
    }

    #[inline(always)]
    unsafe fn madd(x: __m256, w: __m256, acc: __m256) -> __m256 {
        madd(x, w, acc)
    }

    #[inline(always)]
    unsafe fn add(a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(a, b)
    }

    #[inline(always)]
    unsafe fn relu(v: __m256) -> __m256 {
        _mm256_and_ps(v, _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ))
    }

    #[inline(always)]
    unsafe fn square_t(w: *const f32, k: usize, kk: usize) -> [__m256; 8] {
        let mut r = [_mm256_setzero_ps(); 8];
        for (i, v) in r.iter_mut().enumerate() {
            let at = w.add(i * k + kk);
            _mm_prefetch::<_MM_HINT_T0>(at.wrapping_add(ROW_PREFETCH) as *const i8);
            *v = _mm256_loadu_ps(at);
        }
        // Pairs, then quads within each 128-bit half, then the halves.
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }
}

/// Sixteen rows per zmm.
struct Zmm;

impl RowLanes for Zmm {
    const ROWS: usize = 16;
    type V = __m512;
    type Block = [__m512; 16];

    #[inline(always)]
    unsafe fn zero() -> __m512 {
        _mm512_setzero_ps()
    }

    #[inline(always)]
    unsafe fn splat(v: f32) -> __m512 {
        _mm512_set1_ps(v)
    }

    #[inline(always)]
    unsafe fn load(p: *const f32, n: usize) -> __m512 {
        if n == 16 {
            _mm512_loadu_ps(p)
        } else {
            _mm512_maskz_loadu_ps(Self::mask(n), p)
        }
    }

    #[inline(always)]
    unsafe fn store(v: __m512, p: *mut f32, n: usize) {
        if n == 16 {
            _mm512_storeu_ps(p, v);
        } else {
            _mm512_mask_storeu_ps(p, Self::mask(n), v);
        }
    }

    #[inline(always)]
    unsafe fn madd(x: __m512, w: __m512, acc: __m512) -> __m512 {
        _mm512_fmadd_ps(x, w, acc)
    }

    #[inline(always)]
    unsafe fn add(a: __m512, b: __m512) -> __m512 {
        _mm512_add_ps(a, b)
    }

    #[inline(always)]
    unsafe fn relu(v: __m512) -> __m512 {
        _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, _mm512_setzero_ps()), v)
    }

    /// The 128-bit lanes are placed by the loads: register `(q, j)`
    /// gathers depths `4q .. 4q + 4` of rows `j`, `4 + j`, `8 + j` and
    /// `12 + j`, one broadcast and three masked broadcasts from memory
    /// (load ports and a merge, where a lane shuffle runs on the one
    /// shuffle port), so only the 4×4 transposes inside each lane are
    /// left to shuffle: half the shuffles of a 16×16 transpose in
    /// registers.
    #[inline(always)]
    unsafe fn square_t(w: *const f32, k: usize, kk: usize) -> [__m512; 16] {
        let rows: [*const f32; 16] = std::array::from_fn(|i| w.add(i * k + kk));
        for &row in &rows {
            _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(ROW_PREFETCH) as *const i8);
        }
        let pd = _mm512_castps_pd;
        let ps = _mm512_castpd_ps;
        let mut out = [_mm512_setzero_ps(); 16];
        for q in 0..4 {
            let mut a = [_mm512_setzero_ps(); 4];
            for (j, v) in a.iter_mut().enumerate() {
                let at = |g: usize| _mm_loadu_ps(rows[4 * g + j].add(4 * q));
                *v = _mm512_broadcast_f32x4(at(0));
                *v = _mm512_mask_broadcast_f32x4(*v, 0x00F0, at(1));
                *v = _mm512_mask_broadcast_f32x4(*v, 0x0F00, at(2));
                *v = _mm512_mask_broadcast_f32x4(*v, 0xF000, at(3));
            }
            let t0 = _mm512_unpacklo_ps(a[0], a[1]);
            let t1 = _mm512_unpackhi_ps(a[0], a[1]);
            let t2 = _mm512_unpacklo_ps(a[2], a[3]);
            let t3 = _mm512_unpackhi_ps(a[2], a[3]);
            out[4 * q] = ps(_mm512_unpacklo_pd(pd(t0), pd(t2)));
            out[4 * q + 1] = ps(_mm512_unpackhi_pd(pd(t0), pd(t2)));
            out[4 * q + 2] = ps(_mm512_unpacklo_pd(pd(t1), pd(t3)));
            out[4 * q + 3] = ps(_mm512_unpackhi_pd(pd(t1), pd(t3)));
        }
        out
    }
}

impl Zmm {
    /// The mask of lanes `< n`.
    #[inline(always)]
    fn mask(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }
}

/// The row GEMV body on one register width: each block of `L::ROWS`
/// rows is one accumulator, one output row per lane, walked in
/// `L::ROWS`-deep steps — the step's square of `W` transposed in
/// registers, then one FMA per depth in ascending order. The last
/// block's missing rows and the last step's missing depths are loaded
/// as zeros and never reach a stored lane or an FMA.
///
/// # Safety
/// Expanded inside `#[target_feature]` callers enabling what `L`'s
/// intrinsics need; `w.len() >= y.len() * x.len()` and the epilogue's
/// per-row bias bounds (`epi.check_column(y.len())`) asserted by the
/// caller.
#[inline(always)]
unsafe fn gemv_rows_body<L: RowLanes>(w: &[f32], x: &[f32], y: &mut [f32], epi: Epilogue<'_>) {
    let (k, m) = (x.len(), y.len());
    let (wp, xp, yp) = (w.as_ptr(), x.as_ptr(), y.as_mut_ptr());
    let mut r0 = 0;
    while r0 < m {
        let rows = L::ROWS.min(m - r0);
        let block = wp.add(r0 * k);
        let mut acc = L::zero();
        // A partial first step up to a register-aligned depth where
        // every row of the block has one (`k` whole steps), so the full
        // steps' loads never straddle two cache lines.
        let align = L::ROWS * 4;
        let mut kk = if k >= L::ROWS && k % L::ROWS == 0 {
            (align - block as usize % align) % align / 4
        } else {
            0
        };
        if kk > 0 {
            acc = fold::<L>(acc, part_t::<L>(block, k, 0, rows, kk), xp, 0, kk);
        }
        while kk + L::ROWS <= k {
            let t = if rows == L::ROWS {
                L::square_t(block, k, kk)
            } else {
                part_t::<L>(block, k, kk, rows, L::ROWS)
            };
            acc = fold::<L>(acc, t, xp, kk, L::ROWS);
            kk += L::ROWS;
        }
        if kk < k {
            acc = fold::<L>(acc, part_t::<L>(block, k, kk, rows, k - kk), xp, kk, k - kk);
        }
        row_store::<L>(acc, r0, rows, yp, epi);
        r0 += rows;
    }
}

/// `acc` advanced by the first `depth` registers of the transposed
/// square `t`, which hold depths `kk ..` — one FMA each, in order.
///
/// # Safety
/// As [`gemv_rows_body`], for `kk + depth <= x.len()` floats at `x`.
#[inline(always)]
unsafe fn fold<L: RowLanes>(
    mut acc: L::V,
    t: L::Block,
    x: *const f32,
    kk: usize,
    depth: usize,
) -> L::V {
    for (i, &wv) in t.as_ref()[..depth].iter().enumerate() {
        acc = L::madd(L::splat(*x.add(kk + i)), wv, acc);
    }
    acc
}

/// Outputs `r0 .. r0 + rows` of the row GEMV from the lanes of `acc`,
/// through the epilogue.
///
/// # Safety
/// As [`gemv_rows_body`], for `r0 + rows <= y.len()`.
#[inline(always)]
unsafe fn row_store<L: RowLanes>(
    mut acc: L::V,
    r0: usize,
    rows: usize,
    yp: *mut f32,
    epi: Epilogue<'_>,
) {
    if let Some(EpiBias::PerRow(b)) = epi.bias {
        acc = L::add(acc, L::load(b.as_ptr().add(r0), rows));
    }
    if epi.relu {
        acc = L::relu(acc);
    }
    L::store(acc, yp.add(r0), rows);
}

/// Rows of the row-major `w` times `x` on ymm, eight rows per register
/// (bit-identical to [`super::scalar::gemv_rows`]).
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gemv_rows(w: &[f32], x: &[f32], y: &mut [f32], epi: Epilogue<'_>) {
    assert!(w.len() >= y.len() * x.len(), "gemv_rows: W is too short");
    epi.check_column(y.len());
    gemv_rows_body::<Ymm>(w, x, y, epi);
}

/// Rows of the row-major `w` times `x` on zmm, sixteen rows per
/// register (bit-identical to [`super::scalar::gemv_rows`]).
///
/// # Safety
/// CPU must support AVX-512F, AVX2 and FMA (verified by the dispatch
/// layer).
#[target_feature(enable = "avx512f,avx2,fma")]
pub unsafe fn gemv_rows_zmm(w: &[f32], x: &[f32], y: &mut [f32], epi: Epilogue<'_>) {
    assert!(w.len() >= y.len() * x.len(), "gemv_rows: W is too short");
    epi.check_column(y.len());
    gemv_rows_body::<Zmm>(w, x, y, epi);
}

/// One CSR row of sparse×dense, AVX2 FMA (bit-identical to
/// [`super::scalar::spmm_row`]): column-blocked (64 → 32 → 8 → scalar
/// tail) so the output stays in registers across the whole nonzero
/// walk. Per output element the nonzeros still accumulate in
/// ascending-`i` order.
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn spmm_row(
    values: &[f32],
    col_idx: &[u32],
    b_data: &[f32],
    n: usize,
    c_row: &mut [f32],
) {
    let nnz = values.len().min(col_idx.len());
    // Entry invariants for the raw loads of the column blocks: the
    // output row is n wide and, when a block runs (n >= PANEL), every
    // stored column index addresses a full row of B. The scalar tail
    // indexes B with bounds checks instead: they overlap its FMA chain,
    // where a pass over the indices ahead of it does not — at n = 1
    // that pass cost ~1.6x.
    assert!(c_row.len() >= n);
    if n >= PANEL {
        assert!(col_idx[..nnz]
            .iter()
            .all(|&c| (c as usize + 1) * n <= b_data.len()));
    }

    let (values, col_idx) = (&values[..nnz], &col_idx[..nnz]);
    let mut j = 0;
    // 64-column blocks: eight FMA chains per nonzero cover the FMA
    // latency (four chains ran ~10 % under the unfused kernel at 90 %
    // sparsity); then at most one 32-column block.
    while j + 8 * PANEL <= n {
        spmm_block::<8>(values, col_idx, b_data, n, c_row, j);
        j += 8 * PANEL;
    }
    if j + 4 * PANEL <= n {
        spmm_block::<4>(values, col_idx, b_data, n, c_row, j);
        j += 4 * PANEL;
    }
    while j + PANEL <= n {
        spmm_block::<1>(values, col_idx, b_data, n, c_row, j);
        j += PANEL;
    }
    // Scalar tail: same ascending-`i` per-element fused accumulation.
    for jj in j..n {
        let mut acc = 0.0f32;
        for (&v, &c) in values.iter().zip(col_idx) {
            acc = v.mul_add(b_data[c as usize * n + jj], acc);
        }
        *c_row.get_unchecked_mut(jj) = acc;
    }
}

/// Columns `j .. j + R * PANEL` of one CSR row: `R` registers live
/// across the whole nonzero walk.
///
/// # Safety
/// Expanded inside `#[target_feature(enable = "avx2,fma")]` callers
/// only; caller guarantees `j + R * PANEL <= n`, `c_row.len() >= n`,
/// `values.len() == col_idx.len()` and that every column index
/// addresses a full `n`-wide row of `b_data`.
#[inline(always)]
unsafe fn spmm_block<const R: usize>(
    values: &[f32],
    col_idx: &[u32],
    b_data: &[f32],
    n: usize,
    c_row: &mut [f32],
    j: usize,
) {
    let mut acc = [_mm256_setzero_ps(); R];
    for (&v, &c) in values.iter().zip(col_idx) {
        let v = _mm256_set1_ps(v);
        let row = b_data.as_ptr().add(c as usize * n + j);
        for (t, a) in acc.iter_mut().enumerate() {
            *a = madd(v, _mm256_loadu_ps(row.add(t * PANEL)), *a);
        }
    }
    let cp = c_row.as_mut_ptr().add(j);
    for (t, a) in acc.into_iter().enumerate() {
        _mm256_storeu_ps(cp.add(t * PANEL), a);
    }
}

/// In-place ReLU: keeps the exact scalar semantics of
/// `if v < 0.0 { v = 0.0 }` — NaN and `-0.0` pass through unchanged —
/// by masking with a `<` compare instead of `_mm256_max_ps` (whose
/// NaN/`-0.0` behavior differs from the scalar branch).
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn relu_inplace(data: &mut [f32]) {
    let len = data.len();
    let p = data.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    let mut j = 0;
    // In bounds: j + PANEL <= len.
    while j + PANEL <= len {
        let v = _mm256_loadu_ps(p.add(j));
        // lanes where v < 0.0 (ordered: NaN compares false, stays put)
        let neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
        _mm256_storeu_ps(p.add(j), _mm256_andnot_ps(neg, v));
        j += PANEL;
    }
    for j in j..len {
        let v = p.add(j);
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Out-of-place ReLU: scalar semantics of `if v > 0.0 { v } else { 0.0 }`
/// (NaN and `-0.0` flush to `+0.0`), via a `>` compare mask.
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn relu_into(src: &[f32], dst: &mut [f32]) {
    let len = src.len().min(dst.len());
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let zero = _mm256_setzero_ps();
    let mut j = 0;
    // In bounds: j + PANEL <= len <= both slice lengths.
    while j + PANEL <= len {
        let v = _mm256_loadu_ps(sp.add(j));
        // lanes where v > 0.0 keep v; all others (incl. NaN) become +0.0
        let pos = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(dp.add(j), _mm256_and_ps(v, pos));
        j += PANEL;
    }
    for j in j..len {
        let v = *sp.add(j);
        *dp.add(j) = if v > 0.0 { v } else { 0.0 };
    }
}

/// Geometry of one `-inf`-padded plane as [`max_pool_planes`] walks it.
struct PoolPlane {
    /// Row pitch of the padded plane.
    pw: usize,
    k: usize,
    s: usize,
    ow: usize,
    /// Lane offsets `l·s` of the strided gather.
    vindex: __m256i,
    /// Lanes `< ow % 8`: what a partial last block stores.
    tail: __m256i,
    /// Lanes `< w % 8`: the last load and store of a row's copy.
    tail_w: __m256i,
}

/// Max pooling of whole planes. Each plane is copied into `padded`
/// with a `-inf` border wide enough that every output column — the
/// last block's overhang and a ceil-mode window hanging past the pad
/// included — reads inside it, so every output row runs in whole
/// 8-lane blocks, one output column per lane, with no edge case. A
/// `-inf` cell never wins the scalar `>` compare and never sets its
/// `hit` flag, so each lane replaying the scalar cell's
/// `(ky asc, kx asc)` compare + select sequence over the padded window
/// yields the bits of the scalar walk over the clipped one (`-0.0`,
/// NaN and all-padding windows included). The border is written once
/// per call; each plane rewrites only its interior.
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn max_pool_planes(
    input: &[f32],
    (h, w): (usize, usize),
    params: &Pool2dParams,
    (oh, ow): (usize, usize),
    padded: &mut Vec<f32>,
    out: &mut [f32],
) {
    let (k, pad, s) = (params.k, params.pad, params.stride);
    if oh * ow == 0 {
        return;
    }
    let planes = out.len() / (oh * ow);
    // Entry invariants for the raw window loads below.
    assert!(s > 0 && out.len() == planes * oh * ow && input.len() >= planes * h * w);
    // Lane l of block b reads column (8b + l)·s + kx < blocks·8·s + k,
    // and row oy·s + ky < (oh − 1)·s + k; the stride-2 loads read
    // sixteen contiguous columns, one past the last lane's.
    let blocks = ow.div_ceil(PANEL);
    let size = || -> Option<(usize, usize)> {
        let pw = w
            .checked_add(pad)?
            .max((blocks * PANEL).checked_mul(s)?.checked_add(k)?);
        let ph = h
            .checked_add(pad)?
            .max((oh - 1).checked_mul(s)?.checked_add(k)?);
        Some((pw, pw.checked_mul(ph)?))
    };
    // Checked: every raw offset below is bounded by `len`.
    let (pw, len) = size().expect("max pool: padded plane size overflows usize");
    padded.clear();
    padded.resize(len, f32::NEG_INFINITY);
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    let plane = PoolPlane {
        pw,
        k,
        s,
        ow,
        vindex: _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(s as i32),
        ),
        tail: lanes_below(ow % PANEL),
        tail_w: lanes_below(w % PANEL),
    };
    for (p, out_plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        for y in 0..h {
            let src = &input[(p * h + y) * w..][..w];
            copy_row(src, &mut padded[(y + pad) * pw + pad..][..w], plane.tail_w);
        }
        // The models' geometries get their taps unrolled at compile
        // time (2–3× as fast as `k` read at run time on the 3×3s); any
        // other runs generic, its lanes gathered.
        match (s, k) {
            (1, 3) => pool_plane::<1, 3>(padded, &plane, out_plane),
            (2, 3) => pool_plane::<2, 3>(padded, &plane, out_plane),
            (2, 2) => pool_plane::<2, 2>(padded, &plane, out_plane),
            _ => pool_plane::<0, 0>(padded, &plane, out_plane),
        }
    }
}

/// The mask of lanes `< n`.
///
/// # Safety
/// Expanded inside `#[target_feature(enable = "avx2,fma")]` callers only.
#[inline(always)]
#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
unsafe fn lanes_below(n: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// `dst = src` (equal lengths), eight lanes at a time and the last
/// `len % 8` under the mask `tail`: a plane row is too short for a
/// `memcpy` call to pay.
///
/// # Safety
/// Expanded inside `#[target_feature(enable = "avx2,fma")]` callers
/// only; `tail` masks lanes `< src.len() % 8`.
#[inline(always)]
unsafe fn copy_row(src: &[f32], dst: &mut [f32], tail: __m256i) {
    let len = src.len();
    assert_eq!(dst.len(), len);
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    let mut j = 0;
    while j + PANEL <= len {
        _mm256_storeu_ps(dp.add(j), _mm256_loadu_ps(sp.add(j)));
        j += PANEL;
    }
    if j < len {
        _mm256_maskstore_ps(dp.add(j), tail, _mm256_maskload_ps(sp.add(j), tail));
    }
}

/// Every output block of one padded plane. `S` is the stride, 1 or 2
/// (contiguous loads), or 0 for `plane`'s stride in gathered lanes; `K`
/// the window size, or 0 to read it from `plane`. One block's taps form
/// one dependent chain; the core overlaps consecutive blocks on its own
/// (walking two to six blocks side by side measured no faster).
///
/// # Safety
/// Expanded inside [`max_pool_planes`] only, which sized `padded` for
/// `plane` and `out` to `oh × ow`.
#[inline(always)]
unsafe fn pool_plane<const S: usize, const K: usize>(
    padded: &[f32],
    plane: &PoolPlane,
    out: &mut [f32],
) {
    let k = if K == 0 { plane.k } else { K };
    let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
    for (oy, out_row) in out.chunks_exact_mut(plane.ow).enumerate() {
        let row = padded.as_ptr().add(oy * plane.s * plane.pw);
        for ox in (0..plane.ow).step_by(PANEL) {
            let src = row.add(ox * plane.s);
            let mut best = neg_inf;
            for ky in 0..k {
                for kx in 0..k {
                    let p = src.add(ky * plane.pw + kx);
                    let v = match S {
                        1 => _mm256_loadu_ps(p),
                        // The even columns of sixteen, in lane order
                        // 0 1 4 5 2 3 6 7 until the store.
                        2 => _mm256_shuffle_ps::<0b10_00_10_00>(
                            _mm256_loadu_ps(p),
                            _mm256_loadu_ps(p.add(PANEL)),
                        ),
                        _ => _mm256_i32gather_ps::<4>(p, plane.vindex),
                    };
                    // Scalar replay: `if v > best { best = v }` per
                    // lane. `maxps(v, best)` is exactly
                    // `v > best ? v : best`: a NaN `v` and a tie of
                    // zeros keep `best`, which is never NaN.
                    best = _mm256_max_ps(v, best);
                }
            }
            // Nothing beat -inf (all cells -inf, NaN or padding): 0.0,
            // matching the scalar `hit` flag.
            let mut v = _mm256_and_ps(best, _mm256_cmp_ps(best, neg_inf, _CMP_GT_OQ));
            if S == 2 {
                v = _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(v)));
            }
            let o = out_row.as_mut_ptr().add(ox);
            if ox + PANEL <= plane.ow {
                _mm256_storeu_ps(o, v);
            } else {
                _mm256_maskstore_ps(o, plane.tail, v);
            }
        }
    }
}

/// One channel step of LRN's sliding window, eight elements per
/// instruction: the β = 0.75 output as `v / (r · √r)`, `r = √(k + scale·s)`,
/// then the square sums' add and subtract — the scalar step's
/// operations per element, each correctly rounded, fused into one pass
/// over `sums`. See [`super::lrn_step_with`].
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn lrn_step(
    k: f32,
    scale: f32,
    mut out: Option<(&[f32], &mut [f32])>,
    enter: Option<&[f32]>,
    leave: Option<&[f32]>,
    sums: &mut [f32],
) {
    let n = sums.len();
    // Entry invariant for the raw loads and stores below.
    assert!(
        out.as_ref()
            .is_none_or(|(x, o)| x.len() >= n && o.len() >= n)
            && enter.is_none_or(|e| e.len() >= n)
            && leave.is_none_or(|l| l.len() >= n)
    );
    let (kv, sv) = (_mm256_set1_ps(k), _mm256_set1_ps(scale));
    let io = out.as_mut().map(|(x, o)| (x.as_ptr(), o.as_mut_ptr()));
    let (ep, lp) = (enter.map(<[f32]>::as_ptr), leave.map(<[f32]>::as_ptr));
    let sp = sums.as_mut_ptr();
    let mut j = 0;
    while j + PANEL <= n {
        let mut s = _mm256_loadu_ps(sp.add(j));
        if let Some((x, o)) = io {
            let r = _mm256_sqrt_ps(_mm256_add_ps(kv, _mm256_mul_ps(sv, s)));
            let d = _mm256_mul_ps(r, _mm256_sqrt_ps(r));
            _mm256_storeu_ps(o.add(j), _mm256_div_ps(_mm256_loadu_ps(x.add(j)), d));
        }
        if let Some(e) = ep {
            let v = _mm256_loadu_ps(e.add(j));
            s = _mm256_add_ps(s, _mm256_mul_ps(v, v));
        }
        if let Some(l) = lp {
            let v = _mm256_loadu_ps(l.add(j));
            s = _mm256_sub_ps(s, _mm256_mul_ps(v, v));
        }
        _mm256_storeu_ps(sp.add(j), s);
        j += PANEL;
    }
    super::scalar::lrn_step(
        k,
        scale,
        out.map(|(x, o)| (&x[j..], &mut o[j..])),
        enter.map(|e| &e[j..]),
        leave.map(|l| &l[j..]),
        &mut sums[j..],
    );
}
