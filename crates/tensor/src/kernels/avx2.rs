//! AVX2 + FMA microkernels (`x86_64` only).
//!
//! Every function here is `unsafe` with the same contract: **the caller
//! must have verified that the CPU supports AVX2 and FMA** via
//! `is_x86_feature_detected!` — the dispatch layer in [`super`] is the
//! only caller and does exactly that. Slice-length invariants are
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

/// One CSR row of sparse×dense, AVX2 FMA (bit-identical to
/// [`super::scalar::spmm_row`]), with a scalar-bias/ReLU epilogue
/// applied in-register before each store (one CSR output row carries a
/// single bias value; `None` performs no bias add at all — adding a
/// literal `0.0` would not be bitwise neutral). The identity epilogue
/// takes its own copy of the body with the literals constant-folded.
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
    bias: Option<f32>,
    relu: bool,
) {
    if bias.is_none() && !relu {
        return spmm_row_body(values, col_idx, b_data, n, c_row, None, false);
    }
    spmm_row_body(values, col_idx, b_data, n, c_row, bias, relu)
}

/// Fold a fused scalar-bias/ReLU epilogue into one SpMM output
/// register. `(None, false)` performs no FP operations at all (the
/// unfused kernels pass those literals, which constant-fold away).
#[inline(always)]
unsafe fn spmm_epi(mut acc: __m256, bias: Option<f32>, relu: bool) -> __m256 {
    if let Some(b) = bias {
        acc = _mm256_add_ps(acc, _mm256_set1_ps(b));
    }
    if relu {
        let pos = _mm256_cmp_ps(acc, _mm256_setzero_ps(), _CMP_GT_OQ);
        acc = _mm256_and_ps(acc, pos);
    }
    acc
}

/// Shared SpMM row body: column-blocked (64 → 32 → 8 → scalar tail) so
/// the output stays in registers across the whole nonzero walk. Per
/// output element the nonzeros still accumulate in ascending-`i` order.
#[inline(always)]
unsafe fn spmm_row_body(
    values: &[f32],
    col_idx: &[u32],
    b_data: &[f32],
    n: usize,
    c_row: &mut [f32],
    bias: Option<f32>,
    relu: bool,
) {
    let nnz = values.len().min(col_idx.len());
    // Entry invariants for the raw loads below: every stored column
    // index addresses a full row of B, and the output row is n wide.
    assert!(c_row.len() >= n);
    assert!(col_idx[..nnz]
        .iter()
        .all(|&c| (c as usize + 1) * n <= b_data.len()));

    let (values, col_idx) = (&values[..nnz], &col_idx[..nnz]);
    let mut j = 0;
    // 64-column blocks: eight FMA chains per nonzero cover the FMA
    // latency (four chains ran ~10 % under the unfused kernel at 90 %
    // sparsity); then at most one 32-column block.
    while j + 8 * PANEL <= n {
        spmm_block::<8>(values, col_idx, b_data, n, c_row, j, bias, relu);
        j += 8 * PANEL;
    }
    if j + 4 * PANEL <= n {
        spmm_block::<4>(values, col_idx, b_data, n, c_row, j, bias, relu);
        j += 4 * PANEL;
    }
    while j + PANEL <= n {
        spmm_block::<1>(values, col_idx, b_data, n, c_row, j, bias, relu);
        j += PANEL;
    }
    // Scalar tail: same ascending-`i` per-element fused accumulation.
    for jj in j..n {
        let mut acc = 0.0f32;
        for i in 0..nnz {
            let b = *b_data.get_unchecked(*col_idx.get_unchecked(i) as usize * n + jj);
            acc = values.get_unchecked(i).mul_add(b, acc);
        }
        if let Some(b) = bias {
            acc += b;
        }
        if relu {
            acc = if acc > 0.0 { acc } else { 0.0 };
        }
        *c_row.get_unchecked_mut(jj) = acc;
    }
}

/// Columns `j .. j + R * PANEL` of one CSR row: `R` registers live
/// across the whole nonzero walk, epilogue applied before the store.
///
/// # Safety
/// Expanded inside `#[target_feature(enable = "avx2,fma")]` callers
/// only; caller guarantees `j + R * PANEL <= n`, `c_row.len() >= n`,
/// `values.len() == col_idx.len()` and that every column index
/// addresses a full `n`-wide row of `b_data`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn spmm_block<const R: usize>(
    values: &[f32],
    col_idx: &[u32],
    b_data: &[f32],
    n: usize,
    c_row: &mut [f32],
    j: usize,
    bias: Option<f32>,
    relu: bool,
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
        _mm256_storeu_ps(cp.add(t * PANEL), spmm_epi(a, bias, relu));
    }
}

/// `c_row[j] = a * b_row[j] + c_row[j]`, AVX2 FMA.
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn axpy(c_row: &mut [f32], a: f32, b_row: &[f32]) {
    let len = c_row.len().min(b_row.len());
    let av = _mm256_set1_ps(a);
    let cp = c_row.as_mut_ptr();
    let bp = b_row.as_ptr();
    let mut j = 0;
    // In bounds: j + PANEL <= len <= both slice lengths.
    while j + PANEL <= len {
        let c = _mm256_loadu_ps(cp.add(j));
        let b = _mm256_loadu_ps(bp.add(j));
        _mm256_storeu_ps(cp.add(j), madd(av, b, c));
        j += PANEL;
    }
    for j in j..len {
        *cp.add(j) = a.mul_add(*bp.add(j), *cp.add(j));
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

/// One output row of 2-D max pooling.
///
/// Interior output columns — whose windows never clip the plane's
/// left/right edge — run eight-per-register, one output column per
/// lane; each lane replays the scalar cell's `(ky asc, kx asc)`
/// `>`-compare + select sequence, so tie-breaking (`-0.0`, NaN) is
/// bit-identical. An interior that is not a multiple of eight ends
/// with one block overlapping its predecessor; border columns (and an
/// interior under eight wide) take the scalar cell code.
///
/// # Safety
/// CPU must support AVX2 and FMA (verified by the dispatch layer).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn max_pool_row(
    plane: &[f32],
    h: usize,
    w: usize,
    params: &Pool2dParams,
    oy: usize,
    out_row: &mut [f32],
) {
    // Entry invariant for the raw window loads below.
    assert!(plane.len() >= h * w);
    let ow = out_row.len();
    let (k, pad, s) = (params.k, params.pad, params.stride);

    // Interior ox range: every window column in [0, w).
    //   ox*s - pad >= 0           =>  ox >= ceil(pad / s)
    //   ox*s - pad + k - 1 < w    =>  ox <= (w + pad - k) / s
    let lo = if s == 0 { ow } else { pad.div_ceil(s) };
    let hi = if s > 0 && w + pad >= k {
        ((w + pad - k) / s + 1).min(ow)
    } else {
        lo.min(ow)
    };
    let lo = lo.min(hi);

    // Valid window rows for this output row (uniform across ox, and a
    // contiguous range — no per-row allocation on this hot path):
    // iy = row_base + ky - pad must land in [0, h).
    let row_base = oy * s;
    let ky_lo = pad.saturating_sub(row_base);
    let ky_hi = (h + pad).saturating_sub(row_base).min(k);

    // Scalar left border.
    for (ox, o) in out_row.iter_mut().enumerate().take(lo) {
        *o = super::scalar::max_pool_cell(plane, h, w, params, oy, ox);
    }

    // SIMD interior: 8 output columns per register.
    let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
    // Lane l reads input column base_ix + l*s.
    #[allow(clippy::cast_possible_truncation)]
    let vindex = _mm256_set_epi32(
        (7 * s) as i32,
        (6 * s) as i32,
        (5 * s) as i32,
        (4 * s) as i32,
        (3 * s) as i32,
        (2 * s) as i32,
        s as i32,
        0,
    );
    let pp = plane.as_ptr();
    // Block starts: every PANEL columns from `lo`, then — when the
    // interior is at least one block wide but not a whole number of
    // them — one last block ending at `hi`. It overlaps the block
    // before it and recomputes those outputs to the same bits, so only
    // true border columns are left to the scalar cell code.
    let full = (hi - lo) / PANEL;
    let overlapped = (full > 0 && lo + full * PANEL < hi).then(|| hi - PANEL);
    for ox in (0..full).map(|i| lo + i * PANEL).chain(overlapped) {
        let mut best = neg_inf;
        for ky in ky_lo..ky_hi {
            let iy = row_base + ky - pad; // ky range guarantees 0 <= iy < h
            for kx in 0..k {
                let base_ix = ox * s + kx - pad; // ox >= lo guarantees >= 0
                                                 // Furthest lane reads (ox+7)*s + kx - pad < w (ox+7 < hi).
                let row = pp.add(iy * w + base_ix);
                let v = if s == 1 {
                    _mm256_loadu_ps(row)
                } else {
                    _mm256_i32gather_ps::<4>(row, vindex)
                };
                // Scalar replay: `if v > best { best = v }` per lane
                // (NaN compares false and is ignored, like the scalar).
                let gt = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
                best = _mm256_blendv_ps(best, v, gt);
            }
        }
        // Windows where nothing beat -inf (all cells -inf or NaN, or no
        // valid rows) yield 0.0, matching the scalar `hit` flag.
        let hit = _mm256_cmp_ps(best, neg_inf, _CMP_GT_OQ);
        _mm256_storeu_ps(out_row.as_mut_ptr().add(ox), _mm256_and_ps(best, hit));
    }
    // Everything in [lo, hi) is done iff at least one block ran.
    let done = if full > 0 { hi } else { lo };

    // Scalar right border (and an interior narrower than one block).
    for (ox, o) in out_row.iter_mut().enumerate().skip(done) {
        *o = super::scalar::max_pool_cell(plane, h, w, params, oy, ox);
    }
}
