//! Portable safe-Rust microkernels — the fallback path and the
//! correctness oracle every SIMD path is tested against.
//!
//! These are the inner loops of `gemm.rs` / `sparse.rs` / `ops.rs` /
//! `pool.rs`, kept here so both dispatch targets live side by side.
//! The compiler autovectorizes the fixed-width `PANEL` accumulator
//! loops reasonably well; the explicit AVX2 path exists to stop
//! leaving the rest of the lanes on the table.
//!
//! Every step of a multiply-accumulate chain (the GEMM band, the GEMV,
//! the CSR row) is one `f32::mul_add`: a fused multiply-add, rounded
//! once. That is the contract of every [`super::KernelPath`]. The
//! functions holding those chains are `#[inline(always)]`, so this
//! one source compiles twice: called directly it is the plain build,
//! where `mul_add` is a libm `fmaf` call (correctly rounded, so the
//! same bits, but ~30× slower); the private `fma` module inlines it
//! into `#[target_feature(enable = "fma")]` functions, where it is one
//! `vfmadd` per step. The dispatch
//! layer takes the `fma` build whenever the CPU has FMA. The epilogue
//! below is not a chain and keeps its separately rounded bias add.

use super::{EpiBias, Epilogue, PANEL, ROW_BLOCK};
use crate::pool::Pool2dParams;
use std::ops::Range;

/// The fused epilogue on one element: the bias add (skipped, not
/// zero-filled, for `None`), then the `forward_into` ReLU flavor
/// (`v > 0.0` keeps `v`, everything else — negatives, `-0.0`, NaN —
/// becomes `+0.0`). Every scalar epilogue is this sequence; the AVX2
/// stores perform the same two operations eight lanes at a time.
#[inline(always)]
pub fn epilogue_one(v: f32, bias: Option<f32>, relu: bool) -> f32 {
    let v = match bias {
        Some(b) => v + b,
        None => v,
    };
    if !relu || v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Apply a fused epilogue ([`epilogue_one`] per element) to columns
/// `cols` of the already-stored rows of a band. `row0` is the absolute
/// index of the band's first row, used to index a per-row bias; a
/// per-column bias is indexed by absolute column.
///
/// The scalar fused kernels run the plain kernel and then this pass
/// over the cache-resident tile. That is bitwise identical to applying
/// the same operations in-register before the store (the AVX2 fused
/// path): an `f32` round-trip through memory is exact, and the
/// floating-point operation sequence per element is the same.
fn apply_epilogue(
    c_band: &mut [f32],
    n: usize,
    row0: usize,
    cols: Range<usize>,
    epi: Epilogue<'_>,
) {
    if epi.is_noop() {
        return;
    }
    for (local_r, row) in c_band.chunks_mut(n.max(1)).enumerate() {
        let row = &mut row[cols.clone()];
        match epi.bias {
            Some(EpiBias::PerRow(b)) => {
                let bv = Some(b[row0 + local_r]);
                for v in row {
                    *v = epilogue_one(*v, bv, epi.relu);
                }
            }
            Some(EpiBias::PerCol(b)) => {
                for (v, &bv) in row.iter_mut().zip(&b[cols.clone()]) {
                    *v = epilogue_one(*v, Some(bv), epi.relu);
                }
            }
            None => {
                for v in row {
                    *v = epilogue_one(*v, None, epi.relu);
                }
            }
        }
    }
}

/// Panels `panels` of one row band of the packed-panel GEMM, epilogue
/// applied. See [`super::gemm_packed_band_with`] for the contract. Runs
/// the plain tile loop and then `apply_epilogue` over the tile's
/// still-cache-resident columns — bitwise identical to the in-register
/// AVX2 variant.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_band(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
    epi: Epilogue<'_>,
) {
    assert!(panels.end <= n.div_ceil(PANEL));
    epi.check(row0 + c_band.len() / n.max(1), n);
    gemm_band_plain(a_data, k, n, b_data, c_band, row0, panels.clone());
    let cols = panels.start * PANEL..n.min(panels.end * PANEL);
    apply_epilogue(c_band, n, row0, cols, epi);
}

#[inline(always)]
fn gemm_band_plain(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_band: &mut [f32],
    row0: usize,
    panels: Range<usize>,
) {
    let rows_here = c_band.len() / n.max(1);
    // Register-block ROW_BLOCK output rows against each panel:
    // every `kk` step issues ROW_BLOCK*PANEL independent
    // multiply-adds, hiding FMA latency that a single 8-wide
    // accumulator chain would expose. Each output element still
    // accumulates in ascending-`kk` order, so results are
    // bit-identical to the unblocked walk.
    //
    // One accumulator row per A row, each updated by its own lane loop:
    // in the FMA build that shape vectorizes to one 8-lane `vfmadd` per
    // row and `kk` (2.2× the rate of the lane-interleaved form, which
    // the vectorizer splits into mixed 4-lane and single-lane FMAs).
    let mut local_r = 0;
    while local_r + ROW_BLOCK <= rows_here {
        let r = row0 + local_r;
        let a_rows: [&[f32]; ROW_BLOCK] =
            std::array::from_fn(|i| &a_data[(r + i) * k..(r + i + 1) * k]);
        for p in panels.clone() {
            let base = p * k * PANEL;
            let panel = &b_data[base..base + k * PANEL];
            let mut acc = [[0.0f32; PANEL]; ROW_BLOCK];
            for (kk, prow) in panel.chunks_exact(PANEL).enumerate() {
                let prow: &[f32; PANEL] = prow.try_into().unwrap();
                for (accr, a_row) in acc.iter_mut().zip(a_rows) {
                    let av = a_row[kk];
                    for (x, &pv) in accr.iter_mut().zip(prow) {
                        *x = av.mul_add(pv, *x);
                    }
                }
            }
            let c0 = p * PANEL;
            let width = PANEL.min(n - c0);
            for (i, accr) in acc.iter().enumerate() {
                let row = &mut c_band[(local_r + i) * n..(local_r + i + 1) * n];
                row[c0..c0 + width].copy_from_slice(&accr[..width]);
            }
        }
        local_r += ROW_BLOCK;
    }
    // Remaining rows one at a time through the dedicated GEMV kernel
    // (extracted from this loop, so the band result is unchanged).
    for local_r in local_r..rows_here {
        let r = row0 + local_r;
        gemv_plain(
            &a_data[r * k..(r + 1) * k],
            n,
            b_data,
            &mut c_band[local_r * n..(local_r + 1) * n],
            panels.clone(),
        );
    }
}

/// One row-major matvec against the panel-packed `b_data`
/// (`k = a_row.len()`, `n.div_ceil(PANEL)` panels of `k × PANEL`):
/// the single-row trailing path of [`gemm_packed_band`], extracted so
/// batch-1 inference can call it directly without pretending to be a
/// degenerate GEMM. Blocks four panels per pass, so a lone row still
/// carries 32 independent accumulator chains while the packed weight
/// matrix streams through exactly once.
///
/// Each output element accumulates in ascending-`kk` order — panel
/// grouping only changes which elements are *concurrent*, never the
/// order within one element's sum — so results are bit-identical to
/// the band kernel (this *is* that code). A per-row bias in `epi`
/// indexes `bias[0]` (the matvec output is row 0 of a 1×n result).
#[inline(always)]
pub fn gemv_packed(a_row: &[f32], n: usize, b_data: &[f32], c_row: &mut [f32], epi: Epilogue<'_>) {
    epi.check(1, n);
    gemv_plain(a_row, n, b_data, c_row, 0..n.div_ceil(PANEL));
    apply_epilogue(&mut c_row[..n], n, 0, 0..n, epi);
}

#[inline(always)]
fn gemv_plain(a_row: &[f32], n: usize, b_data: &[f32], c_row: &mut [f32], panels: Range<usize>) {
    let k = a_row.len();
    let plen = k * PANEL;
    let mut p = panels.start;
    while p + 4 <= panels.end {
        let pn0 = &b_data[p * plen..(p + 1) * plen];
        let pn1 = &b_data[(p + 1) * plen..(p + 2) * plen];
        let pn2 = &b_data[(p + 2) * plen..(p + 3) * plen];
        let pn3 = &b_data[(p + 3) * plen..(p + 4) * plen];
        let mut acc0 = [0.0f32; PANEL];
        let mut acc1 = [0.0f32; PANEL];
        let mut acc2 = [0.0f32; PANEL];
        let mut acc3 = [0.0f32; PANEL];
        for ((((&aik, p0), p1), p2), p3) in a_row
            .iter()
            .zip(pn0.chunks_exact(PANEL))
            .zip(pn1.chunks_exact(PANEL))
            .zip(pn2.chunks_exact(PANEL))
            .zip(pn3.chunks_exact(PANEL))
        {
            let p0: &[f32; PANEL] = p0.try_into().unwrap();
            let p1: &[f32; PANEL] = p1.try_into().unwrap();
            let p2: &[f32; PANEL] = p2.try_into().unwrap();
            let p3: &[f32; PANEL] = p3.try_into().unwrap();
            for j in 0..PANEL {
                acc0[j] = aik.mul_add(p0[j], acc0[j]);
                acc1[j] = aik.mul_add(p1[j], acc1[j]);
                acc2[j] = aik.mul_add(p2[j], acc2[j]);
                acc3[j] = aik.mul_add(p3[j], acc3[j]);
            }
        }
        for (i, accr) in [&acc0, &acc1, &acc2, &acc3].into_iter().enumerate() {
            let c0 = (p + i) * PANEL;
            let width = PANEL.min(n - c0);
            c_row[c0..c0 + width].copy_from_slice(&accr[..width]);
        }
        p += 4;
    }
    for p in p..panels.end {
        let base = p * plen;
        let panel = &b_data[base..base + plen];
        let mut acc = [0.0f32; PANEL];
        for (&aik, prow) in a_row.iter().zip(panel.chunks_exact(PANEL)) {
            let prow: &[f32; PANEL] = prow.try_into().unwrap();
            for (av, pv) in acc.iter_mut().zip(prow.iter()) {
                *av = aik.mul_add(*pv, *av);
            }
        }
        let c0 = p * PANEL;
        let width = PANEL.min(n - c0);
        c_row[c0..c0 + width].copy_from_slice(&acc[..width]);
    }
}

/// One CSR row of sparse×dense with a scalar-bias/ReLU epilogue (the
/// bias of one CSR output row is a single value — conv output channel
/// or FC output feature; `None` skips the add). Bias adds first, then
/// the `forward_into` ReLU. See [`super::spmm_row_with`].
#[inline(always)]
pub fn spmm_row(
    values: &[f32],
    col_idx: &[u32],
    b_data: &[f32],
    n: usize,
    c_row: &mut [f32],
    bias: Option<f32>,
    relu: bool,
) {
    c_row.fill(0.0);
    for (&v, &c) in values.iter().zip(col_idx.iter()) {
        let b_row = &b_data[c as usize * n..(c as usize + 1) * n];
        for (cv, bv) in c_row.iter_mut().zip(b_row.iter()) {
            *cv = v.mul_add(*bv, *cv);
        }
    }
    if bias.is_none() && !relu {
        return;
    }
    for v in c_row.iter_mut().take(n) {
        *v = epilogue_one(*v, bias, relu);
    }
}

/// The multiply-accumulate kernels above, compiled with the `fma`
/// target feature: each is the same source inlined, so the same bits
/// as the plain build, with every `mul_add` one instruction instead of
/// a libm call. Calling one is only sound once the CPU has reported
/// `fma` (the dispatch layer checks before every call).
#[cfg(target_arch = "x86_64")]
pub(super) mod fma {
    use super::{Epilogue, Range};

    #[target_feature(enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_packed_band(
        a_data: &[f32],
        k: usize,
        n: usize,
        b_data: &[f32],
        c_band: &mut [f32],
        row0: usize,
        panels: Range<usize>,
        epi: Epilogue<'_>,
    ) {
        super::gemm_packed_band(a_data, k, n, b_data, c_band, row0, panels, epi);
    }

    #[target_feature(enable = "fma")]
    pub fn gemv_packed(
        a_row: &[f32],
        n: usize,
        b_data: &[f32],
        c_row: &mut [f32],
        epi: Epilogue<'_>,
    ) {
        super::gemv_packed(a_row, n, b_data, c_row, epi);
    }

    #[target_feature(enable = "fma")]
    pub fn spmm_row(
        values: &[f32],
        col_idx: &[u32],
        b_data: &[f32],
        n: usize,
        c_row: &mut [f32],
        bias: Option<f32>,
        relu: bool,
    ) {
        super::spmm_row(values, col_idx, b_data, n, c_row, bias, relu);
    }
}

/// In-place ReLU. See [`super::relu_inplace_with`].
pub fn relu_inplace(data: &mut [f32]) {
    for v in data {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Out-of-place ReLU. See [`super::relu_into_with`].
pub fn relu_into(src: &[f32], dst: &mut [f32]) {
    for (o, &v) in dst.iter_mut().zip(src.iter()) {
        *o = if v > 0.0 { v } else { 0.0 };
    }
}

/// One max-pool output cell over an `h×w` plane — the original
/// `max_pool2d_into` window walk (`ky` ascending, `kx` ascending,
/// strict `>` comparison, all-padding window yields `0.0`).
#[inline(always)]
pub(crate) fn max_pool_cell(
    plane: &[f32],
    h: usize,
    w: usize,
    params: &Pool2dParams,
    oy: usize,
    ox: usize,
) -> f32 {
    let mut best = f32::NEG_INFINITY;
    let mut hit = false;
    for ky in 0..params.k {
        let iy = (oy * params.stride + ky) as isize - params.pad as isize;
        if iy < 0 || iy as usize >= h {
            continue;
        }
        for kx in 0..params.k {
            let ix = (ox * params.stride + kx) as isize - params.pad as isize;
            if ix < 0 || ix as usize >= w {
                continue;
            }
            let v = plane[iy as usize * w + ix as usize];
            if v > best {
                best = v;
                hit = true;
            }
        }
    }
    if hit {
        best
    } else {
        0.0
    }
}

/// Max pooling of whole `h×w` planes. See [`super::max_pool_planes_with`].
pub fn max_pool_planes(
    input: &[f32],
    (h, w): (usize, usize),
    params: &Pool2dParams,
    (oh, ow): (usize, usize),
    out: &mut [f32],
) {
    if oh * ow == 0 {
        return;
    }
    let planes = out.len() / (oh * ow);
    assert!(out.len() == planes * oh * ow && input.len() >= planes * h * w);
    for (p, out_plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let in_plane = &input[p * h * w..(p + 1) * h * w];
        for (cell, o) in out_plane.iter_mut().enumerate() {
            *o = max_pool_cell(in_plane, h, w, params, cell / ow, cell % ow);
        }
    }
}

/// LRN's `d^0.75` for β = 0.75, as `√d · √√d`: two square roots and a
/// multiply, each correctly rounded, so every path gets the same bits
/// (`powf` is neither correctly rounded nor vectorizable).
#[inline(always)]
fn pow075(d: f32) -> f32 {
    let r = d.sqrt();
    r * r.sqrt()
}

/// One channel step of LRN's sliding window. See [`super::lrn_step_with`].
pub fn lrn_step(
    k: f32,
    scale: f32,
    out: Option<(&[f32], &mut [f32])>,
    enter: Option<&[f32]>,
    leave: Option<&[f32]>,
    sums: &mut [f32],
) {
    let n = sums.len();
    assert!(
        out.as_ref()
            .is_none_or(|(x, o)| x.len() >= n && o.len() >= n)
            && enter.is_none_or(|e| e.len() >= n)
            && leave.is_none_or(|l| l.len() >= n)
    );
    if let Some((x, out)) = out {
        for ((o, &v), &s) in out.iter_mut().zip(x).zip(sums.iter()) {
            *o = v / pow075(k + scale * s);
        }
    }
    if let Some(enter) = enter {
        for (s, &v) in sums.iter_mut().zip(enter) {
            *s += v * v;
        }
    }
    if let Some(leave) = leave {
        for (s, &v) in sums.iter_mut().zip(leave) {
            *s -= v * v;
        }
    }
}
