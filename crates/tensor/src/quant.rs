//! Symmetric int8 quantization: scales, packed quantized operands, and
//! the GEMM driver over the [`crate::kernels::int8`] microkernels (the
//! convolution driver, [`crate::conv2d`], takes the quantized operands
//! built here as two of its [`crate::ConvWeights`] forms).
//!
//! # Quantization contract
//!
//! Everything here is **symmetric per-tensor** int8: a tensor `x` with
//! scale `s` maps to `q = clamp(round(x / s), -127, 127)` ([`quantize_i8`];
//! `round` is Rust's half-away-from-zero, NaN maps to 0) and back to
//! `x ≈ q · s`. The range is `±127`, not `-128`, so negation stays
//! closed and the AVX2 `madd` accumulation can never hit its lone
//! saturation case. Scales come from [`symmetric_scale`] (max-abs) or
//! [`percentile_scale`] (clipping outliers); a degenerate all-zero
//! tensor gets scale 1.0 so dequantization stays finite.
//!
//! Weights are quantized **once** at pack time with their own max-abs
//! scale; activations are quantized per forward call with a scale that
//! either comes from a calibration pass ([`CalibrationMethod`], see
//! `cap-cnn`'s `Network::calibrate`) or falls back to the caller's
//! on-the-fly estimate. A product `a_q · b_q` then dequantizes by the
//! combined `s_a · s_b`, which the kernels fold into their store
//! epilogue — the "dequantize-in-epilogue" design: integer math in the
//! hot loop, one float multiply per output element, and the existing
//! bias/ReLU [`Epilogue`] applied after it, unchanged.
//!
//! The simulated quantization report in `cap_pruning::quantize`
//! (`quantize_uniform`) models arbitrary bit widths by rounding f32
//! weights in place; this module is the *real* 8-bit member of that
//! family — same symmetric contract, actually executed by integer
//! kernels. The `CAP_TENSOR_PRECISION` knob ([`crate::precision`])
//! decides which path a `Network` runs.

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::kernels::{self, int8 as ki8, EpiBias, Epilogue, PANEL};
use crate::sparse::CsrMatrix;
use rayon::prelude::*;

/// Max-abs symmetric scale: `max|x| / 127`, or `1.0` for an all-zero
/// (or empty) slice so downstream divisions stay finite. NaN entries
/// are ignored.
pub fn symmetric_scale(values: &[f32]) -> f32 {
    let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Percentile symmetric scale: the `pct`-th percentile (0–100,
/// nearest-rank on the sorted magnitudes) of `|x|`, divided by 127.
/// Values above the chosen magnitude saturate to ±127 — trading a
/// little clipping error on outliers for finer resolution everywhere
/// else, the classic calibration knob. `pct = 100` degenerates to
/// [`symmetric_scale`].
pub fn percentile_scale(values: &[f32], pct: f64) -> f32 {
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile must be in 0..=100, got {pct}"
    );
    let mut mags: Vec<f32> = values
        .iter()
        .map(|v| v.abs())
        .filter(|v| !v.is_nan())
        .collect();
    if mags.is_empty() {
        return 1.0;
    }
    mags.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered above"));
    let idx = ((mags.len() - 1) as f64 * pct / 100.0).round() as usize;
    let m = mags[idx];
    if m > 0.0 {
        m / 127.0
    } else {
        1.0
    }
}

/// How an activation-range calibration pass turns observed activations
/// into a per-layer scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CalibrationMethod {
    /// Scale from the absolute maximum — no clipping, coarsest
    /// resolution when outliers are present.
    MaxAbs,
    /// Scale from the given percentile (0–100) of activation
    /// magnitudes — clips the tail beyond it to ±127.
    Percentile(f64),
}

impl CalibrationMethod {
    /// Compute the symmetric scale this method assigns to `values`.
    pub fn scale_for(&self, values: &[f32]) -> f32 {
        match *self {
            CalibrationMethod::MaxAbs => symmetric_scale(values),
            CalibrationMethod::Percentile(p) => percentile_scale(values, p),
        }
    }
}

/// Quantize one value: `clamp(round(v * inv_scale), -127, 127)`.
/// `inv_scale` is `1.0 / scale` (hoisted by callers); NaN maps to 0.
#[inline]
pub fn quantize_i8(v: f32, inv_scale: f32) -> i8 {
    (v * inv_scale).round().clamp(-127.0, 127.0) as i8
}

/// Quantize a row-major `rows × k` f32 slice into row-major i8 with
/// the even row stride `kp` the int8 kernels require (odd `k` pads a
/// zero), reusing `out`'s capacity. Returns `kp`.
pub fn quantize_rows_into(
    src: &[f32],
    rows: usize,
    k: usize,
    inv_scale: f32,
    out: &mut Vec<i8>,
) -> usize {
    assert!(src.len() >= rows * k, "quantize_rows_into: src too short");
    let kp = k.next_multiple_of(2);
    out.clear();
    out.resize(rows * kp, 0);
    for r in 0..rows {
        for (d, &v) in out[r * kp..r * kp + k].iter_mut().zip(&src[r * k..]) {
            *d = quantize_i8(v, inv_scale);
        }
    }
    kp
}

/// Quantize a row-major `k × n` f32 slice straight into the
/// pair-interleaved i8 panel layout of [`crate::kernels::int8`]
/// (`n.div_ceil(PANEL)` panels of `kp × PANEL`; depth pairs adjacent
/// per column, tail columns and the odd-`k` pad zero-filled), reusing
/// `out`'s capacity. Returns `kp`. This is the int8 analogue of
/// [`crate::PackedB::pack`] with the quantize folded into the single
/// write pass.
pub fn pack_b_i8_into(src: &[f32], k: usize, n: usize, inv_scale: f32, out: &mut Vec<i8>) -> usize {
    assert!(src.len() >= k * n, "pack_b_i8_into: src too short");
    let kp = k.next_multiple_of(2);
    let panels = n.div_ceil(PANEL);
    out.clear();
    out.resize(panels * kp * PANEL, 0);
    for p in 0..panels {
        let c0 = p * PANEL;
        let width = PANEL.min(n - c0);
        let dst = &mut out[p * kp * PANEL..(p + 1) * kp * PANEL];
        for r in 0..k {
            let slot = (r / 2) * 2 * PANEL + (r % 2);
            let srow = &src[r * n + c0..r * n + c0 + width];
            for (j, &v) in srow.iter().enumerate() {
                dst[slot + 2 * j] = quantize_i8(v, inv_scale);
            }
        }
    }
    kp
}

/// Quantize a flat f32 slice element-wise into `out` (same layout),
/// reusing capacity — the SpMM path's row-major dense operand.
pub fn quantize_dense_i8_into(src: &[f32], inv_scale: f32, out: &mut Vec<i8>) {
    out.clear();
    out.extend(src.iter().map(|&v| quantize_i8(v, inv_scale)));
}

/// A quantized row-major left operand (weights, or batched
/// activations): i8 rows with even stride `kp`, plus the scale that
/// dequantizes them.
#[derive(Debug, Clone)]
pub struct QuantizedA {
    data: Vec<i8>,
    rows: usize,
    k: usize,
    kp: usize,
    scale: f32,
}

impl QuantizedA {
    /// Quantize the first `rows × k` of `src` with `scale`.
    pub fn quantize(src: &[f32], rows: usize, k: usize, scale: f32) -> Self {
        let mut data = Vec::new();
        let kp = quantize_rows_into(src, rows, k, 1.0 / scale, &mut data);
        Self {
            data,
            rows,
            k,
            kp,
            scale,
        }
    }

    /// Quantized rows as a flat slice (stride [`QuantizedA::kp`]).
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical depth (pre-padding).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Padded (even) row stride.
    pub fn kp(&self) -> usize {
        self.kp
    }

    /// Dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }
}

/// A quantized panel-packed right operand — the int8 analogue of
/// [`crate::PackedB`], in the pair-interleaved layout of
/// [`crate::kernels::int8`]. Built once per weight matrix (FC `Wᵀ`);
/// activations use [`pack_b_i8_into`] into pooled scratch instead.
#[derive(Debug, Clone)]
pub struct PackedBI8 {
    data: Vec<i8>,
    k: usize,
    kp: usize,
    n: usize,
    scale: f32,
}

impl PackedBI8 {
    /// Quantize and pack a `k × n` matrix with `scale`.
    pub fn pack(b: &Matrix, scale: f32) -> Self {
        let (k, n) = b.shape();
        let mut data = Vec::new();
        let kp = pack_b_i8_into(b.as_slice(), k, n, 1.0 / scale, &mut data);
        Self {
            data,
            k,
            kp,
            n,
            scale,
        }
    }

    /// Packed panels as a flat slice.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Logical depth (pre-padding).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Padded (even) panel depth.
    pub fn kp(&self) -> usize {
        self.kp
    }

    /// Column count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }
}

/// A quantized CSR matrix: the f32 values of a [`CsrMatrix`] mapped to
/// i8 with one per-tensor scale, structure (row pointers / column
/// indices) unchanged. Built through the public CSR iterator, so it
/// needs no access to the source matrix's internals.
#[derive(Debug, Clone)]
pub struct QuantizedCsr {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<i8>,
    rows: usize,
    cols: usize,
    scale: f32,
}

impl QuantizedCsr {
    /// Quantize `csr` with `scale`.
    pub fn from_csr(csr: &CsrMatrix, scale: f32) -> Self {
        let inv = 1.0 / scale;
        let mut row_ptr = vec![0usize; csr.rows() + 1];
        let mut col_idx = Vec::with_capacity(csr.nnz());
        let mut values = Vec::with_capacity(csr.nnz());
        for (r, c, v) in csr.iter() {
            row_ptr[r + 1] += 1;
            col_idx.push(c as u32);
            values.push(quantize_i8(v, inv));
        }
        for i in 0..csr.rows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self {
            row_ptr,
            col_idx,
            values,
            rows: csr.rows(),
            cols: csr.cols(),
            scale,
        }
    }

    /// `(values, col_idx)` of row `r`.
    pub fn row(&self, r: usize) -> (&[i8], &[u32]) {
        let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.values[s..e], &self.col_idx[s..e])
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entry count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }
}

/// Row bands processed per rayon task by [`gemm_i8`] (mirrors the f32
/// GEMM's banding).
const ROW_BAND: usize = 32;

/// Output columns per rayon task on the single-row (GEMV) route.
const GEMV_COL_CHUNK: usize = 32 * PANEL;

/// Shift a [`EpiBias::PerCol`] epilogue to a column-chunk origin (a
/// per-row bias is chunk-invariant).
fn epi_col_offset<'a>(epi: Epilogue<'a>, c0: usize) -> Epilogue<'a> {
    match epi.bias {
        Some(EpiBias::PerCol(b)) => Epilogue {
            bias: Some(EpiBias::PerCol(&b[c0..])),
            relu: epi.relu,
        },
        _ => epi,
    }
}

/// Int8 GEMM driver: `m × kp` row-major i8 `a_data` times the
/// pair-interleaved panel-packed `b_data` (`n` columns), dequantized by
/// `scale` with `epi` fused into the store, written to the row-major
/// f32 `out`. Parallelism mirrors the f32 packed GEMM: `m == 1` routes
/// through the GEMV kernel over column chunks, otherwise rows split
/// into `ROW_BAND` bands — neither affects results (exact i32
/// accumulation, then an element-wise float epilogue).
#[allow(clippy::too_many_arguments)]
pub fn gemm_i8(
    a_data: &[i8],
    m: usize,
    kp: usize,
    n: usize,
    b_data: &[i8],
    out: &mut [f32],
    scale: f32,
    epi: Epilogue<'_>,
) -> TensorResult<()> {
    if out.len() < m * n {
        return Err(ShapeError::new(format!(
            "gemm_i8: out length {} < {m}x{n}",
            out.len()
        )));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    let path = kernels::selected();
    if m == 1 {
        let plen = kp * PANEL;
        out[..n]
            .par_chunks_mut(GEMV_COL_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let c0 = ci * GEMV_COL_CHUNK;
                let b_sub = &b_data[(c0 / PANEL) * plen..];
                ki8::gemv_i8_packed_with(
                    path,
                    &a_data[..kp],
                    chunk.len(),
                    b_sub,
                    chunk,
                    0,
                    scale,
                    epi_col_offset(epi, c0),
                );
            });
    } else {
        out[..m * n]
            .par_chunks_mut(ROW_BAND * n)
            .enumerate()
            .for_each(|(bi, band)| {
                ki8::gemm_i8_packed_band_with(
                    path,
                    a_data,
                    kp,
                    n,
                    b_data,
                    band,
                    bi * ROW_BAND,
                    scale,
                    epi,
                );
            });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    fn det_matrix(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((((r + seed) * 13 + c * 7) % 17) as f32 - 8.0) / 8.0
        })
    }

    #[test]
    fn scales_and_quantize_roundtrip() {
        assert_eq!(symmetric_scale(&[0.0, 0.0]), 1.0);
        assert_eq!(symmetric_scale(&[]), 1.0);
        let s = symmetric_scale(&[-2.54, 1.0]);
        assert!((s - 2.54 / 127.0).abs() < 1e-7);
        // The max-abs element maps exactly to ±127.
        assert_eq!(quantize_i8(-2.54, 1.0 / s), -127);
        // Percentile 100 == max-abs; lower percentiles clip.
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(percentile_scale(&vals, 100.0), symmetric_scale(&vals));
        assert!(percentile_scale(&vals, 50.0) < symmetric_scale(&vals));
        // Saturation beyond the clipped range.
        let inv = 1.0 / percentile_scale(&vals, 50.0);
        assert_eq!(quantize_i8(99.0, inv), 127);
        // NaN quantizes to zero, not UB.
        assert_eq!(quantize_i8(f32::NAN, 1.0), 0);
    }

    #[test]
    fn gemm_i8_approximates_f32_gemm() {
        for &(m, k, n) in &[(1usize, 40usize, 50usize), (13, 27, 19)] {
            let a = det_matrix(m, k, 1);
            let b = det_matrix(k, n, 2);
            let want = gemm(&a, &b).unwrap();
            let a_scale = symmetric_scale(a.as_slice());
            let qa = QuantizedA::quantize(a.as_slice(), m, k, a_scale);
            let qb = PackedBI8::pack(&b, symmetric_scale(b.as_slice()));
            let mut got = vec![0.0f32; m * n];
            gemm_i8(
                qa.data(),
                m,
                qa.kp(),
                n,
                qb.data(),
                &mut got,
                qa.scale() * qb.scale(),
                Epilogue::NONE,
            )
            .unwrap();
            // Quantization error per product is ~scale/2 each side;
            // k-term dot products stay within a loose relative bound.
            for (g, w) in got.iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 0.05 * (k as f32).sqrt(), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn quantized_csr_preserves_structure() {
        let mut m = det_matrix(6, 8, 3);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let csr = CsrMatrix::from_dense(&m, 0.0);
        let q = QuantizedCsr::from_csr(&csr, symmetric_scale(m.as_slice()));
        assert_eq!(q.rows(), 6);
        assert_eq!(q.cols(), 8);
        assert_eq!(q.nnz(), csr.nnz());
        // Quantizing the row bands one by one covers the same entries.
        let bands = csr.split_rows(3).unwrap();
        let top = QuantizedCsr::from_csr(&bands[0], q.scale());
        let bot = QuantizedCsr::from_csr(&bands[1], q.scale());
        assert_eq!(top.nnz() + bot.nnz(), q.nnz());
        assert_eq!(top.row(1), q.row(1));
        assert_eq!(bot.row(0), q.row(3));
    }
}
