//! Symmetric int8 quantization: scales, packed quantized operands, and
//! the GEMM driver over the [`crate::kernels::int8`] microkernels (the
//! convolution driver, [`crate::conv2d`], takes the quantized operands
//! built here as its [`crate::ConvWeights::DenseI8`] form).
//!
//! # Quantization contract
//!
//! Everything here is **symmetric per-tensor** int8: a tensor `x` with
//! scale `s` maps to `q = clamp(round(x / s), -127, 127)` ([`quantize_i8`];
//! `round` is Rust's half-away-from-zero, NaN maps to 0) and back to
//! `x ≈ q · s`. The range is `±127`, not `-128`, so negation stays
//! closed (the integer kernels are exact for a raw `-128` all the
//! same). Scales come from [`symmetric_scale`] (max-abs) or
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
use crate::kernels::{self, int8 as ki8, Epilogue, PANEL};

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

pub use crate::kernels::int8::quantize_i8;

/// Bytes an int8 operand's storage is aligned to: one cache line, so
/// the AMX tile loads of a packed `B` never split a line.
pub const I8_ALIGN: usize = 64;

/// Storage an int8 producer resizes and then writes completely: a
/// plain `Vec<i8>`, or an [`AlignedI8`] whose bytes start on a cache
/// line. The bytes after a resize are unspecified until written.
pub trait I8Storage {
    /// Resize to `len` bytes, reusing capacity, and lend them out.
    fn resize_for_overwrite(&mut self, len: usize) -> &mut [i8];
}

impl I8Storage for Vec<i8> {
    fn resize_for_overwrite(&mut self, len: usize) -> &mut [i8] {
        self.resize(len, 0);
        self
    }
}

/// An `i8` buffer whose contents start on an [`I8_ALIGN`]-byte
/// boundary, in safe code: the vector is over-allocated by
/// `I8_ALIGN - 1` bytes and the contents start at the first aligned
/// byte of it. A large `Vec<i8>` usually lands 16 bytes off a cache
/// line, where the AMX tile kernel loads `B` 10–12 % slower.
#[derive(Debug, Clone, Default)]
pub struct AlignedI8 {
    buf: Vec<i8>,
    start: usize,
    len: usize,
}

impl AlignedI8 {
    /// The contents: `len` bytes from an aligned address.
    pub fn as_slice(&self) -> &[i8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Length of the contents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the contents are empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes retained, the alignment slack included.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl I8Storage for AlignedI8 {
    fn resize_for_overwrite(&mut self, len: usize) -> &mut [i8] {
        self.buf.resize(len + I8_ALIGN - 1, 0);
        // `align_offset` may decline (usize::MAX); the contents then
        // start unaligned, which costs speed, never correctness.
        let start = self.buf.as_ptr().align_offset(I8_ALIGN);
        self.start = if start < I8_ALIGN { start } else { 0 };
        self.len = len;
        &mut self.buf[self.start..self.start + len]
    }
}

/// Quantize a row-major `rows × k` f32 slice into row-major i8 with
/// the row stride `kp` the int8 kernels require ([`ki8::padded_depth`];
/// pad bytes zero), reusing `out`'s capacity. Returns `kp`.
pub fn quantize_rows_into(
    src: &[f32],
    rows: usize,
    k: usize,
    inv_scale: f32,
    out: &mut impl I8Storage,
) -> usize {
    assert!(src.len() >= rows * k, "quantize_rows_into: src too short");
    let kp = ki8::padded_depth(k);
    // Every byte is written below, so stale contents need no clearing.
    let out = out.resize_for_overwrite(rows * kp);
    let path = kernels::selected();
    // (`max(1)`: a zero depth leaves `out` empty and the loop idle.)
    for (row, dst) in src
        .chunks_exact(k.max(1))
        .zip(out.chunks_exact_mut(kp.max(1)))
    {
        ki8::quantize_slice_with(path, row, inv_scale, &mut dst[..k]);
        dst[k..].fill(0);
    }
    kp
}

/// Columns [`pack_b_i8_into`] quantizes per pass: four stack-resident
/// patch rows of this many i8 (whole panels).
const PACK_COLS: usize = 64 * PANEL;

/// Quantize a row-major `k × n` f32 slice straight into the
/// quad-interleaved i8 panel layout of [`crate::kernels::int8`]
/// (`n.div_ceil(PANEL)` panels of `kp × PANEL`; tail columns and the
/// pad rows past `k` zero-filled), reusing `out`'s capacity. Returns
/// `kp`. This is the int8 analogue of [`crate::PackedB::pack`] with the
/// quantize folded into the single write pass: per block of `PACK_COLS`
/// columns, four rows at a time go through the slice quantizer and out
/// as one depth quad.
pub fn pack_b_i8_into(
    src: &[f32],
    k: usize,
    n: usize,
    inv_scale: f32,
    out: &mut impl I8Storage,
) -> usize {
    assert!(src.len() >= k * n, "pack_b_i8_into: src too short");
    let kp = ki8::padded_depth(k);
    let plen = kp * PANEL;
    // Every byte is written below, so stale contents need no clearing.
    let out = out.resize_for_overwrite(n.div_ceil(PANEL) * plen);
    let path = kernels::selected();
    let mut lines = [[0i8; PACK_COLS]; ki8::QUAD];
    for c0 in (0..n).step_by(PACK_COLS) {
        let width = PACK_COLS.min(n - c0);
        let lanes = width.next_multiple_of(PANEL);
        let dst = &mut out[c0 / PANEL * plen..];
        for q in 0..kp / ki8::QUAD {
            for (i, line) in lines.iter_mut().enumerate() {
                let r = ki8::QUAD * q + i;
                if r < k {
                    let row = &src[r * n + c0..r * n + c0 + width];
                    ki8::quantize_slice_with(path, row, inv_scale, &mut line[..width]);
                    // Tail lanes of the last panel, past column `n`.
                    line[width..lanes].fill(0);
                } else {
                    // A pad row past the depth.
                    line[..lanes].fill(0);
                }
            }
            let rows = lines.each_ref().map(|line| &line[..lanes]);
            ki8::store_row_quad_with(path, rows, q, kp, dst);
        }
    }
    kp
}

/// A quantized row-major left operand (weights, or batched
/// activations): i8 rows with the padded stride `kp`, plus the scale
/// that dequantizes them.
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

    /// Padded row stride ([`ki8::padded_depth`] of `k`).
    pub fn kp(&self) -> usize {
        self.kp
    }

    /// Dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }
}

/// A quantized panel-packed right operand — the int8 analogue of
/// [`crate::PackedB`], in the quad-interleaved layout of
/// [`crate::kernels::int8`]. Built once per weight matrix (FC `Wᵀ`,
/// [`PackedBI8::pack_transposed`]); a convolution's activations reach
/// the same layout through [`crate::Lowering::quads_into`].
#[derive(Debug, Clone)]
pub struct PackedBI8 {
    data: AlignedI8,
    k: usize,
    kp: usize,
    n: usize,
    scale: f32,
}

impl PackedBI8 {
    /// Quantize and pack a `k × n` matrix with `scale`.
    pub fn pack(b: &Matrix, scale: f32) -> Self {
        let (k, n) = b.shape();
        let mut data = AlignedI8::default();
        let kp = pack_b_i8_into(b.as_slice(), k, n, 1.0 / scale, &mut data);
        Self {
            data,
            k,
            kp,
            n,
            scale,
        }
    }

    /// Quantize and pack `wᵀ`, reading `w` (`n × k`) in place: byte for
    /// byte `pack` of the transpose with `scale`, without materialising
    /// it. Panel `p` is rows `p*PANEL..` of `w`: each row goes through
    /// the slice quantizer, then depth quad `q` of column `j` is the
    /// four adjacent bytes `4q .. 4q + 4` of quantized row `j`.
    pub fn pack_transposed(w: &Matrix, scale: f32) -> Self {
        const QUAD: usize = ki8::QUAD;
        let (n, k) = w.shape();
        let kp = ki8::padded_depth(k);
        let path = kernels::selected();
        // Zeroed once: the pad bytes of each row and, in the last
        // panel, the rows past `n` are never written.
        let mut data = AlignedI8::default();
        let panels = data.resize_for_overwrite(n.div_ceil(PANEL) * kp * PANEL);
        panels.fill(0);
        let mut rows = vec![0i8; PANEL * kp];
        for (p, panel) in panels.chunks_exact_mut((kp * PANEL).max(1)).enumerate() {
            let width = PANEL.min(n - p * PANEL);
            for (j, q) in rows.chunks_exact_mut(kp.max(1)).take(width).enumerate() {
                let row = w.row(p * PANEL + j);
                ki8::quantize_slice_with(path, row, 1.0 / scale, &mut q[..k]);
            }
            for (q, quad) in panel.chunks_exact_mut(QUAD * PANEL).enumerate() {
                for j in 0..width {
                    quad[QUAD * j..QUAD * (j + 1)]
                        .copy_from_slice(&rows[j * kp + QUAD * q..][..QUAD]);
                }
            }
        }
        Self {
            data,
            k,
            kp,
            n,
            scale,
        }
    }

    /// Packed panels as a flat slice, starting on an [`I8_ALIGN`]-byte
    /// boundary.
    pub fn data(&self) -> &[i8] {
        self.data.as_slice()
    }

    /// Logical depth (pre-padding).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Padded panel depth ([`ki8::padded_depth`] of `k`).
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

/// Int8 GEMM driver: `m × kp` row-major i8 `a_data` times the
/// quad-interleaved panel-packed `b_data` (`n` columns), dequantized by
/// `scale` with `epi` fused into the store, written to the row-major
/// f32 `out`. `m == 1` is one call of the GEMV kernel, otherwise one
/// band call over all `m` rows, which each kernel walks in its own
/// sub-bands — neither affects results (exact i32 accumulation, then
/// an element-wise float epilogue) — and neither does the integer
/// kernel, [`ki8::selected`]. Operand lengths, the
/// depth (`kp` a multiple of four, at most [`ki8::MAX_K_I8`]) and the
/// epilogue's bias are validated once, before the first store.
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
    if !kp.is_multiple_of(ki8::QUAD) || kp > ki8::MAX_K_I8 {
        return Err(ShapeError::new(format!(
            "gemm_i8: depth {kp} must be a multiple of {} and at most {}",
            ki8::QUAD,
            ki8::MAX_K_I8
        )));
    }
    if a_data.len() < m * kp {
        return Err(ShapeError::new(format!(
            "gemm_i8: A length {} < {m}x{kp}",
            a_data.len()
        )));
    }
    if b_data.len() < n.div_ceil(PANEL) * kp * PANEL {
        return Err(ShapeError::new(format!(
            "gemm_i8: packed B length {} < {} panels of {kp}x{PANEL}",
            b_data.len(),
            n.div_ceil(PANEL)
        )));
    }
    // Everything the kernels assert per band is checked here first, so
    // bad operands or a short bias fail with `out` untouched — not
    // after earlier bands were stored.
    epi.check(m, n);
    if m == 0 || n == 0 {
        return Ok(());
    }
    let kernel = ki8::selected();
    if m == 1 {
        ki8::gemv_i8_packed_with(
            kernel,
            &a_data[..kp],
            n,
            b_data,
            &mut out[..n],
            0,
            scale,
            epi,
        );
    } else {
        let out = &mut out[..m * n];
        ki8::gemm_i8_packed_band_with(kernel, a_data, kp, n, b_data, out, 0, scale, epi);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::kernels::EpiBias;

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

    /// The quad-interleaved layout written from its definition, one
    /// scalar `quantize_i8` per element: shares nothing with the
    /// blocked, vectorized packers it checks.
    fn pack_reference(b: &Matrix, inv_scale: f32) -> Vec<i8> {
        let (k, n) = b.shape();
        let kp = k.next_multiple_of(4);
        let mut out = vec![0i8; n.div_ceil(PANEL) * kp * PANEL];
        for r in 0..k {
            for c in 0..n {
                let (p, j) = (c / PANEL, c % PANEL);
                out[p * kp * PANEL + (r / 4) * 4 * PANEL + 4 * j + (r % 4)] =
                    quantize_i8(b.get(r, c), inv_scale);
            }
        }
        out
    }

    /// Every byte is written — pad rows past `k`, tail lanes and all —
    /// so a poisoned, oversized `out` leaves no trace. The depths cover
    /// every `k % 4`; `n` = 1031 spans three column blocks with a
    /// ragged last panel.
    #[test]
    fn quantizers_overwrite_stale_scratch_and_match_the_definition() {
        let shapes = [
            (1usize, 1usize),
            (5, 13),
            (6, 16),
            (7, 1031),
            (2, 512),
            (8, 9),
        ];
        for &(k, n) in &shapes {
            let b = det_matrix(k, n, 4);
            let inv = 1.0 / symmetric_scale(b.as_slice());
            let mut out = vec![77i8; 3 * (k + 3) * (n + 8)];
            let kp = pack_b_i8_into(b.as_slice(), k, n, inv, &mut out);
            assert_eq!(kp, k.next_multiple_of(4));
            assert_eq!(out, pack_reference(&b, inv), "pack {k}x{n}");

            // The same matrix as `n`-long rows of an A operand.
            let mut rows = vec![77i8; 3 * (k + 3) * (n + 8)];
            let np = quantize_rows_into(b.as_slice(), k, n, inv, &mut rows);
            assert_eq!((np, rows.len()), (n.next_multiple_of(4), k * np));
            for r in 0..k {
                for c in 0..np {
                    let want = if c < n {
                        quantize_i8(b.get(r, c), inv)
                    } else {
                        0
                    };
                    assert_eq!(rows[r * np + c], want, "rows {k}x{n} at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn pack_transposed_is_bytewise_pack_of_the_transpose() {
        // (out, in) = (n, k): every k % 4, n off the panel, a lone row,
        // and a whole number of panels.
        for &(n, k) in &[(13usize, 7usize), (8, 6), (1, 1), (17, 64), (24, 9)] {
            let w = det_matrix(n, k, 5);
            let scale = symmetric_scale(w.as_slice());
            let direct = PackedBI8::pack_transposed(&w, scale);
            let via_transpose = PackedBI8::pack(&w.transpose(), scale);
            assert_eq!(direct.data(), via_transpose.data(), "W {n}x{k}");
            assert_eq!(
                direct.data(),
                pack_reference(&w.transpose(), 1.0 / scale),
                "W {n}x{k}"
            );
            assert_eq!(
                (direct.k(), direct.kp(), direct.n(), direct.scale()),
                (k, via_transpose.kp(), n, scale)
            );
        }
    }

    /// Bad operands are refused at entry, with `out` untouched: 60 rows
    /// (two row bands) and 300 columns (38 panels for the GEMV walk) put
    /// the first store of either route ahead of the kernel-level assert
    /// that would otherwise catch each of these.
    #[test]
    fn gemm_i8_validates_operands_before_any_store() {
        let (k, n) = (8usize, 300usize);
        let qb = PackedBI8::pack(&det_matrix(k, n, 2), 0.01);
        for m in [1usize, 60] {
            let qa = QuantizedA::quantize(det_matrix(m, k, 1).as_slice(), m, k, 0.01);
            let mut out = vec![f32::NAN; m * n];
            let mut refused = |a: &[i8], kp: usize, b: &[i8]| {
                let r = gemm_i8(a, m, kp, n, b, &mut out, 1.0, Epilogue::NONE);
                assert!(out.iter().all(|v| v.is_nan()), "m={m}: out was written");
                r.expect_err("bad operand accepted").to_string()
            };
            let (a, b) = (qa.data(), qb.data());
            assert!(refused(&a[..a.len() - 1], k, b).contains("A length"));
            assert!(refused(a, k, &b[..b.len() - 1]).contains("packed B length"));
            // A depth off the quad — even included: a `B` packed for
            // the pair layout this replaced must not multiply.
            for off in 1..4 {
                assert!(refused(a, k - off, b).contains("multiple of 4"));
            }
            let deep = ki8::MAX_K_I8 + 4;
            assert!(refused(a, deep, b).contains("at most"));
            // ... and a good call still goes through.
            gemm_i8(a, m, k, n, b, &mut out, 1.0, Epilogue::NONE).unwrap();
            assert!(!out.iter().any(|v| v.is_nan()));
        }
    }

    #[test]
    fn gemm_i8_short_bias_panics_before_any_store() {
        let (k, n) = (8usize, 300usize);
        let qb = PackedBI8::pack(&det_matrix(k, n, 2), 0.01);
        // Per row: covers the first row band only. Per column: covers
        // the first 290 of 300 columns.
        let bias = vec![0.5f32; 290];
        for (m, bias) in [
            (60usize, EpiBias::PerRow(&bias[..49])),
            (1, EpiBias::PerCol(&bias)),
        ] {
            let qa = QuantizedA::quantize(det_matrix(m, k, 1).as_slice(), m, k, 0.01);
            let mut out = vec![f32::NAN; m * n];
            let epi = Epilogue {
                bias: Some(bias),
                relu: true,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gemm_i8(qa.data(), m, k, n, qb.data(), &mut out, 1.0, epi)
            }));
            assert!(outcome.is_err(), "m={m}: a short bias must panic");
            assert!(out.iter().all(|v| v.is_nan()), "m={m}: out was written");
        }
    }
}
