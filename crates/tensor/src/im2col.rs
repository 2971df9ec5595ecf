//! im2col / col2im lowering for convolution-as-GEMM.
//!
//! Caffe implements convolution by unrolling input patches into a matrix
//! (`im2col`) and multiplying with the filter matrix. We follow the same
//! scheme: for an input image of shape `C×H×W` and a kernel `kh×kw` with
//! stride/pad, the column matrix has shape
//! `(C*kh*kw) × (out_h*out_w)`.

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::kernels::int8::{padded_depth, store_row_quad_with, QUAD};
use crate::kernels::{self, PANEL};

/// Output spatial size of a convolution/pooling window sweep.
///
/// Returns `(out_h, out_w)` for input `h×w`, kernel `kh×kw`, given pad and
/// stride; errors if the window never fits.
pub fn out_spatial(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
) -> TensorResult<(usize, usize)> {
    if stride == 0 {
        return Err(ShapeError::new("out_spatial: stride must be >= 1"));
    }
    if kh == 0 || kw == 0 {
        return Err(ShapeError::new("out_spatial: kernel dims must be >= 1"));
    }
    let h_eff = h + 2 * pad;
    let w_eff = w + 2 * pad;
    if h_eff < kh || w_eff < kw {
        return Err(ShapeError::new(format!(
            "out_spatial: kernel {}x{} larger than padded input {}x{}",
            kh, kw, h_eff, w_eff
        )));
    }
    Ok(((h_eff - kh) / stride + 1, (w_eff - kw) / stride + 1))
}

/// Unroll one image (`C×H×W`, flattened channel-major) into a column
/// matrix of shape `(c*kh*kw) × (out_h*out_w)`.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
) -> TensorResult<Matrix> {
    let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride)?;
    let mut cols = Matrix::zeros(c * kh * kw, out_h * out_w);
    im2col_prealloc(image, c, h, w, kh, kw, pad, stride, &mut cols)?;
    Ok(cols)
}

/// One lowering's geometry, validated once: the image is `c×h×w`, the
/// patch matrix `rows × n_out`. Patch row `(ci*kh + ky)*kw + kx` holds
/// tap `(ky, kx)` of channel `ci` for every output pixel `(oy, ox)`,
/// column `oy*out_w + ox`. All four lowerings (f32 or i8, row-major or
/// panel-packed) walk a patch row through [`Lowering::for_each_run`]
/// and differ only in where a run's columns are stored.
#[derive(Debug, Clone, Copy)]
struct Lowering {
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
    out_h: usize,
    out_w: usize,
    /// `c * kh * kw`.
    rows: usize,
    /// `out_h * out_w`.
    n_out: usize,
}

/// A patch row's tap: `(ci, ky, kx)`, row `(ci*kh + ky)*kw + kx`.
type Tap = (usize, usize, usize);

impl Lowering {
    #[allow(clippy::too_many_arguments)]
    fn new(
        what: &str,
        image_len: usize,
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        pad: usize,
        stride: usize,
    ) -> TensorResult<Self> {
        if image_len != c * h * w {
            return Err(ShapeError::new(format!(
                "{what}: image length {image_len} != {c}x{h}x{w}"
            )));
        }
        let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride)?;
        Ok(Self {
            h,
            w,
            kh,
            kw,
            pad,
            stride,
            out_h,
            out_w,
            rows: c * kh * kw,
            n_out: out_h * out_w,
        })
    }

    /// The tap `(ci, ky, kx)` of the patch row after `tap`'s: `kx`
    /// fastest, then `ky`, then the channel (no division per row).
    #[inline(always)]
    fn next_tap(&self, (ci, ky, kx): Tap) -> Tap {
        if kx + 1 < self.kw {
            (ci, ky, kx + 1)
        } else if ky + 1 < self.kh {
            (ci, ky + 1, 0)
        } else {
            (ci + 1, 0, 0)
        }
    }

    /// Decompose the patch row of tap `(ci, ky, kx)` into runs of
    /// output columns and call `emit(c0, c1, taps)` for each: columns
    /// `c0..c1` are zero padding when `taps` is `None`, else column
    /// `c0 + i` is `taps[i * stride]`.
    ///
    /// For a fixed `(ky, kx, oy)` the source index is affine in `ox`
    /// (`ix = ox*stride + kx - pad` on input row `iy`), so instead of a
    /// bounds branch per element the valid `ox` range is computed once
    /// per patch row and each output row is a zero run for each
    /// out-of-image margin plus one run of taps — a contiguous copy at
    /// stride 1, a strided gather otherwise. Lowering is pure data
    /// movement: this decides how fast values land, never which.
    #[inline(always)]
    fn for_each_run<'a, T>(
        &self,
        image: &'a [T],
        (ci, ky, kx): Tap,
        mut emit: impl FnMut(usize, usize, Option<&'a [T]>),
    ) {
        let Self {
            h,
            w,
            pad,
            stride,
            out_h,
            out_w,
            ..
        } = *self;
        let ch = &image[ci * h * w..(ci + 1) * h * w];
        // ox is valid iff 0 <= ox*stride + kx - pad < w:
        let ox_lo = if kx >= pad {
            0
        } else {
            (pad - kx).div_ceil(stride).min(out_w)
        };
        let ox_hi = if w + pad <= kx {
            0
        } else {
            ((w - 1 + pad - kx) / stride + 1).min(out_w)
        }
        .max(ox_lo);
        for oy in 0..out_h {
            let col0 = oy * out_w;
            let iy = (oy * stride + ky) as isize - pad as isize;
            if iy < 0 || (iy as usize) >= h {
                emit(col0, col0 + out_w, None);
                continue;
            }
            if ox_lo > 0 {
                emit(col0, col0 + ox_lo, None);
            }
            if ox_hi < out_w {
                emit(col0 + ox_hi, col0 + out_w, None);
            }
            if ox_lo < ox_hi {
                // First valid source index; >= 0 by choice of ox_lo.
                let base = iy as usize * w + ox_lo * stride + kx - pad;
                emit(col0 + ox_lo, col0 + ox_hi, Some(&ch[base..]));
            }
        }
    }

    /// Write the patch row of `tap` into the contiguous `line` (`n_out`
    /// long).
    #[inline(always)]
    fn lower_row<T: Copy + Default>(&self, image: &[T], tap: Tap, line: &mut [T]) {
        let stride = self.stride;
        self.for_each_run(image, tap, |c0, c1, taps| {
            let dst = &mut line[c0..c1];
            match taps {
                None => dst.fill(T::default()),
                Some(src) if stride == 1 => dst.copy_from_slice(&src[..dst.len()]),
                Some(src) => {
                    for (i, d) in dst.iter_mut().enumerate() {
                        *d = src[i * stride];
                    }
                }
            }
        });
    }

    /// The row-major lowering: patch row `r` is `cols[r*n_out..]`.
    /// Rows outermost for cache-friendly writes.
    fn lower_rows<T: Copy + Default>(&self, image: &[T], cols: &mut [T]) {
        let mut tap = (0, 0, 0);
        for line in cols.chunks_exact_mut(self.n_out) {
            self.lower_row(image, tap, line);
            tap = self.next_tap(tap);
        }
    }
}

/// `im2col` into a preallocated output matrix (shape-checked), avoiding
/// per-call allocation in batched inference loops.
#[allow(clippy::too_many_arguments)]
pub fn im2col_prealloc(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
    cols: &mut Matrix,
) -> TensorResult<()> {
    let lo = Lowering::new("im2col", image.len(), c, h, w, kh, kw, pad, stride)?;
    if cols.shape() != (lo.rows, lo.n_out) {
        return Err(ShapeError::new(format!(
            "im2col: cols shape {:?} != {:?}",
            cols.shape(),
            (lo.rows, lo.n_out)
        )));
    }
    lo.lower_rows(image, cols.as_mut_slice());
    Ok(())
}

/// [`im2col_prealloc`] over an already-quantized image: the row-major
/// `(c*kh*kw) × (out_h*out_w)` i8 patch matrix the int8 SpMM reads,
/// into `cols` (resized; every byte written). Lowering only moves
/// values and pads with zero, and zero quantizes to zero, so this is
/// byte for byte the quantized f32 patch matrix — from `c*h*w`
/// quantizations instead of one per patch element.
#[allow(clippy::too_many_arguments)]
pub fn im2col_i8_prealloc(
    image: &[i8],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
    cols: &mut Vec<i8>,
) -> TensorResult<()> {
    let lo = Lowering::new("im2col_i8", image.len(), c, h, w, kh, kw, pad, stride)?;
    cols.resize(lo.rows * lo.n_out, 0);
    lo.lower_rows(image, cols);
    Ok(())
}

/// Visit the packed-layout segments covering columns `[c0, c1)` of
/// logical row `row`: panel `p` stores its `k × PANEL` block at
/// `p*k*PANEL`, row-major, so a column range maps to at most one
/// contiguous lane run per panel. Calls `f(dst_start, len)` per run.
#[inline]
fn packed_row_segments(
    c0: usize,
    c1: usize,
    k: usize,
    row: usize,
    mut f: impl FnMut(usize, usize),
) {
    let mut c = c0;
    while c < c1 {
        let lane = c % PANEL;
        let take = (PANEL - lane).min(c1 - c);
        f((c / PANEL) * k * PANEL + row * PANEL + lane, take);
        c += take;
    }
}

/// `im2col` straight into the GEMM's panel-packed `B` layout, fusing the
/// unroll and the pack into one write pass.
///
/// Produces bit-for-bit the buffer `PackedB::pack(&im2col(..))` would:
/// `out_h*out_w` columns in `PANEL`-column panels, each panel stored
/// `(c*kh*kw) × PANEL` row-major, tail lanes zero. The separate pack is a
/// full read + write of the column matrix per convolution per forward;
/// emitting packed layout directly deletes that round-trip, which is pure
/// memory bandwidth at batch 1. Every lane of `packed` is written (valid
/// taps, zero margins, zero tail), so no stale scratch survives reuse.
#[allow(clippy::too_many_arguments)]
pub fn im2col_packed_prealloc(
    image: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
    packed: &mut Matrix,
) -> TensorResult<()> {
    let lo = Lowering::new("im2col_packed", image.len(), c, h, w, kh, kw, pad, stride)?;
    let (k_rows, n_out) = (lo.rows, lo.n_out);
    let panels = n_out.div_ceil(PANEL);
    packed.resize(panels.max(1), k_rows * PANEL);
    let data = packed.as_mut_slice();
    let mut tap = (0, 0, 0);
    for row in 0..k_rows {
        // Zero the packed tail lanes past the last real column.
        packed_row_segments(n_out, panels * PANEL, k_rows, row, |s, l| {
            data[s..s + l].fill(0.0)
        });
        // Same runs as the row-major lowering; only the write
        // addressing differs (panel segments instead of one line).
        lo.for_each_run(image, tap, |c0, c1, taps| match taps {
            None => packed_row_segments(c0, c1, k_rows, row, |s, l| data[s..s + l].fill(0.0)),
            Some(src) if stride == 1 => {
                let mut off = 0;
                packed_row_segments(c0, c1, k_rows, row, |s, l| {
                    data[s..s + l].copy_from_slice(&src[off..off + l]);
                    off += l;
                });
            }
            Some(src) => {
                let mut idx = 0;
                packed_row_segments(c0, c1, k_rows, row, |s, l| {
                    for d in 0..l {
                        data[s + d] = src[(idx + d) * stride];
                    }
                    idx += l;
                });
            }
        });
        tap = lo.next_tap(tap);
    }
    Ok(())
}

/// The int8 convolution's lowering: an already-quantized image straight
/// into the quad-interleaved i8 panel layout [`crate::gemm_i8`]
/// multiplies — byte for byte what [`crate::pack_b_i8_into`] makes of
/// the f32 patch matrix of the unquantized image (lowering only moves
/// values and pads with zero, and zero quantizes to zero). Returns the
/// padded panel depth `kp`.
///
/// Four patch rows at a time are lowered into `lines` (four rows of
/// whole panels, tail lanes zero) and stored as one depth quad, so
/// every byte of `packed` — pad rows past the depth, panel tail lanes
/// and zero margins included — is written and neither buffer needs
/// clearing.
#[allow(clippy::too_many_arguments)]
pub fn im2col_i8_packed_prealloc(
    image: &[i8],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
    lines: &mut Vec<i8>,
    packed: &mut Vec<i8>,
) -> TensorResult<usize> {
    let lo = Lowering::new(
        "im2col_i8_packed",
        image.len(),
        c,
        h,
        w,
        kh,
        kw,
        pad,
        stride,
    )?;
    let (k_rows, n_out) = (lo.rows, lo.n_out);
    let kp = padded_depth(k_rows);
    let lanes = n_out.next_multiple_of(PANEL);
    packed.resize(lanes * kp, 0);
    lines.resize(QUAD * lanes, 0);
    let path = kernels::selected();
    let mut tap = (0, 0, 0);
    for q in 0..kp / QUAD {
        for (i, line) in lines.chunks_exact_mut(lanes).enumerate() {
            if QUAD * q + i < k_rows {
                lo.lower_row(image, tap, &mut line[..n_out]);
                line[n_out..].fill(0);
                tap = lo.next_tap(tap);
            } else {
                // A pad row past the depth.
                line.fill(0);
            }
        }
        let rows = std::array::from_fn(|i| &lines[i * lanes..(i + 1) * lanes]);
        store_row_quad_with(path, rows, q, kp, packed);
    }
    Ok(kp)
}

/// Fold a column matrix back into an image, **accumulating** overlapping
/// contributions (the adjoint of `im2col`, used by the conv backward pass).
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &Matrix,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    stride: usize,
) -> TensorResult<Vec<f32>> {
    let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride)?;
    if cols.shape() != (c * kh * kw, out_h * out_w) {
        return Err(ShapeError::new(format!(
            "col2im: cols shape {:?} != {:?}",
            cols.shape(),
            (c * kh * kw, out_h * out_w)
        )));
    }
    let mut image = vec![0.0_f32; c * h * w];
    let n_out = out_h * out_w;
    let data = cols.as_slice();
    for ci in 0..c {
        let ch = &mut image[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ci * kh + ky) * kw + kx;
                let col_row = &data[row * n_out..(row + 1) * n_out];
                for oy in 0..out_h {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..out_w {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        ch[iy as usize * w + ix as usize] += col_row[oy * out_w + ox];
                    }
                }
            }
        }
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn out_spatial_basic() {
        // Caffenet conv1: 224x224, k=11, pad=0 (per Figure 1, stride 4 -> 55 needs pad?).
        // AlexNet canonical: 227x227 k11 s4 p0 -> 55. With 224 input, pad 2: (224+4-11)/4+1 = 55.
        assert_eq!(out_spatial(227, 227, 11, 11, 0, 4).unwrap(), (55, 55));
        assert_eq!(out_spatial(224, 224, 11, 11, 2, 4).unwrap(), (55, 55));
        assert_eq!(out_spatial(5, 5, 3, 3, 1, 1).unwrap(), (5, 5));
    }

    #[test]
    fn out_spatial_rejects_degenerate() {
        assert!(out_spatial(5, 5, 3, 3, 0, 0).is_err());
        assert!(out_spatial(2, 2, 3, 3, 0, 1).is_err());
        assert!(out_spatial(5, 5, 0, 3, 0, 1).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: cols == image reshaped.
        let image: Vec<f32> = (0..2 * 3 * 3).map(|i| i as f32).collect();
        let cols = im2col(&image, 2, 3, 3, 1, 1, 0, 1).unwrap();
        assert_eq!(cols.shape(), (2, 9));
        assert_eq!(cols.as_slice(), image.as_slice());
    }

    #[test]
    fn im2col_known_3x3() {
        // Single channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 cols.
        let image = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let cols = im2col(&image, 1, 3, 3, 2, 2, 0, 1).unwrap();
        assert_eq!(cols.shape(), (4, 4));
        // Patch at (0,0): [1,2,4,5]; (0,1): [2,3,5,6]; (1,0): [4,5,7,8]; (1,1): [5,6,8,9].
        // Row = kernel position, column = patch.
        assert_eq!(cols.row(0), &[1.0, 2.0, 4.0, 5.0]); // top-left of each patch
        assert_eq!(cols.row(1), &[2.0, 3.0, 5.0, 6.0]); // top-right
        assert_eq!(cols.row(2), &[4.0, 5.0, 7.0, 8.0]); // bottom-left
        assert_eq!(cols.row(3), &[5.0, 6.0, 8.0, 9.0]); // bottom-right
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let image = vec![1.0; 4]; // 1x2x2
        let cols = im2col(&image, 1, 2, 2, 3, 3, 1, 1).unwrap();
        assert_eq!(cols.shape(), (9, 4));
        // Center kernel tap (ky=1,kx=1) always lands inside -> all ones.
        assert_eq!(cols.row(4), &[1.0, 1.0, 1.0, 1.0]);
        // Top-left tap only valid for bottom-right output.
        assert_eq!(cols.row(0), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn im2col_rejects_bad_image_len() {
        assert!(im2col(&[0.0; 5], 1, 2, 3, 1, 1, 0, 1).is_err());
    }

    #[test]
    fn col2im_adjoint_counts_overlaps() {
        // ones image; im2col then col2im counts how many patches each pixel is in.
        let image = vec![1.0; 9];
        let cols = im2col(&image, 1, 3, 3, 2, 2, 0, 1).unwrap();
        let back = col2im(&cols, 1, 3, 3, 2, 2, 0, 1).unwrap();
        // Corner pixels appear in 1 patch, edges in 2, center in 4.
        assert_eq!(back, vec![1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]);
    }

    /// The straightforward per-element im2col the fast-path run
    /// decomposition must reproduce exactly.
    #[allow(clippy::too_many_arguments)]
    fn im2col_reference(
        image: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        pad: usize,
        stride: usize,
    ) -> Matrix {
        let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride).unwrap();
        Matrix::from_fn(c * kh * kw, out_h * out_w, |row, col| {
            let (ci, rem) = (row / (kh * kw), row % (kh * kw));
            let (ky, kx) = (rem / kw, rem % kw);
            let (oy, ox) = (col / out_w, col % out_w);
            let iy = (oy * stride + ky) as isize - pad as isize;
            let ix = (ox * stride + kx) as isize - pad as isize;
            if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                image[ci * h * w + iy as usize * w + ix as usize]
            } else {
                0.0
            }
        })
    }

    proptest! {
        /// <x, im2col(y)> == <col2im(x), y> — adjointness of the pair,
        /// checked via the count matrix trick on random shapes.
        #[test]
        fn prop_im2col_shape(c in 1usize..4, h in 3usize..8, w in 3usize..8,
                             k in 1usize..4, pad in 0usize..2, stride in 1usize..3) {
            let image = vec![0.5; c * h * w];
            if let Ok((oh, ow)) = out_spatial(h, w, k, k, pad, stride) {
                let cols = im2col(&image, c, h, w, k, k, pad, stride).unwrap();
                prop_assert_eq!(cols.shape(), (c * k * k, oh * ow));
                let back = col2im(&cols, c, h, w, k, k, pad, stride).unwrap();
                prop_assert_eq!(back.len(), image.len());
            }
        }

        /// The run-decomposed fast path (margin zero-fill + contiguous
        /// copy / strided gather) is element-for-element identical to
        /// the per-element reference on arbitrary geometry, ragged
        /// kernels (kh != kw) and pads that exceed the kernel offset.
        #[test]
        fn prop_im2col_matches_reference(
            c in 1usize..4, h in 1usize..10, w in 1usize..10,
            kh in 1usize..5, kw in 1usize..5,
            pad in 0usize..3, stride in 1usize..4,
            seed in 0u64..1000,
        ) {
            prop_assume!(out_spatial(h, w, kh, kw, pad, stride).is_ok());
            let image: Vec<f32> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 100.0 - 5.0)
                .collect();
            let fast = im2col(&image, c, h, w, kh, kw, pad, stride).unwrap();
            let slow = im2col_reference(&image, c, h, w, kh, kw, pad, stride);
            prop_assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// The fused unroll+pack emits bit-for-bit the buffer the
        /// two-pass `im2col` → `PackedB::pack` pipeline produces,
        /// including zero margins and zero panel-tail lanes — even when
        /// the scratch matrix starts full of stale garbage.
        #[test]
        fn prop_im2col_packed_matches_two_pass(
            c in 1usize..4, h in 1usize..10, w in 1usize..10,
            kh in 1usize..5, kw in 1usize..5,
            pad in 0usize..3, stride in 1usize..4,
            seed in 0u64..1000,
        ) {
            prop_assume!(out_spatial(h, w, kh, kw, pad, stride).is_ok());
            let image: Vec<f32> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 100.0 - 5.0)
                .collect();
            let cols = im2col(&image, c, h, w, kh, kw, pad, stride).unwrap();
            let two_pass = crate::gemm::PackedB::pack(&cols);
            // Poison the fused-path scratch to prove every lane is written.
            let mut fused = Matrix::from_fn(3, 7, |_, _| f32::NAN);
            im2col_packed_prealloc(&image, c, h, w, kh, kw, pad, stride, &mut fused).unwrap();
            prop_assert_eq!(fused.len(), two_pass.as_slice().len());
            for (x, y) in fused.as_slice().iter().zip(two_pass.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Quantize-then-lower is byte for byte lower-then-quantize, for
        /// both i8 layouts: the i8 lowerings of the quantized image
        /// against the f32 patch matrix quantized element by element
        /// into each layout's definition (and, for the packed one, the
        /// f32 packer too). The
        /// scale clips part of the range, and every scratch buffer
        /// starts oversized and poisoned, so an unwritten byte (pad row
        /// past the depth, panel tail lane, zero margin) would show.
        #[test]
        fn prop_i8_lowerings_match_quantized_f32_lowering(
            c in 1usize..4, h in 1usize..10, w in 1usize..10,
            kh in 1usize..5, kw in 1usize..5,
            pad in 0usize..3, stride in 1usize..5,
            seed in 0u64..1000,
        ) {
            prop_assume!(out_spatial(h, w, kh, kw, pad, stride).is_ok());
            let image: Vec<f32> = (0..c * h * w)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 100.0 - 5.0)
                .collect();
            let inv_scale = 127.0 / 4.0;
            let cols = im2col(&image, c, h, w, kh, kw, pad, stride).unwrap();
            let (k, n) = cols.shape();
            let q_image: Vec<i8> = image.iter().map(|&v| crate::quantize_i8(v, inv_scale)).collect();

            // The quad layout from its definition: row `r`, column `c`
            // of the patch matrix at `(r/4)*4*PANEL + 4*(c%PANEL) + r%4`
            // of panel `c/PANEL`; everything else zero.
            let kp = k.next_multiple_of(4);
            let mut want = vec![0i8; n.div_ceil(PANEL) * kp * PANEL];
            for r in 0..k {
                for col in 0..n {
                    let at = (col / PANEL) * kp * PANEL + (r / 4) * 4 * PANEL + 4 * (col % PANEL) + r % 4;
                    want[at] = crate::quantize_i8(cols.get(r, col), inv_scale);
                }
            }
            let mut via_f32 = vec![77i8; 2 * want.len() + 9];
            prop_assert_eq!(crate::pack_b_i8_into(cols.as_slice(), k, n, inv_scale, &mut via_f32), kp);
            prop_assert_eq!(&via_f32, &want);
            let (mut lines, mut packed) = (vec![77i8; 64], vec![77i8; 4 * want.len() + 5]);
            let got_kp = im2col_i8_packed_prealloc(
                &q_image, c, h, w, kh, kw, pad, stride, &mut lines, &mut packed,
            ).unwrap();
            prop_assert_eq!(got_kp, kp);
            prop_assert_eq!(&packed, &want);

            let want: Vec<i8> = cols.as_slice().iter().map(|&v| crate::quantize_i8(v, inv_scale)).collect();
            let mut rows = vec![77i8; 2 * want.len() + 3];
            im2col_i8_prealloc(&q_image, c, h, w, kh, kw, pad, stride, &mut rows).unwrap();
            prop_assert_eq!(&rows, &want);
        }
    }
}
