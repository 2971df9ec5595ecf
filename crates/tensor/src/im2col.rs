//! im2col / col2im lowering for convolution-as-GEMM.
//!
//! Caffe implements convolution by unrolling input patches into a matrix
//! (`im2col`) and multiplying with the filter matrix. We follow the same
//! scheme: for an input image of shape `C×H×W` and a kernel `kh×kw` with
//! stride/pad, the column matrix has shape
//! `(C*kh*kw) × (out_h*out_w)`.

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::kernels::PANEL;

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
    if image.len() != c * h * w {
        return Err(ShapeError::new(format!(
            "im2col: image length {} != {}x{}x{}",
            image.len(),
            c,
            h,
            w
        )));
    }
    let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride)?;
    if cols.shape() != (c * kh * kw, out_h * out_w) {
        return Err(ShapeError::new(format!(
            "im2col: cols shape {:?} != {:?}",
            cols.shape(),
            (c * kh * kw, out_h * out_w)
        )));
    }
    let n_out = out_h * out_w;
    let data = cols.as_mut_slice();
    // Row index of `cols` enumerates (channel, ky, kx); column enumerates
    // (oy, ox). We walk rows outermost for cache-friendly writes.
    //
    // For a fixed (ky, kx, oy) the source index is affine in ox
    // (`ix = ox*stride + kx - pad` on input row `iy`), so instead of a
    // bounds branch per element the valid `ox` range is computed once
    // per output row and the body is a zero-fill of the out-of-image
    // margins plus one contiguous `copy_from_slice` (stride 1) or a
    // branchless strided gather. im2col is pure data movement — this
    // changes nothing about which values land where, only how fast.
    for ci in 0..c {
        let ch = &image[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ci * kh + ky) * kw + kx;
                let out_row = &mut data[row * n_out..(row + 1) * n_out];
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
                    let dst = &mut out_row[oy * out_w..(oy + 1) * out_w];
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || (iy as usize) >= h {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &ch[iy as usize * w..(iy as usize + 1) * w];
                    dst[..ox_lo].fill(0.0);
                    dst[ox_hi..].fill(0.0);
                    // First valid source index; >= 0 by choice of ox_lo.
                    let base = ox_lo * stride + kx - pad;
                    if stride == 1 {
                        dst[ox_lo..ox_hi].copy_from_slice(&src_row[base..base + (ox_hi - ox_lo)]);
                    } else {
                        for (i, d) in dst[ox_lo..ox_hi].iter_mut().enumerate() {
                            *d = src_row[base + i * stride];
                        }
                    }
                }
            }
        }
    }
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
    if image.len() != c * h * w {
        return Err(ShapeError::new(format!(
            "im2col_packed: image length {} != {}x{}x{}",
            image.len(),
            c,
            h,
            w
        )));
    }
    let (out_h, out_w) = out_spatial(h, w, kh, kw, pad, stride)?;
    let n_out = out_h * out_w;
    let k_rows = c * kh * kw;
    let panels = n_out.div_ceil(PANEL);
    packed.resize(panels.max(1), k_rows * PANEL);
    if k_rows == 0 {
        return Ok(());
    }
    let data = packed.as_mut_slice();
    // Same row/run decomposition as `im2col_prealloc`; only the write
    // addressing differs (panel segments instead of one contiguous row).
    for ci in 0..c {
        let ch = &image[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ci * kh + ky) * kw + kx;
                // Zero the packed tail lanes past the last real column.
                packed_row_segments(n_out, panels * PANEL, k_rows, row, |s, l| {
                    data[s..s + l].fill(0.0)
                });
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
                        packed_row_segments(col0, col0 + out_w, k_rows, row, |s, l| {
                            data[s..s + l].fill(0.0)
                        });
                        continue;
                    }
                    let src_row = &ch[iy as usize * w..(iy as usize + 1) * w];
                    packed_row_segments(col0, col0 + ox_lo, k_rows, row, |s, l| {
                        data[s..s + l].fill(0.0)
                    });
                    packed_row_segments(col0 + ox_hi, col0 + out_w, k_rows, row, |s, l| {
                        data[s..s + l].fill(0.0)
                    });
                    let base = ox_lo * stride + kx - pad;
                    if stride == 1 {
                        let mut off = 0;
                        packed_row_segments(col0 + ox_lo, col0 + ox_hi, k_rows, row, |s, l| {
                            data[s..s + l].copy_from_slice(&src_row[base + off..base + off + l]);
                            off += l;
                        });
                    } else {
                        let mut idx = 0;
                        packed_row_segments(col0 + ox_lo, col0 + ox_hi, k_rows, row, |s, l| {
                            for d in 0..l {
                                data[s + d] = src_row[base + (idx + d) * stride];
                            }
                            idx += l;
                        });
                    }
                }
            }
        }
    }
    Ok(())
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
    }
}
