//! Max and average pooling and across-channel local response
//! normalization: the window kernels between the convolutions.
//!
//! Each writes whole output planes (one image's channel) and, when the
//! workspace carries a [`Team`], cuts them across it: by images when the
//! batch has at least as many as the team has threads — as
//! [`crate::conv2d`] cuts its bands, so each thread reads what it
//! convolved — else by planes. A piece is the same kernel over a range
//! of planes, so the output is bitwise the one-thread call's. Their
//! work enters the one split rule ([`mod@crate::team`]) in packed-GEMM
//! multiply-accumulate equivalents, through the per-element costs
//! below.

use crate::error::{ShapeError, TensorResult};
use crate::im2col::out_spatial;
use crate::kernels;
use crate::team::{self, Team};
use crate::tensor4::Tensor4;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Packed-GEMM multiply-accumulates that take as long as one pooling
/// window tap: 0.22–0.28 ns per tap on Googlenet's and Caffenet's max
/// pools, against 0.022–0.024 ns per multiply-accumulate of the packed
/// GEMM on their conv shapes, one thread of the 2-core host
/// (EXPERIMENTS.md, the section on the pass in stages). A measurement,
/// not a knob.
const POOL_TAP_MACS: u64 = 10;

/// Packed-GEMM multiply-accumulates that take as long as one LRN output
/// element: ~4.8 ns, nearly all of it `powf`, on the same host and
/// record as [`POOL_TAP_MACS`].
const LRN_ELEMENT_MACS: u64 = 200;

/// A kernel over the output planes `first..` that `piece` holds, with
/// its thread's workspace.
type PlanesFn<'a> = dyn Fn(usize, &mut [f32], &mut Workspace) -> TensorResult<()> + Sync + 'a;

/// Run `f` over `out` — `n` images of `c` planes of `plane` elements —
/// cut across `ws`'s team where `macs` pays for the split: by images
/// when there are at least as many as threads, else by planes.
fn split_planes(
    ws: &mut Workspace,
    n: usize,
    c: usize,
    plane: usize,
    macs: u64,
    out: &mut [f32],
    f: &PlanesFn<'_>,
) -> TensorResult<()> {
    let plane = plane.max(1);
    let threads = ws.team.as_ref().map_or(1, Team::threads);
    let unit = if n >= threads { c * plane } else { plane };
    team::split_scratch(ws, macs, out, unit, &|offset, piece, ws| {
        f(offset / plane, piece, ws)
    })
}

/// Multiply-accumulate equivalents of pooling into `out_len` cells.
fn pool_macs(out_len: usize, params: &Pool2dParams) -> u64 {
    (out_len * params.k * params.k) as u64 * POOL_TAP_MACS
}

/// Geometry of a 2-D pooling window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2dParams {
    /// Window size (square).
    pub k: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Stride.
    pub stride: usize,
}

impl Pool2dParams {
    /// Construct a pooling geometry.
    pub fn new(k: usize, pad: usize, stride: usize) -> Self {
        Self { k, pad, stride }
    }

    /// Output spatial shape for an `h×w` input, using Caffe's **ceil**
    /// rounding: `ceil((dim + 2·pad − k) / stride) + 1`, with the last
    /// window clamped to start inside the (padded) input. Ceil mode is
    /// what makes Googlenet's 112→56→28→14→7 pooling chain come out.
    pub fn out_shape(&self, h: usize, w: usize) -> TensorResult<(usize, usize)> {
        // Validate via the floor-mode helper (catches stride 0 / oversize kernels).
        out_spatial(h, w, self.k, self.k, self.pad, self.stride)?;
        let dim = |d: usize| -> usize {
            let mut o = (d + 2 * self.pad - self.k).div_ceil(self.stride) + 1;
            // Caffe clamp: last pooling window must start strictly inside
            // the input plus left padding.
            if (o - 1) * self.stride >= d + self.pad {
                o -= 1;
            }
            o
        };
        Ok((dim(h), dim(w)))
    }
}

/// Max pooling. Padding cells never win (they are treated as `-inf`);
/// an all-padding window yields 0.
pub fn max_pool2d(input: &Tensor4, params: &Pool2dParams) -> TensorResult<Tensor4> {
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    max_pool2d_into(input, params, &mut Workspace::new(), &mut out)?;
    Ok(out)
}

/// Max pooling into a reusable output tensor (reshaped in place; no
/// argmax map). The zero-allocation variant for inference loops; split
/// across `ws`'s team, if it has one, as the [module docs](self) say.
pub fn max_pool2d_into(
    input: &Tensor4,
    params: &Pool2dParams,
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    let (n, c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    out.resize(n, c, oh, ow);
    // Resolve the kernel path once; the row kernel vectorizes interior
    // windows (one output column per SIMD lane) and replays the scalar
    // window walk on the borders — bit-identical on every path.
    let path = kernels::selected();
    let in_data = input.as_slice();
    let plane = oh * ow;
    let macs = pool_macs(out.len(), params);
    split_planes(
        ws,
        n,
        c,
        plane,
        macs,
        out.as_mut_slice(),
        &|first, piece, _| {
            for (p, out_plane) in (first..).zip(piece.chunks_mut(plane.max(1))) {
                let in_plane = &in_data[p * h * w..(p + 1) * h * w];
                for (oy, out_row) in out_plane.chunks_mut(ow.max(1)).enumerate() {
                    kernels::max_pool_row_with(path, in_plane, h, w, params, oy, out_row);
                }
            }
            Ok(())
        },
    )
}

/// Max pooling that also returns, for each output cell, the flat NCHW index
/// of the winning input element (`usize::MAX` for all-padding windows).
/// The index map is what the backward pass routes gradients through.
pub fn max_pool2d_indices(
    input: &Tensor4,
    params: &Pool2dParams,
) -> TensorResult<(Tensor4, Vec<usize>)> {
    let (n, c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    let mut out = Tensor4::zeros(n, c, oh, ow);
    let mut argmax = vec![usize::MAX; n * c * oh * ow];
    let mut oi = 0;
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = usize::MAX;
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
                            let v = input.get(ni, ci, iy as usize, ix as usize);
                            if v > best {
                                best = v;
                                best_idx = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                            }
                        }
                    }
                    if best_idx == usize::MAX {
                        best = 0.0;
                    }
                    out.set(ni, ci, oy, ox, best);
                    argmax[oi] = best_idx;
                    oi += 1;
                }
            }
        }
    }
    Ok((out, argmax))
}

/// Average pooling over valid (non-padding) cells.
pub fn avg_pool2d(input: &Tensor4, params: &Pool2dParams) -> TensorResult<Tensor4> {
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    avg_pool2d_into(input, params, &mut Workspace::new(), &mut out)?;
    Ok(out)
}

/// Average pooling into a reusable output tensor (reshaped in place);
/// split across `ws`'s team, if it has one, as the
/// [module docs](self) say.
pub fn avg_pool2d_into(
    input: &Tensor4,
    params: &Pool2dParams,
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    let (n, c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    if params.k == 0 {
        return Err(ShapeError::new("avg_pool2d: window must be >= 1"));
    }
    out.resize(n, c, oh, ow);
    let in_data = input.as_slice();
    let plane = oh * ow;
    let macs = pool_macs(out.len(), params);
    split_planes(
        ws,
        n,
        c,
        plane,
        macs,
        out.as_mut_slice(),
        &|first, piece, _| {
            for (p, out_plane) in (first..).zip(piece.chunks_mut(plane.max(1))) {
                let in_plane = &in_data[p * h * w..(p + 1) * h * w];
                for (cell, o) in out_plane.iter_mut().enumerate() {
                    let (oy, ox) = (cell / ow, cell % ow);
                    let mut acc = 0.0;
                    let mut count = 0usize;
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
                            acc += in_plane[iy as usize * w + ix as usize];
                            count += 1;
                        }
                    }
                    *o = if count > 0 { acc / count as f32 } else { 0.0 };
                }
            }
            Ok(())
        },
    )
}

/// Across-channel local response normalization, with Caffe's parameter
/// names: `y = x / (k + alpha/local_size · Σ x²)^beta`, the sum over
/// the `local_size` channels centred on `x`'s own (clipped at the first
/// and last channel).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrnParams {
    /// Neighbourhood size in channels, at least 1.
    pub local_size: usize,
    /// Scale of the square sum.
    pub alpha: f32,
    /// Exponent.
    pub beta: f32,
    /// Additive constant.
    pub k: f32,
}

/// Local response normalization into a reusable output tensor
/// (reshaped in place). The window's square sums are one `h×w` plane in
/// `ws.cols`, each helper's its own, so steady-state calls allocate
/// nothing; split across `ws`'s team, if it has one, as the
/// [module docs](self) say.
///
/// The sums slide across the channels — one add as a channel enters the
/// window, one subtract as one leaves — instead of rescanning
/// `local_size` planes per channel. A piece that starts at channel `c0`
/// replays that slide from channel 0 up to `c0` rather than summing its
/// first window afresh: float addition is not associative, and only the
/// same adds and subtracts in the same order give every output the bits
/// of the one-thread call.
pub fn lrn_into(
    input: &Tensor4,
    params: &LrnParams,
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    if params.local_size == 0 {
        return Err(ShapeError::new("lrn: local_size must be >= 1"));
    }
    let (n, c, h, w) = input.shape();
    out.resize(n, c, h, w);
    let hw = h * w;
    if out.is_empty() {
        return Ok(());
    }
    let data = input.as_slice();
    let macs = out.len() as u64 * LRN_ELEMENT_MACS;
    split_planes(
        ws,
        n,
        c,
        hw,
        macs,
        out.as_mut_slice(),
        &|first, piece, ws| {
            ws.cols.resize(1, hw);
            let sums = ws.cols.as_mut_slice();
            let (mut plane, mut rest) = (first, piece);
            while !rest.is_empty() {
                let (image, c0) = (plane / c, plane % c);
                let c1 = c.min(c0 + rest.len() / hw);
                let (head, tail) = std::mem::take(&mut rest).split_at_mut((c1 - c0) * hw);
                let img = &data[image * c * hw..(image + 1) * c * hw];
                lrn_channels(img, c, hw, params, c0..c1, head, sums);
                (plane, rest) = (plane + c1 - c0, tail);
            }
            Ok(())
        },
    )
}

/// Channels `range` of one `c`-channel image `img` into `out`, the
/// window's square sums sliding in `sums` from channel 0 (see
/// [`lrn_into`]). A sliding add/subtract window is not a
/// multiply-accumulate chain, so it stays outside the FMA contract of
/// [`crate::kernels`]: each square and each sum round separately.
fn lrn_channels(
    img: &[f32],
    c: usize,
    hw: usize,
    params: &LrnParams,
    range: Range<usize>,
    out: &mut [f32],
    sums: &mut [f32],
) {
    let half = params.local_size / 2;
    let scale = params.alpha / params.local_size as f32;
    let plane = |ci: usize| &img[ci * hw..(ci + 1) * hw];
    // Seed the window with channels [0, half].
    sums.fill(0.0);
    for cj in 0..=half.min(c - 1) {
        for (s, &v) in sums.iter_mut().zip(plane(cj)) {
            *s += v * v;
        }
    }
    for ci in 0..range.end {
        if ci >= range.start {
            let out_plane = &mut out[(ci - range.start) * hw..][..hw];
            for ((o, &v), &s) in out_plane.iter_mut().zip(plane(ci)).zip(sums.iter()) {
                *o = v / (params.k + scale * s).powf(params.beta);
            }
        }
        if ci + 1 == range.end {
            break;
        }
        // Slide the window: channel ci+half+1 enters, ci-half leaves.
        if ci + half + 1 < c {
            for (s, &v) in sums.iter_mut().zip(plane(ci + half + 1)) {
                *s += v * v;
            }
        }
        if ci >= half {
            for (s, &v) in sums.iter_mut().zip(plane(ci - half)) {
                *s -= v * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn max_pool_known() {
        let input = Tensor4::from_vec(
            1,
            1,
            4,
            4,
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let out = max_pool2d(&input, &Pool2dParams::new(2, 0, 2)).unwrap();
        assert_eq!(out.shape(), (1, 1, 2, 2));
        assert_eq!(out.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_known() {
        let input = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let out = avg_pool2d(&input, &Pool2dParams::new(2, 0, 2)).unwrap();
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn max_pool_overlapping_caffenet_style() {
        // Caffenet uses 3x3 stride-2 overlapping pooling: 55 -> 27.
        let input = Tensor4::zeros(1, 1, 55, 55);
        let out = max_pool2d(&input, &Pool2dParams::new(3, 0, 2)).unwrap();
        assert_eq!(out.shape(), (1, 1, 27, 27));
    }

    #[test]
    fn argmax_routes_to_winner() {
        let input = Tensor4::from_vec(1, 1, 2, 2, vec![0.0, 9.0, 1.0, 2.0]).unwrap();
        let (out, idx) = max_pool2d_indices(&input, &Pool2dParams::new(2, 0, 2)).unwrap();
        assert_eq!(out.as_slice(), &[9.0]);
        assert_eq!(idx, vec![1]);
    }

    #[test]
    fn padding_never_wins_max() {
        // Negative inputs with zero padding: the max must still be an
        // input element, not the padding zero.
        let input = Tensor4::from_vec(1, 1, 2, 2, vec![-5.0, -4.0, -3.0, -2.0]).unwrap();
        let out = max_pool2d(&input, &Pool2dParams::new(2, 1, 1)).unwrap();
        assert!(out.as_slice().iter().all(|&v| v < 0.0));
    }

    #[test]
    fn avg_pool_ignores_padding_cells() {
        let input = Tensor4::from_vec(1, 1, 2, 2, vec![4.0, 4.0, 4.0, 4.0]).unwrap();
        // 2x2 window with pad 1: corner windows see a single valid cell.
        let out = avg_pool2d(&input, &Pool2dParams::new(2, 1, 1)).unwrap();
        assert_eq!(out.get(0, 0, 0, 0), 4.0);
    }

    proptest! {
        #[test]
        fn prop_max_ge_avg(h in 2usize..8, w in 2usize..8, k in 1usize..3, stride in 1usize..3) {
            let input = Tensor4::from_fn(1, 2, h, w, |_, c, y, x| ((c * 3 + y * 2 + x) % 7) as f32);
            let p = Pool2dParams::new(k, 0, stride);
            if p.out_shape(h, w).is_ok() {
                let mx = max_pool2d(&input, &p).unwrap();
                let av = avg_pool2d(&input, &p).unwrap();
                for (m, a) in mx.as_slice().iter().zip(av.as_slice().iter()) {
                    prop_assert!(m >= a);
                }
            }
        }

        #[test]
        fn prop_max_pool_output_is_input_element(h in 2usize..6, w in 2usize..6) {
            let input = Tensor4::from_fn(1, 1, h, w, |_, _, y, x| (y * w + x) as f32 - 3.0);
            let p = Pool2dParams::new(2, 0, 1);
            if p.out_shape(h, w).is_ok() {
                let (out, idx) = max_pool2d_indices(&input, &p).unwrap();
                for (o, &i) in out.as_slice().iter().zip(idx.iter()) {
                    prop_assert!(i != usize::MAX);
                    prop_assert_eq!(*o, input.as_slice()[i]);
                }
            }
        }
    }
}
