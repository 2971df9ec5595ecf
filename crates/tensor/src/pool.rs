//! Max and average pooling and across-channel local response
//! normalization: the window kernels between the convolutions.
//!
//! Max pooling and LRN run behind the kernel dispatch
//! ([`crate::kernels`]), each with a scalar oracle and an AVX2 path
//! that agree bit for bit: max pooling as whole planes, the AVX2 path
//! reading each from a `-inf`-padded copy in the workspace's `padded`
//! slot, every output row in whole 8-lane blocks; LRN as one channel
//! step at a time of a sliding square-sum window, with β = 0.75's power
//! taken as two square roots. Average pooling is scalar.
//!
//! Each writes whole output planes (one image's channel) and, when the
//! workspace carries a [`Team`], cuts them across it: by images when the
//! batch has at least as many as the team has threads — as
//! [`crate::conv2d`] cuts its bands, so each thread reads what it
//! convolved — else by planes. A piece is the same kernel over a range
//! of planes with its thread's own workspace, so the output is bitwise
//! the one-thread call's. Their work enters the one split rule
//! ([`mod@crate::team`]) in packed-GEMM multiply-accumulate
//! equivalents, through the per-element costs below.

use crate::error::{ShapeError, TensorResult};
use crate::im2col::out_spatial;
use crate::kernels::{self, KernelPath};
use crate::team::{self, Team};
use crate::tensor4::Tensor4;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Packed-GEMM multiply-accumulates that take as long as one max-pool
/// window tap: 0.18–0.26 ns per tap on Googlenet's pool1 and pool2 and
/// Caffenet's pool1, 0.08–0.10 on inception 3a's 3×3/1 pool, against
/// 0.034–0.051 ns per multiply-accumulate of the packed GEMM on three
/// conv shapes (2.1–5.8 per tap, 4.5 on average), one thread of the
/// 2-core host, best of 40 calls (EXPERIMENTS.md, the section on the
/// window kernels at memory speed). A measurement, not a knob.
const POOL_TAP_MACS: u64 = 5;

/// Packed-GEMM multiply-accumulates that take as long as one LRN output
/// element: 0.96–1.18 ns (two square roots and a divide, where `powf`
/// took 8.0–8.8 ns on the same shapes), 23–30 and 26 on average, on
/// the same host and record as [`POOL_TAP_MACS`].
const LRN_ELEMENT_MACS: u64 = 25;

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
/// argmax map). The zero-allocation variant for inference loops: on the
/// AVX2 path each plane is padded into `ws.padded`, which keeps its
/// capacity; split across `ws`'s team, if it has one, as the
/// [module docs](self) say.
pub fn max_pool2d_into(
    input: &Tensor4,
    params: &Pool2dParams,
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    let (n, c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    out.resize(n, c, oh, ow);
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
        &|first, piece, ws| {
            let planes = first..first + piece.len() / plane.max(1);
            let input = &in_data[planes.start * h * w..planes.end * h * w];
            kernels::max_pool_planes_with(
                path,
                input,
                (h, w),
                params,
                (oh, ow),
                &mut ws.padded,
                piece,
            );
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
    /// Neighbourhood size in channels: odd, so the window has a centre.
    pub local_size: usize,
    /// Scale of the square sum.
    pub alpha: f32,
    /// Exponent.
    pub beta: f32,
    /// Additive constant.
    pub k: f32,
}

impl LrnParams {
    /// `Ok` when `local_size` is odd (and so at least 1): a window of
    /// 0 channels has nothing to sum, and an even one has no centre,
    /// which Caffe rejects too.
    pub fn validate(&self) -> TensorResult<()> {
        if self.local_size.is_multiple_of(2) {
            return Err(ShapeError::new(format!(
                "lrn: local_size {} must be odd and >= 1",
                self.local_size
            )));
        }
        Ok(())
    }
}

/// Local response normalization into a reusable output tensor
/// (reshaped in place). The window's square sums are one `h×w` plane in
/// `ws.cols`, each helper's its own, so steady-state calls allocate
/// nothing; split across `ws`'s team, if it has one, as the
/// [module docs](self) say. A `local_size` that is 0 or even is a
/// [`ShapeError`] ([`LrnParams::validate`]).
///
/// The sums slide across the channels — one add as a channel enters the
/// window, one subtract as one leaves — instead of rescanning
/// `local_size` planes per channel. A piece that starts at channel `c0`
/// replays that slide from channel 0 up to `c0` rather than summing its
/// first window afresh: float addition is not associative, and only the
/// same adds and subtracts in the same order give every output the bits
/// of the one-thread call.
///
/// Each channel step is [`kernels::lrn_step_with`]. For β = 0.75, the
/// only β the models use, it computes `d^0.75` as `√d · √√d`, on every
/// kernel path to the same bits; any other β raises `d` with `powf`,
/// in scalar code.
pub fn lrn_into(
    input: &Tensor4,
    params: &LrnParams,
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    lrn_run(input, params, &|i| i, ws, out)
}

/// [`lrn_into`] over channels that sit at `positions` of the window's
/// channel axis: input channel `i` is channel `positions[i]` of a wider
/// map whose other channels are absent (strictly ascending; a
/// [`ShapeError`] otherwise, or unless it has one entry per input
/// channel). The window of channel `i` sums the squares of the present
/// channels within `local_size / 2` positions of `positions[i]`, and
/// `local_size` still divides `alpha`. This is the LRN of a narrowed
/// network, whose pruned channels are gone: where an absent channel
/// holds `+0` in the wider map, its square enters and leaves the sums
/// as `+0`, which changes no sum, so every present channel's output is
/// bitwise the wider map's.
pub fn lrn_at_into(
    input: &Tensor4,
    params: &LrnParams,
    positions: &[usize],
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    if positions.len() != input.c() || positions.windows(2).any(|p| p[0] >= p[1]) {
        return Err(ShapeError::new(format!(
            "lrn: {} channel positions for {} channels, or not ascending",
            positions.len(),
            input.c()
        )));
    }
    lrn_run(input, params, &|i| positions[i], ws, out)
}

/// The body of [`lrn_into`] and [`lrn_at_into`]: input channel `i` at
/// window position `at(i)`.
fn lrn_run(
    input: &Tensor4,
    params: &LrnParams,
    at: &(dyn Fn(usize) -> usize + Sync),
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    params.validate()?;
    let (n, c, h, w) = input.shape();
    out.resize(n, c, h, w);
    let hw = h * w;
    if out.is_empty() {
        return Ok(());
    }
    let path = kernels::selected();
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
                let channels = Channels { img, c, hw, at };
                lrn_channels(path, &channels, params, c0..c1, head, sums);
                (plane, rest) = (plane + c1 - c0, tail);
            }
            Ok(())
        },
    )
}

/// One image's `c` channel planes of `hw` elements, channel `i` at
/// window position `at(i)` (ascending).
struct Channels<'a> {
    img: &'a [f32],
    c: usize,
    hw: usize,
    at: &'a (dyn Fn(usize) -> usize + Sync),
}

impl Channels<'_> {
    fn plane(&self, i: usize) -> &[f32] {
        &self.img[i * self.hw..(i + 1) * self.hw]
    }

    /// Channel `*next` when it sits at window position `p` (then
    /// counted off), else `None`.
    fn take_at(&self, next: &mut usize, p: usize) -> Option<&[f32]> {
        let here = *next < self.c && (self.at)(*next) == p;
        here.then(|| {
            *next += 1;
            self.plane(*next - 1)
        })
    }
}

/// Channels `range` of one image into `out`, the window's square sums
/// sliding in `sums` over the window positions from 0 (see
/// [`lrn_into`]); a position no channel sits at adds and removes
/// nothing.
fn lrn_channels(
    path: KernelPath,
    ch: &Channels<'_>,
    params: &LrnParams,
    range: Range<usize>,
    out: &mut [f32],
    sums: &mut [f32],
) {
    let Some(last) = range.end.checked_sub(1) else {
        return;
    };
    let half = params.local_size / 2;
    let scale = params.alpha / params.local_size as f32;
    let pow075 = params.beta == 0.75;
    let step = |out, enter, leave, sums: &mut [f32]| {
        kernels::lrn_step_with(path, params.k, scale, out, enter, leave, sums)
    };
    // Seed the window of position 0 with the channels at [0, half].
    sums.fill(0.0);
    let (mut entered, mut left, mut next) = (0, 0, 0);
    while entered < ch.c && (ch.at)(entered) <= half {
        step(None, Some(ch.plane(entered)), None, sums);
        entered += 1;
    }
    let mut outs = out.chunks_exact_mut(ch.hw);
    let end = (ch.at)(last);
    for p in 0..=end {
        let mut out = ch.take_at(&mut next, p).and_then(|x| {
            (next > range.start).then(|| {
                let out = outs
                    .next()
                    .expect("`out` holds one plane per channel of `range`");
                (x, out)
            })
        });
        if !pow075 {
            if let Some((x, out)) = out.take() {
                for ((o, &v), &s) in out.iter_mut().zip(x).zip(sums.iter()) {
                    *o = v / (params.k + scale * s).powf(params.beta);
                }
            }
        }
        // Then slide the window, unless this was the last position:
        // position p+half+1 enters, p-half leaves.
        let more = p < end;
        let enter = more
            .then(|| ch.take_at(&mut entered, p + half + 1))
            .flatten();
        let leave = (more && p >= half)
            .then(|| ch.take_at(&mut left, p - half))
            .flatten();
        if out.is_some() || enter.is_some() || leave.is_some() {
            step(out, enter, leave, sums);
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

    #[test]
    fn lrn_rejects_zero_and_even_local_size() {
        let x = Tensor4::zeros(1, 4, 2, 2);
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        for local_size in [0, 2, 6] {
            let params = LrnParams {
                local_size,
                alpha: 1e-4,
                beta: 0.75,
                k: 2.0,
            };
            let err = lrn_into(&x, &params, &mut Workspace::new(), &mut out).unwrap_err();
            assert!(err.to_string().contains("must be odd"), "{err}");
        }
    }

    #[test]
    fn lrn_at_positions_is_the_wider_map_with_zero_planes_bitwise() {
        // Nine channels, four of them absent (zero in the wider map):
        // runs of one and two, the first and the last among them; on
        // every kernel path, β = 0.75 and a `powf` β, one to three
        // threads, the pieces replaying the slide.
        let (c, h, w) = (9, 3, 5);
        let present = [1, 2, 4, 5, 7];
        let wide = Tensor4::from_fn(2, c, h, w, |n, ch, y, x| {
            if present.contains(&ch) {
                ((n * 7 + ch * 5 + y * 3 + x) % 11) as f32 / 3.0 - 1.5
            } else {
                0.0
            }
        });
        let narrow = Tensor4::from_fn(2, present.len(), h, w, |n, i, y, x| {
            wide.get(n, present[i], y, x)
        });
        for path in kernels::available_paths() {
            kernels::force(Some(path));
            for beta in [0.75, 0.6] {
                let params = LrnParams {
                    local_size: 5,
                    alpha: 0.3,
                    beta,
                    k: 2.0,
                };
                let mut want = Tensor4::default();
                lrn_into(&wide, &params, &mut Workspace::new(), &mut want).unwrap();
                for threads in [1, 2, 3] {
                    let mut ws = Workspace::new();
                    ws.team = Some(Team::new(threads).with_min_part_macs(0));
                    let mut got = Tensor4::default();
                    lrn_at_into(&narrow, &params, &present, &mut ws, &mut got).unwrap();
                    for (i, &ch) in present.iter().enumerate() {
                        for n in 0..2 {
                            let (g, wnt) = (got.image(n), want.image(n));
                            let bits =
                                |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&g[i * h * w..(i + 1) * h * w]),
                                bits(&wnt[ch * h * w..(ch + 1) * h * w]),
                                "{} beta {beta} threads {threads} channel {ch}",
                                path.name()
                            );
                        }
                    }
                }
            }
            kernels::force(None);
        }
        let params = LrnParams {
            local_size: 3,
            alpha: 1.0,
            beta: 0.75,
            k: 1.0,
        };
        let mut out = Tensor4::default();
        for bad in [&[0, 1, 2, 3][..], &[2, 1, 3, 4, 5], &[0, 0, 1, 2, 3]] {
            let err = lrn_at_into(&narrow, &params, bad, &mut Workspace::new(), &mut out);
            assert!(err.is_err(), "{bad:?}");
        }
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
