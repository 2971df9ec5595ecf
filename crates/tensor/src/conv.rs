//! 2-D convolution: geometry ([`Conv2dParams`]), the weight operand
//! ([`ConvWeights`]: f32 dense, dense over the kept filters and live
//! input channels only, CSR, or Winograd-transformed; or int8 dense
//! over the kept filters and live channels) and the one driver ([`conv2d`])
//! every form runs through — im2col + GEMM, or for the Winograd form
//! F(2×2, 3×3) tiles + 16 GEMMs ([`mod@crate::winograd`]). The direct
//! sliding-window oracles live in [`crate::reference`].

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::gemm::gemm_packed;
use crate::im2col::{out_spatial, Lowering};
use crate::kernels::int8::padded_depth;
use crate::kernels::{self, EpiBias, Epilogue, ROW_BLOCK};
use crate::quant::{gemm_i8, symmetric_scale, QuantizedA};
use crate::sparse::CsrMatrix;
use crate::team;
use crate::tensor4::Tensor4;
use crate::winograd::{self, Tiles, WinogradBand, POSITIONS};
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::Instant;

/// Start a clock for the GEMM/im2col time split, only when timed
/// metrics are on (`timing` is hoisted out of the image loop).
#[inline]
fn split_clock(timing: bool) -> Option<Instant> {
    if timing {
        Some(Instant::now())
    } else {
        None
    }
}

/// Credit elapsed time since `t0` to `counter` (no-op when timing off).
#[inline]
fn credit_ns(t0: Option<Instant>, counter: &cap_obs::Counter) {
    if let Some(t0) = t0 {
        counter.add(t0.elapsed().as_nanos() as u64);
    }
}

/// Geometry of a 2-D convolution.
///
/// `groups` implements AlexNet/Caffenet-style grouped convolution: input
/// and output channels are split into `groups` equal slices convolved
/// independently (Caffenet conv2/4/5 use `groups = 2`, which is why
/// Table 1 lists conv2 filters as `5×5×48` against a 96-channel input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of filters).
    pub out_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Channel groups.
    pub groups: usize,
}

impl Conv2dParams {
    /// Convenience constructor for an ungrouped convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        k: usize,
        pad: usize,
        stride: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            pad,
            stride,
            groups: 1,
        }
    }

    /// Same, with channel groups.
    pub fn grouped(
        in_channels: usize,
        out_channels: usize,
        k: usize,
        pad: usize,
        stride: usize,
        groups: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            pad,
            stride,
            groups,
        }
    }

    /// Input channels per group.
    pub fn in_per_group(&self) -> usize {
        self.in_channels / self.groups.max(1)
    }

    /// Output channels per group.
    pub fn out_per_group(&self) -> usize {
        self.out_channels / self.groups.max(1)
    }

    /// Rows of one group's im2col patch matrix — and columns of the
    /// weight matrix: `in_per_group × kh × kw`.
    pub fn col_rows(&self) -> usize {
        self.in_per_group() * self.kh * self.kw
    }

    /// Weight element count: `out_channels × in_per_group × kh × kw`.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.col_rows()
    }

    /// Output spatial shape for an `h×w` input.
    pub fn out_shape(&self, h: usize, w: usize) -> TensorResult<(usize, usize)> {
        out_spatial(h, w, self.kh, self.kw, self.pad, self.stride)
    }

    /// Validate structural invariants (divisibility by groups, non-zero dims).
    pub fn validate(&self) -> TensorResult<()> {
        if self.groups == 0 {
            return Err(ShapeError::new("conv: groups must be >= 1"));
        }
        if !self.in_channels.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(ShapeError::new(format!(
                "conv: channels ({} in, {} out) not divisible by groups {}",
                self.in_channels, self.out_channels, self.groups
            )));
        }
        if self.in_channels == 0 || self.out_channels == 0 {
            return Err(ShapeError::new("conv: channel counts must be >= 1"));
        }
        Ok(())
    }

    /// Check a dense weight matrix's shape against the geometry.
    pub(crate) fn check_weights(&self, shape: (usize, usize)) -> TensorResult<()> {
        let expected = (self.out_channels, self.col_rows());
        if shape != expected {
            return Err(ShapeError::new(format!(
                "conv: weights {shape:?}, expected {expected:?}"
            )));
        }
        Ok(())
    }

    /// Check the input's channel count and the bias length.
    pub(crate) fn check_io(&self, input: &Tensor4, bias: Option<&[f32]>) -> TensorResult<()> {
        if input.c() != self.in_channels {
            return Err(ShapeError::new(format!(
                "conv: input channels {} != {}",
                input.c(),
                self.in_channels
            )));
        }
        if let Some(b) = bias {
            if b.len() != self.out_channels {
                return Err(ShapeError::new(format!(
                    "conv: bias length {} != out_channels {}",
                    b.len(),
                    self.out_channels
                )));
            }
        }
        Ok(())
    }

    /// Multiply–accumulate count for one image
    /// (`2 × macs` gives FLOPs; the CNN crate's FLOP model builds on this).
    pub fn macs(&self, h: usize, w: usize) -> TensorResult<u64> {
        let (oh, ow) = self.out_shape(h, w)?;
        Ok(self.out_channels as u64
            * oh as u64
            * ow as u64
            * self.in_per_group() as u64
            * self.kh as u64
            * self.kw as u64)
    }
}

/// One channel group of a narrowed weight form: the filters it keeps
/// and the input channels it reads. `rows` are the ascending in-group
/// indices of the filters that hold a non-zero weight — filter pruning
/// zeroes the others, which are left out. `live` are the ascending
/// in-group input channels the multiply reads: every channel but the
/// *dead* ones, which the layer before emits as exactly `+0`
/// whatever the input (a filter it pruned, passed on through ReLU,
/// pooling or LRN), and whose column blocks here are all finite.
/// `weights` are those rows restricted to those channels' `kh × kw`
/// column blocks: a row-major f32 copy (`rows × live·kh·kw`) for
/// [`ConvWeights::DenseRows`], a [`QuantizedA`] of it for
/// [`ConvWeights::DenseI8`]. Built by [`ConvWeights::kept_row_bands`]
/// and [`ConvWeights::i8_bands`].
#[derive(Debug, Clone)]
pub struct KeptRows<W = Vec<f32>> {
    rows: Vec<usize>,
    live: Vec<usize>,
    weights: W,
}

impl<W> KeptRows<W> {
    /// Live input channels, ascending in-group indices.
    pub fn live(&self) -> &[usize] {
        &self.live
    }
}

/// Finish a group's output band whose head holds the plain product of
/// the kept `rows`: back to front, move product row `i` to output row
/// `rows[i]` with the bias and ReLU applied on the way, and fill every
/// other row with the constant its all-zero filter yields. Back to
/// front because `rows[i] >= i`: a row's destination never holds a
/// product row that has yet to move.
fn spread(rows: &[usize], dst: &mut [f32], n_out: usize, bias: Option<&[f32]>, relu: bool) {
    let finish = |v: f32, b: Option<f32>| kernels::scalar::epilogue_one(v, b, relu);
    let mut kept = rows.len();
    for r in (0..dst.len() / n_out.max(1)).rev() {
        let b = bias.map(|b| b[r]);
        let (head, tail) = dst.split_at_mut(r * n_out);
        let row = &mut tail[..n_out];
        if kept > 0 && rows[kept - 1] == r {
            kept -= 1;
            if kept == r {
                row.iter_mut().for_each(|v| *v = finish(*v, b));
            } else {
                let product = &head[kept * n_out..(kept + 1) * n_out];
                for (d, &s) in row.iter_mut().zip(product) {
                    *d = finish(s, b);
                }
            }
        } else {
            row.fill(finish(0.0, b));
        }
    }
}

/// Group `g`'s kept filters and live input channels (see [`KeptRows`])
/// and their weights gathered row-major, from dense `weights` and the
/// layer's `dead` input channels (`dead[c]`: channel `c` is `+0`).
fn kept_band(weights: &Matrix, params: &Conv2dParams, dead: &[bool], g: usize) -> KeptRows {
    let (cpg, opg, taps) = (
        params.in_per_group(),
        params.out_per_group(),
        params.kh * params.kw,
    );
    let rows: Vec<usize> = (0..opg)
        .filter(|&r| weights.row(g * opg + r).iter().any(|&v| v != 0.0))
        .collect();
    // A dead channel stays when a weight on it is not finite: `inf·0`
    // is NaN, which leaving the product out would hide.
    let live: Vec<usize> = (0..cpg)
        .filter(|&c| {
            !dead[g * cpg + c]
                || rows.iter().any(|&r| {
                    let block = &weights.row(g * opg + r)[c * taps..(c + 1) * taps];
                    block.iter().any(|v| !v.is_finite())
                })
        })
        .collect();
    let mut band = Vec::with_capacity(rows.len() * live.len() * taps);
    for &r in &rows {
        let row = weights.row(g * opg + r);
        for &c in &live {
            band.extend_from_slice(&row[c * taps..(c + 1) * taps]);
        }
    }
    KeptRows {
        rows,
        live,
        weights: band,
    }
}

/// `dead` input channels as a mask over the layer's input channels.
fn dead_mask(params: &Conv2dParams, dead: &[usize]) -> TensorResult<Vec<bool>> {
    let mut mask = vec![false; params.in_channels];
    for &c in dead {
        *mask.get_mut(c).ok_or_else(|| {
            ShapeError::new(format!(
                "conv: dead input channel {c} of {}",
                params.in_channels
            ))
        })? = true;
    }
    Ok(mask)
}

/// The weight operand of [`conv2d`]: which stored form of the
/// `out_channels × in_per_group*kh*kw` filter matrix the multiply runs
/// on. A borrowed, `Copy` view — the owner (a layer, a test) keeps
/// whichever forms it needs and hands one over per call.
///
/// Every banded form holds one entry per channel group, each standing
/// for `out_per_group` rows; [`ConvWeights::kept_row_bands`],
/// [`ConvWeights::csr_bands`], [`ConvWeights::winograd_bands`] and
/// [`ConvWeights::i8_bands`] build them from the dense matrix.
#[derive(Debug, Clone, Copy)]
pub enum ConvWeights<'a> {
    /// Dense f32. Group `g`'s filters are the contiguous row band
    /// `g*out_per_group..`, so no per-group copy exists. Lowering is
    /// the fused im2col-and-pack; the multiply is [`gemm_packed`].
    Dense(&'a Matrix),
    /// Dense f32 over the kept filters and the live input channels
    /// only ([`KeptRows`]), for filter-pruned weights (whole rows zero)
    /// or an input with dead channels: the same lowering and
    /// [`gemm_packed`] as [`ConvWeights::Dense`] on a matrix with the
    /// zero rows and the dead channels' columns removed, lowering only
    /// the live planes, so cost scales with the filters that remain and
    /// the channels that can be non-zero — this is how filter pruning
    /// turns into wall-clock savings, in the pruned layer and in the
    /// one after it. Kept channels are bitwise equal to `Dense` on the
    /// same weights (see [`conv2d`] for when); pruned channels hold
    /// `epi(0.0 + bias)`.
    DenseRows(&'a [KeptRows]),
    /// f32 CSR, for weights with unstructured sparsity: cost scales
    /// with stored values, at a per-value price several times the
    /// dense kernel's, so it pays only at high sparsity. Lowering is
    /// the row-major im2col; the multiply is [`CsrMatrix::spmm_into`].
    Csr(&'a [CsrMatrix]),
    /// Dense f32 in Winograd F(2×2, 3×3) form, for 3×3 stride-1 pad-1
    /// convolutions only ([`winograd::fits`]): per group the 16
    /// `out_per_group × in_per_group` matrices `U = G g Gᵀ`. Lowering
    /// is the input transform `Bᵀ d B` of every 2×2-output tile, packed
    /// as 16 panel matrices; the multiply is 16 [`gemm_packed`]s and
    /// the output transform `Aᵀ M A`, with the bias and ReLU, stored in
    /// place — 2.25× fewer multiplies than [`ConvWeights::Dense`], and
    /// a different rounding (bounded against the f64 oracle
    /// [`crate::reference::conv2d_f64`] in `tests/winograd_oracle.rs`).
    Winograd(&'a [WinogradBand]),
    /// Int8 dense: pre-quantized weight bands against activations
    /// quantized with `act_scale` (calibrated, or the caller's max-abs
    /// estimate) — each input image once, before lowering, its live
    /// planes only; the lowering moves i8 straight into the
    /// quad-interleaved panel layout; the multiply is [`gemm_i8`] over
    /// the kept rows and live channels, dequantizing by `weight scale ·
    /// act_scale` in its store. A band keeping every row and channel
    /// is the plain dense int8 multiply; the others drop exactly the
    /// zero terms of its exact integer sums, so every form of the same
    /// weights gives the same bits.
    DenseI8 {
        /// Quantized weight bands.
        bands: &'a [KeptRows<QuantizedA>],
        /// Activation quantization scale for this call.
        act_scale: f32,
    },
}

impl ConvWeights<'_> {
    /// Per-group split of dense `weights` into the rows that hold a
    /// non-zero weight (a NaN counts as one), restricted to the input
    /// channels that are live given the layer's `dead` input channels
    /// (any order; see [`KeptRows`]).
    pub fn kept_row_bands(
        weights: &Matrix,
        params: &Conv2dParams,
        dead: &[usize],
    ) -> TensorResult<Vec<KeptRows>> {
        params.check_weights(weights.shape())?;
        let dead = dead_mask(params, dead)?;
        Ok((0..params.groups)
            .map(|g| kept_band(weights, params, &dead, g))
            .collect())
    }

    /// Per-group CSR split of dense `weights` (zeros dropped; index
    /// arithmetic only, no densify round-trip).
    pub fn csr_bands(weights: &Matrix, params: &Conv2dParams) -> TensorResult<Vec<CsrMatrix>> {
        params.check_weights(weights.shape())?;
        CsrMatrix::from_dense(weights, 0.0).split_rows(params.out_per_group())
    }

    /// Per-group Winograd transform of dense `weights`: the 16 matrices
    /// `U = G g Gᵀ` of each group. Errors unless the geometry is one
    /// the form computes ([`winograd::fits`]: 3×3, stride 1, pad 1).
    pub fn winograd_bands(
        weights: &Matrix,
        params: &Conv2dParams,
    ) -> TensorResult<Vec<WinogradBand>> {
        params.check_weights(weights.shape())?;
        if !winograd::fits(params) {
            return Err(ShapeError::new(format!(
                "conv: Winograd needs a 3x3 stride-1 pad-1 kernel, got {}x{} stride {} pad {}",
                params.kh, params.kw, params.stride, params.pad
            )));
        }
        let (opg, col_rows) = (params.out_per_group(), params.col_rows());
        Ok(weights
            .as_slice()
            .chunks_exact((opg * col_rows).max(1))
            .map(|filters| WinogradBand::transform(filters, opg, params.in_per_group()))
            .collect())
    }

    /// Per-group int8 quantization of dense `weights` over the kept
    /// rows and live channels ([`ConvWeights::kept_row_bands`]), one
    /// max-abs scale over the whole layer (per-layer symmetric
    /// quantization), so a weight quantizes alike whichever rows and
    /// channels are left out.
    pub fn i8_bands(
        weights: &Matrix,
        params: &Conv2dParams,
        dead: &[usize],
    ) -> TensorResult<Vec<KeptRows<QuantizedA>>> {
        let scale = symmetric_scale(weights.as_slice());
        let taps = params.kh * params.kw;
        Ok(Self::kept_row_bands(weights, params, dead)?
            .into_iter()
            .map(|band| {
                let (rows, depth) = (band.rows.len(), band.live.len() * taps);
                KeptRows {
                    weights: QuantizedA::quantize(&band.weights, rows, depth, scale),
                    rows: band.rows,
                    live: band.live,
                }
            })
            .collect())
    }

    /// Check this form against the geometry: the dense matrix's shape,
    /// or one `out_per_group × col_rows` band per group.
    fn check(&self, params: &Conv2dParams) -> TensorResult<()> {
        fn bands(
            mut shapes: impl ExactSizeIterator<Item = (usize, usize)>,
            params: &Conv2dParams,
        ) -> TensorResult<()> {
            let expected = (params.out_per_group(), params.col_rows());
            if shapes.len() != params.groups || shapes.any(|shape| shape != expected) {
                return Err(ShapeError::new(format!(
                    "conv: expected {} weight bands of {expected:?}",
                    params.groups
                )));
            }
            Ok(())
        }
        // Narrowed bands: indices within the group, and weights that
        // `holds(weights, rows, depth)` says are `rows × live·kh·kw`.
        fn kept<W>(
            b: &[KeptRows<W>],
            holds: impl Fn(&W, usize, usize) -> bool,
            params: &Conv2dParams,
        ) -> TensorResult<()> {
            let fits = |band: &KeptRows<W>| {
                let depth = band.live.len() * params.kh * params.kw;
                holds(&band.weights, band.rows.len(), depth)
                    && band.rows.last().is_none_or(|&r| r < params.out_per_group())
                    && band.live.last().is_none_or(|&c| c < params.in_per_group())
            };
            if b.len() != params.groups || !b.iter().all(fits) {
                return Err(ShapeError::new(format!(
                    "conv: expected {} kept-row bands within {:?}",
                    params.groups,
                    (params.out_per_group(), params.col_rows())
                )));
            }
            Ok(())
        }
        match self {
            ConvWeights::Dense(w) => params.check_weights(w.shape()),
            ConvWeights::DenseRows(b) => kept(b, |w, rows, depth| w.len() == rows * depth, params),
            ConvWeights::Csr(b) => bands(b.iter().map(|m| m.shape()), params),
            ConvWeights::Winograd(b) => {
                let expected = (params.out_per_group(), params.in_per_group());
                if !winograd::fits(params)
                    || b.len() != params.groups
                    || b.iter().any(|band| band.shape() != expected)
                {
                    return Err(ShapeError::new(format!(
                        "conv: expected {} Winograd bands of {expected:?} for a 3x3 \
                         stride-1 pad-1 kernel",
                        params.groups
                    )));
                }
                Ok(())
            }
            ConvWeights::DenseI8 { bands: b, .. } => kept(
                b,
                |q, rows, depth| (q.rows(), q.k()) == (rows, depth),
                params,
            ),
        }
    }
}

/// 2-D convolution — the one production driver, matching Caffe's
/// im2col + GEMM scheme, or for [`ConvWeights::Winograd`] the
/// Winograd F(2×2, 3×3) one.
///
/// Validates once, then per image and per channel group: **lower** the
/// group's input channels — padded once into the workspace, then
/// unrolled ([`Lowering`]) — to a patch matrix in the layout the weight
/// form multiplies against, **multiply** with the bias (per output channel)
/// and an optional ReLU folded into the store ([`Epilogue`]), writing
/// straight into the group's band of the output image — an
/// `out_per_group × oh*ow` row-major matrix in place, so nothing is
/// copied afterwards. `relu` appends the `forward_into`-flavor ReLU;
/// the result is bitwise identical to the unfused convolution followed
/// by a standalone ReLU layer, on every kernel path.
///
/// The int8 form **quantizes** each input image once, straight into its
/// padded layout, and lower in int8: lowering only copies values and
/// pads with `0.0`, which quantizes to `0`, so the patch matrix is byte
/// for byte the quantized f32 one at `kh*kw / stride²` times fewer
/// quantizations and a quarter of the bytes moved.
///
/// The Winograd form lowers by the **input transform** instead: per
/// image and group, the channels padded into `ws.padded` and each
/// 2×2-output tile's `Bᵀ d B` written as 16 panel-packed matrices into
/// `ws.packed`, split by tile panels across the team like the f32
/// lowering. It multiplies by 16 [`gemm_packed`]s per chunk of tiles
/// and rows into a small `M` (the running thread's `ws.cols`), then the
/// **output transform** `Aᵀ M A` adds the bias, applies the ReLU and
/// stores each tile's outputs in place; the products and the output
/// transform split by output-channel rows, each part running all 16
/// products for its rows. Its rounding differs from im2col's (see
/// [`mod@crate::winograd`]), but its bits do not depend on the kernel
/// path, the team or the batch either.
///
/// The narrowed forms ([`ConvWeights::DenseRows`], and
/// [`ConvWeights::DenseI8`] over its [`KeptRows`]) treat a pruned
/// filter as absent rather than as zeros. A group whose filters are all
/// pruned, or whose input channels are all dead, is neither lowered nor
/// multiplied, and a layer with every filter pruned is its bias
/// broadcast. With non-finite activations a pruned channel still reads
/// `epi(0.0 + bias)`, where [`ConvWeights::Dense`] on the same weights
/// reads NaN (`0·inf`).
///
/// They also skip the input channels a [`KeptRows`] leaves out: only
/// the live planes are padded and lowered (or quantized), and the
/// multiply's depth is `live × kh × kw`. A channel is left out only
/// when the caller says it is dead — exactly `+0` in every image — and
/// every weight on it is finite, so each dropped term is `w·(+0)`, a
/// signed zero. The f32 sums start at `+0` and add one fused
/// multiply-add per term in ascending order, so they never hold `-0`,
/// and adding a zero to a sum that is not `-0` leaves it as it was;
/// the int8 sums are exact integers. The bias is added after the sum
/// in both. So dropping the dead channels changes no output bit,
/// against [`ConvWeights::Dense`] (or the full int8 bands) on the same
/// input. A dead channel with a non-finite weight on it (`inf·0` is
/// NaN) is kept.
///
/// When `ws` carries a [`Team`](team::Team), the call spreads across it
/// ([`mod@team`]). The output is `n × groups` bands, one per image
/// and group, each lowered and multiplied independently: with at least
/// as many bands as threads the bands are cut across the team, each
/// thread lowering into its own workspace (a batch-1 grouped layer
/// splits by groups, a batch by images). With fewer, each band's dense
/// multiply (f32 or int8, all filters or the kept ones) is cut by rows
/// of `A`, and first its lowering by panel ranges into as many parts
/// (f32 panels or int8 quad panels), the pieces reading the caller's
/// padded image and writing their own panels of the caller's packed
/// `B`. Either way a piece is the same kernel on a sub-range, so the
/// output is bitwise the one-thread call's. The CSR form splits only
/// by bands.
///
/// Lowering scratch is the caller's `ws` and `out` is reshaped in
/// place, so steady-state calls allocate nothing. When
/// [`cap_obs::timing_enabled`], lowering and multiply time are credited
/// to the `im2col_time_ns` / `gemm_time_ns` counters as wall time on
/// the thread that runs the band: a lowering or multiply split across
/// the team counts once, on the caller, and a band split sums its
/// bands' times over the threads that ran them. The Winograd input
/// transform counts as lowering, its products and output transform as
/// multiply.
pub fn conv2d(
    input: &Tensor4,
    weights: ConvWeights<'_>,
    bias: Option<&[f32]>,
    relu: bool,
    params: &Conv2dParams,
    ws: &mut Workspace,
    out: &mut Tensor4,
) -> TensorResult<()> {
    params.validate()?;
    params.check_io(input, bias)?;
    weights.check(params)?;
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    out.resize(n, params.out_channels, oh, ow);
    let call = ConvCall {
        weights,
        bias,
        relu,
        params,
        h,
        w,
        n_out: oh * ow,
    };
    let bands = n * params.groups;
    if ws.team.as_ref().is_some_and(|t| bands >= t.threads()) {
        let band_len = (params.out_per_group() * call.n_out).max(1);
        let macs = call.macs_per_image() * n as u64;
        let by_bands = |offset: usize, out: &mut [f32], ws: &mut Workspace| {
            call.bands(input.as_slice(), offset / band_len, out, ws)
        };
        return team::split_scratch(ws, macs, out.as_mut_slice(), band_len, &by_bands);
    }
    call.bands(input.as_slice(), 0, out.as_mut_slice(), ws)
}

/// Weights a narrowed form multiplies per output pixel: kept rows ×
/// live channels × taps, over the groups.
fn narrowed_taps<W>(bands: &[KeptRows<W>], params: &Conv2dParams) -> usize {
    let taps = params.kh * params.kw;
    bands
        .iter()
        .map(|b| b.rows.len() * b.live.len() * taps)
        .sum()
}

/// One validated [`conv2d`] call: everything but the images.
#[derive(Clone, Copy)]
struct ConvCall<'a> {
    weights: ConvWeights<'a>,
    bias: Option<&'a [f32]>,
    relu: bool,
    params: &'a Conv2dParams,
    h: usize,
    w: usize,
    n_out: usize,
}

impl ConvCall<'_> {
    /// Multiply-accumulates of one image under this weight form.
    fn macs_per_image(&self) -> u64 {
        let taps = match self.weights {
            ConvWeights::Dense(_) => self.params.out_channels * self.params.col_rows(),
            ConvWeights::DenseRows(b) => narrowed_taps(b, self.params),
            ConvWeights::DenseI8 { bands, .. } => narrowed_taps(bands, self.params),
            ConvWeights::Csr(b) => b.iter().map(CsrMatrix::nnz).sum(),
            ConvWeights::Winograd(_) => {
                let tiles = Tiles::new(1, self.h, self.w).count();
                let per_tile = POSITIONS * self.params.in_per_group() * self.params.out_channels;
                return (per_tile * tiles) as u64;
            }
        };
        (taps * self.n_out) as u64
    }

    /// [`ConvCall::bands`] for the Winograd form: per band, the input
    /// transform into the workspace's `packed` slot (split by tile
    /// panels), then the 16 products and the output transform (split by
    /// output-channel rows, each part with its own thread's `M` chunk in
    /// `cols`), into as many parts as the team gives the products.
    fn winograd_bands(
        &self,
        bands: &[WinogradBand],
        input: &[f32],
        first: usize,
        out: &mut [f32],
        ws: &mut Workspace,
    ) -> TensorResult<()> {
        let Self {
            bias,
            relu,
            params,
            h,
            w,
            n_out,
            ..
        } = *self;
        let (cpg, opg) = (params.in_per_group(), params.out_per_group());
        let tiles = Tiles::new(cpg, h, w);
        let timing = cap_obs::timing_enabled();
        let metrics = cap_obs::metrics();
        let macs = (POSITIONS * cpg * opg * tiles.count()) as u64;
        for (b, dst) in (first..).zip(out.chunks_mut((opg * n_out).max(1))) {
            let (i, g) = (b / params.groups, b % params.groups);
            let image = &input[(i * params.groups + g) * cpg * h * w..][..cpg * h * w];
            let row_bias = bias.map(|b| &b[g * opg..(g + 1) * opg]);
            // The input transform splits its tile panels into as many
            // parts as the products will split their rows.
            let parts = team::row_parts(
                ws.team.as_ref(),
                POSITIONS * cpg,
                tiles.count(),
                opg * tiles.count(),
            );
            let t_col = split_clock(timing);
            winograd::transform_image(
                &tiles,
                image,
                ws.team.as_mut(),
                parts,
                &mut ws.padded,
                &mut ws.packed,
            )?;
            credit_ns(t_col, &metrics.im2col_time_ns);

            let t_gemm = split_clock(timing);
            // `V` leaves the workspace for the products, so each part can
            // borrow its own thread's workspace for `M`.
            let v = std::mem::take(&mut ws.packed);
            let band = &bands[g];
            let products = |offset: usize, piece: &mut [f32], ws: &mut Workspace| {
                let r0 = offset / n_out.max(1);
                let rows = r0..r0 + piece.len() / n_out.max(1);
                winograd::products_into(
                    &tiles,
                    band,
                    v.as_slice(),
                    rows,
                    row_bias,
                    relu,
                    &mut ws.cols,
                    piece,
                )
            };
            let outcome = team::split_scratch(ws, macs, dst, ROW_BLOCK * n_out, &products);
            ws.packed = v;
            outcome?;
            credit_ns(t_gemm, &metrics.gemm_time_ns);
        }
        Ok(())
    }

    /// Convolve the output bands `first..` that `out` holds — band `b`
    /// is group `b % groups` of image `b / groups` of the batch
    /// `input`, an `out_per_group × oh*ow` matrix — scratch and team
    /// from `ws`.
    fn bands(
        &self,
        input: &[f32],
        first: usize,
        out: &mut [f32],
        ws: &mut Workspace,
    ) -> TensorResult<()> {
        if let ConvWeights::Winograd(bands) = self.weights {
            return self.winograd_bands(bands, input, first, out, ws);
        }
        let Self {
            weights,
            bias,
            relu,
            params,
            h,
            w,
            n_out,
        } = *self;
        let cpg = params.in_per_group();
        let opg = params.out_per_group();
        let col_rows = params.col_rows();
        // One group's lowering: its input channels, padded once, into
        // its patch matrix.
        let lo = Lowering::new(cpg, h, w, params.kh, params.kw, params.pad, params.stride)?;

        // One relaxed load outside the band loop decides whether the
        // GEMM/im2col split is measured for this call.
        let timing = cap_obs::timing_enabled();
        let metrics = cap_obs::metrics();
        let Workspace {
            cols,
            packed,
            qbuf,
            padded,
            qimage,
            team,
        } = ws;

        for (b, dst) in (first..).zip(out.chunks_mut((opg * n_out).max(1))) {
            let (i, g) = (b / params.groups, b % params.groups);
            let image = &input[(i * params.groups + g) * cpg * h * w..][..cpg * h * w];
            // `bias[g*opg + r]` is the bias of GEMM row `r`, so the
            // group's bias slice is a per-row epilogue.
            let row_bias = bias.map(|b| &b[g * opg..(g + 1) * opg]);
            let epi = Epilogue {
                bias: row_bias.map(EpiBias::PerRow),
                relu,
            };
            // A narrowed form's kept rows and live planes for this group.
            let kept = match weights {
                ConvWeights::DenseRows(bands) => Some((&bands[g].rows[..], &bands[g].live[..])),
                ConvWeights::DenseI8 { bands, .. } => {
                    Some((&bands[g].rows[..], &bands[g].live[..]))
                }
                _ => None,
            };
            let lo = match kept {
                Some((rows, live)) if rows.is_empty() || live.is_empty() => {
                    // No filter kept, or no channel that can be
                    // non-zero: every row is its zero product's constant.
                    spread(&[], dst, n_out, row_bias, relu);
                    continue;
                }
                Some((_, live)) => Lowering::new(
                    live.len(),
                    h,
                    w,
                    params.kh,
                    params.kw,
                    params.pad,
                    params.stride,
                )?,
                None => lo,
            };
            let live = kept.map(|(_, live)| live);
            let depth = lo.rows();
            let product_len = kept.map_or(dst.len(), |(rows, _)| rows.len() * n_out);
            let t_col = split_clock(timing);
            // Each form pads the group's (live) channels once (the int8
            // form quantizes straight into the padded layout:
            // quantization commutes with lowering, which only copies
            // values and pads with zero, so the image is quantized once
            // instead of once per patch element) and lowers straight
            // into the layout its multiply reads — one write pass, no
            // repack.
            match weights {
                ConvWeights::Dense(_) | ConvWeights::DenseRows(_) => {
                    // The multiply about to run splits its output rows
                    // into as many parts as its lowering's panels.
                    let parts = team::row_parts(team.as_ref(), depth, n_out, product_len);
                    let image = lo.padded(image, live, padded)?;
                    lo.panels_into(team.as_mut(), parts, image, packed)?
                }
                ConvWeights::Csr(_) => {
                    cols.resize_for_overwrite(col_rows, n_out);
                    lo.rows_into(lo.padded(image, None, padded)?, cols.as_mut_slice())?
                }
                ConvWeights::DenseI8 { act_scale, .. } => {
                    let kp = padded_depth(depth);
                    let parts = team::row_parts(team.as_ref(), kp, n_out, product_len);
                    lo.quantize_padded(image, live, 1.0 / act_scale, qimage)?;
                    lo.quads_into(team.as_mut(), parts, qimage, qbuf)?;
                }
                ConvWeights::Winograd(_) => unreachable!("handled by winograd_bands"),
            }
            credit_ns(t_col, &metrics.im2col_time_ns);

            let t_gemm = split_clock(timing);
            let team = team.as_mut();
            match weights {
                ConvWeights::Dense(wm) => {
                    let a = &wm.as_slice()[g * opg * col_rows..(g + 1) * opg * col_rows];
                    let b = packed.as_slice();
                    team::split_rows(team, col_rows, n_out, dst, &|rows, part| {
                        let a = &a[rows.start * col_rows..rows.end * col_rows];
                        gemm_packed(
                            a,
                            rows.len(),
                            col_rows,
                            n_out,
                            b,
                            part,
                            epi.offset(rows.start, 0),
                        )
                    })?
                }
                ConvWeights::DenseRows(bands) => {
                    let (a, b) = (&bands[g].weights, packed.as_slice());
                    let rows = &bands[g].rows;
                    multiply_kept(
                        team,
                        rows,
                        depth,
                        n_out,
                        dst,
                        row_bias,
                        relu,
                        &|rows, part, epi| {
                            let a = &a[rows.start * depth..rows.end * depth];
                            gemm_packed(a, rows.len(), depth, n_out, b, part, epi)
                        },
                    )?
                }
                ConvWeights::Csr(bands) => {
                    bands[g].spmm_into(cols.as_slice(), n_out, dst, row_bias, relu)?
                }
                ConvWeights::DenseI8 { bands, act_scale } => {
                    let band = &bands[g].weights;
                    let (kp, scale) = (band.kp(), band.scale() * act_scale);
                    let b = qbuf.as_slice();
                    let rows = &bands[g].rows;
                    multiply_kept(
                        team,
                        rows,
                        kp,
                        n_out,
                        dst,
                        row_bias,
                        relu,
                        &|rows, part, epi| {
                            let a = &band.data()[rows.start * kp..];
                            gemm_i8(a, rows.len(), kp, n_out, b, part, scale, epi)
                        },
                    )?
                }
                ConvWeights::Winograd(_) => unreachable!("handled by winograd_bands"),
            }
            credit_ns(t_gemm, &metrics.gemm_time_ns);
        }
        Ok(())
    }
}

/// [`multiply_kept`]'s multiply of product rows into a piece.
type KeptMultiply<'a> =
    dyn Fn(Range<usize>, &mut [f32], Epilogue<'_>) -> TensorResult<()> + Sync + 'a;

/// A narrowed band's multiply, its output rows cut across `team`:
/// `multiply(rows, part, epi)` writes product rows `rows` of the kept
/// filters into `part`. With every filter kept that is the band itself,
/// the epilogue fused into the store; otherwise the plain products go
/// to the head of `dst` and [`spread`] moves each to its channel (no
/// side buffer), applying the epilogue there — the same
/// `(v + bias)`-then-ReLU either way.
#[allow(clippy::too_many_arguments)]
fn multiply_kept(
    team: Option<&mut team::Team>,
    rows: &[usize],
    depth: usize,
    n_out: usize,
    dst: &mut [f32],
    bias: Option<&[f32]>,
    relu: bool,
    multiply: &KeptMultiply<'_>,
) -> TensorResult<()> {
    if rows.len() * n_out == dst.len() {
        let epi = Epilogue {
            bias: bias.map(EpiBias::PerRow),
            relu,
        };
        return team::split_rows(team, depth, n_out, dst, &|r, part| {
            multiply(r.clone(), part, epi.offset(r.start, 0))
        });
    }
    let head = &mut dst[..rows.len() * n_out];
    team::split_rows(team, depth, n_out, head, &|r, part| {
        multiply(r, part, Epilogue::NONE)
    })?;
    spread(rows, dst, n_out, bias, relu);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv2d_direct;
    use proptest::prelude::*;

    fn det_input(n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_fn(n, c, h, w, |ni, ci, hi, wi| {
            (((ni * 7 + ci * 5 + hi * 3 + wi) % 11) as f32 - 5.0) / 5.0
        })
    }

    fn det_weights(params: &Conv2dParams, seed: usize) -> Matrix {
        Matrix::from_fn(params.out_channels, params.col_rows(), |r, c| {
            ((((r + seed) * 13 + c * 7) % 9) as f32 - 4.0) / 4.0
        })
    }

    fn run(
        input: &Tensor4,
        weights: ConvWeights<'_>,
        bias: Option<&[f32]>,
        params: &Conv2dParams,
    ) -> TensorResult<Tensor4> {
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        conv2d(
            input,
            weights,
            bias,
            false,
            params,
            &mut Workspace::new(),
            &mut out,
        )?;
        Ok(out)
    }

    #[test]
    fn dense_matches_direct_ungrouped() {
        let params = Conv2dParams::new(3, 8, 3, 1, 2);
        let input = det_input(2, 3, 9, 9);
        let weights = det_weights(&params, 1);
        let bias: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let a = run(&input, ConvWeights::Dense(&weights), Some(&bias), &params).unwrap();
        let b = conv2d_direct(&input, &weights, Some(&bias), &params).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn dense_matches_direct_grouped() {
        let params = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
        let input = det_input(2, 4, 7, 7);
        let weights = det_weights(&params, 2);
        let a = run(&input, ConvWeights::Dense(&weights), None, &params).unwrap();
        let b = conv2d_direct(&input, &weights, None, &params).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn csr_matches_dense() {
        let params = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
        let input = det_input(3, 4, 6, 6);
        let mut weights = det_weights(&params, 3);
        // Zero out ~half the weights to make it genuinely sparse.
        for (i, v) in weights.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let csr = ConvWeights::csr_bands(&weights, &params).unwrap();
        let bias = vec![0.5; 6];
        let dense_out = run(&input, ConvWeights::Dense(&weights), Some(&bias), &params).unwrap();
        let sparse_out = run(&input, ConvWeights::Csr(&csr), Some(&bias), &params).unwrap();
        assert!(dense_out.max_abs_diff(&sparse_out).unwrap() < 1e-4);
    }

    #[test]
    fn identity_1x1_conv() {
        // 1x1 conv with identity weight matrix passes channels through.
        let params = Conv2dParams::new(3, 3, 1, 0, 1);
        let input = det_input(1, 3, 4, 4);
        let weights = Matrix::identity(3);
        let out = run(&input, ConvWeights::Dense(&weights), None, &params).unwrap();
        assert!(out.max_abs_diff(&input).unwrap() < 1e-6);
    }

    #[test]
    fn bias_only_applied_per_channel() {
        let params = Conv2dParams::new(1, 2, 1, 0, 1);
        let input = Tensor4::zeros(1, 1, 2, 2);
        let weights = Matrix::zeros(2, 1);
        let bias = vec![1.5, -2.5];
        let out = run(&input, ConvWeights::Dense(&weights), Some(&bias), &params).unwrap();
        assert!(out.image(0)[..4].iter().all(|&v| v == 1.5));
        assert!(out.image(0)[4..].iter().all(|&v| v == -2.5));
    }

    #[test]
    fn validates_shapes() {
        let params = Conv2dParams::new(3, 8, 3, 1, 1);
        let input = det_input(1, 4, 6, 6); // wrong channels
        let weights = det_weights(&params, 0);
        assert!(run(&input, ConvWeights::Dense(&weights), None, &params).is_err());

        let input = det_input(1, 3, 6, 6);
        let bad_weights = Matrix::zeros(8, 26); // wrong cols
        assert!(run(&input, ConvWeights::Dense(&bad_weights), None, &params).is_err());
        assert!(run(
            &input,
            ConvWeights::Dense(&weights),
            Some(&[0.0; 7]),
            &params
        )
        .is_err());

        // Banded forms: band count and band shape are both checked.
        let grouped = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
        let bands = ConvWeights::csr_bands(&det_weights(&grouped, 0), &grouped).unwrap();
        let input = det_input(1, 4, 6, 6);
        assert!(run(&input, ConvWeights::Csr(&bands[..1]), None, &grouped).is_err());
        let ungrouped = Conv2dParams::new(4, 6, 3, 1, 1);
        assert!(run(&input, ConvWeights::Csr(&bands[..1]), None, &ungrouped).is_err());
    }

    #[test]
    fn validates_groups() {
        let params = Conv2dParams::grouped(3, 8, 3, 1, 1, 2); // 3 % 2 != 0
        assert!(params.validate().is_err());
        let params = Conv2dParams::grouped(4, 8, 3, 1, 1, 0);
        assert!(params.validate().is_err());
    }

    #[test]
    fn macs_counts_caffenet_conv1() {
        // Caffenet conv1: 224x224x3 in, 96 filters 11x11, stride 4, pad 2 -> 55x55.
        let p = Conv2dParams::new(3, 96, 11, 2, 4);
        let macs = p.macs(224, 224).unwrap();
        assert_eq!(macs, 96 * 55 * 55 * 3 * 11 * 11);
    }

    proptest! {
        #[test]
        fn prop_dense_matches_direct(
            c in 1usize..4, oc_half in 1usize..3, k in 1usize..4,
            pad in 0usize..2, stride in 1usize..3, h in 4usize..8,
        ) {
            let params = Conv2dParams::new(c, oc_half * 2, k, pad, stride);
            let input = det_input(1, c, h, h);
            let weights = det_weights(&params, 5);
            let a = run(&input, ConvWeights::Dense(&weights), None, &params).unwrap();
            let b = conv2d_direct(&input, &weights, None, &params).unwrap();
            prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-3);
        }
    }
}
