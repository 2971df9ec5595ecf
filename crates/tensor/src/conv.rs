//! 2-D convolution: geometry ([`Conv2dParams`]), the weight operand
//! ([`ConvWeights`]: f32 dense, as one matrix or one band per group,
//! or Winograd-transformed; or int8 dense) and the one driver ([`conv2d`])
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
use crate::team;
use crate::tensor4::Tensor4;
use crate::winograd::{self, Tiles, WinogradBand, POSITIONS};
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};
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

/// The weight operand of [`conv2d`]: which stored form of the filters
/// the multiply runs on. A borrowed, `Copy` view — the owner (a layer,
/// a test) keeps whichever forms it needs and hands one over per call.
///
/// Every banded form holds one entry per channel group, and each band
/// carries its group's own widths: its filter count (output channels)
/// and the input channels it reads (its depth over `kh × kw`). The
/// widths of the groups sum to the geometry's `out_channels` and
/// `in_channels`, and may differ from group to group: a narrowed
/// grouped conv (`cap_cnn::Network::narrow`) keeps whichever filters
/// and input channels of each group survived pruning. Only
/// [`ConvWeights::Dense`] needs groups of one width.
/// [`ConvWeights::winograd_bands`] and [`ConvWeights::i8_bands`] build
/// the bands from a dense matrix of even groups;
/// [`WinogradBand::transform`] and [`QuantizedA::quantize`] build one
/// band from one group's filters.
///
/// Zero weights choose no form: every form multiplies them like any
/// other value, so a magnitude-pruned conv runs at its dense cost
/// whatever its sparsity. Filter pruning removes work by narrowing the
/// network instead.
#[derive(Debug, Clone, Copy)]
pub enum ConvWeights<'a> {
    /// Dense f32, every group `out_per_group × col_rows`: group `g`'s
    /// filters are the contiguous row band `g*out_per_group..`, so no
    /// per-group copy exists. Lowering is the fused im2col-and-pack;
    /// the multiply is [`gemm_packed`].
    Dense(&'a Matrix),
    /// Dense f32 as one row-major `out_g × in_g·kh·kw` matrix per group:
    /// [`ConvWeights::Dense`] for groups of uneven widths, with the same
    /// lowering and multiply, so the same bits per output.
    Bands(&'a [Matrix]),
    /// Dense f32 in Winograd F(2×2, 3×3) form, for 3×3 stride-1 pad-1
    /// convolutions only ([`winograd::fits`]): per group the 16
    /// `out_g × in_g` matrices `U = G g Gᵀ`. Lowering
    /// is the input transform `Bᵀ d B` of every 2×2-output tile, packed
    /// as 16 panel matrices; the multiply is 16 [`gemm_packed`]s and
    /// the output transform `Aᵀ M A`, with the bias and ReLU, stored in
    /// place — 2.25× fewer multiplies than [`ConvWeights::Dense`], and
    /// a different rounding (bounded against the f64 oracle
    /// [`crate::reference::conv2d_f64`] in `tests/winograd_oracle.rs`).
    Winograd(&'a [WinogradBand]),
    /// Int8 dense: pre-quantized weight bands against activations
    /// quantized with `act_scale` (calibrated, or the caller's max-abs
    /// estimate) — each input image once, before lowering; the lowering
    /// moves i8 straight into the quad-interleaved panel layout; the
    /// multiply is [`gemm_i8`], dequantizing by `weight scale ·
    /// act_scale` in its store.
    DenseI8 {
        /// Quantized weight bands, `out_g × in_g·kh·kw` each.
        bands: &'a [QuantizedA],
        /// Activation quantization scale for this call.
        act_scale: f32,
    },
}

impl ConvWeights<'_> {
    /// Per-group Winograd transform of dense `weights`: the 16 matrices
    /// `U = G g Gᵀ` of each group. Errors unless the geometry is one
    /// the form computes ([`winograd::fits`]: 3×3, stride 1, pad 1).
    pub fn winograd_bands(
        weights: &Matrix,
        params: &Conv2dParams,
    ) -> TensorResult<Vec<WinogradBand>> {
        params.check_weights(weights.shape())?;
        winograd::check_fits(params)?;
        let (opg, col_rows) = (params.out_per_group(), params.col_rows());
        Ok(weights
            .as_slice()
            .chunks_exact((opg * col_rows).max(1))
            .map(|filters| WinogradBand::transform(filters, opg, params.in_per_group()))
            .collect())
    }

    /// Per-group int8 quantization of dense `weights`, one max-abs scale
    /// over the whole layer (per-layer symmetric quantization).
    pub fn i8_bands(weights: &Matrix, params: &Conv2dParams) -> TensorResult<Vec<QuantizedA>> {
        params.check_weights(weights.shape())?;
        let scale = symmetric_scale(weights.as_slice());
        let (opg, col_rows) = (params.out_per_group(), params.col_rows());
        Ok(weights
            .as_slice()
            .chunks_exact((opg * col_rows).max(1))
            .map(|band| QuantizedA::quantize(band, opg, col_rows, scale))
            .collect())
    }

    /// Group `g`'s `(input channels, filters, depth)`: the depth is what
    /// its band holds per filter, `input channels × kh × kw` in a valid
    /// form (a Winograd band's per-tap depth is its input channels).
    fn band_shape(&self, params: &Conv2dParams, g: usize) -> (usize, usize, usize) {
        let taps = params.kh * params.kw;
        let (rows, depth) = match self {
            ConvWeights::Dense(_) => (params.out_per_group(), params.col_rows()),
            ConvWeights::Bands(b) => b[g].shape(),
            ConvWeights::Winograd(b) => {
                let (rows, cin) = b[g].shape();
                return (cin, rows, cin * taps);
            }
            ConvWeights::DenseI8 { bands, .. } => (bands[g].rows(), bands[g].k()),
        };
        (depth / taps.max(1), rows, depth)
    }

    /// Check this form against the geometry: the dense matrix's shape,
    /// or one band per group whose widths sum to the geometry's
    /// channels, each `filters × input channels·kh·kw`.
    fn check(&self, params: &Conv2dParams) -> TensorResult<()> {
        let bands = match self {
            ConvWeights::Dense(w) => {
                params.validate()?;
                return params.check_weights(w.shape());
            }
            ConvWeights::Bands(b) => b.len(),
            ConvWeights::Winograd(b) => b.len(),
            ConvWeights::DenseI8 { bands, .. } => bands.len(),
        };
        if params.groups == 0 || bands != params.groups {
            return Err(ShapeError::new(format!(
                "conv: {bands} weight bands for {} groups",
                params.groups
            )));
        }
        if let ConvWeights::Winograd(_) = self {
            winograd::check_fits(params)?;
        }
        let (mut cin, mut rows) = (0, 0);
        for g in 0..bands {
            let (c, r, depth) = self.band_shape(params, g);
            if depth != c * params.kh * params.kw {
                return Err(ShapeError::new(format!(
                    "conv: weight band {g} is {depth} deep, not a whole number of {}x{} kernels",
                    params.kh, params.kw
                )));
            }
            (cin, rows) = (cin + c, rows + r);
        }
        if (cin, rows) != (params.in_channels, params.out_channels) {
            return Err(ShapeError::new(format!(
                "conv: weight bands read {cin} input channels into {rows} filters, \
                 expected {} into {}",
                params.in_channels, params.out_channels
            )));
        }
        Ok(())
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
/// `out_g × oh*ow` row-major matrix in place, so nothing is
/// copied afterwards. `relu` appends the `forward_into`-flavor ReLU;
/// the result is bitwise identical to the unfused convolution followed
/// by a standalone ReLU layer, on every kernel path.
///
/// Each group reads its own input channels and writes its own filters'
/// output channels, in group order, at the widths its band carries (see
/// [`ConvWeights`]): groups of uneven widths are how a filter-pruned
/// grouped conv runs once it is narrowed. A group with no input channel
/// is its bias broadcast through the epilogue; one with no filter
/// writes nothing.
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
/// Every form multiplies zero weights like any other, so with
/// non-finite activations a zero filter reads NaN (`0·inf`), where a
/// narrowed conv without it has no channel at all.
///
/// When `ws` carries a [`Team`](team::Team), the call spreads across it
/// ([`mod@team`]). The output is `n × groups` bands, one per image
/// and group, each lowered and multiplied independently: with at least
/// as many bands as threads the bands are cut across the team, each
/// thread lowering into its own workspace (a batch-1 grouped layer
/// splits by groups, a batch by images). With fewer, each band's dense
/// multiply (f32 or int8) is cut by rows
/// of `A`, and first its lowering by panel ranges into as many parts
/// (f32 panels or int8 quad panels), the pieces reading the caller's
/// padded image and writing their own panels of the caller's packed
/// `B`. Either way a piece is the same kernel on a sub-range, so the
/// output is bitwise the one-thread call's.
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
    weights.check(params)?;
    params.check_io(input, bias)?;
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
        let macs = call.macs_per_image() * n as u64;
        let start = |b: usize| call.band(b).out_at;
        let by_bands = |offset: usize, out: &mut [f32], ws: &mut Workspace| {
            let first = (0..bands).find(|&b| start(b) == offset).unwrap_or(bands);
            call.bands(input.as_slice(), first, out, ws)
        };
        return team::split_scratch_at(ws, macs, out.as_mut_slice(), bands, &start, &by_bands);
    }
    call.bands(input.as_slice(), 0, out.as_mut_slice(), ws)
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

/// Where band `b` (group `g` of image `i`) of a [`conv2d`] call reads
/// and writes.
struct Band {
    g: usize,
    /// Input channels and filters of the group.
    cin: usize,
    rows: usize,
    /// The group's first filter (its first bias).
    row_at: usize,
    /// The band's first input element in the batch, and its first
    /// output element.
    in_at: usize,
    out_at: usize,
}

impl ConvCall<'_> {
    /// Band `b` of the batch; band `n·groups` starts at the end of the
    /// output.
    fn band(&self, b: usize) -> Band {
        let p = self.params;
        let (i, g) = (b / p.groups, b % p.groups);
        let (mut cin_at, mut row_at) = (0, 0);
        for before in 0..g {
            let (cin, rows, _) = self.weights.band_shape(p, before);
            (cin_at, row_at) = (cin_at + cin, row_at + rows);
        }
        let (cin, rows, _) = self.weights.band_shape(p, g);
        Band {
            g,
            cin,
            rows,
            row_at,
            in_at: (i * p.in_channels + cin_at) * self.h * self.w,
            out_at: (i * p.out_channels + row_at) * self.n_out,
        }
    }

    /// Multiply-accumulates of one image under this weight form.
    fn macs_per_image(&self) -> u64 {
        let p = self.params;
        let macs: usize = match self.weights {
            ConvWeights::Winograd(b) => {
                let tiles = Tiles::new(1, self.h, self.w).count();
                let taps: usize = b.iter().map(|band| band.shape().0 * band.shape().1).sum();
                POSITIONS * taps * tiles
            }
            _ => (0..p.groups)
                .map(|g| {
                    let (_, rows, depth) = self.weights.band_shape(p, g);
                    rows * depth * self.n_out
                })
                .sum(),
        };
        macs as u64
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
            h,
            w,
            n_out,
            ..
        } = *self;
        let timing = cap_obs::timing_enabled();
        let metrics = cap_obs::metrics();
        let (mut b, mut rest) = (first, out);
        while !rest.is_empty() {
            let Band {
                g,
                cin,
                rows,
                row_at,
                in_at,
                ..
            } = self.band(b);
            b += 1;
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(rows * n_out);
            rest = tail;
            let row_bias = bias.map(|b| &b[row_at..row_at + rows]);
            if rows == 0 {
                continue;
            }
            if cin == 0 {
                constant_rows(dst, n_out, row_bias, relu);
                continue;
            }
            let tiles = Tiles::new(cin, h, w);
            let macs = (POSITIONS * cin * rows * tiles.count()) as u64;
            let image = &input[in_at..][..cin * h * w];
            // The input transform splits its tile panels into as many
            // parts as the products will split their rows.
            let parts = team::row_parts(
                ws.team.as_ref(),
                POSITIONS * cin,
                tiles.count(),
                rows * tiles.count(),
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
    /// `input`, an `out_g × oh*ow` matrix — scratch and team
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

        // One relaxed load outside the band loop decides whether the
        // GEMM/im2col split is measured for this call.
        let timing = cap_obs::timing_enabled();
        let metrics = cap_obs::metrics();
        let Workspace {
            packed,
            qbuf,
            padded,
            qimage,
            team,
            ..
        } = ws;

        let (mut b, mut rest) = (first, out);
        while !rest.is_empty() {
            let Band {
                g,
                cin,
                rows,
                row_at,
                in_at,
                ..
            } = self.band(b);
            b += 1;
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(rows * n_out);
            rest = tail;
            // `bias[row_at + r]` is the bias of GEMM row `r`, so the
            // group's bias slice is a per-row epilogue.
            let row_bias = bias.map(|b| &b[row_at..row_at + rows]);
            if rows == 0 {
                continue;
            }
            if cin == 0 {
                constant_rows(dst, n_out, row_bias, relu);
                continue;
            }
            let epi = Epilogue {
                bias: row_bias.map(EpiBias::PerRow),
                relu,
            };
            let image = &input[in_at..][..cin * h * w];
            // The group's lowering: its input channels, padded once, into
            // its patch matrix.
            let lo = Lowering::new(cin, h, w, params.kh, params.kw, params.pad, params.stride)?;
            let depth = lo.rows();
            let t_col = split_clock(timing);
            // Each form pads the group's channels once (the int8
            // form quantizes straight into the padded layout:
            // quantization commutes with lowering, which only copies
            // values and pads with zero, so the image is quantized once
            // instead of once per patch element) and lowers straight
            // into the layout its multiply reads — one write pass, no
            // repack.
            match weights {
                ConvWeights::Dense(_) | ConvWeights::Bands(_) => {
                    // The multiply about to run splits its output rows
                    // into as many parts as its lowering's panels.
                    let parts = team::row_parts(team.as_ref(), depth, n_out, dst.len());
                    let image = lo.padded(image, padded)?;
                    lo.panels_into(team.as_mut(), parts, image, packed)?
                }
                ConvWeights::DenseI8 { act_scale, .. } => {
                    let kp = padded_depth(depth);
                    let parts = team::row_parts(team.as_ref(), kp, n_out, dst.len());
                    lo.quantize_padded(image, 1.0 / act_scale, qimage)?;
                    lo.quads_into(team.as_mut(), parts, qimage, qbuf)?;
                }
                ConvWeights::Winograd(_) => unreachable!("handled by winograd_bands"),
            }
            credit_ns(t_col, &metrics.im2col_time_ns);

            let t_gemm = split_clock(timing);
            let team = team.as_mut();
            let b = packed.as_slice();
            let multiply_f32 = |a: &[f32], team, dst: &mut [f32]| {
                team::split_rows(team, depth, n_out, dst, &|rows, part| {
                    let a = &a[rows.start * depth..rows.end * depth];
                    let epi = epi.offset(rows.start, 0);
                    gemm_packed(a, rows.len(), depth, n_out, b, part, epi)
                })
            };
            match weights {
                ConvWeights::Dense(wm) => {
                    let a = &wm.as_slice()[g * rows * depth..(g + 1) * rows * depth];
                    multiply_f32(a, team, dst)?
                }
                ConvWeights::Bands(bands) => multiply_f32(bands[g].as_slice(), team, dst)?,
                ConvWeights::DenseI8 { bands, act_scale } => {
                    let band = &bands[g];
                    let (kp, scale) = (band.kp(), band.scale() * act_scale);
                    let b = qbuf.as_slice();
                    team::split_rows(team, kp, n_out, dst, &|rows, part| {
                        let a = &band.data()[rows.start * kp..];
                        let epi = epi.offset(rows.start, 0);
                        gemm_i8(a, rows.len(), kp, n_out, b, part, scale, epi)
                    })?
                }
                ConvWeights::Winograd(_) => unreachable!("handled by winograd_bands"),
            }
            credit_ns(t_gemm, &metrics.gemm_time_ns);
        }
        Ok(())
    }
}

/// Fill a band of `n_out`-long rows with the constant a group without
/// input channels yields: each row's `epi(0.0 + bias)`.
fn constant_rows(dst: &mut [f32], n_out: usize, bias: Option<&[f32]>, relu: bool) {
    for (r, row) in dst.chunks_mut(n_out.max(1)).enumerate() {
        row.fill(kernels::scalar::epilogue_one(0.0, bias.map(|b| b[r]), relu));
    }
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
        let w = det_weights(&grouped, 0);
        let bands: Vec<Matrix> = w
            .as_slice()
            .chunks_exact(3 * grouped.col_rows())
            .map(|band| Matrix::from_vec(3, grouped.col_rows(), band.to_vec()).unwrap())
            .collect();
        let input = det_input(1, 4, 6, 6);
        assert!(run(&input, ConvWeights::Bands(&bands), None, &grouped).is_ok());
        assert!(run(&input, ConvWeights::Bands(&bands[..1]), None, &grouped).is_err());
        let ungrouped = Conv2dParams::new(4, 6, 3, 1, 1);
        assert!(run(&input, ConvWeights::Bands(&bands[..1]), None, &ungrouped).is_err());
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
