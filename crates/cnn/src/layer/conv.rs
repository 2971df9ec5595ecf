//! Convolution layer: one dense form per precision, Winograd for the
//! 3×3s that gain from it.

use super::{
    sparsity_counting_pruned, ActScale, ChannelUse, ChwShape, Layer, LayerKind, WeightScan,
};
use cap_tensor::{
    conv2d, precision, symmetric_scale, winograd, CalibrationMethod, Conv2dParams, ConvWeights,
    Matrix, Precision, QuantizedA, ShapeError, Tensor4, TensorResult, WinogradBand, Workspace,
};
use std::sync::OnceLock;

/// Fewest input and output channels per group at which a dense f32
/// 3×3 stride-1 pad-1 conv runs the Winograd form: from `cargo bench
/// -p cap-bench --bench conv_strategy -- winograd` (table in
/// EXPERIMENTS.md "PR 36"), im2col ÷ Winograd time at one and two
/// workers: 0.58–0.67 at 16→32 channels on a 28×28 map, 0.89–0.90 at
/// 24→24 on 16×16, 0.93–0.96 at 32→32 on 14×14 (1.08–1.13 on 7×7), and
/// 1.35–1.40 at 64→64 on 7×7; every Googlenet and Caffenet 3×3 (64 to
/// 384 per group) gains 1.1–1.7×. The serving demo net's convs (3→8,
/// 8→8: 0.33–0.55) stay on im2col.
pub const WINOGRAD_MIN_CHANNELS: usize = 64;

/// Smallest input map side (height and width) at which the Winograd
/// form runs. Every 3×3 of Googlenet and Caffenet on a map of 13 or
/// more gains 1.2–1.5× (same bench). Googlenet's two 7×7 inception-5
/// 3×3s gain too, but little: ~1 ms of a one-thread pass for 7.6 MiB
/// of transformed filters, which took `googlenet_dense_b1`'s peak RSS
/// to +5.0 % of the im2col build's (EXPERIMENTS.md "PR 36"), so maps
/// below 8 stay on im2col.
pub const WINOGRAD_MIN_MAP: usize = 8;

/// The stored forms a [`ConvLayer`] multiplies with.
#[derive(Clone, Copy)]
enum Form {
    Dense,
    Winograd,
    DenseI8,
}

impl Form {
    /// The form a layer of geometry `params`, built with groups `width`
    /// channels wide (the fewer of input and output), runs in on an
    /// `h×w` input map under the selected precision. It keys on
    /// geometry only, never the weights' values, the batch or the
    /// thread count, so an image's output bits depend on none of them.
    fn of(params: &Conv2dParams, width: usize, (h, w): (usize, usize)) -> Self {
        let winograd = winograd::fits(params)
            && width >= WINOGRAD_MIN_CHANNELS
            && h.min(w) >= WINOGRAD_MIN_MAP;
        match precision::selected() {
            Precision::Int8 => Form::DenseI8,
            Precision::F32 if winograd => Form::Winograd,
            Precision::F32 => Form::Dense,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Form::Dense => "dense",
            Form::Winograd => "winograd",
            Form::DenseI8 => "dense-i8",
        }
    }
}

/// A conv's f32 filters, its one stored copy of them.
#[derive(Debug, Clone)]
enum Filters {
    /// Every group `out_per_group × col_rows` of the geometry: one
    /// matrix, group `g`'s filters the row band `g*out_per_group..`.
    Even(Matrix),
    /// One `filters × input channels·kh·kw` matrix per group, the groups
    /// of uneven widths: a narrowed grouped conv whose groups lost
    /// different numbers of filters or input channels.
    Uneven(Vec<Matrix>),
}

impl Filters {
    /// Group `g`'s filters, row-major, with their count and depth.
    fn band(&self, params: &Conv2dParams, g: usize) -> (&[f32], usize, usize) {
        match self {
            Filters::Even(w) => {
                let (rows, depth) = (params.out_per_group(), params.col_rows());
                (
                    &w.as_slice()[g * rows * depth..(g + 1) * rows * depth],
                    rows,
                    depth,
                )
            }
            Filters::Uneven(bands) => (bands[g].as_slice(), bands[g].rows(), bands[g].cols()),
        }
    }

    /// Every group's band, in order.
    fn bands<'a>(
        &'a self,
        params: &'a Conv2dParams,
    ) -> impl Iterator<Item = (&'a [f32], usize, usize)> + 'a {
        (0..params.groups).map(move |g| self.band(params, g))
    }

    fn len(&self) -> usize {
        match self {
            Filters::Even(w) => w.len(),
            Filters::Uneven(bands) => bands.iter().map(Matrix::len).sum(),
        }
    }
}

/// 2-D convolution layer (optionally grouped, AlexNet-style).
///
/// Weights are stored dense, one copy. The form they run in follows
/// from the geometry and the precision alone: f32 weights of a 3×3
/// stride-1 pad-1 conv wide enough and on a map large enough
/// (`WINOGRAD_MIN_*`) run the Winograd F(2×2, 3×3) form, 2.25× fewer
/// multiplies; the rest run im2col + GEMM; under int8 every conv runs
/// the dense int8 GEMM. Zero weights choose no form: a magnitude-pruned
/// conv is multiplied at its dense cost whatever its sparsity (a CSR
/// multiply pays only past ~80 % zeros, at a crossover that moves
/// between identical runs: EXPERIMENTS.md "Dense vs CSR crossover,
/// measured"). The weights are scanned once, when they are set (`new` /
/// `set_weights`) or narrowed, for the filters narrowing may remove.
///
/// Filter pruning pays by **narrowing** ([`crate::Network::narrow`],
/// which `cap_pruning::apply_to_network` runs after L1 filter
/// pruning): a pruned filter whose output is `+0` on every input is
/// removed with its bias, and its channel with it from every consumer
/// — a conv drops that input channel's `kh·kw` columns of each filter.
/// The narrowed layer is a smaller dense conv, in the form it ran before
/// (Caffenet's conv3–5 on Winograd), and its time falls with the
/// filters and channels that remain (`repro --exp profile`). A grouped conv keeps each group's own
/// widths, as filter pruning leaves them uneven across groups; it then
/// stores one band per group and [`Layer::weights`] is `None`. Until it
/// is narrowed, a zero filter is multiplied like any other row.
///
/// Narrowing changes no layer's algorithm: the Winograd test reads the
/// group widths the layer was built with (a 3×3 that qualified keeps
/// Winograd however few channels pruning leaves it, one that did not
/// stays on im2col), dropping a `+0` filter or channel removes only
/// terms that add a signed zero, and the int8 form quantizes the
/// weights at the max-abs scale they had when they were last set. So a
/// narrowed network computes the values of the full-width one, under
/// f32 and int8 alike.
///
/// The derived forms (per-group Winograd bands, the int8
/// quantization) are built on the first forward that needs them and
/// dropped by `set_weights` and by narrowing; im2col scratch is the
/// caller's [`Workspace`], so steady-state forwards allocate nothing,
/// take no lock and touch no reference count.
pub struct ConvLayer {
    name: String,
    params: Conv2dParams,
    filters: Filters,
    bias: Vec<f32>,
    /// `WeightScan` of `filters`, as of the last `new`/`set_weights`/narrow.
    scan: WeightScan,
    /// The fewer of the input and output channels per group the layer
    /// was built with, what the Winograd test reads.
    built_width: usize,
    /// The max-abs int8 scale of the weights as last set, worked out on
    /// first use (an int8 forward, or narrowing, which drops columns
    /// that may hold the largest weight and must not move a quantized
    /// one).
    weight_scale: OnceLock<f32>,
    /// Filters of each group removed by narrowing, for the sparsity
    /// pruning gave the layer.
    pruned: Vec<usize>,
    /// Per-group Winograd transform of the filters (dense f32 3×3 path).
    winograd: OnceLock<Vec<WinogradBand>>,
    /// Int8 quantization of the filters (the int8 path). Lazy rather
    /// than built with `scan`: `precision::force` can flip the
    /// precision at run time.
    dense_i8: OnceLock<Vec<QuantizedA>>,
    /// The int8 path's input-activation scale.
    act_scale: ActScale,
}

impl ConvLayer {
    /// Create a convolution layer; validates weight/bias shapes against
    /// the geometry.
    pub fn new(
        name: impl Into<String>,
        params: Conv2dParams,
        weights: Matrix,
        bias: Vec<f32>,
    ) -> TensorResult<Self> {
        params.validate()?;
        let expected = (params.out_channels, params.col_rows());
        if weights.shape() != expected {
            return Err(ShapeError::new(format!(
                "conv layer: weights {:?}, expected {:?}",
                weights.shape(),
                expected
            )));
        }
        if bias.len() != params.out_channels {
            return Err(ShapeError::new(format!(
                "conv layer: bias length {} != out_channels {}",
                bias.len(),
                params.out_channels
            )));
        }
        let scan = WeightScan::of(&weights);
        Ok(Self {
            name: name.into(),
            params,
            weight_scale: OnceLock::new(),
            scan,
            built_width: params.in_per_group().min(params.out_per_group()),
            filters: Filters::Even(weights),
            bias,
            pruned: vec![0; params.groups],
            winograd: OnceLock::new(),
            dense_i8: OnceLock::new(),
            act_scale: ActScale::default(),
        })
    }

    /// Geometry of this convolution. Once the layer is narrowed its
    /// channel counts are the narrowed totals, which need not divide
    /// into its groups evenly.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Input channels and filters of each group, in order.
    fn group_widths(&self) -> Vec<(usize, usize)> {
        let taps = self.params.kh * self.params.kw;
        self.filters
            .bands(&self.params)
            .map(|(_, rows, depth)| (depth / taps.max(1), rows))
            .collect()
    }

    /// Name of the stored form a layer of geometry `params` multiplies
    /// with on an input map of `map` (height, width), under the selected
    /// precision: `dense`, `winograd` (dense 3×3 in F(2×2, 3×3) form) or
    /// `dense-i8` — for reports that say which form a timed row ran.
    pub fn weight_form_name(params: &Conv2dParams, map: (usize, usize)) -> &'static str {
        let width = params.in_per_group().min(params.out_per_group());
        Form::of(params, width, map).name()
    }

    /// The form this layer runs in on an input map of `map`, by name
    /// (see [`ConvLayer::weight_form_name`]).
    pub fn form_name(&self, map: (usize, usize)) -> &'static str {
        self.form(map).name()
    }

    fn form(&self, map: (usize, usize)) -> Form {
        Form::of(&self.params, self.built_width, map)
    }

    /// The int8 scale of the weights as last set ([`symmetric_scale`]).
    fn weight_scale(&self) -> f32 {
        *self.weight_scale.get_or_init(|| match &self.filters {
            Filters::Even(w) => symmetric_scale(w.as_slice()),
            // Narrowing sets the scale before it splits the bands.
            Filters::Uneven(bands) => {
                let all: Vec<f32> = bands.iter().flat_map(|b| b.as_slice()).copied().collect();
                symmetric_scale(&all)
            }
        })
    }

    /// Drop every form derived from the filters.
    fn drop_forms(&mut self) {
        self.winograd = OnceLock::new();
        self.dense_i8 = OnceLock::new();
    }

    /// Shared body of [`Layer::forward_into`] / [`Layer::forward_into_fused`]:
    /// the only difference is whether a ReLU rides the kernel epilogue.
    fn run(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
        relu: bool,
    ) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("conv: expected exactly one input"));
        };
        let p = &self.params;
        let bands = || self.filters.bands(p);
        let weights = match self.form((input.h(), input.w())) {
            Form::DenseI8 => ConvWeights::DenseI8 {
                bands: self.dense_i8.get_or_init(|| {
                    bands()
                        .map(|(band, rows, depth)| {
                            QuantizedA::quantize(band, rows, depth, self.weight_scale())
                        })
                        .collect()
                }),
                act_scale: self.act_scale.for_input(input),
            },
            Form::Winograd => ConvWeights::Winograd(self.winograd.get_or_init(|| {
                bands()
                    .map(|(band, rows, depth)| WinogradBand::transform(band, rows, depth / 9))
                    .collect()
            })),
            Form::Dense => match &self.filters {
                Filters::Even(w) => ConvWeights::Dense(w),
                Filters::Uneven(bands) => ConvWeights::Bands(bands),
            },
        };
        conv2d(input, weights, Some(&self.bias), relu, p, ws, out)
    }
}

impl Layer for ConvLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Convolution
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        self.run(inputs, ws, out, false)
    }

    fn supports_relu_fusion(&self) -> bool {
        true
    }

    fn forward_into_fused(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        self.run(inputs, ws, out, true)
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [(c, h, w)] = in_shapes else {
            return Err(ShapeError::new("conv: expected exactly one input shape"));
        };
        if *c != self.params.in_channels {
            return Err(ShapeError::new(format!(
                "conv {}: input channels {} != {}",
                self.name, c, self.params.in_channels
            )));
        }
        let (oh, ow) = self.params.out_shape(*h, *w)?;
        Ok((self.params.out_channels, oh, ow))
    }

    fn macs_per_image(&self, in_shapes: &[ChwShape]) -> TensorResult<u64> {
        let [(_, h, w)] = in_shapes else {
            return Err(ShapeError::new("conv: expected exactly one input shape"));
        };
        let (oh, ow) = self.params.out_shape(*h, *w)?;
        Ok((self.filters.len() * oh * ow) as u64)
    }

    fn param_count(&self) -> usize {
        self.filters.len() + self.bias.len()
    }

    fn weights(&self) -> Option<&Matrix> {
        match &self.filters {
            Filters::Even(w) => Some(w),
            Filters::Uneven(_) => None,
        }
    }

    fn set_weights(&mut self, weights: Matrix) -> TensorResult<()> {
        let Filters::Even(old) = &self.filters else {
            return Err(ShapeError::new(format!(
                "conv {}: narrowed into groups of uneven widths {:?}; set its weights \
                 before narrowing",
                self.name,
                self.group_widths()
            )));
        };
        self.scan = WeightScan::replacing(self, old, &weights)?;
        self.weight_scale = OnceLock::new();
        self.filters = Filters::Even(weights);
        self.drop_forms();
        Ok(())
    }

    fn weight_sparsity(&self) -> f64 {
        let nnz = |band: &[f32]| band.iter().filter(|&&v| v != 0.0).count();
        let (mut kept, mut pruned) = (0, 0);
        for ((band, _, depth), gone) in self.filters.bands(&self.params).zip(&self.pruned) {
            kept += nnz(band);
            pruned += gone * depth;
        }
        sparsity_counting_pruned(kept, self.filters.len(), pruned)
    }

    fn dead_outputs(&self) -> Vec<usize> {
        self.scan.dead_rows(&self.bias)
    }

    fn channel_use(&self, _input: usize, _channel: usize, _in_shapes: &[ChwShape]) -> ChannelUse {
        if self.scan.finite {
            ChannelUse::Drop
        } else {
            ChannelUse::Keep
        }
    }

    fn narrow(
        &mut self,
        _in_shapes: &[ChwShape],
        gone_in: &[&[usize]],
        gone_out: &[usize],
    ) -> TensorResult<()> {
        let gone_in = gone_in.first().copied().unwrap_or_default();
        if gone_in.is_empty() && gone_out.is_empty() {
            return Ok(());
        }
        self.weight_scale();
        let p = self.params;
        let taps = (p.kh * p.kw).max(1);
        let keep_row = |r: usize| gone_out.binary_search(&r).is_err();
        let keep_in = |c: usize| gone_in.binary_search(&c).is_err();
        match (&mut self.filters, p.groups) {
            (Filters::Even(w), 1) => {
                // One band: compacted where it lies, no copy made.
                let rows = w.rows();
                w.retain(keep_row, |c| keep_in(c / taps));
                self.pruned[0] += rows - w.rows();
                self.params.in_channels = w.cols() / taps;
                self.params.out_channels = w.rows();
            }
            (filters, _) => {
                // Each group's kept filters and input channels, copied
                // once into a band of exactly their size.
                let (mut cin_at, mut row_at) = (0, 0);
                let mut bands = Vec::with_capacity(p.groups);
                for g in 0..p.groups {
                    let (band, rows, depth) = filters.band(&p, g);
                    let cin = depth / taps;
                    let kept: Vec<usize> = (0..cin).filter(|&c| keep_in(cin_at + c)).collect();
                    let kept_rows: Vec<usize> =
                        (0..rows).filter(|&r| keep_row(row_at + r)).collect();
                    let mut data = Vec::with_capacity(kept_rows.len() * kept.len() * taps);
                    for &r in &kept_rows {
                        let row = &band[r * depth..(r + 1) * depth];
                        for &c in &kept {
                            data.extend_from_slice(&row[c * taps..(c + 1) * taps]);
                        }
                    }
                    self.pruned[g] += rows - kept_rows.len();
                    (cin_at, row_at) = (cin_at + cin, row_at + rows);
                    bands.push(Matrix::from_vec(kept_rows.len(), kept.len() * taps, data)?);
                }
                self.params.in_channels = bands.iter().map(|b| b.cols() / taps).sum();
                self.params.out_channels = bands.iter().map(Matrix::rows).sum();
                *filters = if bands.windows(2).all(|b| b[0].shape() == b[1].shape()) {
                    let (rows, cols) = (self.params.out_channels, bands[0].cols());
                    let data = bands.into_iter().flat_map(Matrix::into_vec).collect();
                    Filters::Even(Matrix::from_vec(rows, cols, data)?)
                } else {
                    Filters::Uneven(bands)
                };
            }
        }
        let mut row = 0;
        self.bias.retain(|_| {
            row += 1;
            keep_row(row - 1)
        });
        let p = self.params;
        self.scan = WeightScan::of_rows(
            self.filters
                .bands(&p)
                .flat_map(|(band, _, depth)| band.chunks_exact(depth.max(1))),
        );
        self.drop_forms();
        Ok(())
    }

    fn observe_input(&self, inputs: &[&Tensor4], method: CalibrationMethod) {
        self.act_scale.observe(inputs, method);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_tensor::init::xavier_uniform;
    use cap_tensor::reference::conv2d_direct;

    fn layer(sparsify: bool) -> ConvLayer {
        let params = Conv2dParams::new(3, 4, 3, 1, 1);
        let mut w = xavier_uniform(4, 27, 99);
        if sparsify {
            for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = 0.0;
                }
            }
        }
        ConvLayer::new("conv_t", params, w, vec![0.1; 4]).unwrap()
    }

    #[test]
    fn zeroed_weights_run_dense_and_match_the_oracle() {
        let dense = layer(false);
        let mut sparse_weights = dense.weights().unwrap().clone();
        for (i, v) in sparse_weights.as_mut_slice().iter_mut().enumerate() {
            if i % 6 != 0 {
                *v = 0.0;
            }
        }
        let mut zeroed_dense = layer(false);
        zeroed_dense.set_weights(sparse_weights).unwrap();

        let input = Tensor4::from_fn(2, 3, 5, 5, |n, c, h, w| ((n + c + h + w) % 5) as f32 - 2.0);
        // Five zeros in six against the direct oracle on the same
        // weights. The layer route is pinned to f32 — the oracle is
        // exact f32, so an int8 precision leg would route `forward`
        // through the quantized path and break the tight tolerance.
        cap_tensor::precision::force(Some(cap_tensor::Precision::F32));
        assert_eq!(zeroed_dense.form_name((5, 5)), "dense");
        let via_layer = zeroed_dense.forward(&[&input]).unwrap();
        cap_tensor::precision::force(None);
        let via_dense = conv2d_direct(
            &input,
            zeroed_dense.weights().unwrap(),
            Some(zeroed_dense.bias()),
            zeroed_dense.params(),
        )
        .unwrap();
        assert!(via_layer.max_abs_diff(&via_dense).unwrap() < 1e-4);
    }

    #[test]
    fn out_shape_and_macs() {
        let l = layer(false);
        assert_eq!(l.out_shape(&[(3, 5, 5)]).unwrap(), (4, 5, 5));
        assert_eq!(l.macs_per_image(&[(3, 5, 5)]).unwrap(), 4 * 5 * 5 * 3 * 9);
        assert!(l.out_shape(&[(2, 5, 5)]).is_err());
    }

    #[test]
    fn param_count_includes_bias() {
        let l = layer(false);
        assert_eq!(l.param_count(), 4 * 27 + 4);
    }

    #[test]
    fn set_weights_validates_shape() {
        let mut l = layer(false);
        assert!(l.set_weights(Matrix::zeros(4, 26)).is_err());
        assert!(l.set_weights(Matrix::zeros(4, 27)).is_ok());
        assert_eq!(l.weight_sparsity(), 1.0);
    }

    #[test]
    fn rejects_multiple_inputs() {
        let l = layer(false);
        let t = Tensor4::zeros(1, 3, 5, 5);
        assert!(l.forward(&[&t, &t]).is_err());
    }
}
