//! Convolution layer with fast paths for pruned weights.

use super::{ChwShape, Layer, LayerKind};
use cap_tensor::{
    conv2d, precision, symmetric_scale, winograd, CalibrationMethod, Conv2dParams, ConvWeights,
    CsrMatrix, KeptRows, Matrix, Precision, QuantizedA, ShapeError, Tensor4, TensorResult,
    WinogradBand, Workspace,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Unstructured weight sparsity above which the CSR conv kernel beats
/// the dense GEMM: the measured crossover at batch 1 on the Caffenet
/// conv2 shape (0.80) — conv3 crosses between 0.70 and 0.75 — from
/// `cargo bench -p cap-bench --bench conv_strategy -- conv_form`
/// (table in EXPERIMENTS.md "PR 16"; it was 0.75 until the packed GEMM
/// walked `B` in L2-sized strips and the dense side got faster).
pub const SPARSE_THRESHOLD: f64 = 0.8;

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

/// Why building a derived weight form cannot fail after construction.
const FORM_SHAPE_CHECKED: &str = "weight shape was validated by new/set_weights";

/// What decides the stored form an f32 [`ConvLayer`] multiplies with —
/// properties of the weights alone, found in one scan — and which of
/// its output channels can be nothing but zero. Int8 has one form,
/// dense over the kept rows and live channels.
#[derive(Debug, Clone)]
struct WeightForm {
    /// Some filters (rows) are all zero and the rest are dense (zero
    /// fraction at most [`SPARSE_THRESHOLD`]): multiply the kept rows
    /// only.
    filter_pruned: bool,
    /// The overall zero fraction is above [`SPARSE_THRESHOLD`]: run CSR.
    sparse: bool,
    /// The all-zero filters, ascending.
    zero_rows: Vec<usize>,
    /// Every weight is finite, so the int8 scale is too.
    finite: bool,
}

/// Whether a dense f32 conv of geometry `params` on an `h×w` input map
/// runs the Winograd form: a 3×3 stride-1 pad-1 kernel with at least
/// [`WINOGRAD_MIN_CHANNELS`] input and output channels per group, on a
/// map at least [`WINOGRAD_MIN_MAP`] on a side. Geometry only — never
/// the batch or the thread count — so an image's output bits do not
/// depend on either.
fn runs_winograd(params: &Conv2dParams, (h, w): (usize, usize)) -> bool {
    winograd::fits(params)
        && params.in_per_group().min(params.out_per_group()) >= WINOGRAD_MIN_CHANNELS
        && h.min(w) >= WINOGRAD_MIN_MAP
}

impl WeightForm {
    fn of(weights: &Matrix) -> Self {
        let (rows, cols) = weights.shape();
        // All-zero rows, and the zeros among the other (kept) rows.
        let (mut zero_rows, mut kept_zeros, mut finite) = (Vec::new(), 0, true);
        for r in 0..rows {
            let row = weights.row(r);
            let zeros = row.iter().filter(|&&v| v == 0.0).count();
            if zeros == cols {
                zero_rows.push(r);
            } else {
                kept_zeros += zeros;
                finite &= row.iter().all(|v| v.is_finite());
            }
        }
        let fraction = |zeros: usize, of: usize| zeros as f64 / of.max(1) as f64;
        let kept = fraction(kept_zeros, (rows - zero_rows.len()) * cols);
        let overall = fraction(zero_rows.len() * cols + kept_zeros, rows * cols);
        WeightForm {
            filter_pruned: !zero_rows.is_empty() && kept <= SPARSE_THRESHOLD,
            sparse: overall > SPARSE_THRESHOLD,
            zero_rows,
            finite,
        }
    }

    /// The filters whose output channel is `+0` on every finite input:
    /// all zero, with a zero bias. Every form writes such a channel as
    /// `epi(0.0 + 0.0)` — the kept-rows forms by construction, CSR from
    /// an empty row, int8 from a zero integer sum (which takes a finite
    /// weight scale: every weight finite).
    fn dead_rows(&self, bias: &[f32]) -> Vec<usize> {
        if !self.finite {
            return Vec::new();
        }
        let zero_bias = |r: &&usize| bias[**r] == 0.0;
        self.zero_rows.iter().filter(zero_bias).copied().collect()
    }
}

/// 2-D convolution layer (optionally grouped, AlexNet-style).
///
/// Weights are stored dense. The form they run in is decided **once**,
/// when they are set (`new` / `set_weights`), so a forward pass never
/// rescans them to find out: all-zero filters — what L1 filter pruning
/// leaves — are dropped and the kept rows run through the dense GEMM,
/// so the time of a filter-pruned layer falls with the filters that
/// remain (`repro --exp profile`); otherwise a zero fraction above
/// [`SPARSE_THRESHOLD`] selects the CSR form, which pays only at high
/// unstructured sparsity. Dense f32 weights of a 3×3 stride-1 pad-1
/// conv wide enough and on a map large enough (`WINOGRAD_MIN_*`) run
/// the Winograd F(2×2, 3×3) form, 2.25× fewer multiplies; the rest run
/// im2col + GEMM. Under int8 every sparsity runs the dense int8 GEMM:
/// its integer dot product beats an int8 CSR walk below ~97 % zeros.
///
/// A pruned filter is gone downstream too. The [`crate::Network`] hands
/// each conv the *dead* channels of its input — channels the layer
/// before emits as exactly `+0` (a pruned filter with a zero bias,
/// passed on through ReLU, pooling or LRN) — when weights are set, and
/// the kept-rows form (f32, filter-pruned or plain dense im2col) and
/// the int8 form then lower only the live channels and multiply only
/// their weight columns: a consumer of a pruned layer multiplies only
/// what its producer can emit as non-zero, under both precisions, with
/// the same output bits ([`cap_tensor::conv2d`] says why). The CSR and
/// Winograd forms keep every channel.
///
/// The derived forms (per-group kept-row, CSR or Winograd bands, the
/// int8 quantization) are built on the first forward that needs them
/// and dropped by `set_weights` and by a change of dead inputs; im2col
/// scratch is the caller's [`Workspace`], so steady-state forwards
/// allocate nothing, take no lock and touch no reference count.
pub struct ConvLayer {
    name: String,
    params: Conv2dParams,
    weights: Matrix,
    bias: Vec<f32>,
    /// `WeightForm::of(&weights)`, as of the last `new`/`set_weights`.
    form: WeightForm,
    /// Input channels that are `+0` on every input, as the network last
    /// set them ([`Layer::set_dead_inputs`]).
    dead_inputs: Vec<usize>,
    /// Per-group kept rows and live channels of `weights` (the
    /// filter-pruned, or dense with dead inputs, f32 path).
    kept_rows: OnceLock<Vec<KeptRows>>,
    /// Per-group CSR split of `weights` (sparse f32 path).
    csr: OnceLock<Vec<CsrMatrix>>,
    /// Per-group Winograd transform of `weights` (dense f32 3×3 path).
    winograd: OnceLock<Vec<WinogradBand>>,
    /// Int8 quantization of `weights`' kept rows and live channels
    /// (the int8 path). Lazy rather than decided with `form`:
    /// `precision::force` can flip the precision at run time.
    dense_i8: OnceLock<Vec<KeptRows<QuantizedA>>>,
    /// Calibrated input-activation scale as f32 bits; 0 (= 0.0) means
    /// uncalibrated, in which case the int8 path falls back to a
    /// per-call max-abs estimate over the whole input tensor.
    act_scale: AtomicU32,
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
        Ok(Self {
            name: name.into(),
            params,
            form: WeightForm::of(&weights),
            weights,
            bias,
            dead_inputs: Vec::new(),
            kept_rows: OnceLock::new(),
            csr: OnceLock::new(),
            winograd: OnceLock::new(),
            dense_i8: OnceLock::new(),
            act_scale: AtomicU32::new(0),
        })
    }

    /// Geometry of this convolution.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Name of the stored form a layer of geometry `params` holding
    /// `weights` multiplies with on an input map of `map` (height,
    /// width), under the selected precision (the arms of the forward's
    /// own choice): `dense`, `winograd` (dense 3×3 in F(2×2, 3×3)
    /// form), `dense-rows` (all-zero filters dropped), `csr` or
    /// `dense-i8` — for reports that say which form a timed row ran.
    pub fn weight_form_name(
        weights: &Matrix,
        params: &Conv2dParams,
        map: (usize, usize),
    ) -> &'static str {
        let form = WeightForm::of(weights);
        match precision::selected() {
            Precision::Int8 => "dense-i8",
            Precision::F32 if form.filter_pruned => "dense-rows",
            Precision::F32 if form.sparse => "csr",
            Precision::F32 if runs_winograd(params, map) => "winograd",
            Precision::F32 => "dense",
        }
    }

    /// Calibrated activation scale, or a deterministic per-call max-abs
    /// estimate when no calibration pass has run. The fallback scans
    /// the whole input tensor once, so every image of the batch shares
    /// one scale.
    fn act_scale_for(&self, input: &Tensor4) -> f32 {
        let s = f32::from_bits(self.act_scale.load(Ordering::Relaxed));
        if s > 0.0 {
            s
        } else {
            symmetric_scale(input.as_slice())
        }
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
        let (w, p, dead) = (&self.weights, &self.params, &self.dead_inputs);
        let kept_rows =
            || {
                ConvWeights::DenseRows(self.kept_rows.get_or_init(|| {
                    ConvWeights::kept_row_bands(w, p, dead).expect(FORM_SHAPE_CHECKED)
                }))
            };
        let weights = match precision::selected() {
            Precision::Int8 => ConvWeights::DenseI8 {
                bands: self
                    .dense_i8
                    .get_or_init(|| ConvWeights::i8_bands(w, p, dead).expect(FORM_SHAPE_CHECKED)),
                act_scale: self.act_scale_for(input),
            },
            Precision::F32 if self.form.filter_pruned => kept_rows(),
            Precision::F32 if self.form.sparse => ConvWeights::Csr(
                self.csr
                    .get_or_init(|| ConvWeights::csr_bands(w, p).expect(FORM_SHAPE_CHECKED)),
            ),
            Precision::F32 if runs_winograd(p, (input.h(), input.w())) => ConvWeights::Winograd(
                self.winograd
                    .get_or_init(|| ConvWeights::winograd_bands(w, p).expect(FORM_SHAPE_CHECKED)),
            ),
            Precision::F32 if !dead.is_empty() => kept_rows(),
            Precision::F32 => ConvWeights::Dense(w),
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
        self.params.macs(*h, *w)
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn weights(&self) -> Option<&Matrix> {
        Some(&self.weights)
    }

    fn set_weights(&mut self, weights: Matrix) -> TensorResult<()> {
        if weights.shape() != self.weights.shape() {
            return Err(ShapeError::new(format!(
                "conv {}: set_weights {:?}, expected {:?}",
                self.name,
                weights.shape(),
                self.weights.shape()
            )));
        }
        self.form = WeightForm::of(&weights);
        self.weights = weights;
        self.kept_rows = OnceLock::new();
        self.csr = OnceLock::new();
        self.winograd = OnceLock::new();
        self.dense_i8 = OnceLock::new();
        Ok(())
    }

    fn dead_outputs(&self, _in_shapes: &[ChwShape], _dead: &[&[usize]]) -> Vec<usize> {
        self.form.dead_rows(&self.bias)
    }

    fn set_dead_inputs(&mut self, _in_shapes: &[ChwShape], dead: &[&[usize]]) {
        let dead = dead.first().copied().unwrap_or_default();
        if dead != self.dead_inputs.as_slice() {
            self.dead_inputs = dead.to_vec();
            // The forms that narrow by input channel.
            self.kept_rows = OnceLock::new();
            self.dense_i8 = OnceLock::new();
        }
    }

    fn observe_input(&self, inputs: &[&Tensor4], method: CalibrationMethod) {
        if let [input] = inputs {
            let s = method.scale_for(input.as_slice());
            self.act_scale.store(s.to_bits(), Ordering::Relaxed);
        }
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
    fn dense_and_sparse_paths_agree() {
        let dense = layer(false);
        let mut sparse_weights = dense.weights().unwrap().clone();
        for (i, v) in sparse_weights.as_mut_slice().iter_mut().enumerate() {
            if i % 6 != 0 {
                *v = 0.0;
            }
        }
        let mut zeroed_dense = layer(false);
        zeroed_dense.set_weights(sparse_weights).unwrap();
        assert!(zeroed_dense.weight_sparsity() > SPARSE_THRESHOLD);

        let input = Tensor4::from_fn(2, 3, 5, 5, |n, c, h, w| ((n + c + h + w) % 5) as f32 - 2.0);
        // Sparse via the layer (its sparsity > threshold) against the
        // direct oracle on the same weights. The layer route is pinned
        // to f32 — the oracle is exact f32, so an int8 precision leg
        // would route `forward` through the quantized path and break
        // the tight tolerance.
        cap_tensor::precision::force(Some(cap_tensor::Precision::F32));
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
