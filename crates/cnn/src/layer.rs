//! The [`Layer`] trait and all layer implementations.
//!
//! Layers are forward-only (inference is what the paper measures); the
//! trainable path lives in [`crate::train`]. A layer consumes one or more
//! NCHW tensors and produces one. Convolution and inner-product layers
//! carry weights and support pruning: zeroed filters are detected when
//! the weights are set, and a filter-pruned version is narrowed
//! ([`crate::Network::narrow`]): each layer gives up the channels
//! pruning left at `+0`. Where the paper's sparse-Caffe fork skips zero
//! weights, a layer here multiplies them like any other: filter pruning
//! saves time by narrowing, unstructured zeros save none.

mod concat;
mod conv;
mod dropout;
mod inner_product;
mod lrn;
mod pool;
mod relu;
mod softmax;

pub use concat::ConcatLayer;
pub use conv::{ConvLayer, WINOGRAD_MIN_CHANNELS, WINOGRAD_MIN_MAP};
pub use dropout::DropoutLayer;
pub use inner_product::InnerProductLayer;
pub use lrn::LrnLayer;
pub use pool::{PoolLayer, PoolMode};
pub use relu::ReluLayer;
pub use softmax::SoftmaxLayer;

use cap_tensor::{
    symmetric_scale, CalibrationMethod, Matrix, ShapeError, Tensor4, TensorResult, Workspace,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};

/// Per-image shape `(channels, height, width)` flowing between layers.
pub type ChwShape = (usize, usize, usize);

/// Coarse classification of a layer, used for reporting (Figure 3 groups
/// time by layer) and for selecting prunable layers (the paper prunes
/// convolution layers only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution.
    Convolution,
    /// Fully-connected (Caffe "InnerProduct").
    InnerProduct,
    /// Rectified linear activation.
    Relu,
    /// Max or average pooling.
    Pooling,
    /// Local response normalization.
    Lrn,
    /// Channel-dimension concatenation (inception modules).
    Concat,
    /// Dropout (identity at inference time).
    Dropout,
    /// Softmax classifier head.
    Softmax,
}

impl LayerKind {
    /// Short lowercase tag used in reports.
    pub fn tag(&self) -> &'static str {
        match self {
            LayerKind::Convolution => "conv",
            LayerKind::InnerProduct => "fc",
            LayerKind::Relu => "relu",
            LayerKind::Pooling => "pool",
            LayerKind::Lrn => "lrn",
            LayerKind::Concat => "concat",
            LayerKind::Dropout => "dropout",
            LayerKind::Softmax => "softmax",
        }
    }
}

/// A forward-only CNN layer.
pub trait Layer: Send + Sync {
    /// Unique layer name (e.g. `conv1`, `inception-3a-3x3`).
    fn name(&self) -> &str;

    /// Layer kind for grouping and prunability checks.
    fn kind(&self) -> LayerKind;

    /// Execute the layer on its inputs (most layers take exactly one),
    /// writing into a reusable output tensor.
    ///
    /// `out` is reshaped in place and kernel scratch is drawn from the
    /// calling thread's `ws` (a layer holds none, so `&self` is shared
    /// across threads without a lock); once both have grown to their
    /// high-water mark, repeat calls allocate nothing.
    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()>;

    /// [`Layer::forward_into`] a fresh tensor through a throwaway
    /// workspace — the convenience form for tests and one-off calls.
    fn forward(&self, inputs: &[&Tensor4]) -> TensorResult<Tensor4> {
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        self.forward_into(inputs, &mut Workspace::new(), &mut out)?;
        Ok(out)
    }

    /// Whether this layer can absorb an immediately following ReLU into
    /// its own store ([`Layer::forward_into_fused`]). The network
    /// executor's fusion pass only rewrites `X → relu` chains where `X`
    /// reports `true` here.
    fn supports_relu_fusion(&self) -> bool {
        false
    }

    /// Execute the layer with a ReLU fused onto its output.
    ///
    /// Must be **bitwise identical** to [`Layer::forward_into`] followed
    /// by a [`ReluLayer`] (`v > 0.0` keeps `v`; negatives, `-0.0` and
    /// NaN flush to `+0.0`). The default honors that contract the slow
    /// way — forward then an in-place ReLU sweep; layers reporting
    /// [`Layer::supports_relu_fusion`] override it with a single-pass
    /// fused kernel.
    fn forward_into_fused(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        self.forward_into(inputs, ws, out)?;
        for v in out.as_mut_slice() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
        Ok(())
    }

    /// Per-image output shape given per-image input shapes.
    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape>;

    /// Multiply–accumulate operations per image (0 for shape-only layers).
    fn macs_per_image(&self, in_shapes: &[ChwShape]) -> TensorResult<u64>;

    /// Number of learnable parameters: the weights plus one bias per
    /// weight row (a conv or fc output channel); 0 without weights.
    fn param_count(&self) -> usize {
        self.weights().map_or(0, |w| w.len() + w.rows())
    }

    /// Weight matrix, if this layer keeps its weights as one (a
    /// narrowed grouped conv whose groups have uneven widths keeps one
    /// band per group, and has none).
    fn weights(&self) -> Option<&Matrix> {
        None
    }

    /// Replace the weight matrix (used by pruning). Layers without
    /// weights return an error.
    fn set_weights(&mut self, _weights: Matrix) -> TensorResult<()> {
        Err(cap_tensor::ShapeError::new(format!(
            "layer {} has no weights",
            self.name()
        )))
    }

    /// Fraction of zero weights (0.0 for weightless layers).
    fn weight_sparsity(&self) -> f64 {
        self.weights().map_or(0.0, |w| w.sparsity(0.0))
    }

    /// The output channels this layer's own weights hold at exactly
    /// `+0` whatever the network's input (finite activations assumed),
    /// ascending: a conv or fc filter that is all zero with a zero bias,
    /// every weight of the layer finite. The default, none, is always
    /// safe. Channels a layer passes on from its inputs are
    /// [`Layer::channel_use`]'s business.
    fn dead_outputs(&self) -> Vec<usize> {
        Vec::new()
    }

    /// What this layer does with channel `channel` of its input `input`
    /// (`in_shapes` its inputs' shapes), which [`crate::Network::narrow`]
    /// asks of every dead channel: whether the layer can do without it.
    /// The default keeps every channel.
    fn channel_use(&self, _input: usize, _channel: usize, _in_shapes: &[ChwShape]) -> ChannelUse {
        ChannelUse::Keep
    }

    /// Stop reading and producing channels, for a narrowed network
    /// ([`crate::Network::narrow`]): `gone_in[i]` lists input `i`'s
    /// channels that are gone (ascending), `in_shapes` the inputs'
    /// shapes before they went, and `gone_out` this layer's own dead
    /// outputs ([`Layer::dead_outputs`]) to drop. The network calls it
    /// only with input channels the layer said it can do without
    /// ([`Layer::channel_use`]); a layer that passes channels on drops
    /// them with its input and gets no `gone_out`. The default has
    /// nothing to drop.
    fn narrow(
        &mut self,
        _in_shapes: &[ChwShape],
        _gone_in: &[&[usize]],
        _gone_out: &[usize],
    ) -> TensorResult<()> {
        Ok(())
    }

    /// Activation-range calibration hook: observe the tensors this
    /// layer is about to consume and record whatever state the int8
    /// path needs (conv/fc store a per-layer activation scale derived
    /// via `method`). Called by [`crate::Network::calibrate`] on every
    /// node of a calibration forward pass; the default is a no-op —
    /// layers without quantizable inputs ignore it.
    fn observe_input(&self, _inputs: &[&Tensor4], _method: CalibrationMethod) {}
}

/// What a layer does with one channel of an input ([`Layer::channel_use`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelUse {
    /// The layer needs the channel as it is (a softmax reads every one).
    Keep,
    /// The layer multiplies the channel by weights that are all finite,
    /// so where it is `+0` every term it adds is a signed zero: the
    /// layer can drop the channel and its weights (a conv's `kh·kw`
    /// columns of it, an fc's `h·w`).
    Drop,
    /// The layer maps `+0` to `+0` and passes the channel on as this
    /// output channel: ReLU, pooling, dropout, LRN with `k > 0` (in
    /// place), a concat (at its input's offset). It drops the channel
    /// when everything downstream can.
    PassedTo(usize),
}

/// One scan of a conv or fc weight matrix (a row per output channel),
/// made when the weights are set.
#[derive(Debug, Clone)]
struct WeightScan {
    /// The all-zero rows, ascending.
    zero_rows: Vec<usize>,
    /// Every weight is finite.
    finite: bool,
}

impl WeightScan {
    /// The scan of `new`, the weights that replace `layer`'s `old` ones
    /// ([`Layer::set_weights`]); an error naming the layer unless the
    /// two have one shape.
    fn replacing(layer: &dyn Layer, old: &Matrix, new: &Matrix) -> TensorResult<Self> {
        if new.shape() != old.shape() {
            return Err(ShapeError::new(format!(
                "{} {}: set_weights {:?}, expected {:?}",
                layer.kind().tag(),
                layer.name(),
                new.shape(),
                old.shape()
            )));
        }
        Ok(Self::of(new))
    }

    fn of(weights: &Matrix) -> Self {
        Self::of_rows((0..weights.rows()).map(|r| weights.row(r)))
    }

    /// The scan of a weight matrix given row by row (a conv's groups'
    /// bands one after the other).
    fn of_rows<'a>(rows: impl Iterator<Item = &'a [f32]>) -> Self {
        let (mut zero_rows, mut finite) = (Vec::new(), true);
        for (r, row) in rows.enumerate() {
            if row.iter().all(|&v| v == 0.0) {
                zero_rows.push(r);
            } else {
                finite &= row.iter().all(|v| v.is_finite());
            }
        }
        Self { zero_rows, finite }
    }

    /// The rows whose output channel is `+0` on every finite input
    /// ([`Layer::dead_outputs`]): all zero, with a zero bias, and every
    /// weight of the layer finite. Every form writes such a channel as
    /// `epi(0.0 + 0.0)` — a dense sum of `0·x` starts and stays at `+0`,
    /// and int8 sums zero integers at a finite weight scale.
    fn dead_rows(&self, bias: &[f32]) -> Vec<usize> {
        if !self.finite {
            return Vec::new();
        }
        let zero_bias = |r: &&usize| bias[**r] == 0.0;
        self.zero_rows.iter().filter(zero_bias).copied().collect()
    }
}

/// Fraction of zero weights of a layer that holds `nnz` non-zeros among
/// `len` weights and gave up `pruned` zero weights when it was narrowed
/// ([`Layer::narrow`]: whole filters that pruning had zeroed, at the
/// layer's current depth): the sparsity pruning left it with, whether
/// or not its zero filters are still stored.
fn sparsity_counting_pruned(nnz: usize, len: usize, pruned: usize) -> f64 {
    let total = len + pruned;
    if total == 0 {
        0.0
    } else {
        1.0 - nnz as f64 / total as f64
    }
}

/// A conv or fc layer's int8 input-activation scale: the calibrated one
/// ([`Layer::observe_input`] stores it), or else a deterministic per-call
/// max-abs estimate over the whole input, so every image of a batch
/// shares one scale. f32 bits; 0 (= 0.0) is uncalibrated.
#[derive(Debug, Default)]
struct ActScale(AtomicU32);

impl ActScale {
    fn observe(&self, inputs: &[&Tensor4], method: CalibrationMethod) {
        if let [input] = inputs {
            let s = method.scale_for(input.as_slice());
            self.0.store(s.to_bits(), Ordering::Relaxed);
        }
    }

    fn for_input(&self, input: &Tensor4) -> f32 {
        let s = f32::from_bits(self.0.load(Ordering::Relaxed));
        if s > 0.0 {
            s
        } else {
            symmetric_scale(input.as_slice())
        }
    }
}

/// FLOPs per image = 2 × MACs (one multiply + one add), the convention
/// used throughout the evaluation.
pub fn flops_per_image(layer: &dyn Layer, in_shapes: &[ChwShape]) -> TensorResult<u64> {
    Ok(2 * layer.macs_per_image(in_shapes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(LayerKind::Convolution.tag(), "conv");
        assert_eq!(LayerKind::InnerProduct.tag(), "fc");
        assert_eq!(LayerKind::Softmax.tag(), "softmax");
    }
}
