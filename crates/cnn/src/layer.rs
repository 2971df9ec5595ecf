//! The [`Layer`] trait and all layer implementations.
//!
//! Layers are forward-only (inference is what the paper measures); the
//! trainable path lives in [`crate::train`]. A layer consumes one or more
//! NCHW tensors and produces one. Convolution and inner-product layers
//! carry weights and support pruning: zeroed weights are detected when
//! they are set, and a conv layer above a sparsity threshold switches to
//! CSR sparse kernels — mirroring the sparse-Caffe fork the paper uses.

mod concat;
mod conv;
mod dropout;
mod inner_product;
mod lrn;
mod pool;
mod relu;
mod softmax;

pub use concat::ConcatLayer;
pub use conv::{ConvLayer, SPARSE_THRESHOLD, WINOGRAD_MIN_CHANNELS, WINOGRAD_MIN_MAP};
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

    /// Weight matrix, if this layer has one.
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

    /// The channels of this layer's output that are exactly `+0`
    /// whatever the network's input (finite activations assumed), given
    /// those of each input: `dead[i]` lists input `i`'s, ascending, and
    /// `in_shapes[i]` is its shape. A conv or fc filter that is all
    /// zero with a zero bias is one; ReLU, pooling, LRN and dropout
    /// pass their input's through; a concat gathers its inputs'. The
    /// default, none, is always safe. [`crate::Network`] works these
    /// out for every node when a layer is added or its weights change.
    fn dead_outputs(&self, _in_shapes: &[ChwShape], _dead: &[&[usize]]) -> Vec<usize> {
        Vec::new()
    }

    /// Tell a layer which channels of its inputs are dead (see
    /// [`Layer::dead_outputs`]; same arguments), so a conv or fc layer
    /// multiplies only the live ones — exactly: every term it leaves out
    /// is a finite weight times `+0`. [`crate::Network`] calls it for
    /// every node whenever the dead channels may have changed; the
    /// default ignores it.
    fn set_dead_inputs(&mut self, _in_shapes: &[ChwShape], _dead: &[&[usize]]) {}

    /// Activation-range calibration hook: observe the tensors this
    /// layer is about to consume and record whatever state the int8
    /// path needs (conv/fc store a per-layer activation scale derived
    /// via `method`). Called by [`crate::Network::calibrate`] on every
    /// node of a calibration forward pass; the default is a no-op —
    /// layers without quantizable inputs ignore it.
    fn observe_input(&self, _inputs: &[&Tensor4], _method: CalibrationMethod) {}
}

/// [`Layer::dead_outputs`] of a layer that maps `+0` to `+0` channel
/// by channel: its one input's dead channels.
fn passed_through(dead: &[&[usize]]) -> Vec<usize> {
    dead.first().map_or_else(Vec::new, |d| d.to_vec())
}

/// One scan of a conv or fc weight matrix (a row per output channel),
/// made when the weights are set.
#[derive(Debug, Clone)]
struct WeightScan {
    /// The all-zero rows, ascending.
    zero_rows: Vec<usize>,
    /// The zeros among the other rows.
    kept_zeros: usize,
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
        let (mut zero_rows, mut kept_zeros, mut finite) = (Vec::new(), 0, true);
        for r in 0..weights.rows() {
            let row = weights.row(r);
            let zeros = row.iter().filter(|&&v| v == 0.0).count();
            if zeros == row.len() {
                zero_rows.push(r);
            } else {
                kept_zeros += zeros;
                finite &= row.iter().all(|v| v.is_finite());
            }
        }
        Self {
            zero_rows,
            kept_zeros,
            finite,
        }
    }

    /// The rows whose output channel is `+0` on every finite input
    /// ([`Layer::dead_outputs`]): all zero, with a zero bias, and every
    /// weight of the layer finite. Every form writes such a channel as
    /// `epi(0.0 + 0.0)` — a dense sum of `0·x` starts and stays at `+0`,
    /// the kept-rows forms drop the row, conv CSR stores an empty one,
    /// and int8 sums zero integers at a finite weight scale.
    fn dead_rows(&self, bias: &[f32]) -> Vec<usize> {
        if !self.finite {
            return Vec::new();
        }
        let zero_bias = |r: &&usize| bias[**r] == 0.0;
        self.zero_rows.iter().filter(zero_bias).copied().collect()
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
