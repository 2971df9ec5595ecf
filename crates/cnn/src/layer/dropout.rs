//! Dropout layer — identity at inference time (Caffe semantics).

use super::{ChannelUse, ChwShape, Layer, LayerKind};
use cap_tensor::{ShapeError, Tensor4, TensorResult, Workspace};

/// Inference-mode dropout: a pass-through. Present so Caffenet's layer
/// list (and its timing breakdown) matches the deployed prototxt.
pub struct DropoutLayer {
    name: String,
    /// Training-time drop probability; recorded for completeness.
    ratio: f32,
}

impl DropoutLayer {
    /// Create a dropout layer with the given (training-time) drop ratio.
    pub fn new(name: impl Into<String>, ratio: f32) -> Self {
        Self {
            name: name.into(),
            ratio,
        }
    }

    /// Training-time drop probability.
    pub fn ratio(&self) -> f32 {
        self.ratio
    }
}

impl Layer for DropoutLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Dropout
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        _ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("dropout: expected exactly one input"));
        };
        let (n, c, h, w) = input.shape();
        out.resize(n, c, h, w);
        out.as_mut_slice().copy_from_slice(input.as_slice());
        Ok(())
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [shape] = in_shapes else {
            return Err(ShapeError::new("dropout: expected exactly one input shape"));
        };
        Ok(*shape)
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(0)
    }

    /// Dropout is the identity at inference.
    fn channel_use(&self, _input: usize, channel: usize, _in_shapes: &[ChwShape]) -> ChannelUse {
        ChannelUse::PassedTo(channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_identity_at_inference() {
        let l = DropoutLayer::new("drop6", 0.5);
        let x = Tensor4::from_fn(1, 2, 2, 2, |_, c, h, w| (c + h + w) as f32);
        assert_eq!(l.forward(&[&x]).unwrap(), x);
        assert_eq!(l.ratio(), 0.5);
    }
}
