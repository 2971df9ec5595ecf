//! ReLU activation layer.

use super::{ChannelUse, ChwShape, Layer, LayerKind};
use cap_tensor::{ops::relu_into, ShapeError, Tensor4, TensorResult, Workspace};

/// Rectified linear unit: `y = max(0, x)`, elementwise.
pub struct ReluLayer {
    name: String,
}

impl ReluLayer {
    /// Create a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for ReluLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Relu
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        _ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("relu: expected exactly one input"));
        };
        let (n, c, h, w) = input.shape();
        out.resize(n, c, h, w);
        relu_into(input.as_slice(), out.as_mut_slice());
        Ok(())
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [shape] = in_shapes else {
            return Err(ShapeError::new("relu: expected exactly one input shape"));
        };
        Ok(*shape)
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(0)
    }

    /// `max(+0, 0)` is `+0`.
    fn channel_use(&self, _input: usize, channel: usize, _in_shapes: &[ChwShape]) -> ChannelUse {
        ChannelUse::PassedTo(channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_negatives_preserves_shape() {
        let l = ReluLayer::new("relu_t");
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![-1.0, 2.0, -3.0, 4.0]).unwrap();
        let y = l.forward(&[&x]).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(l.out_shape(&[(1, 2, 2)]).unwrap(), (1, 2, 2));
    }
}
