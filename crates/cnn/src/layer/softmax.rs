//! Softmax classifier head.

use super::{ChwShape, Layer, LayerKind};
use cap_tensor::{ops::softmax_inplace, ShapeError, Tensor4, TensorResult, Workspace};

/// Per-image softmax over the channel dimension (expects 1×1 spatial).
pub struct SoftmaxLayer {
    name: String,
}

impl SoftmaxLayer {
    /// Create a softmax layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for SoftmaxLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Softmax
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        _ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("softmax: expected exactly one input"));
        };
        if input.h() != 1 || input.w() != 1 {
            return Err(ShapeError::new(format!(
                "softmax {}: expected 1x1 spatial input, got {}x{}",
                self.name,
                input.h(),
                input.w()
            )));
        }
        let (n, c, h, w) = input.shape();
        out.resize(n, c, h, w);
        out.as_mut_slice().copy_from_slice(input.as_slice());
        for ni in 0..n {
            softmax_inplace(out.image_mut(ni));
        }
        Ok(())
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [shape] = in_shapes else {
            return Err(ShapeError::new("softmax: expected exactly one input shape"));
        };
        Ok(*shape)
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_image_is_the_naive_softmax_and_sums_to_one() {
        let l = SoftmaxLayer::new("prob");
        let x = Tensor4::from_fn(3, 5, 1, 1, |n, c, _, _| (n * c) as f32 * 0.3);
        let y = l.forward(&[&x]).unwrap();
        for n in 0..3 {
            let s: f32 = y.image(n).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            let denom: f64 = x.image(n).iter().map(|&v| (v as f64).exp()).sum();
            for (got, &logit) in y.image(n).iter().zip(x.image(n)) {
                let want = (logit as f64).exp() / denom;
                assert!((*got as f64 - want).abs() < 1e-6, "{got} vs {want}");
            }
        }
    }

    #[test]
    fn rejects_spatial_input() {
        let l = SoftmaxLayer::new("prob");
        let x = Tensor4::zeros(1, 5, 2, 2);
        assert!(l.forward(&[&x]).is_err());
    }
}
