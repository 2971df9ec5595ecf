//! Channel-dimension concatenation (inception module output).

use super::{ChannelUse, ChwShape, Layer, LayerKind};
use cap_tensor::{ShapeError, Tensor4, TensorResult, Workspace};

/// Concatenate any number of same-spatial-shape tensors along channels —
/// the join at the end of every Googlenet inception module.
pub struct ConcatLayer {
    name: String,
}

impl ConcatLayer {
    /// Create a concat layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for ConcatLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Concat
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        _ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        if inputs.is_empty() {
            return Err(ShapeError::new("concat: needs at least one input"));
        }
        let (n, _, h, w) = inputs[0].shape();
        for t in inputs {
            if t.n() != n || t.h() != h || t.w() != w {
                return Err(ShapeError::new(format!(
                    "concat {}: incompatible shapes {:?} vs {:?}",
                    self.name,
                    inputs[0].shape(),
                    t.shape()
                )));
            }
        }
        let total_c: usize = inputs.iter().map(|t| t.c()).sum();
        out.resize(n, total_c, h, w);
        for ni in 0..n {
            let mut offset = 0;
            let hw = h * w;
            for t in inputs {
                let src = t.image(ni);
                let dst = &mut out.image_mut(ni)[offset * hw..(offset + t.c()) * hw];
                dst.copy_from_slice(src);
                offset += t.c();
            }
        }
        Ok(())
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        if in_shapes.is_empty() {
            return Err(ShapeError::new("concat: needs at least one input shape"));
        }
        let (_, h, w) = in_shapes[0];
        for (_, h2, w2) in in_shapes {
            if *h2 != h || *w2 != w {
                return Err(ShapeError::new("concat: spatial shapes differ"));
            }
        }
        Ok((in_shapes.iter().map(|(c, _, _)| c).sum(), h, w))
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(0)
    }

    /// Each input's dead channels, at that input's channel offset.
    fn channel_use(&self, input: usize, channel: usize, in_shapes: &[ChwShape]) -> ChannelUse {
        let offset: usize = in_shapes[..input].iter().map(|&(c, _, _)| c).sum();
        ChannelUse::PassedTo(offset + channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenates_channels_in_order() {
        let l = ConcatLayer::new("cat");
        let a = Tensor4::from_fn(2, 1, 2, 2, |_, _, _, _| 1.0);
        let b = Tensor4::from_fn(2, 2, 2, 2, |_, _, _, _| 2.0);
        let y = l.forward(&[&a, &b]).unwrap();
        assert_eq!(y.shape(), (2, 3, 2, 2));
        assert!(y.image(0)[..4].iter().all(|&v| v == 1.0));
        assert!(y.image(0)[4..].iter().all(|&v| v == 2.0));
        assert!(y.image(1)[..4].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn rejects_mismatched_spatial() {
        let l = ConcatLayer::new("cat");
        let a = Tensor4::zeros(1, 1, 2, 2);
        let b = Tensor4::zeros(1, 1, 3, 3);
        assert!(l.forward(&[&a, &b]).is_err());
        assert!(l.out_shape(&[(1, 2, 2), (1, 3, 3)]).is_err());
    }

    #[test]
    fn out_shape_sums_channels() {
        let l = ConcatLayer::new("cat");
        assert_eq!(
            l.out_shape(&[(64, 28, 28), (128, 28, 28), (32, 28, 28), (32, 28, 28)])
                .unwrap(),
            (256, 28, 28)
        );
    }
}
