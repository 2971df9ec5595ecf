//! Local response normalization (across channels), as used by
//! AlexNet/Caffenet and Googlenet.

use super::{ChannelUse, ChwShape, Layer, LayerKind};
use cap_tensor::{lrn_at_into, lrn_into, LrnParams, ShapeError, Tensor4, TensorResult, Workspace};

/// Across-channel local response normalization:
/// `y = x / (k + alpha/n * sum_{neighbourhood} x^2)^beta`.
///
/// The kernel is [`cap_tensor::lrn_into`]: a sliding square-sum plane
/// across channels (one add + one subtract per element instead of an
/// O(local_size) rescan), behind the kernel dispatch, with β = 0.75's
/// power taken as two square roots instead of `powf`; split across the
/// workspace's team by channel ranges. A `local_size` of 0 or an even
/// one is kept as given and rejected as a [`ShapeError`] by
/// [`Layer::out_shape`] (so by `Network::add_layer`) and by the
/// kernel, as Caffe rejects it.
///
/// In a narrowed network ([`crate::Network::narrow`]) the layer keeps
/// the window positions its channels had before the pruned ones went,
/// and slides over those positions ([`cap_tensor::lrn_at_into`]): a
/// removed channel held `+0`, whose square enters and leaves the sums
/// as `+0`, so every kept channel normalises to the same bits.
pub struct LrnLayer {
    name: String,
    params: LrnParams,
    /// Window position of each input channel once some channels around
    /// it were narrowed away; `None`: channel `i` at position `i`.
    positions: Option<Vec<usize>>,
}

impl LrnLayer {
    /// Create an LRN layer with Caffe parameter names.
    pub fn new(name: impl Into<String>, local_size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        Self {
            name: name.into(),
            params: LrnParams {
                local_size,
                alpha,
                beta,
                k,
            },
            positions: None,
        }
    }

    /// AlexNet's canonical LRN: `n=5, alpha=1e-4, beta=0.75, k=2`.
    pub fn alexnet(name: impl Into<String>) -> Self {
        Self::new(name, 5, 1e-4, 0.75, 2.0)
    }
}

impl Layer for LrnLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Lrn
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("lrn: expected exactly one input"));
        };
        match &self.positions {
            None => lrn_into(input, &self.params, ws, out),
            Some(at) => lrn_at_into(input, &self.params, at, ws, out),
        }
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [shape] = in_shapes else {
            return Err(ShapeError::new("lrn: expected exactly one input shape"));
        };
        self.params.validate()?;
        Ok(*shape)
    }

    fn macs_per_image(&self, in_shapes: &[ChwShape]) -> TensorResult<u64> {
        // ~local_size multiplies per element for the square-sum window.
        let [(c, h, w)] = in_shapes else {
            return Err(ShapeError::new("lrn: expected exactly one input shape"));
        };
        Ok((*c * *h * *w * self.params.local_size) as u64)
    }

    /// `+0` divided by a positive denominator (`k > 0`) is `+0`.
    fn channel_use(&self, _input: usize, channel: usize, _in_shapes: &[ChwShape]) -> ChannelUse {
        // A `+0` channel normalises to `+0 / k^β`, `+0` only for `k > 0`.
        if self.params.k > 0.0 {
            ChannelUse::PassedTo(channel)
        } else {
            ChannelUse::Keep
        }
    }

    fn narrow(
        &mut self,
        in_shapes: &[ChwShape],
        gone_in: &[&[usize]],
        _gone_out: &[usize],
    ) -> TensorResult<()> {
        let gone = gone_in.first().copied().unwrap_or_default();
        if gone.is_empty() {
            return Ok(());
        }
        let channels = in_shapes.first().map_or(0, |&(c, _, _)| c);
        let positions = self
            .positions
            .take()
            .unwrap_or_else(|| (0..channels).collect());
        let kept = positions.iter().enumerate();
        let kept = kept.filter(|(i, _)| gone.binary_search(i).is_err());
        self.positions = Some(kept.map(|(_, &p)| p).collect());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_shape_and_sign() {
        let l = LrnLayer::alexnet("norm1");
        let x = Tensor4::from_fn(1, 8, 3, 3, |_, c, h, w| {
            (c as f32 - 4.0) * 0.2 + (h + w) as f32 * 0.05
        });
        let y = l.forward(&[&x]).unwrap();
        assert_eq!(y.shape(), x.shape());
        for (a, b) in x.as_slice().iter().zip(y.as_slice().iter()) {
            assert_eq!(a.signum(), b.signum());
            // With k=2 and beta>0 the denominator > 1, so |y| < |x| unless x == 0.
            assert!(b.abs() <= a.abs());
        }
    }

    #[test]
    fn zero_or_even_local_size_is_a_shape_error() {
        let x = Tensor4::zeros(1, 4, 2, 2);
        for size in [0, 2, 4] {
            let l = LrnLayer::new("norm", size, 1e-4, 0.75, 2.0);
            let err = l.out_shape(&[(4, 2, 2)]).unwrap_err();
            assert!(err.to_string().contains("local_size"), "{err}");
            assert!(l.forward(&[&x]).is_err(), "size {size}");
            let mut net = crate::network::Network::new("n", (4, 2, 2));
            assert!(net.add_sequential(Box::new(l)).is_err(), "size {size}");
        }
        for size in [1, 3, 5] {
            let l = LrnLayer::new("norm", size, 1e-4, 0.75, 2.0);
            assert_eq!(l.out_shape(&[(4, 2, 2)]).unwrap(), (4, 2, 2));
        }
    }

    #[test]
    fn large_activations_suppressed_more() {
        let l = LrnLayer::new("norm", 3, 1.0, 0.75, 1.0);
        let mut x = Tensor4::zeros(1, 3, 1, 1);
        x.set(0, 1, 0, 0, 10.0);
        let y_big = l.forward(&[&x]).unwrap().get(0, 1, 0, 0) / 10.0;
        x.set(0, 1, 0, 0, 0.1);
        let y_small = l.forward(&[&x]).unwrap().get(0, 1, 0, 0) / 0.1;
        assert!(y_big < y_small);
    }
}
