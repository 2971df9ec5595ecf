//! Pooling layer (max or average).

use super::{ChannelUse, ChwShape, Layer, LayerKind};
use cap_tensor::{
    avg_pool2d_into, max_pool2d_into, Pool2dParams, ShapeError, Tensor4, TensorResult, Workspace,
};
use serde::{Deserialize, Serialize};

/// Pooling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolMode {
    /// Maximum over the window.
    Max,
    /// Mean over valid window cells.
    Avg,
}

/// Spatial pooling layer.
pub struct PoolLayer {
    name: String,
    mode: PoolMode,
    params: Pool2dParams,
}

impl PoolLayer {
    /// Create a pooling layer with window `k`, padding `pad`, stride `stride`.
    pub fn new(
        name: impl Into<String>,
        mode: PoolMode,
        k: usize,
        pad: usize,
        stride: usize,
    ) -> Self {
        Self {
            name: name.into(),
            mode,
            params: Pool2dParams::new(k, pad, stride),
        }
    }

    /// Pooling mode.
    pub fn mode(&self) -> PoolMode {
        self.mode
    }
}

impl Layer for PoolLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Pooling
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("pool: expected exactly one input"));
        };
        match self.mode {
            PoolMode::Max => max_pool2d_into(input, &self.params, ws, out),
            PoolMode::Avg => avg_pool2d_into(input, &self.params, ws, out),
        }
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [(c, h, w)] = in_shapes else {
            return Err(ShapeError::new("pool: expected exactly one input shape"));
        };
        let (oh, ow) = self.params.out_shape(*h, *w)?;
        Ok((*c, oh, ow))
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(0)
    }

    /// A window of `+0`s is `+0` in either mode: padding never wins a
    /// max, and adds zeros to a mean.
    fn channel_use(&self, _input: usize, channel: usize, _in_shapes: &[ChwShape]) -> ChannelUse {
        ChannelUse::PassedTo(channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_layer_caffenet_pool1() {
        // Caffenet pool1: 3x3 stride 2 on 96x55x55 -> 96x27x27.
        let l = PoolLayer::new("pool1", PoolMode::Max, 3, 0, 2);
        assert_eq!(l.out_shape(&[(96, 55, 55)]).unwrap(), (96, 27, 27));
    }

    #[test]
    fn max_pool_layer_forward_matches_naive_window_max() {
        // Caffenet-style overlapping 3x3 stride 2, no padding.
        let l = PoolLayer::new("pool", PoolMode::Max, 3, 0, 2);
        let x = Tensor4::from_fn(2, 3, 7, 7, |n, c, h, w| {
            ((n * 5 + c * 11 + h * 7 + w * 3) % 13) as f32 - 6.0
        });
        let y = l.forward(&[&x]).unwrap();
        assert_eq!(y.shape(), (2, 3, 3, 3));
        for n in 0..2 {
            for c in 0..3 {
                for oy in 0..3 {
                    for ox in 0..3 {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..3 {
                            for kx in 0..3 {
                                best = best.max(x.get(n, c, oy * 2 + ky, ox * 2 + kx));
                            }
                        }
                        assert_eq!(y.get(n, c, oy, ox), best);
                    }
                }
            }
        }
    }

    #[test]
    fn avg_pool_layer_forward() {
        let l = PoolLayer::new("gap", PoolMode::Avg, 2, 0, 2);
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        let y = l.forward(&[&x]).unwrap();
        assert_eq!(y.as_slice(), &[3.0]);
    }
}
