//! Local response normalization (across channels), as used by
//! AlexNet/Caffenet and Googlenet.

use super::{ChwShape, Layer, LayerKind};
use cap_tensor::{ShapeError, Tensor4, TensorResult, Workspace};

/// Across-channel local response normalization:
/// `y = x / (k + alpha/n * sum_{neighbourhood} x^2)^beta`.
///
/// The window square-sum is maintained as a sliding plane across
/// channels (one add + one subtract per element instead of an
/// O(local_size) rescan), keeping LRN a small slice of Caffenet's
/// wall-clock as in the paper's Figure 3 breakdown.
pub struct LrnLayer {
    name: String,
    /// Neighbourhood size (channels), `local_size` in Caffe.
    local_size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
}

impl LrnLayer {
    /// Create an LRN layer with Caffe parameter names.
    pub fn new(name: impl Into<String>, local_size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        Self {
            name: name.into(),
            local_size: local_size.max(1),
            alpha,
            beta,
            k,
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
        let (n, c, h, w) = input.shape();
        out.resize(n, c, h, w);
        let half = self.local_size / 2;
        let hw = h * w;
        if c == 0 || hw == 0 {
            return Ok(());
        }
        let scale = self.alpha / self.local_size as f32;
        // The `h*w` square-sum plane.
        ws.cols.resize(1, hw);
        let sums = ws.cols.as_mut_slice();
        for ni in 0..n {
            let img = input.image(ni);
            let out_img = out.image_mut(ni);
            // Seed the window with channels [0, half].
            sums.fill(0.0);
            for cj in 0..=half.min(c - 1) {
                let plane = &img[cj * hw..(cj + 1) * hw];
                for (s, &v) in sums.iter_mut().zip(plane) {
                    *s += v * v;
                }
            }
            for ci in 0..c {
                let (in_plane, out_plane) = (
                    &img[ci * hw..(ci + 1) * hw],
                    &mut out_img[ci * hw..(ci + 1) * hw],
                );
                for ((o, &v), &s) in out_plane.iter_mut().zip(in_plane).zip(sums.iter()) {
                    *o = v / (self.k + scale * s).powf(self.beta);
                }
                // Slide the window: channel ci+half+1 enters, ci-half leaves.
                if ci + half + 1 < c {
                    let plane = &img[(ci + half + 1) * hw..(ci + half + 2) * hw];
                    for (s, &v) in sums.iter_mut().zip(plane) {
                        *s += v * v;
                    }
                }
                if ci >= half {
                    let plane = &img[(ci - half) * hw..(ci - half + 1) * hw];
                    for (s, &v) in sums.iter_mut().zip(plane) {
                        *s -= v * v;
                    }
                }
            }
        }
        Ok(())
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [shape] = in_shapes else {
            return Err(ShapeError::new("lrn: expected exactly one input shape"));
        };
        Ok(*shape)
    }

    fn macs_per_image(&self, in_shapes: &[ChwShape]) -> TensorResult<u64> {
        // ~local_size multiplies per element for the square-sum window.
        let [(c, h, w)] = in_shapes else {
            return Err(ShapeError::new("lrn: expected exactly one input shape"));
        };
        Ok((*c * *h * *w * self.local_size) as u64)
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
