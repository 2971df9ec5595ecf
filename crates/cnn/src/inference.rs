//! Batched inference execution and throughput measurement — the
//! measured counterpart of the paper's §4.2.3 parallel-inference
//! experiment (Figure 5), at the scale of the implemented framework.
//!
//! "Parallel inferences" on our CPU substrate is the batch dimension.
//! This driver runs one batch after another on the calling thread
//! (every kernel walks the images of a batch in order), so its
//! throughput rises with batch size only as far as per-pass fixed cost
//! amortises; [`crate::ParallelEngine`] is what spreads batches over
//! cores — the same shape as the paper's GPU curve, with the
//! saturation point set by core count instead of SM count.

use crate::network::Network;
use crate::parallel::{run_chunk_range, WorkerState};
use cap_obs::NoopTracer;
use cap_tensor::{Tensor4, TensorResult};
use serde::{Deserialize, Serialize};

/// Throughput measured over one batched run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Images processed.
    pub images: usize,
    /// Batch size used.
    pub batch: usize,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Images per second.
    pub images_per_s: f64,
}

impl ThroughputReport {
    pub(crate) fn over(images: usize, batch: usize, wall_s: f64) -> Self {
        let images_per_s = if wall_s > 0.0 {
            images as f64 / wall_s
        } else {
            0.0
        };
        Self {
            images,
            batch,
            wall_s,
            images_per_s,
        }
    }
}

/// Run inference over `images` in batches of `batch`, returning the
/// network outputs per image (in order) and a throughput report.
///
/// A trailing partial batch is executed as-is, reusing the same chunk
/// buffer (shrunk in place) rather than allocating a fresh tensor; all
/// layer activations come from one [`crate::ForwardArena`] reused
/// across batches. This is the chunk loop of a [`crate::ParallelEngine`]
/// worker, run over every chunk on the calling thread.
///
/// Every kernel on this path computes each image independently, so the
/// per-image outputs are **bitwise-equal across batch sizes** (and equal
/// to the [`crate::ParallelEngine`] outputs at any worker count). The
/// doctest below demonstrates it; the property suites in
/// `crates/cnn/tests/arena_parity.rs` (arena path vs the allocating
/// path) and `crates/cnn/tests/parallel_parity.rs` (engine vs this
/// driver) cover it across generated networks, shapes and batch sizes.
///
/// ```
/// use cap_cnn::layer::ReluLayer;
/// use cap_cnn::{run_batched, Network};
/// use cap_tensor::Tensor4;
///
/// let mut net = Network::new("id", (1, 2, 2));
/// net.add_sequential(Box::new(ReluLayer::new("r"))).unwrap();
/// let images = Tensor4::from_fn(5, 1, 2, 2, |n, _, _, _| n as f32 - 2.0);
///
/// // Five images in batches of two: a 2+2+1 chunk sequence.
/// let (outputs, report) = run_batched(&net, &images, 2).unwrap();
/// assert_eq!(outputs.len(), 5);
/// assert_eq!(outputs[0], vec![0.0; 4]); // ReLU clamps the negative image
/// assert_eq!(report.images, 5);
/// assert!(report.images_per_s > 0.0);
///
/// // Chunking is invisible in the outputs: one 5-image batch produces
/// // bitwise-identical results.
/// let (whole, _) = run_batched(&net, &images, 5).unwrap();
/// assert_eq!(outputs, whole);
/// ```
pub fn run_batched(
    net: &Network,
    images: &Tensor4,
    batch: usize,
) -> TensorResult<(Vec<Vec<f32>>, ThroughputReport)> {
    let n = images.n();
    let batch = batch.max(1);
    let mut outputs = vec![Vec::new(); n];
    let (_, wall_s) = run_chunk_range(
        net,
        images,
        batch,
        0,
        n.div_ceil(batch),
        &mut WorkerState::default(),
        &mut outputs,
        0,
        &NoopTracer,
    )?;
    Ok((outputs, ThroughputReport::over(n, batch, wall_s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvLayer, PoolLayer, PoolMode, ReluLayer};
    use crate::network::Network;
    use cap_tensor::{init::xavier_uniform, Conv2dParams};

    fn small_net() -> Network {
        let mut net = Network::new("t", (2, 8, 8));
        let p = Conv2dParams::new(2, 4, 3, 1, 1);
        net.add_sequential(Box::new(
            ConvLayer::new("c1", p, xavier_uniform(4, 18, 3), vec![0.0; 4]).unwrap(),
        ))
        .unwrap();
        net.add_sequential(Box::new(ReluLayer::new("r1"))).unwrap();
        net.add_sequential(Box::new(PoolLayer::new("p1", PoolMode::Max, 2, 0, 2)))
            .unwrap();
        net
    }

    fn images(n: usize) -> Tensor4 {
        Tensor4::from_fn(n, 2, 8, 8, |i, c, h, w| {
            ((i * 5 + c * 3 + h + w) % 7) as f32 - 3.0
        })
    }

    #[test]
    fn batched_output_matches_single_batch() {
        let net = small_net();
        let imgs = images(10);
        let (chunked, _) = run_batched(&net, &imgs, 3).unwrap();
        let (whole, _) = run_batched(&net, &imgs, 10).unwrap();
        assert_eq!(chunked.len(), 10);
        let bits = |out: &[Vec<f32>]| -> Vec<Vec<u32>> {
            out.iter()
                .map(|image| image.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&chunked), bits(&whole));
    }

    #[test]
    fn trailing_partial_batch_handled() {
        let net = small_net();
        let imgs = images(7);
        let (out, report) = run_batched(&net, &imgs, 4).unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(report.images, 7);
        assert_eq!(report.batch, 4);
        assert!(report.images_per_s > 0.0);
    }

    #[test]
    fn zero_batch_clamped_to_one() {
        let net = small_net();
        let imgs = images(3);
        let (out, report) = run_batched(&net, &imgs, 0).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(report.batch, 1);
    }
}
