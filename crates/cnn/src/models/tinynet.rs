//! TinyNet — a small, genuinely trainable CNN.
//!
//! The paper's Caffenet/Googlenet arrive pre-trained on 1.2 M ImageNet
//! images; that substrate is unavailable here, so TinyNet closes the loop
//! at laptop scale: train on `cap-data` synthetic images, prune its
//! convolution layers, and *measure* the accuracy drop and the sparse-
//! kernel speedup instead of modelling them.

use crate::accuracy::{evaluate_topk, AccuracyReport};
use crate::layer::{ConvLayer, InnerProductLayer, PoolLayer, PoolMode, ReluLayer};
use crate::network::Network;
use crate::train::{
    conv_backward, conv_forward, fc_backward, maxpool_backward, relu_backward,
    softmax_cross_entropy, Sgd,
};
use cap_tensor::{
    gemm, max_pool2d_indices, ops::relu_inplace, Conv2dParams, ConvWeights, Matrix, Pool2dParams,
    ShapeError, Tensor4, TensorResult,
};

/// A two-conv-layer CNN: `conv1 → relu → pool → conv2 → relu → pool → fc`.
#[derive(serde::Serialize, serde::Deserialize, Clone, Debug, PartialEq)]
pub struct TinyNet {
    /// Input shape per image `(c, h, w)`; h and w must be divisible by 4.
    pub in_shape: (usize, usize, usize),
    /// Number of classes.
    pub classes: usize,
    conv1: Conv2dParams,
    conv2: Conv2dParams,
    /// conv1 weights (`c1 × in*9`).
    pub conv1_w: Matrix,
    /// conv1 bias.
    pub conv1_b: Vec<f32>,
    /// conv2 weights (`c2 × c1*9`).
    pub conv2_w: Matrix,
    /// conv2 bias.
    pub conv2_b: Vec<f32>,
    /// Classifier weights (`classes × c2*(h/4)*(w/4)`).
    pub fc_w: Matrix,
    /// Classifier bias.
    pub fc_b: Vec<f32>,
}

struct ForwardCache {
    a1_pre: Tensor4,
    a1_pooled: Tensor4,
    pool1_idx: Vec<usize>,
    a2_pre: Tensor4,
    a2_pooled: Tensor4,
    pool2_idx: Vec<usize>,
    flat: Matrix,
    logits: Matrix,
}

impl TinyNet {
    /// Create a TinyNet with Xavier-initialized weights.
    pub fn new(
        in_shape: (usize, usize, usize),
        c1: usize,
        c2: usize,
        classes: usize,
        seed: u64,
    ) -> TensorResult<Self> {
        let (c, h, w) = in_shape;
        if h % 4 != 0 || w % 4 != 0 || h < 4 || w < 4 {
            return Err(ShapeError::new(
                "TinyNet: spatial dims must be multiples of 4",
            ));
        }
        let conv1 = Conv2dParams::new(c, c1, 3, 1, 1);
        let conv2 = Conv2dParams::new(c1, c2, 3, 1, 1);
        let fc_in = c2 * (h / 4) * (w / 4);
        Ok(Self {
            in_shape,
            classes,
            conv1,
            conv2,
            conv1_w: cap_tensor::init::xavier_uniform(c1, c * 9, seed ^ 0x11),
            conv1_b: vec![0.0; c1],
            conv2_w: cap_tensor::init::xavier_uniform(c2, c1 * 9, seed ^ 0x22),
            conv2_b: vec![0.0; c2],
            fc_w: cap_tensor::init::xavier_uniform(classes, fc_in, seed ^ 0x33),
            fc_b: vec![0.0; classes],
        })
    }

    fn forward_cached(&self, x: &Tensor4) -> TensorResult<ForwardCache> {
        let pool = Pool2dParams::new(2, 0, 2);
        let dense = ConvWeights::Dense;
        let a1_pre = conv_forward(x, dense(&self.conv1_w), &self.conv1_b, &self.conv1)?;
        let mut a1 = a1_pre.clone();
        relu_inplace(a1.as_mut_slice());
        let (a1_pooled, pool1_idx) = max_pool2d_indices(&a1, &pool)?;
        let a2_pre = conv_forward(&a1_pooled, dense(&self.conv2_w), &self.conv2_b, &self.conv2)?;
        let mut a2 = a2_pre.clone();
        relu_inplace(a2.as_mut_slice());
        let (a2_pooled, pool2_idx) = max_pool2d_indices(&a2, &pool)?;
        let flat = a2_pooled.to_matrix();
        let mut logits = gemm(&flat, &self.fc_w.transpose())?;
        for r in 0..logits.rows() {
            for (v, b) in logits.row_mut(r).iter_mut().zip(self.fc_b.iter()) {
                *v += b;
            }
        }
        Ok(ForwardCache {
            a1_pre,
            a1_pooled,
            pool1_idx,
            a2_pre,
            a2_pooled,
            pool2_idx,
            flat,
            logits,
        })
    }

    /// Forward pass returning class logits (`batch × classes`).
    pub fn logits(&self, x: &Tensor4) -> TensorResult<Matrix> {
        Ok(self.forward_cached(x)?.logits)
    }

    /// Forward pass using CSR sparse convolution kernels — the execution
    /// path a pruned model takes. Numerically identical to [`Self::logits`].
    pub fn logits_sparse(&self, x: &Tensor4) -> TensorResult<Matrix> {
        let pool = Pool2dParams::new(2, 0, 2);
        let w1 = ConvWeights::csr_bands(&self.conv1_w, &self.conv1)?;
        let w2 = ConvWeights::csr_bands(&self.conv2_w, &self.conv2)?;
        let mut a1 = conv_forward(x, ConvWeights::Csr(&w1), &self.conv1_b, &self.conv1)?;
        relu_inplace(a1.as_mut_slice());
        let (a1p, _) = max_pool2d_indices(&a1, &pool)?;
        let mut a2 = conv_forward(&a1p, ConvWeights::Csr(&w2), &self.conv2_b, &self.conv2)?;
        relu_inplace(a2.as_mut_slice());
        let (a2p, _) = max_pool2d_indices(&a2, &pool)?;
        let flat = a2p.to_matrix();
        let mut logits = gemm(&flat, &self.fc_w.transpose())?;
        for r in 0..logits.rows() {
            for (v, b) in logits.row_mut(r).iter_mut().zip(self.fc_b.iter()) {
                *v += b;
            }
        }
        Ok(logits)
    }

    /// One SGD step on a labelled batch; returns the mean loss.
    ///
    /// `masks`, when given, are `(conv1_mask, conv2_mask)` multipliers that
    /// freeze pruned weights at zero during fine-tuning.
    pub fn train_batch(
        &mut self,
        x: &Tensor4,
        labels: &[usize],
        sgd: &mut Sgd,
        masks: Option<(&[f32], &[f32])>,
    ) -> TensorResult<f32> {
        let cache = self.forward_cached(x)?;
        let (loss, dlogits) = softmax_cross_entropy(&cache.logits, labels)?;

        // fc backward.
        let fc_grad = fc_backward(&cache.flat, &dlogits, &self.fc_w)?;

        // Unflatten into pooled-activation gradient.
        let (c2p, h4, w4) = (
            cache.a2_pooled.c(),
            cache.a2_pooled.h(),
            cache.a2_pooled.w(),
        );
        let d_a2_pooled = Tensor4::from_matrix(&fc_grad.dx, c2p, h4, w4)?;

        // pool2 backward, then relu2.
        let d_a2 = maxpool_backward(cache.a2_pre.len(), &cache.pool2_idx, d_a2_pooled.as_slice())?;
        let d_a2 = relu_backward(cache.a2_pre.as_slice(), &d_a2);
        let d_a2 = Tensor4::from_vec(
            cache.a2_pre.n(),
            cache.a2_pre.c(),
            cache.a2_pre.h(),
            cache.a2_pre.w(),
            d_a2,
        )?;

        // conv2 backward.
        let g2 = conv_backward(&cache.a1_pooled, &d_a2, &self.conv2_w, &self.conv2)?;

        // pool1 backward, then relu1.
        let d_a1 = maxpool_backward(cache.a1_pre.len(), &cache.pool1_idx, g2.dx.as_slice())?;
        let d_a1 = relu_backward(cache.a1_pre.as_slice(), &d_a1);
        let d_a1 = Tensor4::from_vec(
            cache.a1_pre.n(),
            cache.a1_pre.c(),
            cache.a1_pre.h(),
            cache.a1_pre.w(),
            d_a1,
        )?;

        // conv1 backward (dx unused).
        let g1 = conv_backward(x, &d_a1, &self.conv1_w, &self.conv1)?;

        // SGD updates.
        sgd.step(
            "conv1_w",
            self.conv1_w.as_mut_slice(),
            g1.dw.as_slice(),
            masks.map(|m| m.0),
        );
        sgd.step("conv1_b", &mut self.conv1_b, &g1.db, None);
        sgd.step(
            "conv2_w",
            self.conv2_w.as_mut_slice(),
            g2.dw.as_slice(),
            masks.map(|m| m.1),
        );
        sgd.step("conv2_b", &mut self.conv2_b, &g2.db, None);
        sgd.step(
            "fc_w",
            self.fc_w.as_mut_slice(),
            fc_grad.dw.as_slice(),
            None,
        );
        sgd.step("fc_b", &mut self.fc_b, &fc_grad.db, None);
        Ok(loss)
    }

    /// Evaluate top-1/top-5 accuracy on a labelled batch.
    pub fn evaluate(&self, x: &Tensor4, labels: &[usize]) -> TensorResult<AccuracyReport> {
        evaluate_topk(&self.logits(x)?, labels)
    }

    /// Serialize the full model (architecture + weights) to JSON —
    /// checkpointing for the train–prune–fine-tune workflow.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("TinyNet serializes")
    }

    /// Restore a model saved with [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Express this TinyNet as a [`Network`] of packed layer executors —
    /// the bridge from the trainable model to the measured inference
    /// path (fused kernels, sparse dispatch, and the
    /// `CAP_TENSOR_PRECISION` f32/int8 switch all apply). Weights are
    /// cloned into the layers; retrain-then-rebuild to refresh. Logits
    /// match [`Self::logits`] up to float-association differences in
    /// the packed kernels (same math, different loop order).
    pub fn to_network(&self) -> TensorResult<Network> {
        let mut net = Network::new("tinynet", self.in_shape);
        net.add_sequential(Box::new(ConvLayer::new(
            "conv1",
            self.conv1,
            self.conv1_w.clone(),
            self.conv1_b.clone(),
        )?))?;
        net.add_sequential(Box::new(ReluLayer::new("relu1")))?;
        net.add_sequential(Box::new(PoolLayer::new("pool1", PoolMode::Max, 2, 0, 2)))?;
        net.add_sequential(Box::new(ConvLayer::new(
            "conv2",
            self.conv2,
            self.conv2_w.clone(),
            self.conv2_b.clone(),
        )?))?;
        net.add_sequential(Box::new(ReluLayer::new("relu2")))?;
        net.add_sequential(Box::new(PoolLayer::new("pool2", PoolMode::Max, 2, 0, 2)))?;
        net.add_sequential(Box::new(InnerProductLayer::new(
            "fc",
            self.fc_w.clone(),
            self.fc_b.clone(),
        )?))?;
        Ok(net)
    }

    /// Overall weight sparsity of the two convolution layers.
    pub fn conv_sparsity(&self) -> f64 {
        let total = (self.conv1_w.len() + self.conv2_w.len()) as f64;
        let zeros = (self.conv1_w.len() - self.conv1_w.nnz(0.0) + self.conv2_w.len()
            - self.conv2_w.nnz(0.0)) as f64;
        zeros / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(net: &TinyNet, n: usize, seed: u64) -> (Tensor4, Vec<usize>) {
        // Class k = image dominated by channel pattern k.
        let (c, h, w) = net.in_shape;
        let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % net.classes).collect();
        let x = Tensor4::from_fn(n, c, h, w, |ni, ci, hi, wi| {
            let k = labels[ni];
            let phase = (hi * 2 + wi + k * 3 + ci) % 8;
            if phase < 4 {
                1.0 - 0.2 * (phase as f32)
            } else {
                -0.3
            }
        });
        (x, labels)
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = TinyNet::new((2, 8, 8), 4, 6, 3, 7).unwrap();
        let mut sgd = Sgd::new(0.05, 0.9);
        let (x, labels) = batch(&net, 9, 0);
        let first = net.train_batch(&x, &labels, &mut sgd, None).unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = net.train_batch(&x, &labels, &mut sgd, None).unwrap();
        }
        assert!(last < first * 0.5, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn trained_net_beats_chance() {
        let mut net = TinyNet::new((2, 8, 8), 4, 6, 3, 11).unwrap();
        let mut sgd = Sgd::new(0.05, 0.9);
        let (x, labels) = batch(&net, 12, 0);
        for _ in 0..60 {
            net.train_batch(&x, &labels, &mut sgd, None).unwrap();
        }
        let report = net.evaluate(&x, &labels).unwrap();
        assert!(report.top1 > 0.6, "top1 {}", report.top1);
    }

    #[test]
    fn sparse_and_dense_logits_agree() {
        let mut net = TinyNet::new((2, 8, 8), 4, 6, 3, 13).unwrap();
        // Prune half the conv1 weights manually.
        for (i, v) in net.conv1_w.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let (x, _) = batch(&net, 5, 3);
        let dense = net.logits(&x).unwrap();
        let sparse = net.logits_sparse(&x).unwrap();
        assert!(dense.max_abs_diff(&sparse).unwrap() < 1e-3);
    }

    #[test]
    fn masked_training_preserves_sparsity() {
        let mut net = TinyNet::new((2, 8, 8), 4, 6, 3, 17).unwrap();
        for (i, v) in net.conv1_w.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let mask1: Vec<f32> = net
            .conv1_w
            .as_slice()
            .iter()
            .map(|&v| if v == 0.0 { 0.0 } else { 1.0 })
            .collect();
        let mask2 = vec![1.0; net.conv2_w.len()];
        let before = net.conv_sparsity();
        let mut sgd = Sgd::new(0.05, 0.9);
        let (x, labels) = batch(&net, 6, 1);
        for _ in 0..5 {
            net.train_batch(&x, &labels, &mut sgd, Some((&mask1, &mask2)))
                .unwrap();
        }
        assert!(net.conv_sparsity() >= before - 1e-9);
    }

    #[test]
    fn rejects_non_multiple_of_four() {
        assert!(TinyNet::new((1, 6, 6), 2, 2, 2, 1).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_model_exactly() {
        let mut net = TinyNet::new((2, 8, 8), 4, 6, 3, 21).unwrap();
        let mut sgd = Sgd::new(0.05, 0.9);
        let (x, labels) = batch(&net, 6, 2);
        for _ in 0..3 {
            net.train_batch(&x, &labels, &mut sgd, None).unwrap();
        }
        let json = net.to_json();
        let restored = TinyNet::from_json(&json).unwrap();
        assert_eq!(restored, net);
        // Restored model produces identical logits.
        let a = net.logits(&x).unwrap();
        let b = restored.logits(&x).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() == 0.0);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(TinyNet::from_json("{not json").is_err());
    }
}
