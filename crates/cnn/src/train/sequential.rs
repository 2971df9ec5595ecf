//! A configurable trainable sequential CNN: measured experiments build
//! conv/pool/fc stacks (the two-conv [`SequentialNet::tinynet`] preset,
//! a three-conv "mini-Caffenet" for Figure 8's Observation 3), train
//! and prune them for real, and hand them to the production executor
//! with [`SequentialNet::to_network`].
//!
//! The paper's Caffenet/Googlenet arrive pre-trained on 1.2 M ImageNet
//! images; that substrate is unavailable here, so these nets close the
//! loop at laptop scale. The forward pass in this module exists for the
//! backward pass (it caches every activation): accuracy comes from it,
//! time never does — a trained net reaches inference only through
//! [`Network`].

use super::{
    conv_backward, conv_forward, fc_backward, maxpool_backward, relu_backward,
    softmax_cross_entropy, Sgd,
};
use crate::accuracy::{evaluate_topk, AccuracyReport};
use crate::layer::{ConvLayer, InnerProductLayer, Layer, PoolLayer, PoolMode, ReluLayer};
use crate::network::Network;
use cap_tensor::{
    gemm, init::xavier_uniform, max_pool2d_indices, ops::relu_inplace, Conv2dParams, ConvWeights,
    Matrix, Pool2dParams, ShapeError, Tensor4, TensorResult,
};
use serde::{Deserialize, Serialize};

/// One trainable layer of a [`SequentialNet`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum TrainLayer {
    /// Ungrouped convolution with weights and bias.
    Conv {
        /// Geometry (groups must be 1 for the training path).
        params: Conv2dParams,
        /// Weights, `out × in·k²`.
        w: Matrix,
        /// Bias, one per output channel.
        b: Vec<f32>,
    },
    /// ReLU activation.
    Relu,
    /// Max pooling (square window, no padding).
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Fully-connected classifier head (input flattened implicitly).
    Fc {
        /// Weights, `out × in`.
        w: Matrix,
        /// Bias, one per output.
        b: Vec<f32>,
    },
}

impl TrainLayer {
    /// Mutable weight matrix, if this layer has one — the pruning hook.
    pub fn weights_mut(&mut self) -> Option<&mut Matrix> {
        match self {
            TrainLayer::Conv { w, .. } | TrainLayer::Fc { w, .. } => Some(w),
            _ => None,
        }
    }

    /// Immutable weight matrix, if any.
    pub fn weights(&self) -> Option<&Matrix> {
        match self {
            TrainLayer::Conv { w, .. } | TrainLayer::Fc { w, .. } => Some(w),
            _ => None,
        }
    }
}

/// A trainable sequential CNN ending in a fully-connected classifier.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SequentialNet {
    in_shape: (usize, usize, usize),
    layers: Vec<TrainLayer>,
}

/// Builder for [`SequentialNet`] — tracks the flowing shape so layer
/// sizes are derived, not hand-computed.
pub struct SequentialBuilder {
    in_shape: (usize, usize, usize),
    current: (usize, usize, usize),
    layers: Vec<TrainLayer>,
    seed: u64,
    error: Option<ShapeError>,
}

impl SequentialBuilder {
    /// Start a builder for per-image input shape `(c, h, w)`.
    pub fn new(in_shape: (usize, usize, usize), seed: u64) -> Self {
        Self {
            in_shape,
            current: in_shape,
            layers: Vec::new(),
            seed,
            error: None,
        }
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.seed
    }

    /// Append a 3×3 (or `k×k`) convolution with `out` channels, padding
    /// `pad`, stride 1, Xavier-initialized.
    pub fn conv(mut self, out: usize, k: usize, pad: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        let (c, h, w) = self.current;
        let params = Conv2dParams::new(c, out, k, pad, 1);
        match params.out_shape(h, w) {
            Ok((oh, ow)) => {
                let seed = self.next_seed();
                self.layers.push(TrainLayer::Conv {
                    params,
                    w: xavier_uniform(out, c * k * k, seed),
                    b: vec![0.0; out],
                });
                self.current = (out, oh, ow);
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Append a ReLU.
    pub fn relu(mut self) -> Self {
        if self.error.is_none() {
            self.layers.push(TrainLayer::Relu);
        }
        self
    }

    /// Append max pooling with window `k` and stride `k`.
    pub fn maxpool(mut self, k: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        let (c, h, w) = self.current;
        match Pool2dParams::new(k, 0, k).out_shape(h, w) {
            Ok((oh, ow)) => {
                self.layers.push(TrainLayer::MaxPool { k, stride: k });
                self.current = (c, oh, ow);
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Append the fully-connected classifier head with `classes` outputs
    /// and finish the network.
    pub fn fc(mut self, classes: usize) -> TensorResult<SequentialNet> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let (c, h, w) = self.current;
        let seed = self.next_seed();
        self.layers.push(TrainLayer::Fc {
            w: xavier_uniform(classes, c * h * w, seed),
            b: vec![0.0; classes],
        });
        Ok(SequentialNet {
            in_shape: self.in_shape,
            layers: self.layers,
        })
    }
}

/// Cached per-layer forward state for the backward pass.
enum Cache {
    Conv {
        input: Tensor4,
    },
    Relu {
        pre: Tensor4,
    },
    MaxPool {
        argmax: Vec<usize>,
        in_shape: (usize, usize, usize, usize),
    },
    Fc {
        flat: Matrix,
    },
}

impl SequentialNet {
    /// The *TinyNet* preset: `conv3×3(c1) → relu → pool2 → conv3×3(c2) →
    /// relu → pool2 → fc(classes)`, Xavier-initialized. `h` and `w` must
    /// be multiples of 4 so both poolings divide evenly.
    pub fn tinynet(
        in_shape: (usize, usize, usize),
        c1: usize,
        c2: usize,
        classes: usize,
        seed: u64,
    ) -> TensorResult<Self> {
        let (c, h, w) = in_shape;
        if h % 4 != 0 || w % 4 != 0 || h < 4 || w < 4 {
            return Err(ShapeError::new(
                "tinynet: spatial dims must be multiples of 4",
            ));
        }
        let conv = |cin: usize, cout: usize, seed: u64| TrainLayer::Conv {
            params: Conv2dParams::new(cin, cout, 3, 1, 1),
            w: xavier_uniform(cout, cin * 9, seed),
            b: vec![0.0; cout],
        };
        let pool = TrainLayer::MaxPool { k: 2, stride: 2 };
        Ok(Self {
            in_shape,
            layers: vec![
                conv(c, c1, seed ^ 0x11),
                TrainLayer::Relu,
                pool.clone(),
                conv(c1, c2, seed ^ 0x22),
                TrainLayer::Relu,
                pool,
                TrainLayer::Fc {
                    w: xavier_uniform(classes, c2 * (h / 4) * (w / 4), seed ^ 0x33),
                    b: vec![0.0; classes],
                },
            ],
        })
    }

    /// Per-image input shape.
    pub fn in_shape(&self) -> (usize, usize, usize) {
        self.in_shape
    }

    /// Layers, immutable.
    pub fn layers(&self) -> &[TrainLayer] {
        &self.layers
    }

    /// Mutable layer access (pruning swaps weights through this).
    pub fn layer_mut(&mut self, idx: usize) -> Option<&mut TrainLayer> {
        self.layers.get_mut(idx)
    }

    /// Indices of layers that carry prunable weights, in order.
    pub fn weighted_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.weights().is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                TrainLayer::Conv { w, b, .. } | TrainLayer::Fc { w, b } => w.len() + b.len(),
                _ => 0,
            })
            .sum()
    }

    fn forward_cached(&self, x: &Tensor4) -> TensorResult<(Matrix, Vec<Cache>)> {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut act = x.clone();
        let mut logits: Option<Matrix> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            match layer {
                TrainLayer::Conv { params, w, b } => {
                    caches.push(Cache::Conv { input: act.clone() });
                    act = conv_forward(&act, ConvWeights::Dense(w), b, params)?;
                }
                TrainLayer::Relu => {
                    caches.push(Cache::Relu { pre: act.clone() });
                    relu_inplace(act.as_mut_slice());
                }
                TrainLayer::MaxPool { k, stride } => {
                    let (pooled, argmax) =
                        max_pool2d_indices(&act, &Pool2dParams::new(*k, 0, *stride))?;
                    caches.push(Cache::MaxPool {
                        argmax,
                        in_shape: act.shape(),
                    });
                    act = pooled;
                }
                TrainLayer::Fc { w, b } => {
                    if i != self.layers.len() - 1 {
                        return Err(ShapeError::new("SequentialNet: Fc must be the final layer"));
                    }
                    let flat = act.to_matrix();
                    let mut y = gemm(&flat, &w.transpose())?;
                    for r in 0..y.rows() {
                        for (v, bias) in y.row_mut(r).iter_mut().zip(b.iter()) {
                            *v += bias;
                        }
                    }
                    caches.push(Cache::Fc { flat });
                    logits = Some(y);
                }
            }
        }
        logits
            .map(|l| (l, caches))
            .ok_or_else(|| ShapeError::new("SequentialNet: missing Fc head"))
    }

    /// Forward pass returning `batch × classes` logits.
    pub fn logits(&self, x: &Tensor4) -> TensorResult<Matrix> {
        Ok(self.forward_cached(x)?.0)
    }

    /// One SGD step; returns the mean loss. `masks` maps a weighted layer
    /// index to a 0/1 multiplier freezing pruned weights.
    pub fn train_batch(
        &mut self,
        x: &Tensor4,
        labels: &[usize],
        sgd: &mut Sgd,
        masks: Option<&std::collections::HashMap<usize, Vec<f32>>>,
    ) -> TensorResult<f32> {
        let (logits, caches) = self.forward_cached(x)?;
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels)?;

        // Backward in reverse layer order. `grad_t` carries the NCHW
        // gradient; `grad_m` carries it in flattened form after the head.
        let mut grad_m: Option<Matrix> = Some(dlogits);
        let mut grad_t: Option<Tensor4> = None;
        // Collected (layer idx, dw, db) updates, applied after the walk.
        let mut updates: Vec<(usize, Matrix, Vec<f32>)> = Vec::new();

        for (i, layer) in self.layers.iter().enumerate().rev() {
            match (layer, &caches[i]) {
                (TrainLayer::Fc { w, .. }, Cache::Fc { flat }) => {
                    let g = grad_m.take().expect("fc backward needs matrix grad");
                    let fc = fc_backward(flat, &g, w)?;
                    // Unflatten dx to the shape the previous layer produced.
                    let prev_shape = shape_before(&self.layers, i, self.in_shape, x.n());
                    grad_t = Some(Tensor4::from_matrix(
                        &fc.dx,
                        prev_shape.1,
                        prev_shape.2,
                        prev_shape.3,
                    )?);
                    updates.push((i, fc.dw, fc.db));
                }
                (TrainLayer::MaxPool { .. }, Cache::MaxPool { argmax, in_shape }) => {
                    let g = grad_t.take().expect("pool backward needs tensor grad");
                    let dx = maxpool_backward(
                        in_shape.0 * in_shape.1 * in_shape.2 * in_shape.3,
                        argmax,
                        g.as_slice(),
                    )?;
                    grad_t = Some(Tensor4::from_vec(
                        in_shape.0, in_shape.1, in_shape.2, in_shape.3, dx,
                    )?);
                }
                (TrainLayer::Relu, Cache::Relu { pre }) => {
                    let g = grad_t.take().expect("relu backward needs tensor grad");
                    let dx = relu_backward(pre.as_slice(), g.as_slice());
                    grad_t = Some(Tensor4::from_vec(pre.n(), pre.c(), pre.h(), pre.w(), dx)?);
                }
                (TrainLayer::Conv { params, w, .. }, Cache::Conv { input }) => {
                    let g = grad_t.take().expect("conv backward needs tensor grad");
                    let cg = conv_backward(input, &g, w, params)?;
                    grad_t = Some(cg.dx);
                    updates.push((i, cg.dw, cg.db));
                }
                _ => unreachable!("cache kind always matches layer kind"),
            }
        }

        // Apply parameter updates.
        for (i, dw, db) in updates {
            let key_w = format!("layer{i}_w");
            let key_b = format!("layer{i}_b");
            let mask = masks.and_then(|m| m.get(&i)).map(|v| v.as_slice());
            match &mut self.layers[i] {
                TrainLayer::Conv { w, b, .. } | TrainLayer::Fc { w, b } => {
                    sgd.step(&key_w, w.as_mut_slice(), dw.as_slice(), mask);
                    sgd.step(&key_b, b, &db, None);
                }
                _ => unreachable!("updates only collected for weighted layers"),
            }
        }
        Ok(loss)
    }

    /// Top-1/top-5 evaluation on a labelled batch.
    pub fn evaluate(&self, x: &Tensor4, labels: &[usize]) -> TensorResult<AccuracyReport> {
        evaluate_topk(&self.logits(x)?, labels)
    }

    /// Overall weight sparsity of the convolution layers.
    pub fn conv_sparsity(&self) -> f64 {
        let convs = self.layers.iter().filter_map(|l| match l {
            TrainLayer::Conv { w, .. } => Some(w),
            _ => None,
        });
        let (zeros, total) =
            convs.fold((0, 0), |(z, t), w| (z + w.len() - w.nnz(0.0), t + w.len()));
        zeros as f64 / total.max(1) as f64
    }

    /// This net as a [`Network`] of production layers — the only way a
    /// trained net reaches inference, so the pruned-weight form
    /// [`ConvLayer`] selects, the fused kernels and the
    /// `CAP_TENSOR_PRECISION` switch all apply to what gets timed.
    /// Nodes are named per kind in order (`conv1, relu1, pool1, …, fc`).
    /// Weights are cloned into the layers; retrain-then-rebuild to
    /// refresh. Outputs match [`Self::logits`] up to float-association
    /// differences in the packed kernels (same math, different loop
    /// order).
    pub fn to_network(&self) -> TensorResult<Network> {
        let mut net = Network::new("sequential", self.in_shape);
        let (mut convs, mut relus, mut pools) = (0, 0, 0);
        let name = |kind: &str, count: &mut usize| {
            *count += 1;
            format!("{kind}{count}")
        };
        for layer in &self.layers {
            let layer: Box<dyn Layer> = match layer {
                TrainLayer::Conv { params, w, b } => Box::new(ConvLayer::new(
                    name("conv", &mut convs),
                    *params,
                    w.clone(),
                    b.clone(),
                )?),
                TrainLayer::Relu => Box::new(ReluLayer::new(name("relu", &mut relus))),
                TrainLayer::MaxPool { k, stride } => Box::new(PoolLayer::new(
                    name("pool", &mut pools),
                    PoolMode::Max,
                    *k,
                    0,
                    *stride,
                )),
                TrainLayer::Fc { w, b } => {
                    Box::new(InnerProductLayer::new("fc", w.clone(), b.clone())?)
                }
            };
            net.add_sequential(layer)?;
        }
        Ok(net)
    }
}

/// Per-batch shape `(n, c, h, w)` flowing *into* layer `idx`.
fn shape_before(
    layers: &[TrainLayer],
    idx: usize,
    in_shape: (usize, usize, usize),
    n: usize,
) -> (usize, usize, usize, usize) {
    let (mut c, mut h, mut w) = in_shape;
    for layer in &layers[..idx] {
        match layer {
            TrainLayer::Conv { params, .. } => {
                let (oh, ow) = params.out_shape(h, w).expect("validated at build time");
                c = params.out_channels;
                h = oh;
                w = ow;
            }
            TrainLayer::MaxPool { k, stride } => {
                let (oh, ow) = Pool2dParams::new(*k, 0, *stride)
                    .out_shape(h, w)
                    .expect("validated at build time");
                h = oh;
                w = ow;
            }
            _ => {}
        }
    }
    (n, c, h, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(classes: usize, n: usize, shape: (usize, usize, usize)) -> (Tensor4, Vec<usize>) {
        let (c, h, w) = shape;
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let x = Tensor4::from_fn(n, c, h, w, |ni, ci, hi, wi| {
            let k = labels[ni];
            let phase = (hi * 2 + wi + k * 3 + ci) % 8;
            if phase < 4 {
                1.0 - 0.2 * phase as f32
            } else {
                -0.3
            }
        });
        (x, labels)
    }

    fn three_conv_net(seed: u64) -> SequentialNet {
        SequentialBuilder::new((2, 16, 16), seed)
            .conv(6, 3, 1)
            .relu()
            .maxpool(2)
            .conv(8, 3, 1)
            .relu()
            .maxpool(2)
            .conv(10, 3, 1)
            .relu()
            .fc(4)
            .unwrap()
    }

    /// The TinyNet preset at the scale its own tests always used.
    fn tiny(seed: u64) -> SequentialNet {
        SequentialNet::tinynet((2, 8, 8), 4, 6, 3, seed).unwrap()
    }

    #[test]
    fn builder_tracks_shapes_and_counts_params() {
        let net = three_conv_net(5);
        assert_eq!(net.layers().len(), 9);
        assert_eq!(net.weighted_layer_indices(), vec![0, 3, 6, 8]);
        // conv1 6*2*9+6, conv2 8*6*9+8, conv3 10*8*9+10, fc 4*(10*4*4)+4.
        assert_eq!(
            net.param_count(),
            (6 * 18 + 6) + (8 * 54 + 8) + (10 * 72 + 10) + (4 * 160 + 4)
        );
        let preset = tiny(1);
        assert_eq!(preset.weighted_layer_indices(), vec![0, 3, 6]);
        assert_eq!(
            preset.param_count(),
            (4 * 18 + 4) + (6 * 36 + 6) + (3 * 24 + 3)
        );
    }

    #[test]
    fn builder_rejects_impossible_geometry() {
        let r = SequentialBuilder::new((1, 4, 4), 1).maxpool(8).fc(2);
        assert!(r.is_err());
        let r2 = SequentialBuilder::new((1, 4, 4), 1).conv(2, 9, 0).fc(2);
        assert!(r2.is_err());
    }

    #[test]
    fn tinynet_rejects_non_multiple_of_four() {
        assert!(SequentialNet::tinynet((1, 6, 6), 2, 2, 2, 1).is_err());
        assert!(SequentialNet::tinynet((1, 0, 4), 2, 2, 2, 1).is_err());
    }

    #[test]
    fn logits_shape_is_batch_by_classes() {
        let net = three_conv_net(7);
        let (x, _) = batch(4, 5, (2, 16, 16));
        let y = net.logits(&x).unwrap();
        assert_eq!(y.shape(), (5, 4));
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        // (net, classes, images, lr, steps, top-1 floor)
        let cases = [
            (three_conv_net(11), 4, 12, 0.03, 40, 0.5),
            (tiny(7), 3, 9, 0.05, 30, 0.34),
            (tiny(11), 3, 12, 0.05, 60, 0.6),
        ];
        for (mut net, classes, n, lr, steps, floor) in cases {
            let mut sgd = Sgd::new(lr, 0.9);
            let (x, labels) = batch(classes, n, net.in_shape());
            let first = net.train_batch(&x, &labels, &mut sgd, None).unwrap();
            let mut last = first;
            for _ in 0..steps {
                last = net.train_batch(&x, &labels, &mut sgd, None).unwrap();
            }
            assert!(last < first * 0.5, "loss {first} -> {last}");
            let acc = net.evaluate(&x, &labels).unwrap();
            assert!(acc.top1 > floor, "top1 {}", acc.top1);
        }
    }

    #[test]
    fn masked_training_keeps_pruned_weights_zero() {
        // Zero part of one conv layer, freeze it with a mask, fine-tune.
        for (mut net, idx, every, classes) in [(three_conv_net(13), 3, 2, 4), (tiny(17), 0, 3, 3)] {
            let w = net.layer_mut(idx).unwrap().weights_mut().unwrap();
            for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                if i % every == 0 {
                    *v = 0.0;
                }
            }
            let mask: Vec<f32> = w
                .as_slice()
                .iter()
                .map(|&v| if v == 0.0 { 0.0 } else { 1.0 })
                .collect();
            let zeros_before = w.len() - w.nnz(0.0);
            let sparsity_before = net.conv_sparsity();
            assert!(sparsity_before > 0.0);
            let masks = std::collections::HashMap::from([(idx, mask)]);
            let mut sgd = Sgd::new(0.03, 0.9);
            let (x, labels) = batch(classes, 8, net.in_shape());
            for _ in 0..5 {
                net.train_batch(&x, &labels, &mut sgd, Some(&masks))
                    .unwrap();
            }
            let w = net.layers()[idx].weights().unwrap();
            assert_eq!(w.len() - w.nnz(0.0), zeros_before);
            assert!(net.conv_sparsity() >= sparsity_before - 1e-9);
        }
    }

    #[test]
    fn fc_must_be_last() {
        // Build a net manually with Fc in the middle.
        let net = SequentialBuilder::new((1, 4, 4), 1).fc(3).unwrap();
        let mut layers = net.layers().to_vec();
        layers.push(TrainLayer::Relu);
        let bad = SequentialNet {
            in_shape: (1, 4, 4),
            layers,
        };
        let x = Tensor4::zeros(1, 1, 4, 4);
        assert!(bad.logits(&x).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        // A checkpoint restores the model exactly, trained weights included.
        for (mut net, classes) in [(three_conv_net(17), 4), (tiny(21), 3)] {
            let mut sgd = Sgd::new(0.05, 0.9);
            let (x, labels) = batch(classes, 6, net.in_shape());
            for _ in 0..3 {
                net.train_batch(&x, &labels, &mut sgd, None).unwrap();
            }
            let json = serde_json::to_string(&net).unwrap();
            let back: SequentialNet = serde_json::from_str(&json).unwrap();
            assert_eq!(back, net);
            // Restored model produces identical logits.
            let (a, b) = (net.logits(&x).unwrap(), back.logits(&x).unwrap());
            assert!(a.max_abs_diff(&b).unwrap() == 0.0);
        }
    }

    /// Zero the `ratio` fraction of rows (filters) with the smallest L1
    /// norm — what `cap_pruning::prune_filters_l1` leaves.
    fn prune_filters(w: &mut Matrix, ratio: f64) {
        let l1 = |w: &Matrix, r: usize| w.row(r).iter().map(|v| v.abs()).sum::<f32>();
        let mut rows: Vec<usize> = (0..w.rows()).collect();
        rows.sort_by(|&a, &b| l1(w, a).partial_cmp(&l1(w, b)).unwrap());
        for &r in &rows[..(w.rows() as f64 * ratio).round() as usize] {
            w.row_mut(r).fill(0.0);
        }
    }

    #[test]
    fn to_network_matches_training_forward_in_every_weight_form() {
        use crate::run_batched;
        use cap_tensor::{precision, CalibrationMethod, Precision};

        fn zero_rows(w: &Matrix) -> usize {
            (0..w.rows())
                .filter(|&r| w.row(r).iter().all(|&v| v == 0.0))
                .count()
        }
        // (weights, how to prune into them, the property that says the
        // case really lands where it says).
        type Case = (&'static str, fn(&mut Matrix), fn(&Matrix) -> bool);
        let forms: [Case; 3] = [
            ("dense", |_| {}, |w| w.sparsity(0.0) == 0.0),
            // Magnitude pruning row by row, so no filter empties out.
            (
                "unstructured zeros",
                |w| (0..w.rows()).for_each(|r| prune_slice(w.row_mut(r), 0.85)),
                |w| w.sparsity(0.0) > 0.8 && zero_rows(w) == 0,
            ),
            (
                "dense rows",
                |w| prune_filters(w, 0.5),
                |w| zero_rows(w) * 2 == w.rows() && w.sparsity(0.0) == 0.5,
            ),
        ];
        for (form, prune, in_form) in forms {
            let mut trained = SequentialNet::tinynet((2, 16, 16), 8, 12, 4, 13).unwrap();
            for idx in [0, 3] {
                let w = trained.layer_mut(idx).unwrap().weights_mut().unwrap();
                prune(w);
                assert!(in_form(w), "{form}: layer {idx}");
            }
            let (x, _) = batch(4, 5, trained.in_shape());
            let net = trained.to_network().unwrap();
            let names: Vec<&str> = net.layer_names().collect();
            assert_eq!(
                names,
                ["conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "fc"]
            );
            // Calibrated, so the int8 leg's activation scales do not
            // depend on how the images are chunked.
            net.calibrate(&x, CalibrationMethod::MaxAbs).unwrap();
            let (whole, _) = run_batched(&net, &x, 5).unwrap();
            let (chunked, _) = run_batched(&net, &x, 2).unwrap();
            let bits = |out: &[Vec<f32>]| -> Vec<u32> {
                out.iter().flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&whole), bits(&chunked), "{form}: batch-invariant");
            if precision::selected() != Precision::F32 {
                continue; // the int8 leg quantizes; its bound is `int8_net.rs`
            }
            let logits = trained.logits(&x).unwrap();
            for (i, image) in whole.iter().enumerate() {
                for (got, want) in image.iter().zip(logits.row(i)) {
                    assert!((got - want).abs() < 1e-4, "{form}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn measured_multi_layer_interaction_observation3() {
        // Train, then compare accuracy damage of pruning conv1 alone,
        // conv2 alone, and both together — the combined damage must be at
        // least the worst single-layer damage (Observation 3's measured
        // counterpart at this scale).
        let mut net = three_conv_net(23);
        let mut sgd = Sgd::new(0.03, 0.9);
        let (x, labels) = batch(4, 16, (2, 16, 16));
        for _ in 0..50 {
            net.train_batch(&x, &labels, &mut sgd, None).unwrap();
        }
        let base = net.evaluate(&x, &labels).unwrap().top1;

        let prune_at = |net: &SequentialNet, idxs: &[usize]| -> f64 {
            let mut clone = net.clone();
            for &i in idxs {
                let w = clone.layer_mut(i).unwrap().weights_mut().unwrap();
                cap_tensor_prune(w, 0.7);
            }
            clone.evaluate(&x, &labels).unwrap().top1
        };
        let a1 = prune_at(&net, &[0]);
        let a2 = prune_at(&net, &[3]);
        let a12 = prune_at(&net, &[0, 3]);
        assert!(base >= a12 - 1e-9);
        assert!(
            a12 <= a1.min(a2) + 1e-9 + 0.25,
            "combined {a12} vs singles {a1}/{a2}"
        );
    }

    /// Minimal magnitude pruning helper (avoids a dev-dependency cycle
    /// with cap-pruning).
    fn cap_tensor_prune(w: &mut Matrix, ratio: f64) {
        prune_slice(w.as_mut_slice(), ratio);
    }

    /// Zero the `ratio` fraction of `data` with the smallest magnitude.
    fn prune_slice(data: &mut [f32], ratio: f64) {
        let k = (data.len() as f64 * ratio).round() as usize;
        let mut idx: Vec<usize> = (0..data.len()).collect();
        idx.sort_by(|&a, &b| data[a].abs().partial_cmp(&data[b].abs()).unwrap());
        for &i in idx.iter().take(k) {
            data[i] = 0.0;
        }
    }
}
