//! Measured (not modelled) pruning behaviour: train TinyNet on synthetic
//! data, prune for real, and verify the paper's qualitative claims hold
//! on genuinely executed CNNs.

use cap_pruning::magnitude::sparsity_mask;
use cloud_cost_accuracy::prelude::*;

fn trained_tinynet(data: &SyntheticImageNet) -> TinyNet {
    let mut net = TinyNet::new(data.image_shape, 6, 10, data.classes, 99).unwrap();
    let mut sgd = Sgd::new(0.03, 0.9);
    for _epoch in 0..4 {
        for b in 0..6 {
            let (x, labels) = data.batch(b * 24, 24);
            net.train_batch(&x, &labels, &mut sgd, None).unwrap();
        }
    }
    net
}

fn clone_weights(from: &TinyNet, data: &SyntheticImageNet) -> TinyNet {
    let mut to = TinyNet::new(data.image_shape, 6, 10, data.classes, 99).unwrap();
    to.conv1_w = from.conv1_w.clone();
    to.conv1_b = from.conv1_b.clone();
    to.conv2_w = from.conv2_w.clone();
    to.conv2_b = from.conv2_b.clone();
    to.fc_w = from.fc_w.clone();
    to.fc_b = from.fc_b.clone();
    to
}

#[test]
fn trained_model_learns_and_moderate_pruning_is_nearly_free() {
    let data = SyntheticImageNet::tiny(31);
    let net = trained_tinynet(&data);
    let (test_x, test_labels) = data.batch(5_000, 96);
    let base = net.evaluate(&test_x, &test_labels).unwrap();
    assert!(base.top1 > 0.5, "baseline top1 {}", base.top1);

    // Sweet-spot shape: 30 % magnitude pruning costs little accuracy.
    let mut light = clone_weights(&net, &data);
    prune_magnitude(&mut light.conv1_w, 0.3).unwrap();
    prune_magnitude(&mut light.conv2_w, 0.3).unwrap();
    let light_report = light.evaluate(&test_x, &test_labels).unwrap();
    assert!(
        light_report.top1 >= base.top1 - 0.15,
        "30% pruning dropped top1 from {} to {}",
        base.top1,
        light_report.top1
    );

    // Heavy pruning (95 %) destroys accuracy — there is a cliff.
    let mut heavy = clone_weights(&net, &data);
    prune_magnitude(&mut heavy.conv1_w, 0.95).unwrap();
    prune_magnitude(&mut heavy.conv2_w, 0.95).unwrap();
    let heavy_report = heavy.evaluate(&test_x, &test_labels).unwrap();
    assert!(
        heavy_report.top1 < base.top1,
        "95% pruning should cost accuracy: {} vs {}",
        heavy_report.top1,
        base.top1
    );
}

#[test]
fn fine_tuning_recovers_some_pruned_accuracy() {
    let data = SyntheticImageNet::tiny(47);
    let net = trained_tinynet(&data);
    let (test_x, test_labels) = data.batch(5_000, 96);

    let mut pruned = clone_weights(&net, &data);
    prune_magnitude(&mut pruned.conv1_w, 0.6).unwrap();
    prune_magnitude(&mut pruned.conv2_w, 0.6).unwrap();
    let before = pruned.evaluate(&test_x, &test_labels).unwrap();

    let m1 = sparsity_mask(&pruned.conv1_w);
    let m2 = sparsity_mask(&pruned.conv2_w);
    let sparsity_before = pruned.conv_sparsity();
    let mut sgd = Sgd::new(0.01, 0.9);
    for b in 0..6 {
        let (x, labels) = data.batch(b * 24, 24);
        pruned
            .train_batch(&x, &labels, &mut sgd, Some((&m1, &m2)))
            .unwrap();
    }
    let after = pruned.evaluate(&test_x, &test_labels).unwrap();
    // Sparsity is preserved by the mask and accuracy does not regress.
    assert!(pruned.conv_sparsity() >= sparsity_before - 1e-9);
    assert!(after.top1 >= before.top1 - 0.05);
}

#[test]
fn sparse_execution_path_is_numerically_faithful() {
    let data = SyntheticImageNet::tiny(53);
    let net = trained_tinynet(&data);
    let mut pruned = clone_weights(&net, &data);
    prune_magnitude(&mut pruned.conv1_w, 0.7).unwrap();
    prune_magnitude(&mut pruned.conv2_w, 0.7).unwrap();
    let (x, _) = data.batch(8_000, 32);
    let dense = pruned.logits(&x).unwrap();
    let sparse = pruned.logits_sparse(&x).unwrap();
    assert!(dense.max_abs_diff(&sparse).unwrap() < 1e-2);
}

#[test]
fn filter_pruning_on_real_caffenet_reduces_nnz_monotonically() {
    let mut prev_nnz = usize::MAX;
    for ratio in [0.2, 0.5, 0.8] {
        let mut net = caffenet(WeightInit::Gaussian { std: 0.01, seed: 1 }).unwrap();
        apply_to_network(
            &mut net,
            &PruneSpec::single("conv3", ratio),
            PruneAlgorithm::FilterL1,
        )
        .unwrap();
        let nnz = net.layer("conv3").unwrap().weights().unwrap().nnz(0.0);
        assert!(nnz < prev_nnz, "ratio {ratio}: nnz {nnz}");
        prev_nnz = nnz;
    }
}

#[test]
fn all_three_algorithms_hit_requested_sparsity_on_googlenet_layer() {
    for alg in [
        PruneAlgorithm::Magnitude,
        PruneAlgorithm::FilterL1,
        PruneAlgorithm::Structured,
    ] {
        let mut net = googlenet(WeightInit::Xavier { seed: 9 }).unwrap();
        apply_to_network(&mut net, &PruneSpec::single("inception-3a-3x3", 0.5), alg).unwrap();
        let s = net.layer("inception-3a-3x3").unwrap().weight_sparsity();
        assert!((s - 0.5).abs() < 0.05, "{alg:?}: sparsity {s}");
    }
}

/// L1 filter pruning zeroes whole filters, and a conv layer drops them
/// from its multiply: on every kernel path that is bit-identical to
/// scalar its output equals the dense driver run on the same zero-row
/// matrix bit for bit, pruned channels included.
#[test]
fn filter_pruned_conv_layer_is_bitwise_the_dense_driver_on_the_same_weights() {
    use cap_cnn::layer::ConvLayer;
    use cap_tensor::{conv2d, kernels, Conv2dParams, ConvWeights, Precision, Workspace};

    if cap_tensor::precision::selected() != Precision::F32 {
        return; // the int8 leg quantizes; its parity is `int8_net.rs`
    }
    let params = Conv2dParams::grouped(8, 20, 3, 1, 1, 2);
    let bias: Vec<f32> = (0..20).map(|i| i as f32 * 0.03 - 0.2).collect();
    let x = Tensor4::from_fn(2, 8, 9, 9, |n, c, h, w| {
        ((n * 7 + c * 5 + h * 3 + w) % 11) as f32 / 5.0 - 1.0
    });
    for ratio in [0.3, 0.6, 0.9] {
        let mut w = cap_tensor::init::xavier_uniform(20, params.col_rows(), 17);
        let pruned = prune_filters_l1(&mut w, ratio).unwrap();
        assert!(!pruned.is_empty());
        let layer = ConvLayer::new("conv", params, w.clone(), bias.clone()).unwrap();
        let mut ws = Workspace::new();
        let (mut got, mut want) = (Tensor4::zeros(0, 0, 0, 0), Tensor4::zeros(0, 0, 0, 0));
        for relu in [false, true] {
            if relu {
                layer.forward_into_fused(&[&x], &mut ws, &mut got).unwrap();
            } else {
                layer.forward_into(&[&x], &mut ws, &mut got).unwrap();
            }
            let dense = ConvWeights::Dense(&w);
            conv2d(&x, dense, Some(&bias), relu, &params, &mut ws, &mut want).unwrap();
            if kernels::selected().is_bit_identical_to_scalar() {
                let bits =
                    |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(bits(&got) == bits(&want), "ratio {ratio} relu {relu}");
            } else {
                assert!(got.max_abs_diff(&want).unwrap() < 1e-5, "ratio {ratio}");
            }
        }
    }
}
