//! Measured (not modelled) pruning behaviour: train TinyNet on synthetic
//! data, prune for real, and verify the paper's qualitative claims hold
//! on genuinely executed CNNs.

use cap_pruning::magnitude::sparsity_mask;
use cloud_cost_accuracy::prelude::*;
use std::collections::HashMap;

fn trained_tinynet(data: &SyntheticImageNet) -> SequentialNet {
    let mut net = SequentialNet::tinynet(data.image_shape, 6, 10, data.classes, 99).unwrap();
    let mut sgd = Sgd::new(0.03, 0.9);
    for _epoch in 0..4 {
        for b in 0..6 {
            let (x, labels) = data.batch(b * 24, 24);
            net.train_batch(&x, &labels, &mut sgd, None).unwrap();
        }
    }
    net
}

/// The preset's two conv layers (indices into `SequentialNet::layers`).
const CONVS: [usize; 2] = [0, 3];

/// A copy of `net` with both conv layers magnitude-pruned at `ratio`.
fn pruned_copy(net: &SequentialNet, ratio: f64) -> SequentialNet {
    let mut pruned = net.clone();
    for conv in CONVS {
        prune_magnitude(
            pruned.layer_mut(conv).unwrap().weights_mut().unwrap(),
            ratio,
        )
        .unwrap();
    }
    pruned
}

#[test]
fn trained_model_learns_and_moderate_pruning_is_nearly_free() {
    let data = SyntheticImageNet::tiny(31);
    let net = trained_tinynet(&data);
    let (test_x, test_labels) = data.batch(5_000, 96);
    let base = net.evaluate(&test_x, &test_labels).unwrap();
    assert!(base.top1 > 0.5, "baseline top1 {}", base.top1);

    // Sweet-spot shape: 30 % magnitude pruning costs little accuracy.
    let light_report = pruned_copy(&net, 0.3)
        .evaluate(&test_x, &test_labels)
        .unwrap();
    assert!(
        light_report.top1 >= base.top1 - 0.15,
        "30% pruning dropped top1 from {} to {}",
        base.top1,
        light_report.top1
    );

    // Heavy pruning (95 %) destroys accuracy — there is a cliff.
    let heavy_report = pruned_copy(&net, 0.95)
        .evaluate(&test_x, &test_labels)
        .unwrap();
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

    let mut pruned = pruned_copy(&net, 0.6);
    let before = pruned.evaluate(&test_x, &test_labels).unwrap();

    let masks: HashMap<usize, Vec<f32>> = CONVS
        .iter()
        .map(|&conv| {
            (
                conv,
                sparsity_mask(pruned.layers()[conv].weights().unwrap()),
            )
        })
        .collect();
    let sparsity_before = pruned.conv_sparsity();
    let mut sgd = Sgd::new(0.01, 0.9);
    for b in 0..6 {
        let (x, labels) = data.batch(b * 24, 24);
        pruned
            .train_batch(&x, &labels, &mut sgd, Some(&masks))
            .unwrap();
    }
    let after = pruned.evaluate(&test_x, &test_labels).unwrap();
    // Sparsity is preserved by the mask and accuracy does not regress.
    assert!(pruned.conv_sparsity() >= sparsity_before - 1e-9);
    assert!(after.top1 >= before.top1 - 0.05);
}

/// The execution path a pruned model takes — the production `Network`,
/// in whatever form `ConvLayer` picks for the pruned weights — computes
/// what the training forward computes.
#[test]
fn sparse_execution_path_is_numerically_faithful() {
    if cap_tensor::precision::selected() != cap_tensor::Precision::F32 {
        return; // the int8 leg quantizes; its bound is `int8_net.rs`
    }
    let data = SyntheticImageNet::tiny(53);
    let net = trained_tinynet(&data);
    let (x, _) = data.batch(8_000, 32);
    // Magnitude-pruned convs run dense, multiplying their zeros.
    for ratio in [0.7, 0.9] {
        let pruned = pruned_copy(&net, ratio);
        let logits = pruned.logits(&x).unwrap();
        let (outputs, _) = run_batched(&pruned.to_network().unwrap(), &x, 32).unwrap();
        for (i, image) in outputs.iter().enumerate() {
            for (got, want) in image.iter().zip(logits.row(i)) {
                assert!((got - want).abs() < 1e-2, "ratio {ratio}: {got} vs {want}");
            }
        }
    }
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
/// from its multiply: on every kernel path its output equals the dense
/// driver run on the same zero-row matrix bit for bit, pruned channels
/// included.
#[test]
fn filter_pruned_conv_layer_is_bitwise_the_dense_driver_on_the_same_weights() {
    use cap_cnn::layer::ConvLayer;
    use cap_tensor::{conv2d, Conv2dParams, ConvWeights, Precision, Workspace};

    if cap_tensor::precision::selected() != Precision::F32 {
        return; // the int8 leg quantizes; its parity is `int8_net.rs`
    }
    let params = Conv2dParams::grouped(8, 20, 3, 1, 1, 2);
    let bias: Vec<f32> = (0..20).map(|i| i as f32 * 0.03 - 0.2).collect();
    let x = Tensor4::from_fn(2, 8, 9, 9, |n, c, h, w| {
        ((n * 7 + c * 5 + h * 3 + w) % 11) as f32 / 5.0 - 1.0
    });
    let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
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
            assert!(bits(&got) == bits(&want), "ratio {ratio} relu {relu}");
        }
    }
}
