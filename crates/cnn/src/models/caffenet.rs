//! Caffenet — the Caffe implementation of AlexNet, exactly as in the
//! paper's Table 1 and Figure 1: five convolution layers (conv2/4/5
//! grouped ×2, hence Table 1's `5×5×48` / `3×3×192` filter shapes against
//! 96/384-channel inputs) and three fully-connected layers, with ReLU,
//! LRN and overlapping max-pooling between them.

use super::{WeightFill, WeightInit};
use crate::layer::{
    ConvLayer, DropoutLayer, InnerProductLayer, LrnLayer, PoolLayer, PoolMode, ReluLayer,
    SoftmaxLayer,
};
use crate::network::Network;
use cap_tensor::{Conv2dParams, TensorResult};

/// The five prunable convolution layer names, in order.
pub const CAFFENET_CONV_LAYERS: [&str; 5] = ["conv1", "conv2", "conv3", "conv4", "conv5"];

/// Build Caffenet for 3×224×224 RGB input (the paper's input size).
///
/// Layer shapes reproduce Table 1:
///
/// | layer | output | filters | filter size |
/// |-------|-----------|-----|----------|
/// | conv1 | 96×55×55  | 96  | 11×11×3  |
/// | conv2 | 256×27×27 | 256 | 5×5×48   |
/// | conv3 | 384×13×13 | 384 | 3×3×256  |
/// | conv4 | 384×13×13 | 384 | 3×3×192  |
/// | conv5 | 256×13×13 | 256 | 3×3×192  |
/// | fc1   | 4096      |     |          |
/// | fc2   | 4096      |     |          |
/// | fc3   | 1000      |     |          |
pub fn caffenet(init: WeightInit) -> TensorResult<Network> {
    let mut net = Network::new("caffenet", (3, 224, 224));
    let mut weights = WeightFill::new(init);
    let mut salt = 0u64;
    let mut conv = |net: &mut Network, name: &str, p: Conv2dParams| -> TensorResult<()> {
        salt += 1;
        let w = weights.build(p.out_channels, p.in_per_group() * p.kh * p.kw, salt);
        net.add_sequential(Box::new(ConvLayer::new(
            name,
            p,
            w,
            vec![0.0; p.out_channels],
        )?))?;
        Ok(())
    };

    // conv1: 96 × 11×11×3, stride 4, pad 2 -> 96×55×55.
    conv(&mut net, "conv1", Conv2dParams::new(3, 96, 11, 2, 4))?;
    net.add_sequential(Box::new(ReluLayer::new("relu1")))?;
    net.add_sequential(Box::new(PoolLayer::new("pool1", PoolMode::Max, 3, 0, 2)))?;
    net.add_sequential(Box::new(LrnLayer::alexnet("norm1")))?;

    // conv2: 256 × 5×5×48 (group 2), pad 2 -> 256×27×27.
    conv(
        &mut net,
        "conv2",
        Conv2dParams::grouped(96, 256, 5, 2, 1, 2),
    )?;
    net.add_sequential(Box::new(ReluLayer::new("relu2")))?;
    net.add_sequential(Box::new(PoolLayer::new("pool2", PoolMode::Max, 3, 0, 2)))?;
    net.add_sequential(Box::new(LrnLayer::alexnet("norm2")))?;

    // conv3: 384 × 3×3×256, pad 1 -> 384×13×13.
    conv(&mut net, "conv3", Conv2dParams::new(256, 384, 3, 1, 1))?;
    net.add_sequential(Box::new(ReluLayer::new("relu3")))?;

    // conv4: 384 × 3×3×192 (group 2), pad 1 -> 384×13×13.
    conv(
        &mut net,
        "conv4",
        Conv2dParams::grouped(384, 384, 3, 1, 1, 2),
    )?;
    net.add_sequential(Box::new(ReluLayer::new("relu4")))?;

    // conv5: 256 × 3×3×192 (group 2), pad 1 -> 256×13×13.
    conv(
        &mut net,
        "conv5",
        Conv2dParams::grouped(384, 256, 3, 1, 1, 2),
    )?;
    net.add_sequential(Box::new(ReluLayer::new("relu5")))?;
    net.add_sequential(Box::new(PoolLayer::new("pool5", PoolMode::Max, 3, 0, 2)))?;

    // fc6/fc7/fc8 — Table 1's fc1/fc2/fc3 (Caffe prototxt numbering).
    let mut fc = |rows: usize, cols: usize, salt: u64| weights.build(rows, cols, 1000 + salt);
    net.add_sequential(Box::new(InnerProductLayer::new(
        "fc6",
        fc(4096, 256 * 6 * 6, 1),
        vec![0.0; 4096],
    )?))?;
    net.add_sequential(Box::new(ReluLayer::new("relu6")))?;
    net.add_sequential(Box::new(DropoutLayer::new("drop6", 0.5)))?;
    net.add_sequential(Box::new(InnerProductLayer::new(
        "fc7",
        fc(4096, 4096, 2),
        vec![0.0; 4096],
    )?))?;
    net.add_sequential(Box::new(ReluLayer::new("relu7")))?;
    net.add_sequential(Box::new(DropoutLayer::new("drop7", 0.5)))?;
    net.add_sequential(Box::new(InnerProductLayer::new(
        "fc8",
        fc(1000, 4096, 3),
        vec![0.0; 1000],
    )?))?;
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn table1_layer_shapes() {
        let net = caffenet(WeightInit::Zeros).unwrap();
        let check = |name: &str, expect: (usize, usize, usize)| {
            let id = net.node_id(name).unwrap();
            assert_eq!(net.shape_of(id).unwrap(), expect, "layer {name}");
        };
        check("conv1", (96, 55, 55));
        check("conv2", (256, 27, 27));
        check("conv3", (384, 13, 13));
        check("conv4", (384, 13, 13));
        check("conv5", (256, 13, 13));
        check("fc6", (4096, 1, 1));
        check("fc7", (4096, 1, 1));
        check("fc8", (1000, 1, 1));
        assert_eq!(net.output_shape().unwrap(), (1000, 1, 1));
    }

    #[test]
    fn has_five_conv_and_three_fc_layers() {
        let net = caffenet(WeightInit::Zeros).unwrap();
        assert_eq!(
            net.layers_of_kind(LayerKind::Convolution),
            CAFFENET_CONV_LAYERS.to_vec()
        );
        assert_eq!(
            net.layers_of_kind(LayerKind::InnerProduct),
            vec!["fc6", "fc7", "fc8"]
        );
    }

    #[test]
    fn parameter_count_near_alexnet_61m() {
        let net = caffenet(WeightInit::Zeros).unwrap();
        let params = net.param_count();
        assert!(
            (58_000_000..64_000_000).contains(&params),
            "caffenet params {params}"
        );
    }

    #[test]
    fn conv_macs_dominate_fc_macs() {
        // Figure 3's premise: convolutions dominate compute.
        let net = caffenet(WeightInit::Zeros).unwrap();
        let by_layer = net.macs_by_layer().unwrap();
        let conv: u64 = by_layer
            .iter()
            .filter(|(_, k, _)| *k == LayerKind::Convolution)
            .map(|(_, _, m)| m)
            .sum();
        let fc: u64 = by_layer
            .iter()
            .filter(|(_, k, _)| *k == LayerKind::InnerProduct)
            .map(|(_, _, m)| m)
            .sum();
        assert!(conv > 10 * fc, "conv {conv} vs fc {fc}");
    }

    #[test]
    fn conv1_macs_largest_among_convs() {
        let net = caffenet(WeightInit::Zeros).unwrap();
        let by_layer = net.macs_by_layer().unwrap();
        let conv_macs: Vec<(String, u64)> = by_layer
            .iter()
            .filter(|(_, k, _)| *k == LayerKind::Convolution)
            .map(|(n, _, m)| (n.clone(), *m))
            .collect();
        // conv2 has the most MACs in AlexNet; conv1 second. What matters
        // for Figure 3 is that conv1+conv2 dominate.
        let total: u64 = conv_macs.iter().map(|(_, m)| m).sum();
        let c12: u64 = conv_macs
            .iter()
            .filter(|(n, _)| n == "conv1" || n == "conv2")
            .map(|(_, m)| m)
            .sum();
        // conv1+conv2 carry ≳40 % of conv MACs (wall-clock share is even
        // higher — Figure 3 — because conv1's output surface is memory-bound).
        assert!(c12 * 5 >= total * 2, "conv1+conv2 {c12} of {total}");
    }
}
