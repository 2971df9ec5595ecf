//! Googlenet (Szegedy et al., CVPR'15) — the paper's deeper CNN: two main
//! convolution stages and nine inception modules, each containing six
//! convolutions, for 56+ convolution layers with only ~7 M parameters.

use super::{WeightFill, WeightInit};
use crate::layer::{
    ConcatLayer, ConvLayer, DropoutLayer, InnerProductLayer, LrnLayer, PoolLayer, PoolMode,
    ReluLayer, SoftmaxLayer,
};
use crate::network::{Network, NodeId};
use cap_tensor::{Conv2dParams, TensorResult};

/// The six Googlenet convolution layers singled out in the paper's
/// Figure 7, spanning different depths of the network.
pub const GOOGLENET_SELECTED_LAYERS: [&str; 6] = [
    "conv1-7x7-s2",
    "conv2-3x3",
    "inception-3a-3x3",
    "inception-4d-5x5",
    "inception-4e-5x5",
    "inception-5a-3x3",
];

/// Channel plan of one inception module:
/// `(#1x1, #3x3reduce, #3x3, #5x5reduce, #5x5, #poolproj)`.
type InceptionPlan = (usize, usize, usize, usize, usize, usize);

struct Builder {
    net: Network,
    weights: WeightFill,
    salt: u64,
}

impl Builder {
    fn conv(&mut self, name: &str, p: Conv2dParams, inputs: &[NodeId]) -> TensorResult<NodeId> {
        self.salt += 1;
        let w = self
            .weights
            .build(p.out_channels, p.in_per_group() * p.kh * p.kw, self.salt);
        let conv_id = self.net.add_layer(
            Box::new(ConvLayer::new(name, p, w, vec![0.0; p.out_channels])?),
            inputs,
        )?;
        self.net
            .add_layer(Box::new(ReluLayer::new(format!("{name}-relu"))), &[conv_id])
    }

    /// Build one inception module; returns the concat node.
    fn inception(
        &mut self,
        tag: &str,
        input: NodeId,
        in_c: usize,
        plan: InceptionPlan,
    ) -> TensorResult<NodeId> {
        let (n1, n3r, n3, n5r, n5, np) = plan;
        // Branch 1: 1x1.
        let b1 = self.conv(
            &format!("inception-{tag}-1x1"),
            Conv2dParams::new(in_c, n1, 1, 0, 1),
            &[input],
        )?;
        // Branch 2: 1x1 reduce then 3x3.
        let b2r = self.conv(
            &format!("inception-{tag}-3x3-reduce"),
            Conv2dParams::new(in_c, n3r, 1, 0, 1),
            &[input],
        )?;
        let b2 = self.conv(
            &format!("inception-{tag}-3x3"),
            Conv2dParams::new(n3r, n3, 3, 1, 1),
            &[b2r],
        )?;
        // Branch 3: 1x1 reduce then 5x5.
        let b3r = self.conv(
            &format!("inception-{tag}-5x5-reduce"),
            Conv2dParams::new(in_c, n5r, 1, 0, 1),
            &[input],
        )?;
        let b3 = self.conv(
            &format!("inception-{tag}-5x5"),
            Conv2dParams::new(n5r, n5, 5, 2, 1),
            &[b3r],
        )?;
        // Branch 4: 3x3 max pool then 1x1 projection.
        let bp = self.net.add_layer(
            Box::new(PoolLayer::new(
                format!("inception-{tag}-pool"),
                PoolMode::Max,
                3,
                1,
                1,
            )),
            &[input],
        )?;
        let b4 = self.conv(
            &format!("inception-{tag}-pool-proj"),
            Conv2dParams::new(in_c, np, 1, 0, 1),
            &[bp],
        )?;
        self.net.add_layer(
            Box::new(ConcatLayer::new(format!("inception-{tag}-output"))),
            &[b1, b2, b3, b4],
        )
    }
}

/// Build Googlenet for 3×224×224 RGB input.
///
/// Structure follows the Caffe `bvlc_googlenet` deploy prototxt (auxiliary
/// training classifiers omitted — this is an inference model): a 7×7/2
/// stem, a 3×3 second stage, nine inception modules (3a–3b, 4a–4e,
/// 5a–5b), global average pooling and a 1000-way classifier.
pub fn googlenet(init: WeightInit) -> TensorResult<Network> {
    let mut b = Builder {
        net: Network::new("googlenet", (3, 224, 224)),
        weights: WeightFill::new(init),
        salt: 50_000,
    };
    const INPUT: NodeId = crate::network::INPUT;

    // Stem: conv1 7x7/2 pad 3 -> 64×112×112, pool -> 56, LRN.
    let c1 = b.conv("conv1-7x7-s2", Conv2dParams::new(3, 64, 7, 3, 2), &[INPUT])?;
    let p1 = b.net.add_layer(
        Box::new(PoolLayer::new("pool1-3x3-s2", PoolMode::Max, 3, 0, 2)),
        &[c1],
    )?;
    let n1 = b
        .net
        .add_layer(Box::new(LrnLayer::alexnet("pool1-norm1")), &[p1])?;

    // conv2: 1x1 reduce (64) then 3x3 (192), LRN, pool -> 192×28×28.
    let c2r = b.conv(
        "conv2-3x3-reduce",
        Conv2dParams::new(64, 64, 1, 0, 1),
        &[n1],
    )?;
    let c2 = b.conv("conv2-3x3", Conv2dParams::new(64, 192, 3, 1, 1), &[c2r])?;
    let n2 = b
        .net
        .add_layer(Box::new(LrnLayer::alexnet("conv2-norm2")), &[c2])?;
    let p2 = b.net.add_layer(
        Box::new(PoolLayer::new("pool2-3x3-s2", PoolMode::Max, 3, 0, 2)),
        &[n2],
    )?;

    // Inception stacks. Channel plans from the GoogLeNet paper, Table 1.
    let i3a = b.inception("3a", p2, 192, (64, 96, 128, 16, 32, 32))?; // 256
    let i3b = b.inception("3b", i3a, 256, (128, 128, 192, 32, 96, 64))?; // 480
    let p3 = b.net.add_layer(
        Box::new(PoolLayer::new("pool3-3x3-s2", PoolMode::Max, 3, 0, 2)),
        &[i3b],
    )?;
    let i4a = b.inception("4a", p3, 480, (192, 96, 208, 16, 48, 64))?; // 512
    let i4b = b.inception("4b", i4a, 512, (160, 112, 224, 24, 64, 64))?; // 512
    let i4c = b.inception("4c", i4b, 512, (128, 128, 256, 24, 64, 64))?; // 512
    let i4d = b.inception("4d", i4c, 512, (112, 144, 288, 32, 64, 64))?; // 528
    let i4e = b.inception("4e", i4d, 528, (256, 160, 320, 32, 128, 128))?; // 832
    let p4 = b.net.add_layer(
        Box::new(PoolLayer::new("pool4-3x3-s2", PoolMode::Max, 3, 0, 2)),
        &[i4e],
    )?;
    let i5a = b.inception("5a", p4, 832, (256, 160, 320, 32, 128, 128))?; // 832
    let i5b = b.inception("5b", i5a, 832, (384, 192, 384, 48, 128, 128))?; // 1024

    // Head: global average pool, dropout, 1000-way classifier.
    let gap = b.net.add_layer(
        Box::new(PoolLayer::new("pool5-7x7-s1", PoolMode::Avg, 7, 0, 1)),
        &[i5b],
    )?;
    let drop = b
        .net
        .add_layer(Box::new(DropoutLayer::new("pool5-drop", 0.4)), &[gap])?;
    let fc = b.net.add_layer(
        Box::new(InnerProductLayer::new(
            "loss3-classifier",
            b.weights.build(1000, 1024, 99_999),
            vec![0.0; 1000],
        )?),
        &[drop],
    )?;
    b.net
        .add_layer(Box::new(SoftmaxLayer::new("prob")), &[fc])?;
    Ok(b.net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    #[test]
    fn output_is_1000_way() {
        let net = googlenet(WeightInit::Zeros).unwrap();
        assert_eq!(net.output_shape().unwrap(), (1000, 1, 1));
    }

    #[test]
    fn stage_shapes_match_googlenet_paper() {
        let net = googlenet(WeightInit::Zeros).unwrap();
        let check = |name: &str, expect: (usize, usize, usize)| {
            let id = net.node_id(name).unwrap();
            assert_eq!(net.shape_of(id).unwrap(), expect, "layer {name}");
        };
        check("conv1-7x7-s2", (64, 112, 112));
        check("conv2-3x3", (192, 56, 56));
        check("inception-3a-output", (256, 28, 28));
        check("inception-3b-output", (480, 28, 28));
        check("inception-4a-output", (512, 14, 14));
        check("inception-4d-output", (528, 14, 14));
        check("inception-4e-output", (832, 14, 14));
        check("inception-5b-output", (1024, 7, 7));
        check("pool5-7x7-s1", (1024, 1, 1));
        let by_layer: u64 = net.macs_by_layer().unwrap().iter().map(|l| l.2).sum();
        assert_eq!(by_layer, net.macs_per_image().unwrap());
    }

    #[test]
    fn has_56_plus_conv_layers() {
        // Paper: "56 convolution layers (two main convolution layers and
        // nine inception layers each containing six convolution layers)".
        let net = googlenet(WeightInit::Zeros).unwrap();
        let convs = net.layers_of_kind(LayerKind::Convolution);
        assert_eq!(convs.len(), 3 + 9 * 6, "2 stem stages (3 convs) + 54");
        for name in GOOGLENET_SELECTED_LAYERS {
            assert!(convs.iter().any(|c| c == name), "missing {name}");
        }
    }

    #[test]
    fn parameter_count_is_millions_not_tens_of_millions() {
        // Paper: "Googlenet has only 4 million parameters"; the standard
        // count for bvlc_googlenet is ~7 M. Either way: far below Caffenet.
        let net = googlenet(WeightInit::Zeros).unwrap();
        let params = net.param_count();
        assert!(
            (4_000_000..9_000_000).contains(&params),
            "googlenet params {params}"
        );
    }

    #[test]
    fn forward_runs_on_small_batch() {
        // Use Xavier weights at reduced cost: batch 1 once.
        let net = googlenet(WeightInit::Xavier { seed: 3 }).unwrap();
        let x = cap_tensor::Tensor4::from_fn(1, 3, 224, 224, |_, c, h, w| {
            ((c * 7 + h + w) % 9) as f32 / 9.0 - 0.5
        });
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 1000, 1, 1));
        let s: f32 = y.image(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }
}
