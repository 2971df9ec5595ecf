//! Arena-reuse parity: `Network::forward_into` through one long-lived
//! [`ForwardArena`] must agree with the allocating `Network::forward`
//! across batch-size changes, branchy DAGs, and weight switches —
//! reused buffers must never leak state between passes.

use cap_cnn::layer::{
    ConcatLayer, ConvLayer, DropoutLayer, InnerProductLayer, Layer, LrnLayer, PoolLayer, PoolMode,
    ReluLayer, SoftmaxLayer,
};
use cap_cnn::network::{ForwardArena, Network, INPUT};
use cap_tensor::{init::xavier_uniform, Conv2dParams, Matrix, Tensor4};
use proptest::prelude::*;

mod common;

/// A small net exercising every layer type with an overridden
/// `forward_into`: grouped conv, relu, LRN, pool, branchy concat,
/// dropout, fc, softmax.
fn build_net(seed: u64) -> Network {
    let mut net = Network::new("parity", (4, 9, 9));
    let p1 = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
    let w1 = xavier_uniform(6, 2 * 9, seed);
    let c1 = net
        .add_layer(
            Box::new(ConvLayer::new("c1", p1, w1, vec![0.05; 6]).unwrap()),
            &[INPUT],
        )
        .unwrap();
    let r1 = net
        .add_layer(Box::new(ReluLayer::new("r1")), &[c1])
        .unwrap();
    let n1 = net
        .add_layer(Box::new(LrnLayer::alexnet("n1")), &[r1])
        .unwrap();
    // Two branches off the normalized map, joined by concat.
    let pa = Conv2dParams::new(6, 3, 1, 0, 1);
    let ba = net
        .add_layer(
            Box::new(
                ConvLayer::new("ba", pa, xavier_uniform(3, 6, seed + 1), vec![0.0; 3]).unwrap(),
            ),
            &[n1],
        )
        .unwrap();
    let pb = Conv2dParams::new(6, 5, 3, 1, 1);
    let bb = net
        .add_layer(
            Box::new(
                ConvLayer::new("bb", pb, xavier_uniform(5, 54, seed + 2), vec![0.0; 5]).unwrap(),
            ),
            &[n1],
        )
        .unwrap();
    let cat = net
        .add_layer(Box::new(ConcatLayer::new("cat")), &[ba, bb])
        .unwrap();
    let pool = net
        .add_layer(
            Box::new(PoolLayer::new("p1", PoolMode::Max, 3, 0, 2)),
            &[cat],
        )
        .unwrap();
    let drop = net
        .add_layer(Box::new(DropoutLayer::new("d1", 0.5)), &[pool])
        .unwrap();
    // 8 channels * 4x4 spatial after pooling.
    let fc = net
        .add_layer(
            Box::new(
                InnerProductLayer::new("fc", xavier_uniform(10, 8 * 16, seed + 3), vec![0.01; 10])
                    .unwrap(),
            ),
            &[drop],
        )
        .unwrap();
    net.add_layer(Box::new(SoftmaxLayer::new("prob")), &[fc])
        .unwrap();
    net
}

fn images(n: usize, seed: usize) -> Tensor4 {
    Tensor4::from_fn(n, 4, 9, 9, |ni, c, h, w| {
        (((ni * 131 + c * 31 + h * 7 + w + seed) % 19) as f32 - 9.0) / 6.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// One arena serving passes of varying batch size (grow and shrink)
    /// must reproduce the allocating path exactly.
    #[test]
    fn arena_reuse_matches_fresh_forward(
        seed in 0u64..100,
        b1 in 1usize..4,
        b2 in 1usize..6,
    ) {
        let net = build_net(seed);
        let mut arena = ForwardArena::new();
        for (round, &b) in [b1, b2, b1].iter().enumerate() {
            let x = images(b, seed as usize + round);
            let expect = net.forward(&x).unwrap();
            let got = net.forward_into(&x, &mut arena).unwrap();
            prop_assert_eq!(expect.shape(), got.shape());
            prop_assert!(expect.max_abs_diff(got).unwrap() == 0.0);
        }
    }
}

#[test]
fn arena_survives_weight_swap() {
    // Pruning mid-flight (set_layer_weights) must interoperate with an
    // existing arena: packed weights are rebuilt, buffers are reused.
    let mut net = build_net(3);
    let x = images(2, 5);
    let mut arena = ForwardArena::new();
    let before = net.forward_into(&x, &mut arena).unwrap().clone();

    let w = common::unstructured_zeros(net.layer("c1").unwrap().weights().unwrap().clone());
    net.set_layer_weights("c1", w).unwrap();
    let after_arena = net.forward_into(&x, &mut arena).unwrap().clone();
    let after_fresh = net.forward(&x).unwrap();
    assert!(after_arena.max_abs_diff(&after_fresh).unwrap() == 0.0);
    assert!(after_arena.max_abs_diff(&before).unwrap() > 0.0);
}

#[test]
fn empty_network_copies_input() {
    let net = Network::new("empty", (2, 3, 3));
    let x = Tensor4::from_fn(1, 2, 3, 3, |_, c, h, w| (c + h + w) as f32);
    let mut arena = ForwardArena::new();
    let y = net.forward_into(&x, &mut arena).unwrap();
    assert_eq!(y, &x);
}

#[test]
fn set_weights_keeps_matrix_weights_in_sync() {
    // InnerProduct derives forms from its weights (a narrowed copy, an
    // int8 pack); `weights()` must still expose the raw matrix given to
    // `set_weights`.
    let mut fc = InnerProductLayer::new(
        "fc",
        Matrix::from_fn(3, 4, |r, c| (r + c) as f32),
        vec![0.0; 3],
    )
    .unwrap();
    let new_w = Matrix::from_fn(3, 4, |r, c| (r * c) as f32);
    fc.set_weights(new_w.clone()).unwrap();
    assert_eq!(fc.weights().unwrap().as_slice(), new_w.as_slice());
}

/// The arena's slot plan on the real models and the inception-shaped
/// test net, fused and unfused: no step clobbers a value still to be
/// read or writes its own input, the output slot is never reused, and
/// the slots hold far less than one per node.
#[test]
fn slot_plans_never_clobber_a_live_value() {
    use cap_cnn::models::{caffenet, googlenet, WeightInit};
    let nets = [
        googlenet(WeightInit::Zeros).unwrap(),
        caffenet(WeightInit::Zeros).unwrap(),
        common::inception_shaped(xavier_uniform),
    ];
    for net in &nets {
        for fused in [false, true] {
            let plan = common::check_slot_plan(net, fused);
            let what = format!("{} fused {fused}", net.name());
            assert!(plan.peak_live <= plan.reserved, "{what}: {plan:?}");
            assert!(plan.slots < net.len() / 4, "{what}: {plan:?}");
        }
    }
}
