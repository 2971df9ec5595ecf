//! Narrowing is exact: a filter-pruned network, narrowed
//! ([`Network::narrow`]), computes what the same zeroed weights compute
//! at full width — the oracle here is that full-width network, built
//! from the same seed and pruned alike but never narrowed.
//!
//! * Caffenet pruned at its all-conv knees (conv1 30 %, conv2–5 50 %,
//!   the L1 filter pruning of `cap_pruning::prune_filters_l1`) and
//!   Googlenet with every conv pruned at 50 %: under f32, outputs equal
//!   as values (a difference only in the sign of a zero is allowed) on
//!   one thread and on teams of two and three threads; under calibrated
//!   int8, bitwise. Re-pruning the narrowed Caffenet: its uneven
//!   grouped conv2 has no one weight matrix and the error says so; its
//!   one-group conv3 prunes and narrows again.
//! * A small net drawn at random: uneven pruning across the groups of a
//!   grouped conv, an LRN whose neighbours were pruned, a pruned concat
//!   branch, an fc after a pool, a zero filter with a non-zero bias
//!   (kept: its output is not `+0`) and a zero fc row feeding a softmax
//!   (kept: a softmax reads every channel) — f32 equal as values and
//!   int8 bitwise, on teams of one to three threads.
//!
//! `precision::force` is process-global, so the tests serialize on one
//! mutex. The full-size nets run in release builds only (CI runs every
//! suite in release); a debug build skips them.

use cap_cnn::layer::{
    ConcatLayer, ConvLayer, InnerProductLayer, LayerKind, LrnLayer, PoolLayer, PoolMode, ReluLayer,
    SoftmaxLayer,
};
use cap_cnn::models::{caffenet, googlenet, WeightInit};
use cap_cnn::network::{ForwardArena, Network, INPUT};
use cap_tensor::init::xavier_uniform;
use cap_tensor::{precision, CalibrationMethod, Conv2dParams, Matrix, Precision, Team, Tensor4};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// L1 filter pruning of one layer: the `ratio` share of its filters
/// with the smallest L1 norm (ties by index) zeroed — what
/// `cap_pruning::prune_filters_l1` does.
fn prune_l1(net: &mut Network, name: &str, ratio: f64) {
    let mut w = net.layer_weights(name).unwrap().clone();
    let k = (w.rows() as f64 * ratio).round() as usize;
    let norm = |r: usize| w.row(r).iter().map(|v| v.abs()).sum::<f32>();
    let mut rows: Vec<usize> = (0..w.rows()).collect();
    rows.sort_by(|&a, &b| norm(a).total_cmp(&norm(b)).then(a.cmp(&b)));
    for r in rows.into_iter().take(k) {
        w.row_mut(r).fill(0.0);
    }
    net.set_layer_weights(name, w).unwrap();
}

/// An arena on a team of `threads` that splits every kernel with two
/// units of work.
fn arena(threads: usize) -> ForwardArena {
    ForwardArena::with_team(Team::new(threads).with_min_part_macs(0))
}

/// `got` equals `want` as values: bit for bit but for the sign of a
/// zero.
fn assert_values_equal(got: &Tensor4, want: &Tensor4, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(g == w, "{what}: element {i}: {g} against {w}");
    }
}

fn assert_bitwise(got: &Tensor4, want: &Tensor4, what: &str) {
    let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(bits(got) == bits(want), "{what}");
}

/// `narrowed` against `full` on `x`: under f32 equal as values on one,
/// two and three threads; then, both calibrated by an f32 pass over
/// `x`, under int8 bitwise on the same teams.
fn check_against_full(full: &Network, narrowed: &Network, x: &Tensor4, teams: &[usize]) {
    precision::force(Some(Precision::F32));
    let want = full.forward_into(x, &mut arena(1)).unwrap().clone();
    for &threads in teams {
        let mut team = arena(threads);
        let got = narrowed.forward_into(x, &mut team).unwrap();
        let what = format!("{} f32 on {threads} threads", full.name());
        assert_values_equal(got, &want, &what);
    }
    full.calibrate(x, CalibrationMethod::MaxAbs).unwrap();
    narrowed.calibrate(x, CalibrationMethod::MaxAbs).unwrap();
    precision::force(Some(Precision::Int8));
    let want = full.forward_into(x, &mut arena(1)).unwrap().clone();
    for &threads in teams {
        let mut team = arena(threads);
        let got = narrowed.forward_into(x, &mut team).unwrap();
        let what = format!("{} int8 on {threads} threads", full.name());
        assert_bitwise(got, &want, &what);
    }
    precision::force(None);
}

fn images(batch: usize) -> Tensor4 {
    Tensor4::from_fn(batch, 3, 224, 224, |n, c, h, w| {
        (((n * 131 + c * 71 + h * 13 + w * 7) % 251) as f32 - 125.0) / 125.0
    })
}

/// Caffenet at its all-conv knees: conv1 keeps 67 of 96 filters and
/// conv2–5 half theirs; the grouped conv2, conv4 and conv5 keep uneven
/// widths per group, conv3–5 still run Winograd, and fc6 keeps 36
/// columns per kept pool5 channel.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-size nets; run in release")]
fn caffenet_at_the_knees_narrowed_is_the_zeroed_net() {
    let _g = force_lock();
    let init = WeightInit::Xavier { seed: 7 };
    let prune = |net: &mut Network| {
        prune_l1(net, "conv1", 0.3);
        for name in ["conv2", "conv3", "conv4", "conv5"] {
            prune_l1(net, name, 0.5);
        }
    };
    let (mut full, mut narrowed) = (caffenet(init).unwrap(), caffenet(init).unwrap());
    prune(&mut full);
    prune(&mut narrowed);
    let (params, macs) = (full.param_count(), full.macs_per_image().unwrap());
    assert!(narrowed.narrow().unwrap() > 0);
    assert!(
        narrowed.param_count() < params * 7 / 10,
        "fc6 loses half its columns"
    );
    assert!(narrowed.macs_per_image().unwrap() < macs / 2);
    let channels = |name: &str| {
        narrowed
            .shape_of(narrowed.node_id(name).unwrap())
            .unwrap()
            .0
    };
    let filters = [
        ("conv1", 67),
        ("conv2", 128),
        ("conv3", 192),
        ("conv4", 192),
    ];
    for (name, kept) in filters.into_iter().chain([("conv5", 128), ("pool5", 128)]) {
        assert_eq!(channels(name), kept, "{name}");
    }
    let fc6 = narrowed.layer("fc6").unwrap().weights().unwrap();
    assert_eq!(fc6.shape(), (4096, 128 * 36));
    assert_eq!(fc6.capacity(), fc6.len(), "fc6 holds one narrowed copy");
    // conv3–5 run Winograd at full width, and a narrowed conv keeps the
    // form its built geometry picks, so the f32 comparison runs
    // Winograd on both sides.
    precision::force(Some(Precision::F32));
    let convs = [
        ("conv3", Conv2dParams::new(256, 384, 3, 1, 1)),
        ("conv4", Conv2dParams::grouped(384, 384, 3, 1, 1, 2)),
        ("conv5", Conv2dParams::grouped(384, 256, 3, 1, 1, 2)),
    ];
    for (name, p) in convs {
        assert_eq!(
            ConvLayer::weight_form_name(&p, (13, 13)),
            "winograd",
            "{name}"
        );
    }
    for name in ["conv2", "conv4", "conv5"] {
        let layer = narrowed.layer(name).unwrap();
        assert!(layer.weights().is_none(), "{name}: uneven groups");
    }
    // Sparsity reads what pruning left, with or without the zero rows.
    for name in ["conv1", "conv3"] {
        let (full, kept) = (full.layer(name).unwrap(), narrowed.layer(name).unwrap());
        assert_eq!(kept.weight_sparsity(), full.weight_sparsity(), "{name}");
    }
    check_against_full(&full, &narrowed, &images(1), &[1, 2, 3]);
    check_against_full(&full, &narrowed, &images(2), &[1, 2]);

    // Re-pruning the narrowed version: conv2's groups kept uneven
    // widths, so pruning must start from the full-width network; conv3
    // is one group and prunes and narrows again.
    let err = narrowed.layer_weights("conv2").unwrap_err().to_string();
    for says in ["conv2", "uneven widths", "prune the full-width network"] {
        assert!(err.contains(says), "{err}");
    }
    prune_l1(&mut narrowed, "conv3", 0.5);
    assert!(narrowed.narrow().unwrap() > 0);
    let conv3 = narrowed.node_id("conv3").unwrap();
    assert_eq!(narrowed.shape_of(conv3).unwrap().0, 96);
}

/// Googlenet with every conv pruned at 50 %: the inception modules'
/// concats shift their channel offsets, the stem's LRN slides over its
/// kept channels, and every branch narrows its consumers.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-size nets; run in release")]
fn googlenet_half_pruned_narrowed_is_the_zeroed_net() {
    let _g = force_lock();
    let init = WeightInit::Xavier { seed: 7 };
    let (mut full, mut narrowed) = (googlenet(init).unwrap(), googlenet(init).unwrap());
    for net in [&mut full, &mut narrowed] {
        for name in net.layers_of_kind(LayerKind::Convolution) {
            prune_l1(net, &name, 0.5);
        }
    }
    assert!(narrowed.narrow().unwrap() > 0);
    assert!(narrowed.macs_per_image().unwrap() < full.macs_per_image().unwrap() / 2);
    check_against_full(&full, &narrowed, &images(1), &[1, 2, 3]);
}

/// Which filters of each of the random net's pruned layers go: bit `i`
/// of a mask prunes filter `i`.
#[derive(Debug, Clone, Copy)]
struct Masks {
    conv1: u32,
    conv2: u32,
    branch_a: u32,
    branch_b: u32,
    fc: u32,
}

/// The random net, its weights from `seed` and pruned by `masks`, all
/// conv biases zero but conv1's filter 0, whose bias is 0.3 (with its
/// weights pruned too, it stays: a constant 0.3 after ReLU):
///
/// input 4×9×9 → conv1 3×3 (4→12) → ReLU → LRN (5 wide) → grouped conv2
/// 3×3 (12→10, two groups) → ReLU → { branch a: conv 1×1 (10→6) →
/// ReLU ; branch b: 3×3/1 max pool → conv 1×1 (10→5) → ReLU } → concat
/// (11) → 3×3/2 max pool (4×4) → fc (176→7, rows pruned by `masks.fc`
/// with a zero bias) → softmax.
fn random_net(seed: u64, masks: Masks) -> Network {
    let mut net = Network::new("random", (4, 9, 9));
    let pruned = |w: Matrix, mask: u32| {
        let mut w = w;
        for r in (0..w.rows()).filter(|&r| mask >> r & 1 == 1) {
            w.row_mut(r).fill(0.0);
        }
        w
    };
    let conv = |name: &str, p: Conv2dParams, mask: u32, salt: u64| {
        let w = pruned(
            xavier_uniform(p.out_channels, p.col_rows(), seed ^ salt),
            mask,
        );
        let mut bias = vec![0.0; p.out_channels];
        if name == "conv1" {
            bias[0] = 0.3;
        }
        Box::new(ConvLayer::new(name, p, w, bias).unwrap())
    };
    let relu = |name: &str| Box::new(ReluLayer::new(name));
    let c1 = net
        .add_layer(
            conv("conv1", Conv2dParams::new(4, 12, 3, 1, 1), masks.conv1, 1),
            &[INPUT],
        )
        .unwrap();
    let r1 = net.add_layer(relu("relu1"), &[c1]).unwrap();
    let lrn = LrnLayer::new("norm1", 5, 0.5, 0.75, 1.0);
    let n1 = net.add_layer(Box::new(lrn), &[r1]).unwrap();
    let p2 = Conv2dParams::grouped(12, 10, 3, 1, 1, 2);
    let c2 = net
        .add_layer(conv("conv2", p2, masks.conv2, 2), &[n1])
        .unwrap();
    let r2 = net.add_layer(relu("relu2"), &[c2]).unwrap();
    let pa = Conv2dParams::new(10, 6, 1, 0, 1);
    let a = net
        .add_layer(conv("a", pa, masks.branch_a, 3), &[r2])
        .unwrap();
    let ra = net.add_layer(relu("a-relu"), &[a]).unwrap();
    let pool = PoolLayer::new("b-pool", PoolMode::Max, 3, 1, 1);
    let pb = net.add_layer(Box::new(pool), &[r2]).unwrap();
    let b = Conv2dParams::new(10, 5, 1, 0, 1);
    let b = net
        .add_layer(conv("b", b, masks.branch_b, 4), &[pb])
        .unwrap();
    let rb = net.add_layer(relu("b-relu"), &[b]).unwrap();
    let cat = net
        .add_layer(Box::new(ConcatLayer::new("cat")), &[ra, rb])
        .unwrap();
    let pool = PoolLayer::new("pool", PoolMode::Max, 3, 0, 2);
    net.add_layer(Box::new(pool), &[cat]).unwrap();
    let w = pruned(xavier_uniform(7, 11 * 4 * 4, seed ^ 5), masks.fc);
    let fc = InnerProductLayer::new("fc", w, vec![0.0; 7]).unwrap();
    net.add_sequential(Box::new(fc)).unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The random net narrowed against itself at full width. conv1's
    /// filter 0 and the fc's rows always stay; everything else pruned
    /// with a zero bias goes.
    #[test]
    fn random_pruned_nets_narrow_exactly(
        seed in 0u64..1000,
        conv1 in 0u32..(1 << 12),
        conv2 in 0u32..(1 << 10),
        branch_a in 0u32..(1 << 6),
        branch_b in 0u32..(1 << 5),
        fc in 0u32..(1 << 7),
        batch in 1usize..3,
    ) {
        let _g = force_lock();
        let masks = Masks { conv1, conv2, branch_a, branch_b, fc };
        let full = random_net(seed, masks);
        let mut narrowed = random_net(seed, masks);
        narrowed.narrow().unwrap();
        let channels = |name: &str| narrowed.shape_of(narrowed.node_id(name).unwrap()).unwrap().0;
        // A producer keeps at least one channel; else its pruned,
        // zero-bias filters are gone.
        let kept = |mask: u32, of: u32, keep_first: bool| {
            let gone = (mask & !(keep_first as u32)).count_ones();
            (of - gone).max(1) as usize
        };
        prop_assert_eq!(channels("conv1"), kept(conv1, 12, true));
        prop_assert_eq!(channels("conv2"), kept(conv2, 10, false));
        prop_assert_eq!(channels("cat"), kept(branch_a, 6, false) + kept(branch_b, 5, false));
        prop_assert_eq!(channels("fc"), 7);
        let x = Tensor4::from_fn(batch, 4, 9, 9, |n, c, h, w| {
            (((n * 29 + c * 13 + h * 7 + w + seed as usize) % 23) as f32 - 11.0) / 7.0
        });
        check_against_full(&full, &narrowed, &x, &[1, 2, 3]);
    }
}
