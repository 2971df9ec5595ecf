//! A layer decides its weight form (dense, kept rows or CSR) when its
//! weights are set and builds the derived forms (kept-row and CSR
//! bands, int8 quantizations) lazily. `set_weights` must drop every one
//! of them: after dense → filter-pruned → magnitude-pruned → boundary →
//! NaN-holding → dense swaps, with the precision override toggled
//! between passes so each lazy form gets built and then orphaned, every
//! output must be bitwise equal to a freshly constructed layer holding
//! the same weights. A stale form surviving `set_weights` fails this.
//!
//! The same rounds pin where the forms change: a conv's zero fraction
//! of exactly its threshold stays dense and one more zero runs CSR; a
//! NaN weight reads NaN in its output channel on CSR as it does on
//! dense; under int8 a conv runs dense at every sparsity; and an fc runs
//! its one dense form at every sparsity, multiplying its zero weights.
//!
//! In a network the forms also depend on the layer before: a conv or
//! fc layer multiplies only the input channels its producer can emit as
//! non-zero, as the network works out whenever weights are set. Pruning
//! a conv must narrow its consumer, and restoring the conv's dense
//! weights must widen it again: after each swap the output is bitwise
//! a freshly built network's, under both precisions.
//!
//! `precision::force` is process-global; this file is its own test
//! binary, and its tests serialize on one mutex, so nothing races it.

use cap_cnn::layer::{
    ConvLayer, InnerProductLayer, Layer, PoolLayer, PoolMode, ReluLayer, SPARSE_THRESHOLD,
};
use cap_cnn::network::{ForwardArena, Network};
use cap_tensor::init::xavier_uniform;
use cap_tensor::{precision, Conv2dParams, Matrix, Precision, Team, Tensor4, Workspace};
use std::sync::{Mutex, MutexGuard};

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

mod common;

/// Unstructured zeros that put a conv on its CSR form (`runs_csr` in
/// `check` asserts it), with no row emptied: one weight kept per row,
/// at a column that moves with the row.
fn magnitude_pruned(w: Matrix) -> Matrix {
    let (rows, cols) = w.shape();
    Matrix::from_fn(rows, cols, |r, c| {
        if c == (5 * r + 3) % cols {
            w.get(r, c)
        } else {
            0.0
        }
    })
}

/// Every second row zeroed, the rest left dense, as filter pruning
/// leaves them: short of the CSR thresholds, so a conv layer runs its
/// kept rows.
fn filter_pruned(mut w: Matrix) -> Matrix {
    for r in (0..w.rows()).step_by(2) {
        w.row_mut(r).fill(0.0);
    }
    w
}

/// `w` with exactly `fraction` of its elements zeroed (asserted exact
/// in f64), plus `extra` more; the kept ones evenly spaced, so no row
/// empties.
fn zeroed_to(w: Matrix, fraction: f64, extra: usize) -> Matrix {
    let (rows, cols) = w.shape();
    let len = rows * cols;
    let zeros = (fraction * len as f64).round() as usize;
    assert_eq!(zeros as f64 / len as f64, fraction, "{len} elements");
    let keep = len - zeros - extra;
    Matrix::from_fn(rows, cols, |r, c| {
        let i = r * cols + c;
        if i * keep / len != (i + 1) * keep / len {
            w.get(r, c)
        } else {
            0.0
        }
    })
}

/// `w` with one weight of row 1 set to NaN: a stored value on every
/// form, so output channel 1 reads NaN.
fn with_nan(mut w: Matrix) -> Matrix {
    let c = (0..w.cols()).find(|&c| w.get(1, c) != 0.0).unwrap();
    w.set(1, c, f32::NAN);
    w
}

/// Whether an fc layer holding `w` skips its zero weights in f32, from
/// how it treats an infinite input: the dense GEMV multiplies every
/// weight, so a zero weight of row 0 against it reads NaN (`0·∞`); a
/// form that skipped the zero would read the bias. No fc form does.
fn fc_skips_zeros(w: &Matrix) -> bool {
    let Some(j) = (0..w.cols()).find(|&j| w.get(0, j) == 0.0) else {
        return false;
    };
    let fc = InnerProductLayer::new("probe", w.clone(), vec![0.0; w.rows()]).unwrap();
    let mut x = Tensor4::zeros(1, w.cols(), 1, 1);
    x.as_mut_slice()[j] = f32::INFINITY;
    !fc.forward(&[&x]).unwrap().as_slice()[0].is_nan()
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Drive `layer` through a different matrix every round (so a form
/// left over from any earlier round is wrong): dense, filter-pruned,
/// magnitude-pruned, exactly `threshold` zeros and one zero more, a
/// NaN weight among CSR weights and among dense ones, dense again —
/// running both precisions and both fusion flavors after every swap,
/// against `fresh(weights)`, a newly constructed layer with the same
/// weights. `runs_csr` is the layer kind's own answer to "do these
/// weights multiply through CSR" in f32; `has_csr` says whether the
/// kind has that form at all (a conv does, an fc does not).
fn check<L: Layer>(
    layer: &mut L,
    shape: (usize, usize),
    (threshold, has_csr): (f64, bool),
    fresh: impl Fn(Matrix) -> L,
    runs_csr: impl Fn(&Matrix) -> bool,
    x: &Tensor4,
) {
    let w = |seed: u64| xavier_uniform(shape.0, shape.1, seed);
    let rounds = [
        ("dense", w(20), false),
        ("filter-pruned", filter_pruned(w(21)), false),
        ("magnitude-pruned", magnitude_pruned(w(22)), true),
        ("at the threshold", zeroed_to(w(23), threshold, 0), false),
        ("one zero past it", zeroed_to(w(24), threshold, 1), true),
        ("csr with a NaN", with_nan(magnitude_pruned(w(25))), true),
        ("dense with a NaN", with_nan(w(26)), false),
        ("dense again", w(27), false),
    ];
    for (round, weights, csr) in rounds {
        let zero_rows = (0..shape.0)
            .filter(|&r| weights.row(r).iter().all(|&v| v == 0.0))
            .count();
        let nan = weights.as_slice().iter().any(|v| v.is_nan());
        layer.set_weights(weights.clone()).unwrap();
        // CSR is an f32 form: int8 runs every sparsity dense.
        precision::force(Some(Precision::F32));
        assert_eq!(runs_csr(&weights), csr && has_csr, "{round}: wrong form");
        assert_eq!(
            zero_rows > 0,
            round == "filter-pruned",
            "{round}: {zero_rows} zero rows"
        );
        let reference = fresh(weights);
        for precision in [Precision::F32, Precision::Int8, Precision::F32] {
            precision::force(Some(precision));
            let (mut got, mut want) = (Tensor4::zeros(0, 0, 0, 0), Tensor4::zeros(0, 0, 0, 0));
            let ws = &mut Workspace::new();
            layer.forward_into(&[x], ws, &mut got).unwrap();
            reference.forward_into(&[x], ws, &mut want).unwrap();
            assert!(bits(&got) == bits(&want), "{round} {precision:?}");
            let unfused = got.clone();
            layer.forward_into_fused(&[x], ws, &mut got).unwrap();
            reference.forward_into_fused(&[x], ws, &mut want).unwrap();
            assert!(bits(&got) == bits(&want), "{round} {precision:?} fused");
            if nan && precision == Precision::F32 {
                // Int8 quantizes a NaN weight to 0, and the fused ReLU
                // maps NaN to 0; the plain f32 output keeps it.
                let plane = unfused.h() * unfused.w();
                for i in 0..unfused.n() {
                    let channel = &unfused.image(i)[plane..2 * plane];
                    assert!(
                        channel.iter().all(|v| v.is_nan()),
                        "{round}: image {i} channel 1 is not NaN"
                    );
                }
            }
        }
        precision::force(None);
    }
}

#[test]
fn set_weights_drops_every_cached_form() {
    let _g = force_lock();
    // 10 × 36 conv weights and 5 × 288 fc weights: the threshold is a
    // whole number of zeros of either.
    let params = Conv2dParams::grouped(8, 10, 3, 1, 1, 2);
    let conv_w = xavier_uniform(10, 36, 11);
    let bias = vec![0.05f32; 10];
    let x = Tensor4::from_fn(2, 8, 6, 6, |n, c, h, w| {
        ((n * 5 + c * 3 + h * 7 + w) % 9) as f32 / 4.0 - 1.0
    });
    let mut conv = ConvLayer::new("conv", params, conv_w.clone(), bias.clone()).unwrap();
    // Build the initial weights' forms too, so round 0 already has
    // something stale to trip over.
    conv.forward(&[&x]).unwrap();
    check(
        &mut conv,
        conv_w.shape(),
        (SPARSE_THRESHOLD, true),
        |w| ConvLayer::new("fresh", params, w, bias.clone()).unwrap(),
        common::conv_runs_csr,
        &x,
    );
    // Under int8 a conv has one form, whatever its zeros.
    precision::force(Some(Precision::Int8));
    for fraction in [0.8, 0.95, 0.975] {
        let w = zeroed_to(xavier_uniform(10, 36, 30), fraction, 0);
        let form = ConvLayer::weight_form_name(&w, &params, (6, 6));
        assert_eq!(form, "dense-i8", "{fraction} zeros");
    }
    precision::force(None);

    let fc_w = xavier_uniform(5, 8 * 6 * 6, 12);
    let fc_bias = vec![-0.02f32; 5];
    let mut fc = InnerProductLayer::new("fc", fc_w.clone(), fc_bias.clone()).unwrap();
    check(
        &mut fc,
        fc_w.shape(),
        (SPARSE_THRESHOLD, false),
        |w| InnerProductLayer::new("fresh", w, fc_bias.clone()).unwrap(),
        fc_skips_zeros,
        &x,
    );
}

/// conv4 (8→12, 3×3) → ReLU → conv5 (12→16, two groups) → ReLU → 2×2
/// max pool → fc6 (16·3·3 → 20) → ReLU → fc7 (20 → 6), on a 8×6×6
/// input; zero conv biases, as Caffenet's convs have, so a pruned
/// conv4 filter is a dead input channel of conv5 and a pruned conv5
/// filter one of fc6. `conv4_w` and `conv5_w` are those convs' weights.
fn pruned_pair_net(conv4_w: &Matrix, conv5_w: &Matrix) -> Network {
    let mut net = Network::new("pair", (8, 6, 6));
    let conv4 = Conv2dParams::new(8, 12, 3, 1, 1);
    let conv5 = Conv2dParams::grouped(12, 16, 3, 1, 1, 2);
    let fc = |name, rows, cols, seed, bias| {
        InnerProductLayer::new(name, xavier_uniform(rows, cols, seed), vec![bias; rows]).unwrap()
    };
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(ConvLayer::new("conv4", conv4, conv4_w.clone(), vec![0.0; 12]).unwrap()),
        Box::new(ReluLayer::new("relu4")),
        Box::new(ConvLayer::new("conv5", conv5, conv5_w.clone(), vec![0.0; 16]).unwrap()),
        Box::new(ReluLayer::new("relu5")),
        Box::new(PoolLayer::new("pool5", PoolMode::Max, 2, 0, 2)),
        Box::new(fc("fc6", 20, 144, 41, 0.0)),
        Box::new(ReluLayer::new("relu6")),
        Box::new(fc("fc7", 6, 20, 42, 0.01)),
    ];
    for layer in layers {
        net.add_sequential(layer).unwrap();
    }
    net
}

/// Prune conv5 (fc6 narrows to the live maps), then set conv5's dense
/// weights back (fc6 returns to full depth); the same with conv4 and
/// its consumer conv5: after each swap, and after passes that built
/// every lazy form of the swap before, the network's output is bitwise
/// that of a network built fresh with the same weights — under f32 and
/// int8, on one thread and a team of two.
#[test]
fn pruning_a_producer_narrows_its_consumer_and_restoring_widens_it() {
    let _g = force_lock();
    let (dense4, dense5) = (xavier_uniform(12, 72, 40), xavier_uniform(16, 54, 43));
    let (pruned4, pruned5) = (filter_pruned(dense4.clone()), filter_pruned(dense5.clone()));
    let x = Tensor4::from_fn(3, 8, 6, 6, |n, c, h, w| {
        ((n * 7 + c * 3 + h * 5 + w) % 11) as f32 / 5.0 - 1.0
    });
    // Built pruned, so the consumers' first forms are the narrowed ones.
    let mut net = pruned_pair_net(&pruned4, &pruned5);
    let run = |net: &Network, threads: usize| {
        let mut arena = ForwardArena::with_team(Team::new(threads).with_min_part_macs(0));
        bits(net.forward_into(&x, &mut arena).unwrap())
    };
    // (round, conv4, conv5, dead channels of relu4 and of pool5). Only
    // the layer that changes is set, so a consumer's forms built in the
    // round before are stale unless the new dead channels drop them: a
    // stale narrowed form drops channels that are live again.
    let mut set = (&pruned4, &pruned5);
    for (round, w4, w5, dead) in [
        ("both pruned", &pruned4, &pruned5, (6, 8)),
        ("conv5 restored", &pruned4, &dense5, (6, 0)),
        ("conv4 restored", &dense4, &dense5, (0, 0)),
        ("conv5 pruned", &dense4, &pruned5, (0, 8)),
        ("conv4 pruned", &pruned4, &pruned5, (6, 8)),
        ("conv4 restored again", &dense4, &pruned5, (0, 8)),
        ("conv5 restored again", &dense4, &dense5, (0, 0)),
    ] {
        if !std::ptr::eq(set.0, w4) {
            net.set_layer_weights("conv4", w4.clone()).unwrap();
        }
        if !std::ptr::eq(set.1, w5) {
            net.set_layer_weights("conv5", w5.clone()).unwrap();
        }
        set = (w4, w5);
        let fresh = pruned_pair_net(w4, w5);
        for (layer, want) in [("relu4", dead.0), ("pool5", dead.1)] {
            let id = net.node_id(layer).unwrap();
            assert_eq!(net.dead_channels(id).len(), want, "{round}: {layer}");
            assert_eq!(fresh.dead_channels(id), net.dead_channels(id));
        }
        for precision in [Precision::F32, Precision::Int8] {
            precision::force(Some(precision));
            for threads in [1, 2] {
                let what = format!("{round} {precision:?} team {threads}");
                assert!(run(&net, threads) == run(&fresh, threads), "{what}");
            }
        }
        precision::force(None);
    }
}

/// One dead-row rule for both weighted layer kinds, read through
/// `Network::dead_channels`: an all-zero row with a zero bias is dead;
/// a non-zero bias keeps it live; a NaN or infinite weight anywhere in
/// the layer leaves nothing dead (int8 would quantize at a non-finite
/// scale, and `0·inf` reads NaN on the dense forms).
#[test]
fn one_dead_row_rule_for_conv_and_fc_producers() {
    // (case, bias of the all-zero row 2, a non-finite weight at (row,
    // column), the dead channels)
    type Case = (
        &'static str,
        f32,
        Option<(usize, usize, f32)>,
        &'static [usize],
    );
    let cases: [Case; 5] = [
        ("zero row, zero bias", 0.0, None, &[2]),
        ("zero row, non-zero bias", 0.5, None, &[]),
        (
            "NaN weight in another row",
            0.0,
            Some((0, 1, f32::NAN)),
            &[],
        ),
        (
            "inf weight in another row",
            0.0,
            Some((4, 3, f32::INFINITY)),
            &[],
        ),
        ("-inf weight", 0.0, Some((1, 0, f32::NEG_INFINITY)), &[]),
    ];
    let conv = Conv2dParams::new(4, 5, 1, 0, 1);
    for (case, bias2, non_finite, dead) in cases {
        for (kind, cols) in [("conv", 4), ("fc", 36)] {
            let mut w = xavier_uniform(5, cols, 71);
            w.row_mut(2).fill(0.0);
            if let Some((r, c, v)) = non_finite {
                w.set(r, c, v);
            }
            let mut bias = vec![0.25f32; 5];
            bias[2] = bias2;
            let layer: Box<dyn Layer> = match kind {
                "conv" => Box::new(ConvLayer::new("producer", conv, w, bias).unwrap()),
                _ => Box::new(InnerProductLayer::new("producer", w, bias).unwrap()),
            };
            let mut net = Network::new("dead-rows", (4, 3, 3));
            let id = net.add_sequential(layer).unwrap();
            assert_eq!(net.dead_channels(id), dead, "{kind}: {case}");
        }
    }
}
