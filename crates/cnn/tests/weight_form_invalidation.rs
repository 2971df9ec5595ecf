//! A layer builds its derived weight forms (int8 quantizations, a
//! conv's Winograd bands) lazily, and `set_weights` must drop every one
//! of them: after dense → filter-pruned → magnitude-pruned → 97.2 %
//! zeros → NaN-holding → dense swaps, with the precision override
//! toggled between passes so each lazy form gets built and then
//! orphaned, every output must be bitwise equal to a freshly
//! constructed layer holding the same weights. A stale form surviving
//! `set_weights` fails this.
//!
//! The same rounds pin that zero weights choose no form: a conv and an
//! fc run their one dense form at every sparsity, multiplying their
//! zero weights, a NaN weight reads NaN in its output channel, and under
//! int8 a conv runs dense at every sparsity.
//!
//! Narrowing a network replaces a layer's weights too: the pruned
//! filters of a producer go, with its consumers' columns for them, and
//! every form is rebuilt. A narrowed network's output is bitwise the
//! full-width one's on the same weights, under both precisions, and
//! the channels it removes are exactly the dead ones: an all-zero
//! filter with a zero bias, in a layer whose weights are all finite.
//!
//! `precision::force` is process-global; this file is its own test
//! binary, and its tests serialize on one mutex, so nothing races it.

use cap_cnn::layer::{ConvLayer, InnerProductLayer, Layer, PoolLayer, PoolMode, ReluLayer};
use cap_cnn::network::{ForwardArena, Network};
use cap_tensor::init::xavier_uniform;
use cap_tensor::{precision, Conv2dParams, Matrix, Precision, Team, Tensor4, Workspace};
use std::sync::{Mutex, MutexGuard};

fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unstructured zeros, as magnitude pruning leaves them, with no row
/// emptied: one weight kept per row, at a column that moves with the
/// row.
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
/// leaves them: a conv layer multiplies them densely until the network
/// is narrowed.
fn filter_pruned(mut w: Matrix) -> Matrix {
    for r in (0..w.rows()).step_by(2) {
        w.row_mut(r).fill(0.0);
    }
    w
}

/// `w` with exactly `fraction` of its elements zeroed (asserted exact
/// in f64); the kept ones evenly spaced, so no row empties.
fn zeroed_to(w: Matrix, fraction: f64) -> Matrix {
    let (rows, cols) = w.shape();
    let len = rows * cols;
    let zeros = (fraction * len as f64).round() as usize;
    assert_eq!(zeros as f64 / len as f64, fraction, "{len} elements");
    let keep = len - zeros;
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
/// magnitude-pruned, 97.2 % zeros, a NaN weight among zeros and among
/// dense weights, dense again — running both precisions and both
/// fusion flavors after every swap, against `fresh(weights)`, a newly
/// constructed layer with the same weights. `runs_dense` is the layer
/// kind's own answer to "does the layer holding these weights multiply
/// every one of them" in f32.
fn check<L: Layer>(
    layer: &mut L,
    shape: (usize, usize),
    fresh: impl Fn(Matrix) -> L,
    runs_dense: impl Fn(&L, &Matrix) -> bool,
    x: &Tensor4,
) {
    let w = |seed: u64| xavier_uniform(shape.0, shape.1, seed);
    let rounds = [
        ("dense", w(20)),
        ("filter-pruned", filter_pruned(w(21))),
        ("magnitude-pruned", magnitude_pruned(w(22))),
        ("35 zeros in 36", zeroed_to(w(23), 35.0 / 36.0)),
        ("zeros with a NaN", with_nan(magnitude_pruned(w(25)))),
        ("dense with a NaN", with_nan(w(26))),
        ("dense again", w(27)),
    ];
    for (round, weights) in rounds {
        let zero_rows = (0..shape.0)
            .filter(|&r| weights.row(r).iter().all(|&v| v == 0.0))
            .count();
        let nan = weights.as_slice().iter().any(|v| v.is_nan());
        layer.set_weights(weights.clone()).unwrap();
        precision::force(Some(Precision::F32));
        assert!(runs_dense(layer, &weights), "{round}: wrong form");
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
    // 10 × 36 conv weights and 5 × 288 fc weights: 35 in 36 is a whole
    // number of zeros of either, and leaves every row a weight.
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
        |w| ConvLayer::new("fresh", params, w, bias.clone()).unwrap(),
        |conv, _| conv.form_name((6, 6)) == "dense",
        &x,
    );
    // Under int8 a conv has one form, whatever its zeros.
    precision::force(Some(Precision::Int8));
    for fraction in [0.8, 0.95, 0.975] {
        conv.set_weights(zeroed_to(xavier_uniform(10, 36, 30), fraction))
            .unwrap();
        assert_eq!(conv.form_name((6, 6)), "dense-i8", "{fraction} zeros");
    }
    precision::force(None);

    let fc_w = xavier_uniform(5, 8 * 6 * 6, 12);
    let fc_bias = vec![-0.02f32; 5];
    let mut fc = InnerProductLayer::new("fc", fc_w.clone(), fc_bias.clone()).unwrap();
    check(
        &mut fc,
        fc_w.shape(),
        |w| InnerProductLayer::new("fresh", w, fc_bias.clone()).unwrap(),
        |_, w| !fc_skips_zeros(w),
        &x,
    );
}

/// conv4 (8→12, 3×3) → ReLU → conv5 (12→16, two groups) → ReLU → 2×2
/// max pool → fc6 (16·3·3 → 20) → ReLU → fc7 (20 → 6), on a 8×6×6
/// input; zero conv biases, as Caffenet's convs have, so narrowing
/// removes a pruned conv4 filter with conv5's input channel for it and
/// a pruned conv5 filter with fc6's columns for it. `conv4_w` and `conv5_w` are those convs' weights.
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

/// Every combination of conv4 and conv5 dense or filter-pruned,
/// narrowed: relu4 keeps 12 − 6 channels when conv4 is pruned and pool5
/// 16 − 8 when conv5 is (conv5's two groups unevenly), and the output is
/// bitwise the full-width network's on the same weights — under f32 and
/// int8, on one thread and a team of two.
#[test]
fn a_narrowed_pair_matches_the_full_width_one() {
    let _g = force_lock();
    let (dense4, dense5) = (xavier_uniform(12, 72, 40), xavier_uniform(16, 54, 43));
    let (pruned4, pruned5) = (filter_pruned(dense4.clone()), filter_pruned(dense5.clone()));
    let x = Tensor4::from_fn(3, 8, 6, 6, |n, c, h, w| {
        ((n * 7 + c * 3 + h * 5 + w) % 11) as f32 / 5.0 - 1.0
    });
    let run = |net: &Network, threads: usize| {
        let mut arena = ForwardArena::with_team(Team::new(threads).with_min_part_macs(0));
        bits(net.forward_into(&x, &mut arena).unwrap())
    };
    // (round, conv4, conv5, channels removed from relu4 and from pool5)
    for (round, w4, w5, gone) in [
        ("both pruned", &pruned4, &pruned5, (6, 8)),
        ("conv4 pruned", &pruned4, &dense5, (6, 0)),
        ("conv5 pruned", &dense4, &pruned5, (0, 8)),
        ("dense", &dense4, &dense5, (0, 0)),
    ] {
        let full = pruned_pair_net(w4, w5);
        let mut net = pruned_pair_net(w4, w5);
        assert_eq!(net.narrow().unwrap(), 2 * gone.0 + 3 * gone.1, "{round}");
        for (layer, gone, of) in [("relu4", gone.0, 12), ("pool5", gone.1, 16)] {
            let id = net.node_id(layer).unwrap();
            assert_eq!(net.shape_of(id).unwrap().0, of - gone, "{round}: {layer}");
        }
        for precision in [Precision::F32, Precision::Int8] {
            precision::force(Some(precision));
            for threads in [1, 2] {
                let what = format!("{round} {precision:?} team {threads}");
                assert!(run(&net, threads) == run(&full, threads), "{what}");
            }
        }
        precision::force(None);
    }
}

/// One dead-row rule for both weighted layer kinds, read through
/// [`Network::narrow`] with a ReLU and an fc after the layer: an
/// all-zero row with a zero bias goes; a non-zero bias keeps it; a NaN
/// or infinite weight anywhere in the layer keeps every row (int8 would
/// quantize at a non-finite scale, and `0·inf` reads NaN on the dense
/// forms), and so does one in the fc's columns.
#[test]
fn one_dead_row_rule_for_conv_and_fc_producers() {
    // (case, bias of the all-zero row 2, a non-finite weight at (row,
    // column), a non-finite fc weight, the channels removed)
    type Case = (&'static str, f32, Option<(usize, usize, f32)>, bool, usize);
    let cases: [Case; 6] = [
        ("zero row, zero bias", 0.0, None, false, 1),
        ("zero row, non-zero bias", 0.5, None, false, 0),
        (
            "NaN weight in another row",
            0.0,
            Some((0, 1, f32::NAN)),
            false,
            0,
        ),
        (
            "inf weight in another row",
            0.0,
            Some((4, 3, f32::INFINITY)),
            false,
            0,
        ),
        (
            "-inf weight",
            0.0,
            Some((1, 0, f32::NEG_INFINITY)),
            false,
            0,
        ),
        ("inf weight in the consumer", 0.0, None, true, 0),
    ];
    let conv = Conv2dParams::new(4, 5, 1, 0, 1);
    for (case, bias2, non_finite, hot_consumer, gone) in cases {
        for (kind, cols, plane) in [("conv", 4, 9), ("fc", 36, 1)] {
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
            let mut consumer = xavier_uniform(3, 5 * plane, 72);
            if hot_consumer {
                consumer.set(1, 2 * plane, f32::INFINITY);
            }
            let mut net = Network::new("dead-rows", (4, 3, 3));
            let id = net.add_sequential(layer).unwrap();
            net.add_sequential(Box::new(ReluLayer::new("relu")))
                .unwrap();
            let fc = InnerProductLayer::new("consumer", consumer, vec![0.0; 3]);
            net.add_sequential(Box::new(fc.unwrap())).unwrap();
            assert_eq!(net.narrow().unwrap(), 2 * gone, "{kind}: {case}");
            assert_eq!(net.shape_of(id).unwrap().0, 5 - gone, "{kind}: {case}");
        }
    }
}
