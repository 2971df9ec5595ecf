//! A layer decides its weight form (dense, kept rows or CSR) when its
//! weights are set and builds the derived forms (kept-row and CSR
//! bands, int8 quantizations) lazily. `set_weights` must drop every one
//! of them: after dense → filter-pruned → magnitude-pruned → dense
//! swaps, with the precision override toggled between passes so each
//! lazy form gets built and then orphaned, every output must be bitwise
//! equal to a freshly constructed layer holding the same weights. A
//! stale form surviving `set_weights` fails this.
//!
//! `precision::force` is process-global; this file is its own test
//! binary with a single test, so nothing races it.

use cap_cnn::layer::{ConvLayer, InnerProductLayer, Layer, FC_SPARSE_THRESHOLD};
use cap_tensor::init::xavier_uniform;
use cap_tensor::{precision, Conv2dParams, Matrix, Precision, Tensor4, Workspace};

mod common;

/// Unstructured zeros that put either layer kind on its CSR form
/// (`runs_csr` in `check` asserts it), with no row emptied: one weight
/// kept per row, at a column that moves with the row.
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

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Drive `layer` through dense → filter-pruned → magnitude-pruned →
/// dense weights (a different matrix every round, so a form left over
/// from any earlier round is wrong), running both precisions and both
/// fusion flavors after every swap, against `fresh(weights)` — a newly
/// constructed layer with the same weights. `runs_csr` is the layer
/// kind's own answer to "do these weights multiply through CSR".
fn check<L: Layer>(
    layer: &mut L,
    shape: (usize, usize),
    fresh: impl Fn(Matrix) -> L,
    runs_csr: impl Fn(&Matrix) -> bool,
    x: &Tensor4,
) {
    for round in 0..4 {
        let dense = xavier_uniform(shape.0, shape.1, 20 + round as u64);
        let weights = match round {
            1 => filter_pruned(dense),
            2 => magnitude_pruned(dense),
            _ => dense,
        };
        let zero_rows = (0..shape.0)
            .filter(|&r| weights.row(r).iter().all(|&v| v == 0.0))
            .count();
        layer.set_weights(weights.clone()).unwrap();
        assert_eq!(
            runs_csr(&weights),
            round == 2,
            "round {round} is on the wrong side of the sparse threshold"
        );
        assert_eq!(
            zero_rows > 0,
            round == 1,
            "round {round}: {zero_rows} zero rows"
        );
        let reference = fresh(weights);
        for precision in [Precision::F32, Precision::Int8, Precision::F32] {
            precision::force(Some(precision));
            let (mut got, mut want) = (Tensor4::zeros(0, 0, 0, 0), Tensor4::zeros(0, 0, 0, 0));
            let ws = &mut Workspace::new();
            layer.forward_into(&[x], ws, &mut got).unwrap();
            reference.forward_into(&[x], ws, &mut want).unwrap();
            assert!(bits(&got) == bits(&want), "round {round} {precision:?}");
            layer.forward_into_fused(&[x], ws, &mut got).unwrap();
            reference.forward_into_fused(&[x], ws, &mut want).unwrap();
            assert!(
                bits(&got) == bits(&want),
                "round {round} {precision:?} fused"
            );
        }
        precision::force(None);
    }
}

#[test]
fn set_weights_drops_every_cached_form() {
    let params = Conv2dParams::grouped(8, 6, 3, 1, 1, 2);
    let conv_w = xavier_uniform(6, 36, 11);
    let bias = vec![0.05f32; 6];
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
        common::conv_runs_csr,
        &x,
    );

    let fc_w = xavier_uniform(5, 8 * 6 * 6, 12);
    let fc_bias = vec![-0.02f32; 5];
    let mut fc = InnerProductLayer::new("fc", fc_w.clone(), fc_bias.clone()).unwrap();
    check(
        &mut fc,
        fc_w.shape(),
        |w| InnerProductLayer::new("fresh", w, fc_bias.clone()).unwrap(),
        |w| w.sparsity(0.0) > FC_SPARSE_THRESHOLD,
        &x,
    );
}
