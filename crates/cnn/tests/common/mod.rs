//! Helpers shared by the integration suites (each includes this file
//! with `mod common;` and uses what it needs).
#![allow(dead_code)]

use cap_cnn::layer::ConvLayer;
use cap_tensor::Matrix;

/// Whether a [`ConvLayer`] holding `w` multiplies through CSR under the
/// selected precision — the layer's own answer, so no suite re-derives
/// the `SPARSE_THRESHOLD` / `SPARSE_THRESHOLD_I8` rule.
pub fn conv_runs_csr(w: &Matrix) -> bool {
    matches!(ConvLayer::weight_form_name(w), "csr" | "csr-i8")
}

/// `w` with all but one weight in 32 zeroed — unstructured zeros that
/// put a conv layer on its CSR form (asserted).
pub fn csr_weights(mut w: Matrix) -> Matrix {
    for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
        if i % 32 != 0 {
            *v = 0.0;
        }
    }
    assert!(
        conv_runs_csr(&w),
        "1-in-32 weights run {}",
        ConvLayer::weight_form_name(&w)
    );
    w
}

/// `w` with every third filter (row) zeroed — what L1 filter pruning
/// leaves, which puts an f32 conv layer on its kept-rows form
/// (asserted).
pub fn filter_pruned_weights(mut w: Matrix) -> Matrix {
    for r in (0..w.rows()).filter(|r| r % 3 == 1) {
        w.row_mut(r).fill(0.0);
    }
    let form = ConvLayer::weight_form_name(&w);
    assert!(
        matches!(form, "dense-rows" | "dense-i8"),
        "filter-pruned weights run {form}"
    );
    w
}
