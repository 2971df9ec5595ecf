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
