//! Property-based parity suites for the packed GEMM: it must agree with
//! the unpacked GEMM it replaces, across randomized shapes and contents.
//! (The convolution driver built on it is pinned by `conv_parity.rs`.)

use cap_tensor::{gemm, gemm_prealloc, gemm_prepacked, Matrix, PackedB};
use proptest::prelude::*;

/// Deterministic pseudo-random fill that exercises positives, negatives
/// and exact zeros (zeros matter: they trigger the GEMM skip branch).
fn fill(seed: usize, zero_every: usize) -> impl Fn(usize) -> f32 {
    move |i: usize| {
        if zero_every > 0 && (i + seed).is_multiple_of(zero_every) {
            0.0
        } else {
            (((i * 31 + seed * 17) % 23) as f32 - 11.0) / 7.0
        }
    }
}

fn matrix(rows: usize, cols: usize, seed: usize, zero_every: usize) -> Matrix {
    let f = fill(seed, zero_every);
    Matrix::from_fn(rows, cols, |r, c| f(r * cols + c))
}

proptest! {
    /// Panel-packed GEMM ≡ plain GEMM. Accumulation order is identical
    /// (kk-ascending per output element), so parity is near-bitwise; the
    /// tolerance only covers ±0.0 sign plus fused rounding differences.
    #[test]
    fn packed_gemm_matches_gemm(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0usize..1000,
        zero_every in 0usize..4,
    ) {
        let a = matrix(m, k, seed, zero_every);
        let b = matrix(k, n, seed + 1, 0);
        let expect = gemm(&a, &b).unwrap();
        let packed = PackedB::pack(&b);
        let mut got = Matrix::zeros(m, n);
        gemm_prepacked(&a, &packed, &mut got).unwrap();
        prop_assert!(expect.max_abs_diff(&got).unwrap() <= 1e-6);
    }

    /// The dense-zero skip probe must not change results relative to a
    /// fully dense multiply of the same values.
    #[test]
    fn sparse_rows_do_not_change_gemm(
        m in 1usize..16,
        k in 1usize..32,
        n in 1usize..24,
        seed in 0usize..1000,
    ) {
        // Half the rows of A fully zeroed: mixes skip-branch rows and
        // dense-branch rows in one multiply.
        let mut a = matrix(m, k, seed, 0);
        for r in (0..m).step_by(2) {
            a.row_mut(r).fill(0.0);
        }
        let b = matrix(k, n, seed + 2, 0);
        let expect = gemm(&a, &b).unwrap();
        let mut got = Matrix::zeros(m, n);
        gemm_prealloc(&a, &b, &mut got).unwrap();
        prop_assert!(expect.max_abs_diff(&got).unwrap() == 0.0);
        for r in (0..m).step_by(2) {
            prop_assert!(got.row(r).iter().all(|&v| v == 0.0));
        }
    }
}
