//! Parity suites for the packed GEMM: it must agree with the unpacked
//! GEMM it replaces, across randomized shapes and contents and across
//! the column-strip boundaries of its loop nest. (The convolution
//! driver built on it is pinned by `conv_parity.rs`.)
//!
//! `kernels::force` is process-global, so every test here serializes
//! on one mutex.

use cap_tensor::kernels::{self, EpiBias, Epilogue, KernelPath};
use cap_tensor::{gemm, gemm_packed, gemm_prealloc, gemm_prepacked, Matrix, PackedB};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Global serialization around `kernels::force`.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    // A test that panicked while holding the lock already failed.
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// The strip-boundary table. `k` = 4100 makes one panel 128 KiB, so a
/// column strip of the driver is its two-panel (16-column) minimum and
/// small `n` already crosses strips: 13 (one ragged strip), 16 (exactly
/// one strip), 24 (one panel more than a strip), 37 (n % 8 ≠ 0 and a
/// lone ragged panel in the third strip), 40 (odd panel count in the
/// last strip). `m` covers a tail-only band (2), a row block plus a
/// tail row (5), a second band of one tail row (33) and two full bands
/// (64). Every cell is, bitwise on every path, the scalar unpacked
/// multiply followed by separate bias and ReLU passes, written through
/// a NaN-filled `c`.
#[test]
fn strip_boundaries_match_the_unpacked_gemm_on_every_path() {
    let _g = force_lock();
    let k = 4100;
    for n in [13usize, 16, 24, 37, 40] {
        let b = matrix(k, n, n, 0);
        let packed = PackedB::pack(&b);
        for m in [2usize, 5, 33, 64] {
            let a = matrix(m, k, m + 3, 5);
            let row_bias: Vec<f32> = (0..m).map(|r| r as f32 * 0.25 - 3.0).collect();
            let col_bias: Vec<f32> = (0..n).map(|j| 2.0 - j as f32 * 0.125).collect();
            // The oracle runs on the scalar path whatever the
            // environment selected.
            let mut plain = Matrix::zeros(m, n);
            kernels::force(Some(KernelPath::Scalar));
            let oracle = gemm_prealloc(&a, &b, &mut plain);
            kernels::force(None);
            oracle.unwrap();
            for (what, epi) in [
                ("no epilogue", Epilogue::NONE),
                (
                    "per-row bias + relu",
                    Epilogue {
                        bias: Some(EpiBias::PerRow(&row_bias)),
                        relu: true,
                    },
                ),
                (
                    "per-col bias",
                    Epilogue {
                        bias: Some(EpiBias::PerCol(&col_bias)),
                        relu: false,
                    },
                ),
            ] {
                let bias_at = |r: usize, j: usize| match epi.bias {
                    Some(EpiBias::PerRow(rb)) => Some(rb[r]),
                    Some(EpiBias::PerCol(cb)) => Some(cb[j]),
                    None => None,
                };
                for path in kernels::available_paths() {
                    let mut c = Matrix::full(m, n, f32::NAN);
                    kernels::force(Some(path));
                    let run = gemm_packed(
                        a.as_slice(),
                        m,
                        k,
                        n,
                        packed.as_slice(),
                        c.as_mut_slice(),
                        epi,
                    );
                    kernels::force(None);
                    run.unwrap();
                    for r in 0..m {
                        for j in 0..n {
                            let case =
                                format!("{what} {m}x{k}x{n} on {} at ({r},{j})", path.name());
                            let bias = bias_at(r, j);
                            // An absent bias is skipped: `+ 0.0` is not bitwise neutral.
                            let sum = bias.map_or(plain.get(r, j), |bv| plain.get(r, j) + bv);
                            let want = if !epi.relu || sum > 0.0 { sum } else { 0.0 };
                            assert_eq!(c.get(r, j).to_bits(), want.to_bits(), "{case}");
                        }
                    }
                }
            }
        }
    }
}

/// `PackedB::pack_transposed(w)` is `PackedB::pack(&w.transpose())`
/// bit for bit — shape, panels and zeroed tail lanes — on ragged and
/// degenerate shapes (`w` is `n × k`; a panel is 8 columns of `wᵀ`).
#[test]
fn pack_transposed_is_pack_of_the_transpose() {
    for (n, k) in [
        (1, 1),
        (8, 5),
        (13, 7),
        (16, 1),
        (37, 29),
        (5, 0),
        (0, 5),
        (0, 0),
    ] {
        let w = matrix(n, k, n + 2 * k, 3);
        let (got, want) = (PackedB::pack_transposed(&w), PackedB::pack(&w.transpose()));
        assert_eq!(got.shape(), want.shape(), "{n}x{k}");
        let bits = |p: &PackedB| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{n}x{k}");
    }
}

proptest! {
    /// Panel-packed GEMM ≡ plain GEMM, bitwise: accumulation order is
    /// identical (kk-ascending per output element), and the zero terms
    /// the unpacked walk skips are neutral on a `+0.0`-seeded sum.
    #[test]
    fn packed_gemm_matches_gemm(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0usize..1000,
        zero_every in 0usize..4,
    ) {
        let _g = force_lock();
        let a = matrix(m, k, seed, zero_every);
        let b = matrix(k, n, seed + 1, 0);
        let expect = gemm(&a, &b).unwrap();
        let packed = PackedB::pack(&b);
        let mut got = Matrix::zeros(m, n);
        gemm_prepacked(&a, &packed, &mut got).unwrap();
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&expect), bits(&got));
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
        let _g = force_lock();
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
