//! Parity suites for the packed GEMM: it must agree bit for bit with
//! the naive triple loop `reference::gemm_naive` (one ascending-`kk`
//! FMA chain per element), on every kernel path and f32 tile, across
//! randomized shapes and contents and across the column-strip
//! boundaries of its loop nest. (The convolution driver built on it is
//! pinned by `conv_parity.rs`.)
//!
//! `kernels::force` is process-global, so every test here serializes
//! on one mutex.

use cap_tensor::kernels::{self, EpiBias, Epilogue};
use cap_tensor::reference::gemm_naive;
use cap_tensor::{gemm, gemm_packed, gemm_packed_with, gemm_prepacked, F32Tile, Matrix, PackedB};
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
/// and exact zeros (zeros matter: every `0·b` term is taken, and must
/// leave the sum's bits alone).
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
/// (64). Every cell is, bitwise on every path and every tile, the naive
/// multiply followed by separate bias and ReLU passes, written through
/// a NaN-filled `c`.
#[test]
fn strip_boundaries_match_the_naive_gemm_on_every_path() {
    let _g = force_lock();
    let k = 4100;
    for n in [13usize, 16, 24, 37, 40] {
        let b = matrix(k, n, n, 0);
        let packed = PackedB::pack(&b);
        for m in [2usize, 5, 33, 64] {
            let a = matrix(m, k, m + 3, 5);
            let row_bias: Vec<f32> = (0..m).map(|r| r as f32 * 0.25 - 3.0).collect();
            let col_bias: Vec<f32> = (0..n).map(|j| 2.0 - j as f32 * 0.125).collect();
            let plain = gemm_naive(&a, &b).unwrap();
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
                let (a, b) = (a.as_slice(), packed.as_slice());
                let paths = kernels::available_paths().into_iter().map(|path| {
                    let mut c = vec![f32::NAN; m * n];
                    kernels::force(Some(path));
                    let run = gemm_packed(a, m, k, n, b, &mut c, epi);
                    kernels::force(None);
                    run.unwrap();
                    (format!("path {}", path.name()), c)
                });
                let tiles = F32Tile::available().into_iter().map(|tile| {
                    let mut c = vec![f32::NAN; m * n];
                    gemm_packed_with(tile, a, m, k, n, b, &mut c, epi).unwrap();
                    (format!("tile {}", tile.name()), c)
                });
                for (on, c) in paths.chain(tiles) {
                    for r in 0..m {
                        for j in 0..n {
                            let case = format!("{what} {m}x{k}x{n} on {on} at ({r},{j})");
                            let bias = bias_at(r, j);
                            // An absent bias is skipped: `+ 0.0` is not bitwise neutral.
                            let sum = bias.map_or(plain.get(r, j), |bv| plain.get(r, j) + bv);
                            let want = if !epi.relu || sum > 0.0 { sum } else { 0.0 };
                            assert_eq!(c[r * n + j].to_bits(), want.to_bits(), "{case}");
                        }
                    }
                }
            }
        }
    }
}

/// `PackedB::pack_transposed` over the one range `0..k` is
/// `PackedB::pack(&w.transpose())` bit for bit — shape, panels and
/// zeroed tail lanes — on ragged and degenerate shapes (`w` is `n × k`;
/// a panel is 8 columns of `wᵀ`).
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
        let got = PackedB::pack_transposed(&w, std::slice::from_ref(&(0..k)));
        let want = PackedB::pack(&w.transpose());
        assert_eq!(got.shape(), want.shape(), "{n}x{k}");
        let bits = |p: &PackedB| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{n}x{k}");
    }
}

proptest! {
    /// `gemm()` and the prepacked GEMM ≡ the naive triple loop, bitwise,
    /// on every kernel path and f32 tile: the accumulation order is
    /// identical (kk-ascending FMA chain per output element), and the
    /// `0·b` terms of `A`'s zeros are taken by both.
    #[test]
    fn packed_gemm_matches_the_naive_gemm(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0usize..1000,
        zero_every in 0usize..4,
    ) {
        let _g = force_lock();
        let a = matrix(m, k, seed, zero_every);
        let b = matrix(k, n, seed + 1, 0);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let expect = bits(gemm_naive(&a, &b).unwrap().as_slice());
        let packed = PackedB::pack(&b);
        for path in kernels::available_paths() {
            kernels::force(Some(path));
            let via_gemm = gemm(&a, &b);
            let mut got = Matrix::zeros(m, n);
            let run = gemm_prepacked(&a, &packed, &mut got);
            kernels::force(None);
            prop_assert_eq!(&expect, &bits(via_gemm.unwrap().as_slice()));
            run.unwrap();
            prop_assert_eq!(&expect, &bits(got.as_slice()));
        }
        for tile in F32Tile::available() {
            let mut got = vec![f32::NAN; m * n];
            let (a, b) = (a.as_slice(), packed.as_slice());
            gemm_packed_with(tile, a, m, k, n, b, &mut got, Epilogue::NONE).unwrap();
            prop_assert_eq!(&expect, &bits(&got));
        }
    }
}
