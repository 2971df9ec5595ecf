//! Fused-epilogue and GEMV kernel parity suite (companion to
//! `kernel_parity.rs`).
//!
//! Contract under test: every epilogue-taking driver — `gemm_packed`
//! with an [`Epilogue`] and its dedicated `m == 1` gemv route — produces
//! output **bit-identical** to the scalar kernel with no epilogue followed by a manual
//! bias-add and `forward_into`-flavor ReLU (negatives, `-0.0` and NaN
//! all flush to `+0.0`), on every dispatch path, across
//! ragged shapes, `k = 0`, and NaN/signed-zero operands.
//!
//! `kernels::force` is process-global; tests serialize on one mutex.
//! On non-AVX2 hosts the path list degenerates to `[Scalar]` — the
//! fused-vs-manual comparison still runs in full.

use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{gemm_packed_with, EpiBias, Epilogue, F32Tile, Matrix, PackedB};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Global serialization for tests that call `kernels::force`.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with the dispatcher pinned to `path`, restoring auto after.
fn on_path<T>(path: KernelPath, f: impl FnOnce() -> T) -> T {
    kernels::force(Some(path));
    let out = f();
    kernels::force(None);
    out
}

/// Deterministic awkward-valued matrix: zeros, signed zeros, negatives.
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = r
            .wrapping_mul(131)
            .wrapping_add(c.wrapping_mul(31))
            .wrapping_add(seed as usize);
        match h % 11 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f32 - 5.0) / 7.0,
        }
    })
}

fn bias_vec(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| match (i + seed as usize) % 7 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f32 - 3.0) / 5.0,
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// The reference epilogue, element by element in plain Rust: bias adds
/// first, then the `forward_into`-flavor ReLU (`v > 0.0` keeps `v`;
/// everything else — negatives, `-0.0`, NaN — becomes `+0.0`).
fn manual_epilogue(
    c: &mut [f32],
    n: usize,
    row_bias: Option<&[f32]>,
    col_bias: Option<&[f32]>,
    relu: bool,
) {
    for (idx, v) in c.iter_mut().enumerate() {
        let (r, j) = (idx / n, idx % n);
        let mut y = *v;
        if let Some(b) = row_bias {
            y += b[r];
        }
        if let Some(b) = col_bias {
            y += b[j];
        }
        if relu {
            y = if y > 0.0 { y } else { 0.0 };
        }
        *v = y;
    }
}

/// One epilogue request: optional per-row bias, optional per-column
/// bias, ReLU flag.
type EpilogueCase = (Option<Vec<f32>>, Option<Vec<f32>>, bool);

/// Every bias/relu combination a fused GEMM can be asked for.
fn epilogue_cases(m: usize, n: usize, seed: u64) -> Vec<EpilogueCase> {
    vec![
        (Some(bias_vec(m, seed)), None, false),
        (Some(bias_vec(m, seed)), None, true),
        (None, Some(bias_vec(n, seed + 1)), false),
        (None, Some(bias_vec(n, seed + 1)), true),
        (None, None, true), // relu-only: no bias shortcut may exist
    ]
}

fn fused_gemm_on(path: KernelPath, a: &Matrix, b: &Matrix, epi: Epilogue<'_>) -> Matrix {
    on_path(path, || {
        let packed = PackedB::pack(b);
        let mut c = Matrix::zeros(a.rows(), b.cols());
        cap_tensor::gemm_packed(
            a.as_slice(),
            a.rows(),
            a.cols(),
            b.cols(),
            packed.as_slice(),
            c.as_mut_slice(),
            epi,
        )
        .unwrap();
        c
    })
}

/// The fused driver with its bands on a named f32 tile, into a
/// NaN-filled output.
fn fused_gemm_on_tile(tile: F32Tile, a: &Matrix, b: &Matrix, epi: Epilogue<'_>) -> Vec<f32> {
    let packed = PackedB::pack(b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = vec![f32::NAN; m * n];
    gemm_packed_with(tile, a.as_slice(), m, k, n, packed.as_slice(), &mut c, epi).unwrap();
    c
}

#[test]
fn fused_gemm_matches_scalar_unfused_plus_manual_epilogue() {
    let _g = force_lock();
    // Ragged on purpose: m = 1 takes the dedicated gemv route (incl. n
    // past 32 panels), k = 0 leaves pure-epilogue
    // output, n off the 8-wide panel.
    for (m, k, n) in [
        (1, 1, 1),
        (1, 7, 13),
        (1, 24, 300), // batch-1, many 4-panel gemv steps plus a tail
        (3, 0, 5),    // k = 0: epilogue applies to an all-zero product
        (4, 9, 8),
        (5, 16, 31),
        (33, 12, 17),
        // The f32 tiles' boundaries: zmm 12- and 14-row blocks, 4-row
        // groups against six-panel groups, the odd panel, leftover rows.
        (13, 5, 9),
        (16, 0, 49),
        (17, 37, 53),
        (24, 1, 41),
        (30, 37, 56),
        (28, 9, 70),
    ] {
        let a = mat(m, k, 3);
        let b = mat(k, n, 4);
        let reference = fused_gemm_on(KernelPath::Scalar, &a, &b, Epilogue::NONE);
        for (row_bias, col_bias, relu) in epilogue_cases(m, n, 17) {
            let mut want = reference.clone();
            manual_epilogue(
                want.as_mut_slice(),
                n,
                row_bias.as_deref(),
                col_bias.as_deref(),
                relu,
            );
            let epi_bias = row_bias
                .as_deref()
                .map(EpiBias::PerRow)
                .or(col_bias.as_deref().map(EpiBias::PerCol));
            for path in kernels::available_paths() {
                let got = fused_gemm_on(
                    path,
                    &a,
                    &b,
                    Epilogue {
                        bias: epi_bias,
                        relu,
                    },
                );
                assert_bits_eq(
                    want.as_slice(),
                    got.as_slice(),
                    &format!(
                        "fused gemm {m}x{k}x{n} row_bias={} col_bias={} relu={relu} on {}",
                        row_bias.is_some(),
                        col_bias.is_some(),
                        path.name()
                    ),
                );
            }
            for tile in F32Tile::available() {
                let epi = Epilogue {
                    bias: epi_bias,
                    relu,
                };
                assert_bits_eq(
                    want.as_slice(),
                    &fused_gemm_on_tile(tile, &a, &b, epi),
                    &format!(
                        "fused gemm {m}x{k}x{n} row_bias={} col_bias={} relu={relu} on tile {}",
                        row_bias.is_some(),
                        col_bias.is_some(),
                        tile.name()
                    ),
                );
            }
        }
    }
}

#[test]
fn gemv_kernel_bit_identical_and_fused_relu_flushes_nan_and_signed_zero() {
    let _g = force_lock();
    // A row with NaN and -0.0: the product picks up NaN, the fused ReLU
    // must flush it (and any -0.0 product) to +0.0 — identically on
    // every path. With the no-op epilogue the NaN must SURVIVE (no
    // silent `+0.0` bias may be applied anywhere).
    for n in [1, 7, 8, 31, 96] {
        let k = 9;
        let mut a = mat(1, k, 5);
        a.as_mut_slice()[2] = f32::NAN;
        a.as_mut_slice()[4] = -0.0;
        let b = mat(k, n, 6);
        let packed = PackedB::pack(&b);
        let gemv_on = |path: KernelPath, epi: Epilogue<'_>| {
            let mut c = vec![0.0f32; n];
            kernels::gemv_packed_with(path, a.as_slice(), n, packed.as_slice(), &mut c, epi);
            c
        };

        let reference = gemv_on(KernelPath::Scalar, Epilogue::NONE);
        assert!(
            reference.iter().all(|v| v.is_nan()),
            "NaN must propagate through the unfused gemv"
        );
        let mut want_relu = reference.clone();
        manual_epilogue(&mut want_relu, n, None, None, true);
        assert!(want_relu.iter().all(|v| v.to_bits() == 0));

        for path in kernels::available_paths() {
            let got = gemv_on(path, Epilogue::NONE);
            assert_bits_eq(&reference, &got, &format!("gemv n={n} on {}", path.name()));

            let got_relu = gemv_on(
                path,
                Epilogue {
                    bias: None,
                    relu: true,
                },
            );
            assert_bits_eq(
                &want_relu,
                &got_relu,
                &format!("gemv+relu n={n} on {}", path.name()),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused packed GEMM (any epilogue flavor, any path,
    /// m = 1 gemv route included) equals scalar unfused + manual
    /// epilogue, bit for bit, on arbitrary ragged shapes.
    #[test]
    fn prop_fused_gemm_bit_identical(
        m in 1usize..32,
        k in 0usize..20,
        n in 1usize..40,
        flavor in 0usize..5,
        seed in 0u64..500,
    ) {
        let _g = force_lock();
        let a = mat(m, k, seed);
        let b = mat(k, n, seed.wrapping_add(1));
        let (row_bias, col_bias, relu) = epilogue_cases(m, n, seed)[flavor].clone();
        let mut want = fused_gemm_on(KernelPath::Scalar, &a, &b, Epilogue::NONE);
        manual_epilogue(want.as_mut_slice(), n, row_bias.as_deref(), col_bias.as_deref(), relu);
        let epi_bias = row_bias
            .as_deref()
            .map(EpiBias::PerRow)
            .or(col_bias.as_deref().map(EpiBias::PerCol));
        for path in kernels::available_paths() {
            let got = fused_gemm_on(path, &a, &b, Epilogue { bias: epi_bias, relu });
            for (x, y) in want.as_slice().iter().zip(got.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for tile in F32Tile::available() {
            let got = fused_gemm_on_tile(tile, &a, &b, Epilogue { bias: epi_bias, relu });
            for (x, y) in want.as_slice().iter().zip(&got) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
