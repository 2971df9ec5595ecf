//! Scalar ↔ SIMD kernel parity suite.
//!
//! The dispatch contract (`cap_tensor::kernels`): every path produces
//! **bit-identical** outputs to the scalar kernels — same `f32::to_bits`
//! for every element, including NaN payloads and signed zeros — across
//! ragged shapes (`n` not a multiple of the 8-wide panel, `k = 0`,
//! single-row batch-1).
//!
//! `kernels::force` is process-global, so every test that pins a path
//! serializes on one mutex; on hosts without AVX2, `available_paths()`
//! is just `[Scalar]` and each comparison degenerates to scalar vs
//! scalar — still a pass, never a skip.
//!
//! The f32 GEMM band has one more axis than the path: the register
//! tile ([`F32Tile`]) — under `avx2` the zmm tile where the CPU has
//! AVX-512F, the ymm tile where it does not. Tiles are named directly
//! (`gemm_packed_with`, `gemm_packed_band_tile_with`), so both SIMD
//! tiles are checked on a host that would only ever run one; a tile
//! the host lacks is skipped with a printed note.

use cap_tensor::kernels::{self, gemm_packed_band_tile_with, KernelPath, PANEL};
use cap_tensor::{
    gemm_packed_with, CsrMatrix, EpiBias, Epilogue, F32Tile, Matrix, PackedB, Pool2dParams, Tensor4,
};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// Global serialization for tests that call `kernels::force`.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    // A test that panicked while holding the lock already failed; the
    // poison flag carries no extra information for the next test.
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with the dispatcher pinned to `path`, restoring auto after.
fn on_path<T>(path: KernelPath, f: impl FnOnce() -> T) -> T {
    kernels::force(Some(path));
    let out = f();
    kernels::force(None);
    out
}

/// Deterministic test matrix with awkward values: negatives, zeros and
/// fractions whose products round (so a kernel that did not fuse its
/// multiply-add would show up as a bit difference).
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

fn gemm_prepacked_on(path: KernelPath, a: &Matrix, b: &Matrix) -> Matrix {
    on_path(path, || {
        let packed = PackedB::pack(b);
        let mut c = Matrix::zeros(a.rows(), b.cols());
        cap_tensor::gemm_prepacked(a, &packed, &mut c).unwrap();
        c
    })
}

/// Every f32 tile this host can run, scalar first; the others are
/// named once on stderr so a green run says what it did not cover.
fn tiles_under_test() -> Vec<F32Tile> {
    static NOTE: Once = Once::new();
    NOTE.call_once(|| {
        for tile in F32Tile::ALL {
            if !tile.is_available() {
                eprintln!(
                    "note: f32 tile `{}` is not available on this host; its arms are skipped",
                    tile.name()
                );
            }
        }
    });
    F32Tile::available()
}

/// `a · b` through the packed driver with its bands on `tile`, into a
/// NaN-filled output (so an element no tile writes cannot pass).
fn gemm_packed_on_tile(tile: F32Tile, a: &Matrix, b: &Matrix) -> Vec<f32> {
    let packed = PackedB::pack(b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = vec![f32::NAN; m * n];
    gemm_packed_with(
        tile,
        a.as_slice(),
        m,
        k,
        n,
        packed.as_slice(),
        &mut c,
        Epilogue::NONE,
    )
    .unwrap();
    c
}

fn spmm_on(path: KernelPath, w: &CsrMatrix, b: &Matrix) -> Matrix {
    on_path(path, || w.matmul_dense(b).unwrap())
}

#[test]
fn gemm_packed_bit_identical_ragged_shapes() {
    let _g = force_lock();
    // Ragged on purpose: n not a multiple of PANEL=8 (incl. n < 8),
    // k = 0, batch-1 single rows, and multi-band row counts.
    for (m, k, n) in [
        (1, 1, 1),
        (1, 7, 13),
        (1, 24, 96), // batch-1, panel-multiple n
        (3, 0, 5),   // k = 0: output must be all zeros on every path
        (4, 9, 8),
        (5, 16, 31),
        (33, 12, 17), // crosses the 28-row band boundary
        (48, 11, 29), // two 24-row bands on the zmm tile
        (37, 19, 53),
        (37, 4100, 53), // 128 KiB panels: four column strips, ragged last
    ] {
        let a = mat(m, k, 3);
        let b = mat(k, n, 4);
        let reference = gemm_prepacked_on(KernelPath::Scalar, &a, &b);
        if k == 0 {
            assert!(reference.as_slice().iter().all(|&v| v == 0.0));
        }
        for path in kernels::available_paths() {
            let got = gemm_prepacked_on(path, &a, &b);
            assert_bits_eq(
                reference.as_slice(),
                got.as_slice(),
                &format!("gemm_prepacked {m}x{k}x{n} on {}", path.name()),
            );
        }
        for tile in tiles_under_test() {
            assert_bits_eq(
                reference.as_slice(),
                &gemm_packed_on_tile(tile, &a, &b),
                &format!("gemm_packed_with {m}x{k}x{n} on tile {}", tile.name()),
            );
        }
    }
}

/// Every tile against the scalar band at every tile boundary: rows
/// 1–44 (every cover of the zmm tile's 14- and 12-row blocks, its
/// 4-row groups and the 1–3 rows left to the ymm body: 16 and 24 are
/// 12-row covers, 28 and 42 14-row ones, 30 and 44 mix both), panel
/// counts 1–9 with every partial last-panel width (the ymm pairs and
/// odd panel; the zmm blocks' four-panel steps and the pair and odd
/// panel they leave; its 4-row groups' six-panel steps and what they
/// leave), `k` = 0, 1 and 37, into a
/// NaN-filled band, under all three epilogue forms — each output
/// element once with a full panel range and, past one panel, once with
/// a range that starts at panel 1 (a column strip), whose first panel
/// must stay NaN.
#[test]
fn every_tile_matches_scalar_at_every_tile_boundary() {
    let tiles = tiles_under_test();
    for k in [0, 1, 37] {
        for rows in 1..=44 {
            // Two rows above the band: `row0` indexes `A` and a per-row bias.
            let row0 = 2;
            let a = mat(row0 + rows, k, 7);
            let row_bias: Vec<f32> = (0..row0 + rows).map(|r| r as f32 / 3.0 - 4.0).collect();
            for n in 1..=9 * PANEL {
                let b = PackedB::pack(&mat(k, n, 8));
                let col_bias: Vec<f32> = (0..n).map(|j| 1.5 - j as f32 / 5.0).collect();
                let epi = match (rows + n) % 3 {
                    0 => Epilogue::NONE,
                    1 => Epilogue {
                        bias: Some(EpiBias::PerRow(&row_bias)),
                        relu: true,
                    },
                    _ => Epilogue {
                        bias: Some(EpiBias::PerCol(&col_bias)),
                        relu: false,
                    },
                };
                let panels = n.div_ceil(PANEL);
                let starts: &[usize] = if panels > 1 { &[0, 1] } else { &[0] };
                for &start in starts {
                    let band = |tile| {
                        let mut c = vec![f32::NAN; rows * n];
                        gemm_packed_band_tile_with(
                            tile,
                            a.as_slice(),
                            k,
                            n,
                            b.as_slice(),
                            &mut c,
                            row0,
                            start..panels,
                            epi,
                        );
                        c
                    };
                    let reference = band(F32Tile::Scalar);
                    let written = |i: usize| i % n >= start * PANEL;
                    for (i, v) in reference.iter().enumerate() {
                        assert_eq!(v.is_nan(), !written(i), "scalar {rows}x{k}x{n} element {i}");
                    }
                    for &tile in &tiles {
                        assert_bits_eq(
                            &reference,
                            &band(tile),
                            &format!(
                                "band {rows}x{k}x{n} panels {start}..{panels} epi {} on tile {}",
                                (rows + n) % 3,
                                tile.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tiles_resolve_from_the_path_and_the_cpu() {
    assert_eq!(F32Tile::available()[0], F32Tile::Scalar);
    assert_eq!(F32Tile::for_path(KernelPath::Scalar), F32Tile::Scalar);
    for tile in F32Tile::ALL {
        assert_eq!(cap_obs::f32_tile_name(tile.code()), tile.name());
        assert_eq!(F32Tile::for_path(tile.path()).path(), tile.path());
    }
    if KernelPath::Avx2.is_available() {
        // The widest tile the host has.
        let widest = *F32Tile::available().last().unwrap();
        assert_eq!(F32Tile::for_path(KernelPath::Avx2), widest);
    }
}

#[test]
fn spmm_bit_identical_across_sparsity() {
    let _g = force_lock();
    for keep_every in [1, 2, 3, 7] {
        // n = 107 reaches the AVX2 row's 64-, 32- and 8-column blocks
        // and its scalar tail.
        for (m, k, n) in [
            (1, 9, 13),
            (13, 17, 5),
            (9, 24, 40),
            (6, 8, 1),
            (5, 19, 107),
        ] {
            let dense = Matrix::from_fn(m, k, |r, c| {
                if (r * k + c).is_multiple_of(keep_every) {
                    (r as f32 - c as f32) / 3.0 + 0.25
                } else {
                    0.0
                }
            });
            let w = CsrMatrix::from_dense(&dense, 0.0);
            let b = mat(k, n, 21);
            let reference = spmm_on(KernelPath::Scalar, &w, &b);
            for path in kernels::available_paths() {
                let got = spmm_on(path, &w, &b);
                assert_bits_eq(
                    reference.as_slice(),
                    got.as_slice(),
                    &format!("spmm {m}x{k}x{n} keep=1/{keep_every} on {}", path.name()),
                );
            }
        }
    }
}

#[test]
fn elementwise_bit_identical_including_nan_and_signed_zero() {
    let _g = force_lock();
    // 19 elements: exercises both the 8-wide SIMD body and the scalar
    // tail, with the edge values that broke lesser ReLUs.
    let src: Vec<f32> = vec![
        -1.5,
        -0.0,
        0.0,
        f32::NAN,
        2.5,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-38,
        -1e-38,
        3.25,
        -7.0,
        0.5,
        -0.5,
        9.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0,
        -1.0,
    ];
    let reference_inplace = on_path(KernelPath::Scalar, || {
        let mut d = src.clone();
        cap_tensor::ops::relu_inplace(&mut d);
        d
    });
    let reference_into = on_path(KernelPath::Scalar, || {
        let mut d = vec![9.9f32; src.len()];
        cap_tensor::ops::relu_into(&src, &mut d);
        d
    });
    // relu_inplace keeps NaN and -0.0; relu_into flushes both to +0.0.
    assert!(reference_inplace[3].is_nan());
    assert_eq!(reference_inplace[1].to_bits(), (-0.0f32).to_bits());
    assert_eq!(reference_into[3].to_bits(), 0.0f32.to_bits());
    assert_eq!(reference_into[1].to_bits(), 0.0f32.to_bits());

    for path in kernels::available_paths() {
        let got = on_path(path, || {
            let mut d = src.clone();
            cap_tensor::ops::relu_inplace(&mut d);
            d
        });
        assert_bits_eq(
            &reference_inplace,
            &got,
            &format!("relu_inplace on {}", path.name()),
        );

        let got = on_path(path, || {
            let mut d = vec![9.9f32; src.len()];
            cap_tensor::ops::relu_into(&src, &mut d);
            d
        });
        assert_bits_eq(
            &reference_into,
            &got,
            &format!("relu_into on {}", path.name()),
        );
    }
}

#[test]
fn max_pool_bit_identical_with_padding_and_strides() {
    let _g = force_lock();
    // Geometries spanning: no-pad/pad, stride 1/2/3 (SIMD uses loadu
    // for stride 1, gather otherwise), interiors wider and narrower
    // than 8 lanes, and Caffenet's overlapping 3x3/2 window.
    let cases = [
        (4, 4, Pool2dParams::new(2, 0, 2)),
        (5, 5, Pool2dParams::new(2, 1, 1)),
        (7, 23, Pool2dParams::new(3, 1, 2)),
        (9, 40, Pool2dParams::new(3, 0, 1)),
        (6, 19, Pool2dParams::new(4, 2, 3)),
        (55, 55, Pool2dParams::new(3, 0, 2)),
        (2, 2, Pool2dParams::new(2, 1, 1)),
        // Googlenet's inception pools: 12- and 26-column interiors, so
        // the last 8-lane block overlaps the one before it.
        (14, 14, Pool2dParams::new(3, 1, 1)),
        (28, 28, Pool2dParams::new(3, 1, 1)),
        // Maps narrower than one 8-lane block: Googlenet 5a's module
        // pool, Caffenet's pool5 and the serving demo net's pool2.
        (7, 7, Pool2dParams::new(3, 1, 1)),
        (13, 13, Pool2dParams::new(3, 0, 2)),
        (8, 8, Pool2dParams::new(2, 0, 2)),
        // Ceil mode: the last window hangs past the pad (6x6), and one
        // that would start in the pad is clamped away (5x9).
        (6, 6, Pool2dParams::new(3, 1, 2)),
        (5, 9, Pool2dParams::new(2, 1, 2)),
    ];
    for (h, w, p) in cases {
        for nan in [false, true] {
            let input = Tensor4::from_fn(2, 3, h, w, |ni, ci, y, x| {
                let v = ((ni * 7 + ci * 5 + y * 3 + x) % 13) as f32 - 6.0;
                // Sprinkle signed zeros and negatives to stress
                // tie-breaking, and in the second pass NaNs, which
                // never win.
                if v == 0.0 {
                    -0.0
                } else if nan && (ni + ci + y * 5 + x) % 7 == 3 {
                    f32::NAN
                } else {
                    v
                }
            });
            let reference = on_path(KernelPath::Scalar, || {
                cap_tensor::max_pool2d(&input, &p).unwrap()
            });
            for path in kernels::available_paths() {
                let got = on_path(path, || cap_tensor::max_pool2d(&input, &p).unwrap());
                assert_bits_eq(
                    reference.as_slice(),
                    got.as_slice(),
                    &format!(
                        "max_pool {h}x{w} k={} pad={} s={} nan={nan} on {}",
                        p.k,
                        p.pad,
                        p.stride,
                        path.name()
                    ),
                );
            }
        }
    }
}

#[test]
fn lrn_bit_identical_on_special_values() {
    let _g = force_lock();
    // NaN, signed zeros, infinities and values whose squares overflow
    // or underflow, among ordinary ones: 4x13 planes, so each channel
    // step runs six 8-lane blocks and a scalar tail. Every output that
    // is not NaN carries the scalar bits; NaN lands where it does on
    // scalar.
    let specials = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3.0e38,
        -2.0e19,
        1.0e-30,
        f32::MIN_POSITIVE,
        1.5,
        -0.25,
    ];
    let input = Tensor4::from_fn(2, 9, 4, 13, |ni, ci, y, x| {
        let i = ni * 31 + ci * 7 + y * 13 + x;
        if i % 3 == 0 {
            specials[i / 3 % specials.len()]
        } else {
            ((i % 17) as f32 - 8.0) / 3.0
        }
    });
    for local_size in [1, 3, 5] {
        for beta in [0.75, 0.6] {
            let params = cap_tensor::LrnParams {
                local_size,
                alpha: 1e-4,
                beta,
                k: 2.0,
            };
            let run = || {
                let mut out = Tensor4::zeros(0, 0, 0, 0);
                cap_tensor::lrn_into(&input, &params, &mut cap_tensor::Workspace::new(), &mut out)
                    .unwrap();
                out
            };
            let reference = on_path(KernelPath::Scalar, run);
            for path in kernels::available_paths() {
                let got = on_path(path, run);
                for (i, (x, y)) in reference.as_slice().iter().zip(got.as_slice()).enumerate() {
                    // A NaN's sign and payload are left open by Rust's
                    // float semantics once two NaNs meet in an add, and
                    // the compiler commutes adds: only where the NaNs
                    // are is part of the contract.
                    assert!(
                        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                        "lrn local_size={local_size} beta={beta} on {}: element {i} differs ({x} vs {y})",
                        path.name()
                    );
                }
            }
        }
    }
}

#[test]
fn max_pool_all_negative_infinity_plane_matches_scalar_zero() {
    let _g = force_lock();
    // Every window cell is -inf: the scalar kernel's `hit` flag never
    // fires and the output is 0.0 — the SIMD path must agree.
    let input = Tensor4::from_fn(1, 1, 6, 16, |_, _, _, _| f32::NEG_INFINITY);
    let p = Pool2dParams::new(2, 0, 1);
    let reference = on_path(KernelPath::Scalar, || {
        cap_tensor::max_pool2d(&input, &p).unwrap()
    });
    assert!(reference.as_slice().iter().all(|&v| v.to_bits() == 0));
    for path in kernels::available_paths() {
        let got = on_path(path, || cap_tensor::max_pool2d(&input, &p).unwrap());
        assert_bits_eq(reference.as_slice(), got.as_slice(), path.name());
    }
}

#[test]
fn dispatch_override_is_honored() {
    let _g = force_lock();
    kernels::force(None);
    let selected = kernels::selected();
    // Whatever was selected must be runnable here.
    assert!(selected.is_available());
    let requested = std::env::var("CAP_TENSOR_KERNEL");
    let expected = match requested.as_deref() {
        Ok("scalar") => KernelPath::Scalar,
        // `avx2`, `auto` and unset: AVX2 where the host has it, scalar
        // (the clean fallback) where it does not.
        _ if KernelPath::Avx2.is_available() => KernelPath::Avx2,
        _ => KernelPath::Scalar,
    };
    assert_eq!(selected, expected, "CAP_TENSOR_KERNEL={requested:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packed GEMM stays bit-identical across every available path on
    /// arbitrary ragged shapes, k = 0 included.
    #[test]
    fn prop_gemm_packed_bit_identical(
        m in 1usize..40,
        k in 0usize..24,
        n in 1usize..60,
        seed in 0u64..500,
    ) {
        let _g = force_lock();
        let a = mat(m, k, seed);
        let b = mat(k, n, seed.wrapping_add(1));
        let reference = gemm_prepacked_on(KernelPath::Scalar, &a, &b);
        for path in kernels::available_paths() {
            let got = gemm_prepacked_on(path, &a, &b);
            for (x, y) in reference.as_slice().iter().zip(got.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for tile in tiles_under_test() {
            let got = gemm_packed_on_tile(tile, &a, &b);
            for (x, y) in reference.as_slice().iter().zip(&got) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// SpMM stays bit-identical on arbitrary shapes and sparsity.
    #[test]
    fn prop_spmm_bit_identical(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..40,
        keep in 1usize..5,
        seed in 0u64..500,
    ) {
        let _g = force_lock();
        let dense = Matrix::from_fn(m, k, |r, c| {
            if (r * k + c).is_multiple_of(keep) {
                ((r * 31 + c * 17 + seed as usize) % 13) as f32 / 6.0 - 1.0
            } else {
                0.0
            }
        });
        let w = CsrMatrix::from_dense(&dense, 0.0);
        let b = mat(k, n, seed.wrapping_add(2));
        let reference = spmm_on(KernelPath::Scalar, &w, &b);
        for path in kernels::available_paths() {
            let got = spmm_on(path, &w, &b);
            for (x, y) in reference.as_slice().iter().zip(got.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Max pooling stays bit-identical across geometry.
    #[test]
    fn prop_max_pool_bit_identical(
        h in 1usize..12,
        w in 1usize..30,
        k in 1usize..4,
        pad in 0usize..2,
        stride in 1usize..4,
        seed in 0u64..200,
    ) {
        let p = Pool2dParams::new(k, pad, stride);
        prop_assume!(k > pad); // valid geometry (out_spatial rejects k <= pad anyway)
        prop_assume!(p.out_shape(h, w).is_ok());
        let _g = force_lock();
        let input = Tensor4::from_fn(1, 2, h, w, |_, ci, y, x| {
            ((ci * 11 + y * 5 + x * 3 + seed as usize) % 9) as f32 - 4.0
        });
        let reference = on_path(KernelPath::Scalar, || {
            cap_tensor::max_pool2d(&input, &p).unwrap()
        });
        for path in kernels::available_paths() {
            let got = on_path(path, || cap_tensor::max_pool2d(&input, &p).unwrap());
            for (x, y) in reference.as_slice().iter().zip(got.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
