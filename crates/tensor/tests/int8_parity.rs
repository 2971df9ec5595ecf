//! Int8 kernel parity suite.
//!
//! The int8 contract is *stronger* than the f32 one: every integer
//! multiply kernel — scalar, `avx2` (`vpmaddwd`), `vnni` (`vpdpbusd`)
//! and `amx` (`tdpbssd` tiles) — and therefore every dispatch path
//! produces bit-identical outputs, because the hot loop accumulates
//! exactly in i32 and the dequantize epilogue performs the same mul /
//! add / ReLU sequence element-wise everywhere. These tests pin that
//! across ragged shapes (`n` off the 8-wide panel and the two-panel
//! tile block, every `k % 4`, `k = 0`, depths on and off the tile's 64
//! bytes, every row count the six-row register tile and the 16-row
//! tile split differently, bands starting past row 0) and the
//! saturation edges (±127 everywhere, and the raw `-128` bytes the
//! quantizer never emits but the public entry points accept — the
//! inputs on which the VNNI kernel's `+128` bias would go wrong first).
//! The slice quantizer is held to the same standard: every path
//! bit-equals the scalar `quantize_i8` on every rounding tie, its
//! neighbours, the clamp edges and the non-finite inputs.
//!
//! Kernels are named directly ([`Int8Kernel`]); one the host cannot run
//! is skipped with a printed note, never failed. `kernels::force` is
//! process-global, so the driver tests that pin a path serialize on one
//! mutex.

use cap_tensor::kernels::int8::{
    gemm_i8_packed_band_with, gemv_i8_packed_with, quantize_slice_with, Int8Kernel, MAX_K_I8,
};
use cap_tensor::kernels::{self, EpiBias, Epilogue, KernelPath, PANEL};
use cap_tensor::{
    gemm_i8, pack_b_i8_into, precision, quantize_i8, quantize_rows_into, Matrix, Precision,
};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// Global serialization for tests that call `kernels::force`.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every int8 kernel this host can run, scalar first; the others are
/// named once on stderr so a green run says what it did not cover.
fn kernels_under_test() -> Vec<Int8Kernel> {
    static NOTE: Once = Once::new();
    NOTE.call_once(|| {
        for kernel in Int8Kernel::ALL {
            if !kernel.is_available() {
                eprintln!(
                    "note: int8 kernel `{}` is not available on this host; its arms are skipped",
                    kernel.name()
                );
            }
        }
    });
    Int8Kernel::available()
}

/// Pack a row-major `k × n` i8 matrix into the quad-interleaved panel
/// layout the int8 kernels consume, from the layout's definition
/// (independent of `pack_b_i8_into`).
fn pack_quads(b: &[i8], k: usize, n: usize) -> (Vec<i8>, usize) {
    let kp = k.next_multiple_of(4);
    let mut out = vec![0i8; n.div_ceil(PANEL) * kp * PANEL];
    for r in 0..k {
        for c in 0..n {
            let (p, j) = (c / PANEL, c % PANEL);
            out[p * kp * PANEL + (r / 4) * 4 * PANEL + 4 * j + (r % 4)] = b[r * n + c];
        }
    }
    (out, kp)
}

/// Exact i64 reference (dequantized the same way as the kernels).
#[allow(clippy::too_many_arguments)]
fn reference(
    a: &[i8],
    m: usize,
    kp: usize,
    k: usize,
    b: &[i8],
    n: usize,
    scale: f32,
    bias: Option<&[f32]>,
    per_row: bool,
    relu: bool,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        for c in 0..n {
            let mut acc: i64 = 0;
            for t in 0..k {
                acc += a[r * kp + t] as i64 * b[t * n + c] as i64;
            }
            let mut v = acc as i32 as f32 * scale;
            if let Some(bv) = bias {
                v += if per_row { bv[r] } else { bv[c] };
            }
            out[r * n + c] = if relu && v <= 0.0 { 0.0 } else { v + 0.0 };
        }
    }
    out
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

fn on_path<T>(path: KernelPath, f: impl FnOnce() -> T) -> T {
    kernels::force(Some(path));
    let out = f();
    kernels::force(None);
    out
}

/// One band over all `m` rows into a NaN-filled output: a lane the
/// kernel skipped would survive as NaN.
#[allow(clippy::too_many_arguments)]
fn band_on(
    kernel: Int8Kernel,
    a: &[i8],
    m: usize,
    kp: usize,
    n: usize,
    packed: &[i8],
    scale: f32,
    epi: Epilogue<'_>,
) -> Vec<f32> {
    band_from(kernel, a, 0, m, kp, n, packed, scale, epi)
}

/// [`band_on`] over rows `row0 .. m` only: the output holds those
/// rows, and a per-row bias is read at their absolute index.
#[allow(clippy::too_many_arguments)]
fn band_from(
    kernel: Int8Kernel,
    a: &[i8],
    row0: usize,
    m: usize,
    kp: usize,
    n: usize,
    packed: &[i8],
    scale: f32,
    epi: Epilogue<'_>,
) -> Vec<f32> {
    let mut c = vec![f32::NAN; (m - row0) * n];
    gemm_i8_packed_band_with(kernel, a, kp, n, packed, &mut c, row0, scale, epi);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM band kernel: every kernel bit-equals the exact i64
    /// reference, for arbitrary i8 operands over ragged shapes — up to
    /// four row halves of the 16-row tile, three 64-byte tile depths
    /// and five panels — over the rows from `row0` on.
    #[test]
    fn prop_band_all_kernels_bitwise_equal(
        m in 1usize..60,
        k in 0usize..200,
        n in 1usize..40,
        row0 in 0usize..20,
        seed in 0u64..1000,
        relu in proptest::bool::ANY,
        with_bias in proptest::bool::ANY,
    ) {
        let row0 = row0.min(m - 1);
        let kp = k.next_multiple_of(4);
        let gen = |i: usize| -> i8 {
            let h = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
            ((h % 256) as i64 - 128) as i8
        };
        let mut a = vec![0i8; m * kp];
        for r in 0..m {
            for t in 0..k {
                a[r * kp + t] = gen(r * 131 + t);
            }
        }
        let b: Vec<i8> = (0..k * n).map(|i| gen(i.wrapping_mul(7) + 3)).collect();
        let (packed, kp2) = pack_quads(&b, k, n);
        prop_assert_eq!(kp, kp2);
        let scale = 0.037f32;
        let bias: Vec<f32> = (0..m).map(|r| r as f32 * 0.21 - 0.3).collect();
        let epi = || Epilogue {
            bias: with_bias.then_some(EpiBias::PerRow(&bias)),
            relu,
        };
        let want = reference(&a, m, kp, k, &b, n, scale, with_bias.then_some(&bias), true, relu);
        let want = &want[row0 * n..];
        for kernel in kernels_under_test() {
            let got = band_from(kernel, &a, row0, m, kp, n, &packed, scale, epi());
            let what = format!("band {kernel:?} m={m} k={k} n={n} row0={row0}");
            assert_bits_eq(&got, want, &what);
        }
    }

    /// GEMV kernel parity on single rows, including partial panels.
    #[test]
    fn prop_gemv_all_kernels_bitwise_equal(
        k in 0usize..40,
        n in 1usize..50,
        seed in 0u64..1000,
        relu in proptest::bool::ANY,
    ) {
        let kp = k.next_multiple_of(4);
        let gen = |i: usize| -> i8 {
            let h = (i as u64).wrapping_mul(0x517C_C1B7).wrapping_add(seed);
            ((h % 256) as i64 - 128) as i8
        };
        let mut a = vec![0i8; kp];
        for (t, v) in a.iter_mut().enumerate().take(k) {
            *v = gen(t);
        }
        let b: Vec<i8> = (0..k * n).map(|i| gen(i + 17)).collect();
        let (packed, _) = pack_quads(&b, k, n);
        let scale = 0.011f32;
        let cb: Vec<f32> = (0..n).map(|c| c as f32 * 0.03 - 0.1).collect();
        let want = reference(&a, 1, kp, k, &b, n, scale, Some(&cb), false, relu);
        for kernel in kernels_under_test() {
            let mut got = vec![f32::NAN; n];
            gemv_i8_packed_with(
                kernel,
                &a,
                n,
                &packed,
                &mut got,
                0,
                scale,
                Epilogue { bias: Some(EpiBias::PerCol(&cb)), relu },
            );
            assert_bits_eq(&got, &want, &format!("gemv {kernel:?} k={k} n={n}"));
        }
    }

    /// Full quantize→pack→parallel-GEMM driver parity from f32 inputs:
    /// what the CNN layers actually execute.
    #[test]
    fn prop_gemm_i8_driver_all_paths_bitwise_equal(
        m in 1usize..10,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let _guard = force_lock();
        let a = Matrix::from_fn(m, k, |r, c| {
            (((r * 37 + c * 11 + seed as usize) % 19) as f32 - 9.0) / 6.0
        });
        let b = Matrix::from_fn(k, n, |r, c| {
            (((r * 13 + c * 29 + seed as usize) % 23) as f32 - 11.0) / 10.0
        });
        let a_scale = cap_tensor::symmetric_scale(a.as_slice());
        let b_scale = cap_tensor::symmetric_scale(b.as_slice());
        let mut qa = Vec::new();
        let kp = quantize_rows_into(a.as_slice(), m, k, 1.0 / a_scale, &mut qa);
        let mut qb = Vec::new();
        pack_b_i8_into(b.as_slice(), k, n, 1.0 / b_scale, &mut qb);
        let run = |path| on_path(path, || {
            let mut c = vec![0.0f32; m * n];
            gemm_i8(&qa, m, kp, n, &qb, &mut c, a_scale * b_scale, Epilogue::NONE).unwrap();
            c
        });
        let want = run(KernelPath::Scalar);
        for path in kernels::available_paths() {
            let got = run(path);
            assert_bits_eq(&got, &want, &format!("gemm_i8 {path:?} m={m} k={k} n={n}"));
        }
    }
}

/// `quantize_slice_with` on every path against `quantize_i8` per
/// element, over `values` at every offset of a 0–33-long window (so
/// each value meets the 32-wide, the 8-wide and the scalar-tail code).
fn assert_quantizer_matches_scalar(values: &[f32], inv_scale: f32) {
    for path in kernels::available_paths() {
        for len in 0..=33usize.min(values.len()) {
            for window in values.windows(len.max(1)).step_by(7) {
                let src = &window[..len];
                let mut got = vec![77i8; len];
                quantize_slice_with(path, src, inv_scale, &mut got);
                for (i, (&g, &v)) in got.iter().zip(src).enumerate() {
                    assert_eq!(
                        g,
                        quantize_i8(v, inv_scale),
                        "{path:?} len {len} element {i}: {v:?} ({:#010x}) * {inv_scale}",
                        v.to_bits()
                    );
                }
            }
        }
    }
}

/// The float just above (`+1`) or below (`-1`) `v` in magnitude.
fn neighbour(v: f32, step: i32) -> f32 {
    f32::from_bits((v.to_bits() as i32 + step) as u32)
}

/// Every rounding tie `k ± 0.5` for `|k| <= 128` with the floats on
/// either side of it, signed zeros, denormals, the clamp edges and
/// beyond, infinities and NaN (which quantizes to 0).
#[test]
fn quantizer_edges_are_bitwise_scalar_on_all_paths() {
    let mut values = Vec::new();
    for k in -128i32..=128 {
        for tie in [k as f32 - 0.5, k as f32 + 0.5] {
            values.extend([tie, neighbour(tie, 1), neighbour(tie, -1)]);
        }
    }
    let denormal = f32::from_bits(1);
    values.extend([0.0, -0.0, denormal, -denormal, f32::MIN_POSITIVE, 1e-30]);
    values.extend([127.0, -127.0, 127.49, -127.49, 128.0, -128.0, 300.0, -300.0]);
    values.extend([3.0e9, -3.0e9, f32::MAX, f32::MIN]);
    values.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
    assert_quantizer_matches_scalar(&values, 1.0);
    // Scales that land products on and around ties, overflow the
    // product to infinity, and turn an infinity into NaN (`inf * 0`).
    for inv_scale in [0.5, 2.0, 127.0, 1.0 / 3.0, 0.037, 1.0e38, 0.0, -1.0] {
        assert_quantizer_matches_scalar(&values, inv_scale);
    }
    // The spot checks the sweep above rests on.
    assert_eq!(quantize_i8(0.5, 1.0), 1);
    assert_eq!(quantize_i8(neighbour(0.5, -1), 1.0), 0);
    assert_eq!(quantize_i8(-126.5, 1.0), -127);
    assert_eq!(quantize_i8(f32::NAN, 1.0), 0);
    assert_eq!(quantize_i8(f32::NEG_INFINITY, 1.0), -127);
}

proptest! {
    /// Arbitrary bit patterns (NaN payloads, denormals, huge values
    /// included) under arbitrary finite scales.
    #[test]
    fn prop_quantizer_all_paths_bitwise_scalar(
        seed in 0u64..u64::MAX,
        len in 0usize..100,
        inv_bits in 0u32..0x7f80_0000,
    ) {
        let mut state = seed;
        let values: Vec<f32> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                f32::from_bits((state >> 32) as u32)
            })
            .collect();
        let inv_scale = f32::from_bits(inv_bits);
        for path in kernels::available_paths() {
            let mut got = vec![77i8; len];
            quantize_slice_with(path, &values, inv_scale, &mut got);
            for (&g, &v) in got.iter().zip(&values) {
                prop_assert_eq!(g, quantize_i8(v, inv_scale), "{:?}: {:?} * {}", path, v, inv_scale);
            }
        }
    }
}

/// Deterministic bytes over the whole i8 range, `-128` included.
fn det_bytes(len: usize, salt: usize) -> Vec<i8> {
    (0..len)
        .map(|i| (((i + salt).wrapping_mul(2_654_435_761) >> 7) % 256) as u8 as i8)
        .collect()
}

/// The band, the GEMV and the `gemm_i8` driver on every kernel against
/// the i64 reference over the grid the register and tile blockings can
/// get wrong: every `k % 4` and `k = 0`, depths just under, on and over
/// one and two 64-byte tile steps, `n` on and off the panel, the
/// two-panel tile block and the four-panel GEMV group, row counts that
/// leave every remainder of the six-row tile, sit on and around each
/// multiple of the 16-row tile and cross the 48- and 64-row sub-bands,
/// and each epilogue — into NaN-filled outputs, over all rows and over
/// the rows from 1 on.
#[test]
fn every_kernel_matches_the_reference_over_the_shape_grid() {
    let _guard = force_lock();
    let scale = 0.0173f32;
    for m in [
        1usize, 2, 5, 6, 7, 13, 16, 17, 31, 32, 33, 47, 48, 49, 55, 65,
    ] {
        for k in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 37, 60, 64, 68, 128, 132] {
            for n in [1usize, 7, 8, 9, 21, 32, 37] {
                let kp = k.next_multiple_of(4);
                let mut a = vec![0i8; m * kp];
                for (r, row) in a.chunks_exact_mut(kp.max(1)).enumerate() {
                    row[..k].copy_from_slice(&det_bytes(k, r * 131 + m));
                }
                let b = det_bytes(k * n, 7 + n);
                let (packed, _) = pack_quads(&b, k, n);
                let row_bias: Vec<f32> = (0..m).map(|r| r as f32 * 0.21 - 0.9).collect();
                let col_bias: Vec<f32> = (0..n).map(|c| 0.4 - c as f32 * 0.13).collect();
                for (bias, per_row, relu) in [
                    (None, true, false),
                    (Some(&row_bias), true, true),
                    (Some(&col_bias), false, true),
                ] {
                    let epi = Epilogue {
                        bias: bias.map(|b| match per_row {
                            true => EpiBias::PerRow(b),
                            false => EpiBias::PerCol(b),
                        }),
                        relu,
                    };
                    let bias = bias.map(|b| &b[..]);
                    let want = reference(&a, m, kp, k, &b, n, scale, bias, per_row, relu);
                    let what = format!("m={m} k={k} n={n} per_row={per_row} relu={relu}");
                    for kernel in kernels_under_test() {
                        let got = band_on(kernel, &a, m, kp, n, &packed, scale, epi);
                        assert_bits_eq(&got, &want, &format!("band {kernel:?} {what}"));
                        let from = 1.min(m - 1);
                        let got = band_from(kernel, &a, from, m, kp, n, &packed, scale, epi);
                        let what = format!("band {kernel:?} row0={from} {what}");
                        assert_bits_eq(&got, &want[from * n..], &what);
                        // Each row again as a matvec at its absolute row.
                        for r in 0..m {
                            let mut row = vec![f32::NAN; n];
                            let a_row = &a[r * kp..(r + 1) * kp];
                            gemv_i8_packed_with(kernel, a_row, n, &packed, &mut row, r, scale, epi);
                            let want_row = &want[r * n..(r + 1) * n];
                            assert_bits_eq(
                                &row,
                                want_row,
                                &format!("gemv {kernel:?} row {r} {what}"),
                            );
                        }
                    }
                    for path in kernels::available_paths() {
                        let got = on_path(path, || {
                            let mut c = vec![f32::NAN; m * n];
                            gemm_i8(&a, m, kp, n, &packed, &mut c, scale, epi).unwrap();
                            c
                        });
                        assert_bits_eq(&got, &want, &format!("gemm_i8 {path:?} {what}"));
                    }
                }
            }
        }
    }
}

/// The exactness table: constant operands at the extremes of the byte
/// range, whose sums are known in closed form, at the shallowest depth
/// and at the deepest the kernels accept. `±127` are the largest
/// products the quantizer can produce; raw `-128` is what it never
/// emits but `gemm_i8` accepts — `(-128)² · MAX_K_I8` is the largest
/// sum there is, `-128 · 127` the case a sign trick gets wrong, and
/// all of them push the VNNI kernel's biased partial sums past i32, so
/// a `+128` correction that is off by anything shows here.
#[test]
fn extreme_operands_are_exact_at_the_depth_limits() {
    let (m, n) = (7usize, 9usize);
    let scale = 1.0f32;
    for kp in [4usize, MAX_K_I8] {
        for (av, bv) in [
            (127i8, 127i8),
            (-127, 127),
            (-128, -128),
            (-128, 127),
            (127, -128),
        ] {
            let sum = av as i64 * bv as i64 * kp as i64;
            let sum = i32::try_from(sum).expect("the true sum fits i32 by MAX_K_I8");
            let want = vec![sum as f32 * scale; m * n];
            let a = vec![av; m * kp];
            let (packed, _) = pack_quads(&vec![bv; kp * n], kp, n);
            for kernel in kernels_under_test() {
                let what = format!("{kernel:?} {av} x {bv} at kp={kp}");
                let got = band_on(kernel, &a, m, kp, n, &packed, scale, Epilogue::NONE);
                assert_bits_eq(&got, &want, &format!("band {what}"));
                let mut row = vec![f32::NAN; n];
                gemv_i8_packed_with(
                    kernel,
                    &a[..kp],
                    n,
                    &packed,
                    &mut row,
                    0,
                    scale,
                    Epilogue::NONE,
                );
                assert_bits_eq(&row, &want[..n], &format!("gemv {what}"));
            }
        }
    }
}

/// Alternating ±127 signs: the largest-magnitude products cancel, so a
/// kernel that saturated a 16-bit stage would drift from the reference.
#[test]
fn saturation_edges_are_exact_on_all_kernels() {
    let (m, k, n) = (3usize, 512usize, 17usize);
    let kp = k.next_multiple_of(4);
    let mut a = vec![0i8; m * kp];
    for r in 0..m {
        for t in 0..k {
            a[r * kp + t] = if (r + t) % 2 == 0 { 127 } else { -127 };
        }
    }
    let b: Vec<i8> = (0..k * n)
        .map(|i| if i % 3 == 0 { -127 } else { 127 })
        .collect();
    let (packed, _) = pack_quads(&b, k, n);
    let scale = 1e-4f32;
    let want = reference(&a, m, kp, k, &b, n, scale, None, true, false);
    for kernel in kernels_under_test() {
        let got = band_on(kernel, &a, m, kp, n, &packed, scale, Epilogue::NONE);
        assert_bits_eq(&got, &want, &format!("saturation {kernel:?}"));
    }
}

/// CI matrix assert: `CAP_TENSOR_PRECISION` must be honored by the
/// process-wide selection. Run by the workflow as
/// `cargo test ... precision_override_is_honored` in each precision leg.
#[test]
fn precision_override_is_honored() {
    let want = match std::env::var("CAP_TENSOR_PRECISION").as_deref() {
        Ok("int8") => Precision::Int8,
        _ => Precision::F32,
    };
    assert_eq!(precision::selected(), want);
    assert_eq!(
        cap_obs::metrics().precision_path.get(),
        want.code() as u64,
        "precision gauge must reflect the resolved selection"
    );
}
