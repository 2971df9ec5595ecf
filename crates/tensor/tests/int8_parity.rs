//! Int8 kernel parity suite.
//!
//! The int8 contract is *stronger* than the f32 one: every dispatch
//! path — scalar, `avx2`, **and** `avx2-fma` — produces bit-identical
//! outputs, because the hot loop accumulates exactly in i32 (no integer
//! FMA exists; the fma path reuses the avx2 kernel) and the dequantize
//! epilogue performs the same mul / add / ReLU sequence element-wise on
//! both paths. These tests pin that across ragged shapes (`n` off the
//! 8-wide panel, `k = 0`, batch-1) and the saturation edges (±127
//! everywhere, the largest products the format can produce). The slice
//! quantizer is held to the same standard: every path bit-equals the
//! scalar `quantize_i8` on every rounding tie, its neighbours, the
//! clamp edges and the non-finite inputs.
//!
//! `kernels::force` is process-global, so path-pinning tests serialize
//! on one mutex; on hosts without AVX2 each comparison degenerates to
//! scalar vs scalar — still a pass, never a skip.

use cap_tensor::kernels::int8::{
    gemm_i8_packed_band_with, gemv_i8_packed_with, quantize_slice_with, spmm_i8_row_with,
};
use cap_tensor::kernels::{self, EpiBias, Epilogue, KernelPath, PANEL};
use cap_tensor::{
    gemm_i8, pack_b_i8_into, precision, quantize_i8, quantize_rows_into, Matrix, Precision,
};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Global serialization for tests that call `kernels::force`.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pack a row-major `k × n` i8 matrix into the pair-interleaved panel
/// layout the int8 kernels consume (reference implementation, written
/// independently of `pack_b_i8_into`).
fn pack_pairs(b: &[i8], k: usize, n: usize) -> (Vec<i8>, usize) {
    let kp = k.next_multiple_of(2);
    let panels = n.div_ceil(PANEL);
    let mut out = vec![0i8; panels * kp * PANEL];
    for p in 0..panels {
        let c0 = p * PANEL;
        let width = PANEL.min(n - c0);
        let dst = &mut out[p * kp * PANEL..(p + 1) * kp * PANEL];
        for r in 0..k {
            for j in 0..width {
                dst[(r / 2) * 2 * PANEL + 2 * j + (r % 2)] = b[r * n + c0 + j];
            }
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

/// Every available path: the int8 contract includes `avx2-fma`.
fn all_paths() -> Vec<KernelPath> {
    kernels::available_paths()
}

#[allow(clippy::too_many_arguments)]
fn band_on(
    path: KernelPath,
    a: &[i8],
    m: usize,
    kp: usize,
    n: usize,
    packed: &[i8],
    scale: f32,
    epi: Epilogue<'_>,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_i8_packed_band_with(path, a, kp, n, packed, &mut c, 0, scale, epi);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM band kernel: every path bit-equals scalar AND the exact i64
    /// reference, for arbitrary i8 operands over ragged shapes.
    #[test]
    fn prop_band_all_paths_bitwise_equal(
        m in 1usize..6,
        k in 0usize..33,
        n in 1usize..28,
        seed in 0u64..1000,
        relu in proptest::bool::ANY,
        with_bias in proptest::bool::ANY,
    ) {
        let _guard = force_lock();
        let kp = k.next_multiple_of(2);
        let gen = |i: usize| -> i8 {
            let h = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(seed);
            ((h % 255) as i64 - 127) as i8
        };
        let mut a = vec![0i8; m * kp];
        for r in 0..m {
            for t in 0..k {
                a[r * kp + t] = gen(r * 131 + t);
            }
        }
        let b: Vec<i8> = (0..k * n).map(|i| gen(i.wrapping_mul(7) + 3)).collect();
        let (packed, kp2) = pack_pairs(&b, k, n);
        prop_assert_eq!(kp, kp2);
        let scale = 0.037f32;
        let bias: Vec<f32> = (0..m).map(|r| r as f32 * 0.21 - 0.3).collect();
        let epi = || Epilogue {
            bias: with_bias.then_some(EpiBias::PerRow(&bias)),
            relu,
        };
        let want = reference(&a, m, kp, k, &b, n, scale, with_bias.then_some(&bias), true, relu);
        for path in all_paths() {
            let got = band_on(path, &a, m, kp, n, &packed, scale, epi());
            assert_bits_eq(&got, &want, &format!("band {path:?} m={m} k={k} n={n}"));
        }
    }

    /// GEMV kernel parity on single rows, including partial panels.
    #[test]
    fn prop_gemv_all_paths_bitwise_equal(
        k in 0usize..40,
        n in 1usize..30,
        seed in 0u64..1000,
        relu in proptest::bool::ANY,
    ) {
        let _guard = force_lock();
        let kp = k.next_multiple_of(2);
        let gen = |i: usize| -> i8 {
            let h = (i as u64).wrapping_mul(0x517C_C1B7).wrapping_add(seed);
            ((h % 255) as i64 - 127) as i8
        };
        let mut a = vec![0i8; kp];
        for (t, v) in a.iter_mut().enumerate().take(k) {
            *v = gen(t);
        }
        let b: Vec<i8> = (0..k * n).map(|i| gen(i + 17)).collect();
        let (packed, _) = pack_pairs(&b, k, n);
        let scale = 0.011f32;
        let cb: Vec<f32> = (0..n).map(|c| c as f32 * 0.03 - 0.1).collect();
        let want = reference(&a, 1, kp, k, &b, n, scale, Some(&cb), false, relu);
        for path in all_paths() {
            let mut got = vec![0.0f32; n];
            gemv_i8_packed_with(
                path,
                &a,
                n,
                &packed,
                &mut got,
                0,
                scale,
                Epilogue { bias: Some(EpiBias::PerCol(&cb)), relu },
            );
            assert_bits_eq(&got, &want, &format!("gemv {path:?} k={k} n={n}"));
        }
    }

    /// SpMM row kernel parity, spanning multiple column blocks.
    #[test]
    fn prop_spmm_all_paths_bitwise_equal(
        n in 1usize..520,
        nnz in 0usize..24,
        seed in 0u64..1000,
        relu in proptest::bool::ANY,
    ) {
        let _guard = force_lock();
        let cols = 32usize;
        let gen = |i: usize| -> i8 {
            let h = (i as u64).wrapping_mul(0x2545_F491).wrapping_add(seed);
            ((h % 255) as i64 - 127) as i8
        };
        let values: Vec<i8> = (0..nnz).map(gen).collect();
        let col_idx: Vec<u32> = (0..nnz).map(|i| (gen(i + 99) as i64).unsigned_abs() as u32 % cols as u32).collect();
        let b: Vec<i8> = (0..cols * n).map(|i| gen(i + 7)).collect();
        let scale = 0.02f32;
        // Dense reference row through the same i64 → i32 → f32 pipeline.
        let mut want = vec![0.0f32; n];
        for (c, w) in want.iter_mut().enumerate() {
            let mut acc: i64 = 0;
            for (v, &ci) in values.iter().zip(&col_idx) {
                acc += *v as i64 * b[ci as usize * n + c] as i64;
            }
            let v = acc as i32 as f32 * scale - 0.05;
            *w = if relu && v <= 0.0 { 0.0 } else { v + 0.0 };
        }
        for path in all_paths() {
            let mut got = vec![0.0f32; n];
            spmm_i8_row_with(path, &values, &col_idx, &b, n, &mut got, scale, Some(-0.05), relu);
            assert_bits_eq(&got, &want, &format!("spmm {path:?} n={n} nnz={nnz}"));
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
        for path in all_paths() {
            let got = run(path);
            assert_bits_eq(&got, &want, &format!("gemm_i8 {path:?} m={m} k={k} n={n}"));
        }
    }
}

/// `quantize_slice_with` on every path against `quantize_i8` per
/// element, over `values` at every offset of a 0–33-long window (so
/// each value meets the 32-wide, the 8-wide and the scalar-tail code).
fn assert_quantizer_matches_scalar(values: &[f32], inv_scale: f32) {
    for path in all_paths() {
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
        for path in all_paths() {
            let mut got = vec![77i8; len];
            quantize_slice_with(path, &values, inv_scale, &mut got);
            for (&g, &v) in got.iter().zip(&values) {
                prop_assert_eq!(g, quantize_i8(v, inv_scale), "{:?}: {:?} * {}", path, v, inv_scale);
            }
        }
    }
}

/// Saturation edge: every operand at ±127 — the largest magnitude
/// products (16129) the format can produce — over a depth large enough
/// to stress the 16-bit pair stage, on every path.
#[test]
fn saturation_edges_are_exact_on_all_paths() {
    let _guard = force_lock();
    let (m, k, n) = (3usize, 512usize, 17usize);
    let kp = k.next_multiple_of(2);
    let mut a = vec![0i8; m * kp];
    for r in 0..m {
        for t in 0..k {
            a[r * kp + t] = if (r + t) % 2 == 0 { 127 } else { -127 };
        }
    }
    let b: Vec<i8> = (0..k * n)
        .map(|i| if i % 3 == 0 { -127 } else { 127 })
        .collect();
    let (packed, _) = pack_pairs(&b, k, n);
    let scale = 1e-4f32;
    let want = reference(&a, m, kp, k, &b, n, scale, None, true, false);
    for path in all_paths() {
        let got = band_on(path, &a, m, kp, n, &packed, scale, Epilogue::NONE);
        assert_bits_eq(&got, &want, &format!("saturation {path:?}"));
    }
}

/// `k = 0` (empty accumulation) must still run the epilogue.
#[test]
fn k_zero_runs_epilogue_on_all_paths() {
    let _guard = force_lock();
    let n = 11usize;
    let bias: Vec<f32> = (0..n).map(|c| c as f32 - 5.0).collect();
    let packed = vec![0i8; n.div_ceil(PANEL) * PANEL * 2];
    for path in all_paths() {
        let mut got = vec![f32::NAN; n];
        gemv_i8_packed_with(
            path,
            &[],
            n,
            &packed,
            &mut got,
            0,
            1.0,
            Epilogue {
                bias: Some(EpiBias::PerCol(&bias)),
                relu: true,
            },
        );
        for (c, v) in got.iter().enumerate() {
            let want = (bias[c]).max(0.0);
            assert_eq!(v.to_bits(), want.to_bits(), "{path:?} col {c}");
        }
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
