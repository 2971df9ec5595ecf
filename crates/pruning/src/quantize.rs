//! Quantization — the paper's §2.1 alternative accuracy knob \[7, 32\]:
//! shorten the bit-width of weight values. Unlike pruning, quantization
//! mainly buys memory (and time only with hardware support), which is
//! why the paper picks pruning for the cloud; implementing it lets the
//! explorer compare the two knobs.
//!
//! This module is the **simulated** knob: it rounds f32 weights onto a
//! `bits`-level grid in place and reports the storage/error trade-off
//! at any width from 1 to 32 bits, while execution stays on the f32
//! kernels. The *executed* 8-bit member of the family lives in
//! `cap_tensor::quant`: symmetric int8 weights and activations run on
//! integer GEMM kernels, selected by `CAP_TENSOR_PRECISION=int8`
//! (see `cap_tensor::precision`). Use this module to sweep bit widths
//! analytically; use the real path to measure what int8 actually costs
//! and saves.

use cap_tensor::{Matrix, ShapeError, TensorResult};
use serde::{Deserialize, Serialize};

/// Result of quantizing a weight matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizationReport {
    /// Bits per weight after quantization.
    pub bits: u8,
    /// Compression ratio versus f32 storage (e.g. 4.0 for 8-bit).
    pub compression: f64,
    /// Root-mean-square quantization error over the matrix.
    pub rms_error: f64,
    /// Maximum absolute quantization error.
    pub max_error: f64,
}

/// Uniform symmetric quantization: map weights onto `2^bits − 1` evenly
/// spaced levels across `[-max|w|, +max|w|]`, then reconstruct. The
/// matrix is modified in place to its dequantized (lossy) values —
/// exactly what inference-time dequantization produces.
pub fn quantize_uniform(weights: &mut Matrix, bits: u8) -> TensorResult<QuantizationReport> {
    if bits == 0 || bits > 32 {
        return Err(ShapeError::new(format!(
            "quantize_uniform: bits {bits} outside [1, 32]"
        )));
    }
    let data = weights.as_mut_slice();
    let max_abs = data.iter().fold(0.0_f32, |m, v| m.max(v.abs()));
    if max_abs == 0.0 || data.is_empty() {
        return Ok(QuantizationReport {
            bits,
            compression: 32.0 / bits as f64,
            rms_error: 0.0,
            max_error: 0.0,
        });
    }
    // `bits` is validated ≤ 32, so the u64 shift cannot overflow; the
    // old `bits.min(31)` clamp silently gave 32-bit requests a 2^31−1
    // grid (double the intended step at full width).
    let levels = ((1u64 << bits) - 1) as f32;
    let step = 2.0 * max_abs / levels;
    let mut sq_err = 0.0_f64;
    let mut max_err = 0.0_f64;
    for v in data.iter_mut() {
        let q = ((*v + max_abs) / step).round() * step - max_abs;
        let err = (q - *v).abs() as f64;
        sq_err += err * err;
        max_err = max_err.max(err);
        *v = q;
    }
    Ok(QuantizationReport {
        bits,
        compression: 32.0 / bits as f64,
        rms_error: (sq_err / data.len() as f64).sqrt(),
        max_error: max_err,
    })
}

/// Modelled relative accuracy damage of `bits`-bit quantization,
/// calibrated to the literature the paper cites: lossless at ≥ 8 bits
/// \[32\], mild at 5–7, steep below 4.
pub fn quantization_damage(bits: u8) -> f64 {
    match bits {
        0 => 1.0,
        1 => 0.60,
        2 => 0.30,
        3 => 0.12,
        4 => 0.04,
        5 => 0.015,
        6 => 0.006,
        7 => 0.002,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Matrix {
        Matrix::from_fn(16, 16, |r, c| ((r * 16 + c) as f32 * 0.37).sin() * 0.5)
    }

    #[test]
    fn high_bit_quantization_is_near_lossless() {
        let original = sample();
        let mut q = original.clone();
        let report = quantize_uniform(&mut q, 16).unwrap();
        assert!(report.max_error < 1e-4, "max err {}", report.max_error);
        assert!(q.max_abs_diff(&original).unwrap() < 1e-4);
    }

    #[test]
    fn one_bit_collapses_to_two_levels() {
        let mut q = sample();
        quantize_uniform(&mut q, 1).unwrap();
        let distinct: std::collections::BTreeSet<u32> =
            q.as_slice().iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() <= 2, "levels {}", distinct.len());
    }

    #[test]
    fn error_decreases_with_bits() {
        let mut prev = f64::INFINITY;
        for bits in [2u8, 4, 6, 8, 12] {
            let mut q = sample();
            let r = quantize_uniform(&mut q, bits).unwrap();
            assert!(r.rms_error <= prev + 1e-12, "bits {bits}");
            prev = r.rms_error;
        }
    }

    #[test]
    fn compression_ratio_is_32_over_bits() {
        let mut q = sample();
        let r = quantize_uniform(&mut q, 8).unwrap();
        assert_eq!(r.compression, 4.0);
    }

    #[test]
    fn zero_matrix_is_fixed_point() {
        let mut q = Matrix::zeros(4, 4);
        let r = quantize_uniform(&mut q, 4).unwrap();
        assert_eq!(r.rms_error, 0.0);
        assert!(q.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn thirty_two_bit_grid_is_full_width() {
        // The former `bits.min(31)` clamp silently halved the level
        // count at 32 bits. At f32 resolution both grids reconstruct
        // essentially losslessly, so the observable contract is: 32 is
        // accepted, reports 1.0× compression, and is no worse than the
        // 31-bit grid.
        let mut q31 = sample();
        let r31 = quantize_uniform(&mut q31, 31).unwrap();
        let mut q32 = sample();
        let r32 = quantize_uniform(&mut q32, 32).unwrap();
        assert_eq!(r32.compression, 1.0);
        assert!(r32.rms_error <= r31.rms_error + 1e-12);
    }

    #[test]
    fn rejects_invalid_bits() {
        let mut q = sample();
        assert!(quantize_uniform(&mut q, 0).is_err());
        assert!(quantize_uniform(&mut q, 33).is_err());
    }

    #[test]
    fn damage_model_monotone_in_bits() {
        for b in 0..10u8 {
            assert!(quantization_damage(b) >= quantization_damage(b + 1));
        }
        assert_eq!(quantization_damage(8), 0.0);
    }

    proptest! {
        #[test]
        fn prop_quantization_error_bounded_by_half_step(bits in 2u8..16) {
            let original = sample();
            let mut q = original.clone();
            let report = quantize_uniform(&mut q, bits).unwrap();
            let max_abs = original.as_slice().iter().fold(0.0_f32, |m, v| m.max(v.abs()));
            let step = 2.0 * max_abs / (((1u64 << bits) - 1) as f32);
            prop_assert!(report.max_error <= step as f64 / 2.0 + 1e-6);
        }

        #[test]
        fn prop_idempotent(bits in 2u8..12) {
            // Quantizing an already-quantized matrix with the same grid
            // keeps values on grid: error of the second pass is ~0.
            let mut q = sample();
            quantize_uniform(&mut q, bits).unwrap();
            let snapshot = q.clone();
            let r2 = quantize_uniform(&mut q, bits).unwrap();
            // The second pass may rescale if max|w| moved off-level, so
            // allow a tiny wobble rather than exact equality.
            prop_assert!(q.max_abs_diff(&snapshot).unwrap() <= (2.0 * r2.max_error as f32) + 1e-6);
        }
    }
}
