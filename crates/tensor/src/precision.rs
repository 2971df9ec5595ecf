//! Numeric-precision selection for the weighted-layer inference path.
//!
//! PR 10 adds a real int8 execution path (symmetric per-tensor weight
//! quantization, calibrated activation scales, integer GEMM/GEMV
//! microkernels in [`crate::kernels::int8`]) alongside the default f32
//! path. This module is the knob that picks between them, mirroring the
//! kernel-path machinery in [`crate::kernels`]: the `CAP_TENSOR_PRECISION`
//! environment variable is read once per process — `f32`, `int8`, or
//! `auto` (the default; f32). Any other value is fatal at first use
//! (see [`crate::knob`]): a typo must not decide a model's numerics.
//!
//! Unlike the kernel path, *both* precisions are available on every CPU
//! (the int8 kernels have a scalar reference path), so there is no
//! availability probe and [`force`] never panics. The resolved selection
//! is published to the `precision_path` metrics gauge the first time a
//! weighted layer asks for it, exactly as kernel resolution publishes
//! `kernel_path`.

use crate::knob::{Knob, KnobValue};

/// Numeric precision used by conv/fc (weighted) layers.
///
/// Pooling, softmax and the other shape/activation layers always run in
/// f32 regardless of this knob — int8 applies only where there are
/// weights to quantize, and activations are dequantized back to f32 at
/// each layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision f32 kernels — the default and the baseline arm of
    /// the `quantize` ablation experiment.
    F32,
    /// Symmetric int8 kernels with i32 accumulation and
    /// dequantize-in-epilogue (see [`crate::quant`]).
    Int8,
}

impl KnobValue for Precision {
    const VALUES: &'static [Self] = &[Precision::F32, Precision::Int8];

    fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl Precision {
    /// Stable lower-case name as accepted by `CAP_TENSOR_PRECISION`.
    pub fn name(self) -> &'static str {
        KnobValue::name(self)
    }

    /// Stable numeric code published to the `precision_path` gauge
    /// (0 is "unset"). Must stay in sync with
    /// `cap_obs::precision_path_name`; a test below cross-checks.
    pub fn code(self) -> u8 {
        match self {
            Precision::F32 => 1,
            Precision::Int8 => 2,
        }
    }
}

/// `CAP_TENSOR_PRECISION`: `auto` is f32. Publishes the
/// `precision_path` gauge.
static KNOB: Knob<Precision> = Knob::new("CAP_TENSOR_PRECISION", |requested| {
    let p = requested.unwrap_or(Precision::F32);
    cap_obs::metrics().precision_path.set(p.code() as u64);
    p
});

/// Force every subsequent weighted-layer dispatch to `precision` (or
/// back to the environment-driven selection with `None`).
///
/// This is a **test and ablation hook**, process-global like
/// [`crate::kernels::force`]: the `quantize` experiment and the int8
/// parity suites use it to run both arms inside one process. Unlike the
/// kernel override it can never panic — both precisions exist on every
/// CPU. Concurrent tests asserting on a *specific* precision must
/// serialize around it. The override also re-publishes the
/// `precision_path` gauge (to the forced value, or back to the
/// environment-driven one) so reports stay truthful.
pub fn force(precision: Option<Precision>) {
    KNOB.force(precision);
    cap_obs::metrics()
        .precision_path
        .set(KNOB.selected().code() as u64);
}

/// The precision governing this process's weighted layers.
///
/// Resolved once from `CAP_TENSOR_PRECISION` (default f32); after that a
/// single relaxed atomic load plus a cached read. The [`force`]
/// override, when set, wins without touching the cache.
#[inline]
pub fn selected() -> Precision {
    KNOB.selected()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_codes_are_stable() {
        // The gauge codes are decoded by cap-obs for reports and the
        // Prometheus exporter; this is the cross-check the two crates
        // rely on.
        for p in [Precision::F32, Precision::Int8] {
            assert_eq!(cap_obs::precision_path_name(p.code() as u64), p.name());
        }
        assert_eq!(cap_obs::precision_path_name(0), "unset");
    }

    #[test]
    fn env_values_parse_and_unknown_is_an_error() {
        assert_eq!(KNOB.parse("int8"), Ok(Some(Precision::Int8)));
        assert_eq!(KNOB.parse(" INT8 "), Ok(Some(Precision::Int8)));
        assert_eq!(KNOB.parse("f32"), Ok(Some(Precision::F32)));
        assert_eq!(KNOB.parse("auto"), Ok(None));
        assert_eq!(KNOB.parse(""), Ok(None));
        let message = KNOB.parse("bf16").unwrap_err();
        assert!(message.contains("CAP_TENSOR_PRECISION"), "{message}");
        assert!(message.contains("bf16"), "{message}");
        assert!(message.contains("auto, f32, int8"), "{message}");
    }

    #[test]
    fn force_overrides_and_clears() {
        force(Some(Precision::Int8));
        assert_eq!(selected(), Precision::Int8);
        assert_eq!(cap_obs::metrics().precision_path.get(), 2);
        force(Some(Precision::F32));
        assert_eq!(selected(), Precision::F32);
        force(None);
        // Back to env-driven; whatever it is, it must be stable and
        // reflected in the gauge.
        assert_eq!(selected(), selected());
        assert_eq!(
            cap_obs::metrics().precision_path.get(),
            selected().code() as u64
        );
    }
}
