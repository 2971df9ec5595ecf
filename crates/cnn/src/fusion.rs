//! Graph-level layer-fusion mode selection.
//!
//! The [`crate::Network`] executor can rewrite `conv → relu` and
//! `fc → relu` chains into single fused steps whose bias add and ReLU
//! ride the GEMM store ([`cap_tensor::Epilogue`]), saving two full
//! round-trips of each activation through memory. The rewrite is a pure
//! scheduling change: fused kernels are **bitwise identical** to the
//! unfused layer pair on every kernel path, so fusion can be toggled
//! freely without changing a single output bit — which is
//! exactly what the parity escape hatch here is for.
//!
//! Selection mirrors `CAP_TENSOR_KERNEL` (see [`cap_tensor::kernels`]):
//! the `CAP_TENSOR_FUSION` environment variable is read once per
//! process — `auto` (the default; fusion enabled) or `off`.
//! Any other value is fatal at first use (see [`cap_tensor::knob`]).

use cap_tensor::knob::{Knob, KnobValue};

/// Whether the network executor fuses eligible layer chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionMode {
    /// Decide automatically — fusion is a pure win (bitwise identical,
    /// strictly less memory traffic), so `Auto` fuses.
    Auto,
    /// Run every layer unfused — the parity escape hatch and the
    /// baseline arm of the `fusion` ablation experiment.
    Off,
}

impl KnobValue for FusionMode {
    const VALUES: &'static [Self] = &[FusionMode::Auto, FusionMode::Off];

    fn name(self) -> &'static str {
        match self {
            FusionMode::Auto => "auto",
            FusionMode::Off => "off",
        }
    }
}

impl FusionMode {
    /// Stable lower-case name as accepted by `CAP_TENSOR_FUSION`.
    pub fn name(self) -> &'static str {
        KnobValue::name(self)
    }

    /// Whether this mode enables the fusion rewrite.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, FusionMode::Off)
    }
}

/// `CAP_TENSOR_FUSION`, defaulting to [`FusionMode::Auto`].
static KNOB: Knob<FusionMode> = Knob::new("CAP_TENSOR_FUSION", |requested| {
    requested.unwrap_or(FusionMode::Auto)
});

/// Force every subsequent forward pass into `mode` (or back to the
/// environment-driven selection with `None`).
///
/// This is a **test and ablation hook**, process-global like
/// [`cap_tensor::kernels::force`]: the `fusion` experiment and the
/// whole-network parity suite use it to run both arms inside one
/// process. Outputs are identical either way — that is the fusion
/// parity guarantee — but concurrent tests asserting on a *specific*
/// mode must serialize around it.
pub fn force(mode: Option<FusionMode>) {
    KNOB.force(mode);
}

/// The fusion mode governing this process's forward passes.
///
/// Resolved once from `CAP_TENSOR_FUSION` (default `auto` = fused);
/// after that a single relaxed atomic load plus a cached read. The
/// [`force`] override, when set, wins without touching the cache.
#[inline]
pub fn selected() -> FusionMode {
    KNOB.selected()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_and_unknown_is_an_error() {
        assert_eq!(KNOB.parse(" OFF "), Ok(Some(FusionMode::Off)));
        assert_eq!(KNOB.parse("auto"), Ok(Some(FusionMode::Auto)));
        assert_eq!(KNOB.parse(""), Ok(None));
        for bad in ["bogus", "on"] {
            let message = KNOB.parse(bad).unwrap_err();
            assert!(message.contains("CAP_TENSOR_FUSION"), "{message}");
            assert!(message.contains(bad), "{message}");
            assert!(message.ends_with("accepted: auto, off"), "{message}");
        }
    }

    #[test]
    fn auto_enables_off_disables() {
        assert!(FusionMode::Auto.enabled());
        assert!(!FusionMode::Off.enabled());
    }

    #[test]
    fn force_overrides_and_clears() {
        force(Some(FusionMode::Off));
        assert_eq!(selected(), FusionMode::Off);
        force(Some(FusionMode::Auto));
        assert_eq!(selected(), FusionMode::Auto);
        force(None);
        // Back to env/auto; whatever it is, it must be stable.
        assert_eq!(selected(), selected());
    }
}
