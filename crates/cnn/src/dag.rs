//! How many threads one forward pass gets: the `CAP_CNN_DAG` mode.
//!
//! Data-parallel chunking ([`crate::ParallelEngine`]) cannot speed up a
//! single request — batch-1 latency is bounded by one forward pass. The
//! threads inside that pass are the arena's persistent worker team: the
//! executor walks the plan's steps in order on the calling thread, and
//! each step's large kernels split across the team (a conv by bands,
//! rows of `A` or panels of `B`, an fc by columns, a pool or LRN
//! by planes; DESIGN.md §10). On Googlenet this is at least as fast as
//! running an inception module's branches side by side: a module's
//! largest branch carries 60–79 % of its multiply-accumulates, which
//! caps branch overlap on two cores at 1.27–1.67×, while a split conv
//! keeps both cores busy. A net whose branch kernels are all too small
//! to split runs its branches one after another on one core.
//!
//! # Bitwise parity
//!
//! A pass on a team is **bitwise identical** to the same pass on one
//! thread: each step runs exactly once, in the same order, and a split
//! hands every output element to one thread that computes it in the
//! same order as the unsplit kernel. The contract is proptested across
//! kernel × fusion arms (including pruned layers) on random branchy
//! nets in `crates/cnn/tests/dag_parity.rs`.
//!
//! # Selection
//!
//! Mirrors `CAP_TENSOR_KERNEL` / `CAP_TENSOR_FUSION`: the `CAP_CNN_DAG`
//! environment variable is read once per process — `off` or `auto` (the
//! default). `Auto` gives a pass the host's cores; a net with no kernel
//! big enough to split runs on one. `Off` is one thread per pass — the
//! sequential escape hatch and the baseline arm of the `dagpar`
//! ablation. Any other value is fatal at first use (see
//! [`cap_tensor::knob`]). An arena made with
//! [`crate::ForwardArena::with_team`] pins its passes' thread count
//! instead, whatever the knob says: a [`crate::ParallelEngine`]'s
//! workers run their passes on one-thread teams of that kind (stacking
//! a pass's threads on the engine's would oversubscribe the machine).

use cap_tensor::knob::{Knob, KnobValue};
use std::sync::OnceLock;

/// Whether a forward pass splits its kernels across more than one
/// thread.
///
/// ```
/// use cap_cnn::DagMode;
///
/// assert_eq!(DagMode::Auto.name(), "auto");
/// assert!(DagMode::Auto.enabled());
/// assert!(!DagMode::Off.enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagMode {
    /// The host's cores per pass (unless the arena pins its team): every
    /// step's large kernels split across them.
    Auto,
    /// One thread per pass: the sequential schedule, no kernel splits
    /// — the parity escape hatch and the baseline arm of the `dagpar`
    /// ablation experiment.
    Off,
}

impl KnobValue for DagMode {
    const VALUES: &'static [Self] = &[DagMode::Auto, DagMode::Off];

    fn name(self) -> &'static str {
        match self {
            DagMode::Auto => "auto",
            DagMode::Off => "off",
        }
    }
}

impl DagMode {
    /// Stable lower-case name as accepted by `CAP_CNN_DAG`.
    pub fn name(self) -> &'static str {
        KnobValue::name(self)
    }

    /// Whether this mode gives a pass more than one thread at all.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, DagMode::Off)
    }
}

/// `CAP_CNN_DAG`, defaulting to [`DagMode::Auto`].
static KNOB: Knob<DagMode> = Knob::new("CAP_CNN_DAG", |requested| {
    requested.unwrap_or(DagMode::Auto)
});

/// Force every subsequent forward pass into `mode` (or back to the
/// environment-driven selection with `None`).
///
/// A **test and ablation hook**, process-global like
/// [`crate::fusion::force`] and `cap_tensor::kernels::force`: the
/// `dagpar` experiment and the parity suite use it to run both arms in
/// one process. Outputs are identical either way — that is the
/// parity guarantee — but concurrent tests asserting on a *specific*
/// mode must serialize around it.
pub fn force(mode: Option<DagMode>) {
    KNOB.force(mode);
}

/// The thread mode governing this process's forward passes.
///
/// Resolved once from `CAP_CNN_DAG` (default `auto`); after that a
/// single relaxed atomic load plus a cached read. The [`force`]
/// override, when set, wins without touching the cache.
#[inline]
pub fn selected() -> DagMode {
    KNOB.selected()
}

/// Cached `std::thread::available_parallelism()` — consulted on every
/// `Auto` forward pass, so one syscall for the process lifetime.
pub(crate) fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_values_parse_and_unknown_is_an_error() {
        assert_eq!(KNOB.parse(" OFF "), Ok(Some(DagMode::Off)));
        assert_eq!(KNOB.parse("auto"), Ok(Some(DagMode::Auto)));
        assert_eq!(KNOB.parse(""), Ok(None));
        for removed in ["bogus", "on"] {
            let message = KNOB.parse(removed).unwrap_err();
            assert!(message.contains("CAP_CNN_DAG"), "{message}");
            assert!(message.contains(removed), "{message}");
            assert!(message.contains("auto, off"), "{message}");
        }
    }

    #[test]
    fn mode_enablement() {
        assert!(DagMode::Auto.enabled());
        assert!(!DagMode::Off.enabled());
    }
}
