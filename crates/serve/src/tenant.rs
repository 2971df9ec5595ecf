//! Tenant configuration: the model, its latency SLO, queue bounds, and
//! the deterministic service-time model the virtual-clock scheduler
//! plans with.

use cap_cnn::Network;
use serde::{Deserialize, Serialize};

/// Deterministic service-time model for one tenant's batched forward
/// pass: `service_us(b) = fixed_us + per_image_us · b`.
///
/// The router schedules in *virtual* time, and every scheduling
/// decision (batch sizing, worker occupancy, SLO accounting) reads this
/// model instead of a wall clock — that is what makes admitted / shed /
/// batch counts a pure function of the trace seed. Real forward passes
/// still run for every dispatched batch (the parity tests compare
/// their outputs against `run_batched` bit-for-bit); their wall-clock
/// time is recorded as advisory observability data only.
///
/// ```
/// use cap_serve::ServiceModel;
/// let m = ServiceModel { fixed_us: 200, per_image_us: 150 };
/// assert_eq!(m.service_us(1), 350);
/// assert_eq!(m.service_us(8), 1400);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Per-batch fixed cost (dispatch, packing, kernel launch), µs.
    pub fixed_us: u64,
    /// Marginal cost per image in the batch, µs.
    pub per_image_us: u64,
}

impl ServiceModel {
    /// Virtual service time of a `batch`-image forward pass, µs.
    #[inline]
    pub fn service_us(&self, batch: usize) -> u64 {
        self.fixed_us + self.per_image_us * batch as u64
    }

    /// Derive a model from a network's arithmetic cost: `per_image_us =
    /// effective MACs / macs_per_us`, where `effective` scales the
    /// dense MAC count by `time_factor` (a pruned tenant's sparse
    /// execution runs a fraction of the dense time; 1.0 for dense).
    ///
    /// `macs_per_us` is a calibration constant for the simulated
    /// substrate — it shifts absolute latencies but cancels out of
    /// every relative comparison, and being a constant (not a
    /// measurement) it keeps the model deterministic.
    pub fn from_network(net: &Network, macs_per_us: f64, time_factor: f64) -> Self {
        let macs = net.macs_per_image().unwrap_or(0) as f64;
        let per_image = (macs * time_factor.max(0.0) / macs_per_us.max(1.0)).round() as u64;
        Self {
            fixed_us: 200,
            per_image_us: per_image.max(1),
        }
    }
}

/// Static configuration of one served tenant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantConfig {
    /// Display name (`caffenet-p60`, `tinynet`, …).
    pub name: String,
    /// End-to-end latency SLO (queue wait + service), virtual µs. The
    /// batcher sizes batches so a full batch dispatched at the deadline
    /// still meets this.
    pub slo_us: u64,
    /// Hard cap on formed batch size; at least 1 (`Router::serve_trace`
    /// refuses a tenant whose cap is 0).
    pub max_batch: usize,
    /// Bounded queue capacity; an arrival beyond it is shed (counted,
    /// never silently dropped).
    pub queue_cap: usize,
    /// Maximum head-of-line wait before a partial batch is forced out,
    /// virtual µs.
    pub batch_deadline_us: u64,
    /// Deterministic service-time model for this tenant's batches.
    pub service: ServiceModel,
}

impl TenantConfig {
    /// A config with serving defaults: 50 ms SLO, batch ≤ 16, queue
    /// bound 64, 5 ms batching deadline.
    pub fn new(name: impl Into<String>, service: ServiceModel) -> Self {
        Self {
            name: name.into(),
            slo_us: 50_000,
            max_batch: 16,
            queue_cap: 64,
            batch_deadline_us: 5_000,
            service,
        }
    }

    /// The model-driven batch-size target: the largest batch whose
    /// service time still fits inside the SLO after a worst-case
    /// batching delay, clamped to `[1, max_batch]` (for a valid
    /// `max_batch ≥ 1`; a cap of 0 has no valid target and is refused
    /// by `Router::serve_trace`).
    ///
    /// This is the static half of adaptive batch sizing (the dynamic
    /// half is the router's AIMD feedback on observed latencies): a
    /// tenant with a tight SLO or a slow model automatically serves
    /// smaller batches.
    ///
    /// ```
    /// use cap_serve::{ServiceModel, TenantConfig};
    /// let mut t = TenantConfig::new(
    ///     "t",
    ///     ServiceModel { fixed_us: 0, per_image_us: 1_000 },
    /// );
    /// t.slo_us = 10_000;
    /// t.batch_deadline_us = 2_000;
    /// // 8 images × 1 ms = 8 ms ≤ (10 − 2) ms; 9 would not fit.
    /// assert_eq!(t.target_batch(), 8);
    /// ```
    pub fn target_batch(&self) -> usize {
        let budget = self.slo_us.saturating_sub(self.batch_deadline_us);
        let mut b = 1usize;
        while b < self.max_batch && self.service.service_us(b + 1) <= budget {
            b += 1;
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_model_is_affine() {
        let m = ServiceModel {
            fixed_us: 100,
            per_image_us: 50,
        };
        assert_eq!(m.service_us(0), 100);
        assert_eq!(m.service_us(4), 300);
    }

    #[test]
    fn target_batch_respects_slo_budget() {
        let mut t = TenantConfig::new(
            "t",
            ServiceModel {
                fixed_us: 1_000,
                per_image_us: 500,
            },
        );
        t.slo_us = 6_000;
        t.batch_deadline_us = 1_000;
        // budget 5000; service(8) = 5000 fits, service(9) = 5500 not.
        assert_eq!(t.target_batch(), 8);
    }

    #[test]
    fn target_batch_never_below_one_or_above_max() {
        let mut t = TenantConfig::new(
            "t",
            ServiceModel {
                fixed_us: 10_000,
                per_image_us: 10_000,
            },
        );
        t.slo_us = 1_000; // unreachable even at batch 1
        assert_eq!(t.target_batch(), 1);

        let mut fast = TenantConfig::new(
            "f",
            ServiceModel {
                fixed_us: 1,
                per_image_us: 1,
            },
        );
        fast.max_batch = 4;
        assert_eq!(fast.target_batch(), 4);
    }
}
