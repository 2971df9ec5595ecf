//! Algorithm 1 — greedy resource allocation with TAR and CAR heuristics
//! (§4.5.3).
//!
//! Given degrees of pruning `P`, cloud resource instances `G`, a time
//! deadline `T′` and cost budget `C′`:
//!
//! 1. Sort `P` by accuracy descending, TAR ascending on accuracy ties.
//! 2. For each version, sort `G` by CAR ascending and add resources
//!    greedily until the configuration meets both constraints.
//!
//! Per version the work is the `O(|G| log |G|)` sort plus a linear
//! scan — polynomial, versus the `O(2^|G|)` exhaustive subset search
//! ([`crate::exhaustive`]).

use crate::metrics::{car, tar, AccuracyMetric};
use crate::version::AppVersion;
use cap_cloud::{simulate_with, Distribution, GpuScaling, InstanceType, ResourceConfig};
use serde::{Deserialize, Serialize};

/// Constraints and workload for an allocation request.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AllocationRequest {
    /// Images to infer (`W`).
    pub w: u64,
    /// Parallel inferences per GPU (`b`).
    pub batch: u32,
    /// Time deadline `T′`, seconds.
    pub deadline_s: f64,
    /// Cost budget `C′`, USD.
    pub budget_usd: f64,
    /// Accuracy definition used for TAR/CAR ordering.
    pub metric: AccuracyMetric,
}

/// Successful allocation: the chosen version and resource configuration
/// with their predicted time and cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationResult {
    /// Index of the selected version in the caller's `P` slice.
    pub version_idx: usize,
    /// Selected resource configuration `R`.
    pub config: ResourceConfig,
    /// Predicted inference time `T`, seconds.
    pub time_s: f64,
    /// Predicted cost `C`, USD.
    pub cost_usd: f64,
    /// Number of `(version, partial configuration)` evaluations performed
    /// — the algorithm's work measure for the complexity comparison.
    pub evaluations: u64,
}

/// Reference TAR of a version: time to infer `w` images on a single
/// reference-GPU instance, per unit accuracy.
fn version_tar(v: &AppVersion, w: u64, metric: AccuracyMetric) -> f64 {
    tar(
        v.exec.s_per_image_batched_ref * w as f64,
        v.accuracy(metric),
    )
}

/// CAR of one resource instance for a version: cost of running the whole
/// workload on that instance alone, per unit accuracy, under the given
/// GPU-scaling model (the calibrated curve penalizes many-GPU instances
/// here, which reorders the greedy scan relative to the paper's ideal
/// split).
fn instance_car(
    inst: &InstanceType,
    v: &AppVersion,
    w: u64,
    batch: u32,
    metric: AccuracyMetric,
    scaling: &GpuScaling,
) -> f64 {
    let rate = v.exec.instance_rate_with(inst, inst.gpus, batch, scaling);
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let time_s = w as f64 / rate;
    car(
        cap_cloud::cost_usd(inst.price_per_hour, time_s),
        v.accuracy(metric),
    )
}

/// Resource ordering used by the greedy loop — the paper's Algorithm 1
/// uses [`GreedyOrder::CarAscending`]; the alternatives exist for the
/// ablation in `repro --exp ablation-alloc` and the `alloc_scaling` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GreedyOrder {
    /// Ascending Cost-Accuracy Ratio (the paper's heuristic).
    CarAscending,
    /// Ascending hourly price, ignoring performance.
    PriceAscending,
    /// Descending raw throughput, ignoring price.
    ThroughputDescending,
    /// Caller-given order, untouched (a "no heuristic" control).
    AsGiven,
}

/// Run Algorithm 1 under the default (calibrated) multi-GPU scaling
/// model. Returns `None` when no prefix of the CAR-sorted resource list
/// satisfies both constraints for any version.
pub fn allocate(
    versions: &[AppVersion],
    resources: &[InstanceType],
    req: &AllocationRequest,
) -> Option<AllocationResult> {
    allocate_ordered(versions, resources, req, GreedyOrder::CarAscending)
}

/// Algorithm 1 with a configurable resource ordering (ablation hook).
pub fn allocate_ordered(
    versions: &[AppVersion],
    resources: &[InstanceType],
    req: &AllocationRequest,
    order: GreedyOrder,
) -> Option<AllocationResult> {
    allocate_ordered_with(versions, resources, req, order, &GpuScaling::default())
}

/// Algorithm 1 with explicit ordering *and* GPU-scaling model — pass
/// [`GpuScaling::Ideal`] to reproduce the paper's analytic selection.
pub fn allocate_ordered_with(
    versions: &[AppVersion],
    resources: &[InstanceType],
    req: &AllocationRequest,
    order: GreedyOrder,
    scaling: &GpuScaling,
) -> Option<AllocationResult> {
    // Line 1: sort P by (accuracy desc, TAR asc).
    let mut p_order: Vec<usize> = (0..versions.len()).collect();
    p_order.sort_by(|&a, &b| {
        let (va, vb) = (&versions[a], &versions[b]);
        vb.accuracy(req.metric)
            .partial_cmp(&va.accuracy(req.metric))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                version_tar(va, req.w, req.metric)
                    .partial_cmp(&version_tar(vb, req.w, req.metric))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });

    let mut evaluations = 0u64;
    for &vi in &p_order {
        let v = &versions[vi];
        // Line 3: order G per the chosen heuristic (paper: CAR ascending).
        let mut g_order: Vec<usize> = (0..resources.len()).collect();
        match order {
            GreedyOrder::CarAscending => g_order.sort_by(|&a, &b| {
                instance_car(&resources[a], v, req.w, req.batch, req.metric, scaling)
                    .partial_cmp(&instance_car(
                        &resources[b],
                        v,
                        req.w,
                        req.batch,
                        req.metric,
                        scaling,
                    ))
                    .unwrap_or(std::cmp::Ordering::Equal)
            }),
            GreedyOrder::PriceAscending => g_order.sort_by(|&a, &b| {
                resources[a]
                    .price_per_hour
                    .partial_cmp(&resources[b].price_per_hour)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }),
            GreedyOrder::ThroughputDescending => g_order.sort_by(|&a, &b| {
                let ra = v
                    .exec
                    .instance_rate(&resources[a], resources[a].gpus, req.batch);
                let rb = v
                    .exec
                    .instance_rate(&resources[b], resources[b].gpus, req.batch);
                rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
            }),
            GreedyOrder::AsGiven => {}
        }
        // Lines 4-12: grow R greedily.
        let mut config = ResourceConfig::empty();
        for &gi in &g_order {
            config.add(resources[gi].clone(), 1);
            evaluations += 1;
            // Line 7: distribute workload (we balance finish times so the
            // added resource actually helps — the paper's "distribute
            // workload in R" step).
            let Some(est) = simulate_with(
                &config,
                &v.exec,
                req.w,
                req.batch,
                Distribution::Proportional,
                scaling,
            ) else {
                continue;
            };
            if est.time_s <= req.deadline_s && est.cost_usd <= req.budget_usd {
                return Some(AllocationResult {
                    version_idx: vi,
                    config,
                    time_s: est.time_s,
                    cost_usd: est.cost_usd,
                    evaluations,
                });
            }
            // Adding more resources cannot reduce cost once the budget is
            // blown at this time scale, but can still fix a deadline miss;
            // only bail for this version when cost alone already exceeds
            // the budget with the single cheapest-CAR resource unable to
            // meet time — i.e. keep scanning, the loop is linear anyway.
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::{caffenet_version_grid, AppVersion};
    use cap_cloud::catalog;
    use cap_pruning::{caffenet_profile, PruneSpec};

    fn versions() -> Vec<AppVersion> {
        caffenet_version_grid(&caffenet_profile())
    }

    /// A pool of instances: 3 of each catalog type.
    fn pool() -> Vec<InstanceType> {
        let mut out = Vec::new();
        for inst in catalog() {
            for _ in 0..3 {
                out.push(inst.clone());
            }
        }
        out
    }

    fn req(deadline_h: f64, budget: f64) -> AllocationRequest {
        AllocationRequest {
            w: 1_000_000,
            batch: 512,
            deadline_s: deadline_h * 3600.0,
            budget_usd: budget,
            metric: AccuracyMetric::Top1,
        }
    }

    #[test]
    fn generous_constraints_pick_highest_accuracy() {
        let vs = versions();
        let r = allocate(&vs, &pool(), &req(100.0, 10_000.0)).unwrap();
        let best_acc = vs.iter().map(|v| v.top1).fold(0.0, f64::max);
        assert_eq!(vs[r.version_idx].top1, best_acc);
        assert!(r.time_s <= 100.0 * 3600.0);
        assert!(r.cost_usd <= 10_000.0);
    }

    #[test]
    fn tight_deadline_forces_pruned_version_or_more_resources() {
        let vs = versions();
        // 1 hour for a million images is tight on a single GPU
        // (unpruned: ~6.3 h on one K80).
        let r = allocate(&vs, &pool(), &req(1.0, 10_000.0)).unwrap();
        assert!(r.time_s <= 3600.0);
        assert!(r.config.total_gpus() > 1 || !vs[r.version_idx].spec.is_none());
    }

    #[test]
    fn infeasible_constraints_return_none() {
        let vs = versions();
        assert!(allocate(&vs, &pool(), &req(0.0001, 0.01)).is_none());
    }

    #[test]
    fn result_respects_both_constraints() {
        let vs = versions();
        let request = req(4.0, 50.0);
        if let Some(r) = allocate(&vs, &pool(), &request) {
            assert!(r.time_s <= request.deadline_s);
            assert!(r.cost_usd <= request.budget_usd);
        }
    }

    #[test]
    fn evaluation_count_polynomial_in_g() {
        let vs = versions();
        let r = allocate(&vs, &pool(), &req(100.0, 10_000.0)).unwrap();
        // First version already satisfiable: at most |G| evaluations.
        assert!(r.evaluations <= pool().len() as u64);
    }

    #[test]
    fn accuracy_ties_broken_by_tar() {
        // Two versions with identical accuracy but different speed: the
        // faster (lower TAR) must be tried first and win.
        let p = caffenet_profile();
        let slow = AppVersion::from_profile(&p, PruneSpec::none());
        let mut fast = slow.clone();
        fast.exec.s_per_image_batched_ref *= 0.5; // same accuracy, faster
        let r = allocate(&[slow, fast], &pool(), &req(100.0, 10_000.0)).unwrap();
        assert_eq!(r.version_idx, 1);
    }

    #[test]
    fn ordering_ablation_all_orders_feasible_car_cheapest_or_tied() {
        let vs = versions();
        let pool = pool();
        let request = req(100.0, 10_000.0);
        let mut costs = std::collections::HashMap::new();
        for order in [
            GreedyOrder::CarAscending,
            GreedyOrder::PriceAscending,
            GreedyOrder::ThroughputDescending,
            GreedyOrder::AsGiven,
        ] {
            let r = allocate_ordered(&vs, &pool, &request, order)
                .unwrap_or_else(|| panic!("{order:?} found nothing"));
            assert!(r.time_s <= request.deadline_s);
            assert!(r.cost_usd <= request.budget_usd);
            costs.insert(format!("{order:?}"), r.cost_usd);
        }
        // The paper's CAR ordering is never beaten on cost by the naive
        // price ordering in this single-resource-satisfiable setting.
        assert!(
            costs["CarAscending"] <= costs["PriceAscending"] + 1e-9,
            "CAR {} vs price {}",
            costs["CarAscending"],
            costs["PriceAscending"]
        );
    }

    #[test]
    fn prefers_cheaper_car_family() {
        // g3 (M60) has lower CAR than p2 for this app; the greedy pick
        // should start with a g3 instance.
        let vs = versions();
        let r = allocate(&vs, &pool(), &req(100.0, 10_000.0)).unwrap();
        assert!(
            r.config.entries.iter().all(|(i, _)| i.family() == "g3"),
            "config {}",
            r.config.label()
        );
    }
}
