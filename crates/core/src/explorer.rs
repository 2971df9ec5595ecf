//! Configuration-space exploration — the machinery behind Figures 9/10:
//! evaluate every (application version × resource configuration) pair
//! under a workload, filter by deadline/budget feasibility, and measure
//! the savings Pareto-optimal selection buys.

use crate::metrics::{car, tar, AccuracyMetric};
use crate::pareto::{pareto_indices, ParetoPoint};
use crate::version::AppVersion;
use cap_cloud::{simulate_with, Distribution, GpuScaling, ResourceConfig};
use serde::{Deserialize, Serialize};

/// One evaluated candidate: an application version on a resource
/// configuration, with predicted time and cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluatedConfig {
    /// Index into the version list.
    pub version_idx: usize,
    /// Index into the configuration list.
    pub config_idx: usize,
    /// Human-readable labels (`spec`, `resources`).
    pub version_label: String,
    /// Resource configuration label.
    pub config_label: String,
    /// Predicted total inference time, seconds (Eq. 2).
    pub time_s: f64,
    /// Predicted total cost, USD (Eq. 1).
    pub cost_usd: f64,
    /// Top-1 accuracy of the version.
    pub top1: f64,
    /// Top-5 accuracy of the version.
    pub top5: f64,
    /// Parallel inferences per GPU used for this evaluation.
    pub batch: u32,
}

impl EvaluatedConfig {
    /// Accuracy under the chosen metric.
    pub fn accuracy(&self, metric: AccuracyMetric) -> f64 {
        match metric {
            AccuracyMetric::Top1 => self.top1,
            AccuracyMetric::Top5 => self.top5,
        }
    }

    /// Time-Accuracy Ratio of this candidate.
    pub fn tar(&self, metric: AccuracyMetric) -> f64 {
        tar(self.time_s, self.accuracy(metric))
    }

    /// Cost-Accuracy Ratio of this candidate.
    pub fn car(&self, metric: AccuracyMetric) -> f64 {
        car(self.cost_usd, self.accuracy(metric))
    }

    /// Point in the (accuracy, time) plane.
    pub fn time_point(&self, metric: AccuracyMetric) -> ParetoPoint {
        ParetoPoint {
            accuracy: self.accuracy(metric),
            objective: self.time_s,
        }
    }

    /// Point in the (accuracy, cost) plane.
    pub fn cost_point(&self, metric: AccuracyMetric) -> ParetoPoint {
        ParetoPoint {
            accuracy: self.accuracy(metric),
            objective: self.cost_usd,
        }
    }

    /// Point in the joint (accuracy, time, cost) space.
    pub fn tri_point(&self, metric: AccuracyMetric) -> crate::pareto3::TriPoint {
        crate::pareto3::TriPoint {
            accuracy: self.accuracy(metric),
            time: self.time_s,
            cost: self.cost_usd,
        }
    }
}

/// Indices of candidates on the joint accuracy–time–cost Pareto
/// frontier (extension beyond the paper's two separate planes).
pub fn tri_frontier_indices(evals: &[EvaluatedConfig], metric: AccuracyMetric) -> Vec<usize> {
    let points: Vec<crate::pareto3::TriPoint> = evals.iter().map(|e| e.tri_point(metric)).collect();
    crate::pareto3::tri_pareto_indices(&points)
}

/// Evaluate the full cross-product of versions × configurations for a
/// `w`-image workload at `batch` parallel inferences per GPU.
///
/// Uses the paper's Eq. 4 equal-split distribution and the default
/// (calibrated sub-linear) multi-GPU scaling model.
pub fn evaluate_all(
    versions: &[AppVersion],
    configs: &[ResourceConfig],
    w: u64,
    batch: u32,
) -> Vec<EvaluatedConfig> {
    evaluate_grid(versions, configs, w, &[batch])
}

/// Evaluate versions × configurations × batch sizes. The batch dimension
/// is part of the paper's configuration space (Table 2's `bᵢ`): running
/// below GPU saturation is a legitimate — if usually dominated — choice,
/// and it is what puts the slow, infeasible candidates into Figures 9/10.
///
/// Multi-GPU instances scale along the calibrated efficiency curve; use
/// [`evaluate_grid_with`] with [`GpuScaling::Ideal`] for paper-fidelity
/// numbers.
pub fn evaluate_grid(
    versions: &[AppVersion],
    configs: &[ResourceConfig],
    w: u64,
    batches: &[u32],
) -> Vec<EvaluatedConfig> {
    evaluate_grid_with(versions, configs, w, batches, &GpuScaling::default())
}

/// [`evaluate_grid`] under an explicit multi-GPU scaling model.
pub fn evaluate_grid_with(
    versions: &[AppVersion],
    configs: &[ResourceConfig],
    w: u64,
    batches: &[u32],
    scaling: &GpuScaling,
) -> Vec<EvaluatedConfig> {
    (0..versions.len())
        .flat_map(|v| (0..configs.len()).flat_map(move |c| batches.iter().map(move |&b| (v, c, b))))
        .filter_map(|(vi, ci, batch)| {
            let v = &versions[vi];
            let cfg = &configs[ci];
            let est = simulate_with(cfg, &v.exec, w, batch, Distribution::EqualSplit, scaling)?;
            Some(EvaluatedConfig {
                version_idx: vi,
                config_idx: ci,
                version_label: v.label(),
                config_label: cfg.label(),
                time_s: est.time_s,
                cost_usd: est.cost_usd,
                top1: v.top1,
                top5: v.top5,
                batch,
            })
        })
        .collect()
}

/// Candidates completing within the deadline `T′` (Figure 9's filter).
pub fn feasible_by_deadline(evals: &[EvaluatedConfig], deadline_s: f64) -> Vec<EvaluatedConfig> {
    evals
        .iter()
        .filter(|e| e.time_s <= deadline_s)
        .cloned()
        .collect()
}

/// Candidates costing at most the budget `C′` (Figure 10's filter).
pub fn feasible_by_budget(evals: &[EvaluatedConfig], budget_usd: f64) -> Vec<EvaluatedConfig> {
    evals
        .iter()
        .filter(|e| e.cost_usd <= budget_usd)
        .cloned()
        .collect()
}

/// Which objective a frontier is computed over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize total inference time.
    Time,
    /// Minimize total cost.
    Cost,
}

/// Indices of Pareto-optimal candidates in the chosen plane.
pub fn frontier_indices(
    evals: &[EvaluatedConfig],
    metric: AccuracyMetric,
    objective: Objective,
) -> Vec<usize> {
    let points: Vec<ParetoPoint> = evals
        .iter()
        .map(|e| match objective {
            Objective::Time => e.time_point(metric),
            Objective::Cost => e.cost_point(metric),
        })
        .collect();
    pareto_indices(&points)
}

/// The paper's headline measurement (§4.3.3 / §4.4): among candidates
/// whose accuracy matches the *highest-accuracy Pareto point* (within
/// `acc_tol`), how much does picking the Pareto-optimal one save versus
/// the worst same-accuracy candidate?
///
/// Returns `(best, worst, saving_fraction)` or `None` when no frontier
/// exists.
pub fn savings_at_best_accuracy(
    evals: &[EvaluatedConfig],
    metric: AccuracyMetric,
    objective: Objective,
    acc_tol: f64,
) -> Option<(EvaluatedConfig, EvaluatedConfig, f64)> {
    let front = frontier_indices(evals, metric, objective);
    let best_idx = *front.first()?; // frontier is descending accuracy
    let best = &evals[best_idx];
    let best_acc = best.accuracy(metric);
    let obj = |e: &EvaluatedConfig| match objective {
        Objective::Time => e.time_s,
        Objective::Cost => e.cost_usd,
    };
    let worst = evals
        .iter()
        .filter(|e| (e.accuracy(metric) - best_acc).abs() <= acc_tol)
        .max_by(|a, b| obj(a).partial_cmp(&obj(b)).unwrap())?
        .clone();
    let saving = 1.0 - obj(best) / obj(&worst);
    Some((best.clone(), worst, saving))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_cloud::{catalog, enumerate_configs, InstanceType};
    use cap_pruning::caffenet_profile;

    fn fig9_setup() -> (Vec<AppVersion>, Vec<ResourceConfig>) {
        let profile = caffenet_profile();
        let versions = crate::version::caffenet_version_grid(&profile);
        let p2: Vec<InstanceType> = catalog()
            .into_iter()
            .filter(|i| i.family() == "p2")
            .collect();
        let configs = enumerate_configs(&p2, 3);
        (versions, configs)
    }

    /// The batch grid used for the Figure 9/10 configuration space: one
    /// saturated setting plus two below-saturation settings.
    const BATCH_GRID: [u32; 3] = [48, 160, 512];

    #[test]
    fn cross_product_size() {
        let (versions, configs) = fig9_setup();
        let evals = evaluate_grid(&versions, &configs, 1_000_000, &BATCH_GRID);
        assert_eq!(evals.len(), 60 * 63 * 3);
    }

    #[test]
    fn fig9_feasible_set_and_frontier() {
        let (versions, configs) = fig9_setup();
        let evals = evaluate_grid(&versions, &configs, 1_000_000, &BATCH_GRID);
        // 10-hour deadline.
        let feasible = feasible_by_deadline(&evals, 10.0 * 3600.0);
        assert!(!feasible.is_empty());
        assert!(feasible.len() < evals.len(), "deadline must bind");
        // Multiple Pareto-optimal configurations exist (Observation 4).
        let front = frontier_indices(&feasible, AccuracyMetric::Top1, Objective::Time);
        assert!(front.len() >= 3, "frontier size {}", front.len());
        // Frontier accuracies span a range, descending.
        let accs: Vec<f64> = front.iter().map(|&i| feasible[i].top1).collect();
        assert!(accs.windows(2).all(|w| w[0] >= w[1]));
        assert!(accs[0] - accs[accs.len() - 1] > 0.1);
    }

    #[test]
    fn calibrated_scaling_reshapes_multi_gpu_candidates() {
        let (versions, configs) = fig9_setup();
        let few: Vec<AppVersion> = versions.into_iter().take(4).collect();
        let cal = evaluate_grid(&few, &configs, 1_000_000, &[512]);
        let ideal = evaluate_grid_with(&few, &configs, 1_000_000, &[512], &GpuScaling::Ideal);
        assert_eq!(cal.len(), ideal.len());
        // Calibrated times are pointwise no faster than ideal, and
        // multi-GPU configurations are strictly slower.
        let mut strictly_slower = 0usize;
        for (c, i) in cal.iter().zip(&ideal) {
            assert!(c.time_s >= i.time_s - 1e-9, "{}", c.config_label);
            if c.time_s > i.time_s * 1.05 {
                strictly_slower += 1;
            }
        }
        assert!(strictly_slower > 0, "multi-GPU configs must pay the curve");
        // Single p2.xlarge (one GPU) candidates are identical either way.
        let mut singles = 0usize;
        for (c, i) in cal.iter().zip(&ideal) {
            if c.config_label == "1xp2.xlarge" {
                assert!((c.time_s - i.time_s).abs() < 1e-9);
                singles += 1;
            }
        }
        assert!(singles > 0, "expected single-GPU candidates in the grid");
    }

    #[test]
    fn fig10_budget_filter() {
        let (versions, configs) = fig9_setup();
        let evals = evaluate_grid(&versions, &configs, 1_000_000, &BATCH_GRID);
        let feasible = feasible_by_budget(&evals, 300.0);
        assert!(!feasible.is_empty());
        for e in &feasible {
            assert!(e.cost_usd <= 300.0);
        }
        let front = frontier_indices(&feasible, AccuracyMetric::Top5, Objective::Cost);
        assert!(front.len() >= 3);
    }

    #[test]
    fn savings_at_best_accuracy_positive() {
        let (versions, configs) = fig9_setup();
        let evals = evaluate_grid(&versions, &configs, 1_000_000, &BATCH_GRID);
        let feasible = feasible_by_deadline(&evals, 10.0 * 3600.0);
        let (best, worst, saving) =
            savings_at_best_accuracy(&feasible, AccuracyMetric::Top1, Objective::Time, 1e-9)
                .unwrap();
        assert!(saving > 0.3, "time saving {saving}");
        assert!(best.time_s < worst.time_s);
        assert_eq!(best.top1, worst.top1);
    }

    #[test]
    fn tar_car_accessors_consistent() {
        let (versions, configs) = fig9_setup();
        let evals = evaluate_all(&versions[..2], &configs[..2], 50_000, 512);
        for e in &evals {
            assert!((e.tar(AccuracyMetric::Top1) - e.time_s / e.top1).abs() < 1e-9);
            assert!((e.car(AccuracyMetric::Top5) - e.cost_usd / e.top5).abs() < 1e-9);
        }
    }

    #[test]
    fn tri_frontier_subset_of_both_two_d_frontiers_union_superset() {
        // Every 2-D frontier point is also on the 3-D frontier (a point
        // non-dominated in (acc, time) cannot be dominated in
        // (acc, time, cost) unless an equal-time dominator is cheaper).
        let (versions, configs) = fig9_setup();
        let evals = evaluate_all(&versions, &configs[..20], 500_000, 512);
        let tri: std::collections::HashSet<usize> =
            tri_frontier_indices(&evals, AccuracyMetric::Top1)
                .into_iter()
                .collect();
        assert!(!tri.is_empty());
        for &i in &tri {
            // No member of the 3-D frontier is dominated by any candidate.
            let p = evals[i].tri_point(AccuracyMetric::Top1);
            for e in &evals {
                let q = e.tri_point(AccuracyMetric::Top1);
                assert!(!q.dominates(&p));
            }
        }
    }

    #[test]
    fn deadline_zero_filters_everything() {
        let (versions, configs) = fig9_setup();
        let evals = evaluate_all(&versions[..1], &configs[..1], 50_000, 512);
        assert!(feasible_by_deadline(&evals, 0.0).is_empty());
    }
}
