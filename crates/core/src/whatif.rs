//! What-if consumer queries over an evaluated configuration space:
//! "what is the cheapest way to hit accuracy X?", "what accuracy can I
//! afford with budget C′ and deadline T′?" — the questions a cloud
//! consumer actually asks, answered from the same evaluation the
//! Figures 9/10 machinery produces.

use crate::explorer::EvaluatedConfig;
use crate::metrics::AccuracyMetric;
use serde::{Deserialize, Serialize};

/// Answer to a what-if query: the selected candidate's coordinates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WhatIfAnswer {
    /// Index into the evaluated slice.
    pub index: usize,
    /// Accuracy achieved.
    pub accuracy: f64,
    /// Time required, seconds.
    pub time_s: f64,
    /// Cost required, USD.
    pub cost_usd: f64,
}

fn answer(evals: &[EvaluatedConfig], index: usize, metric: AccuracyMetric) -> WhatIfAnswer {
    let e = &evals[index];
    WhatIfAnswer {
        index,
        accuracy: e.accuracy(metric),
        time_s: e.time_s,
        cost_usd: e.cost_usd,
    }
}

/// Minimum cost to reach at least `accuracy_floor` (any time).
pub fn min_cost_for_accuracy(
    evals: &[EvaluatedConfig],
    metric: AccuracyMetric,
    accuracy_floor: f64,
) -> Option<WhatIfAnswer> {
    evals
        .iter()
        .enumerate()
        .filter(|(_, e)| e.accuracy(metric) + 1e-12 >= accuracy_floor)
        .min_by(|(_, a), (_, b)| a.cost_usd.partial_cmp(&b.cost_usd).unwrap())
        .map(|(i, _)| answer(evals, i, metric))
}

/// Minimum time to reach at least `accuracy_floor` (any cost).
pub fn min_time_for_accuracy(
    evals: &[EvaluatedConfig],
    metric: AccuracyMetric,
    accuracy_floor: f64,
) -> Option<WhatIfAnswer> {
    evals
        .iter()
        .enumerate()
        .filter(|(_, e)| e.accuracy(metric) + 1e-12 >= accuracy_floor)
        .min_by(|(_, a), (_, b)| a.time_s.partial_cmp(&b.time_s).unwrap())
        .map(|(i, _)| answer(evals, i, metric))
}

/// Maximum accuracy achievable within a deadline and budget (ties broken
/// by lower cost, then lower time) — the objective Algorithm 1 optimizes,
/// answered exactly from the evaluated space.
pub fn max_accuracy_within(
    evals: &[EvaluatedConfig],
    metric: AccuracyMetric,
    deadline_s: f64,
    budget_usd: f64,
) -> Option<WhatIfAnswer> {
    evals
        .iter()
        .enumerate()
        .filter(|(_, e)| e.time_s <= deadline_s && e.cost_usd <= budget_usd)
        .max_by(|(_, a), (_, b)| {
            a.accuracy(metric)
                .partial_cmp(&b.accuracy(metric))
                .unwrap()
                .then(b.cost_usd.partial_cmp(&a.cost_usd).unwrap())
                .then(b.time_s.partial_cmp(&a.time_s).unwrap())
        })
        .map(|(i, _)| answer(evals, i, metric))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::evaluate_all;
    use crate::version::caffenet_version_grid;
    use cap_cloud::{catalog, enumerate_configs, InstanceType};
    use cap_pruning::caffenet_profile;

    fn evals() -> Vec<EvaluatedConfig> {
        let versions = caffenet_version_grid(&caffenet_profile());
        let p2: Vec<InstanceType> = catalog()
            .into_iter()
            .filter(|i| i.family() == "p2")
            .collect();
        let configs = enumerate_configs(&p2, 2);
        evaluate_all(&versions, &configs, 200_000, 512)
    }

    #[test]
    fn min_cost_respects_floor_and_is_minimal() {
        let e = evals();
        let a = min_cost_for_accuracy(&e, AccuracyMetric::Top1, 0.50).unwrap();
        assert!(a.accuracy >= 0.50);
        for (i, cand) in e.iter().enumerate() {
            if cand.top1 >= 0.50 {
                assert!(a.cost_usd <= cand.cost_usd + 1e-12, "candidate {i} cheaper");
            }
        }
    }

    #[test]
    fn min_time_lower_for_lower_floor() {
        let e = evals();
        let strict = min_time_for_accuracy(&e, AccuracyMetric::Top5, 0.79).unwrap();
        let loose = min_time_for_accuracy(&e, AccuracyMetric::Top5, 0.40).unwrap();
        assert!(loose.time_s <= strict.time_s);
    }

    #[test]
    fn impossible_floor_is_none() {
        let e = evals();
        assert!(min_cost_for_accuracy(&e, AccuracyMetric::Top1, 0.99).is_none());
    }

    #[test]
    fn max_accuracy_within_respects_both_constraints() {
        let e = evals();
        let a = max_accuracy_within(&e, AccuracyMetric::Top1, 3600.0, 5.0).unwrap();
        assert!(a.time_s <= 3600.0);
        assert!(a.cost_usd <= 5.0);
        // No feasible candidate beats it.
        for cand in &e {
            if cand.time_s <= 3600.0 && cand.cost_usd <= 5.0 {
                assert!(cand.top1 <= a.accuracy + 1e-12);
            }
        }
    }

    #[test]
    fn zero_budget_is_none() {
        let e = evals();
        assert!(max_accuracy_within(&e, AccuracyMetric::Top1, 3600.0, 0.0).is_none());
    }
}
