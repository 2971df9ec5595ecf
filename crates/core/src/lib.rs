//! # cap-core — the paper's primary contribution
//!
//! Characterizing the cost-accuracy performance of cloud applications:
//! given an application with tunable accuracy (degrees of pruning) and a
//! space of cloud resource configurations, quantify the time-accuracy
//! and cost-accuracy trade-offs and select configurations efficiently.
//!
//! * [`metrics`] — **TAR** (Time-Accuracy Ratio, `t/a`) and **CAR**
//!   (Cost-Accuracy Ratio, `c/a`), §3.5.
//! * [`version`] — application versions: one [`cap_pruning::PruneSpec`]
//!   resolved against a calibrated profile into accuracy + reference
//!   timing, plus generators for the paper's 60-version Caffenet set.
//! * [`explorer`] — evaluate the cross-product of versions × resource
//!   configurations under a workload (Figures 9, 10), with feasibility
//!   filters for deadline `T′` and budget `C′`.
//! * [`pareto`] — Pareto filtering of (accuracy ↑, time/cost ↓) point
//!   sets and frontier extraction.
//! * [`joint`] — the 2-D prune × quantize knob grid: cross every pruned
//!   version with the f32 and int8 execution paths (PR 10), extract the
//!   joint Pareto frontier and accuracy-floor sweet spots.
//! * [`allocation`] — **Algorithm 1**: greedy TAR/CAR-guided resource
//!   allocation in `O(|P|·|G| log |G|)`.
//! * [`exhaustive`] — the exponential `O(2^|G|)` baseline the paper
//!   compares against.
//! * [`characterize`] — the application-characterization stage (§4.2):
//!   layer time distribution, single-inference pruning sweep, GPU
//!   saturation curve — from the calibrated profiles *and* from real
//!   [`cap_cnn::Network`] execution.

#![warn(missing_docs)]

pub mod allocation;
pub mod characterize;
pub mod exhaustive;
pub mod explorer;
pub mod joint;
pub mod metrics;
pub mod pareto;
pub mod pareto3;
pub mod spec_search;
pub mod version;
pub mod whatif;

pub use allocation::{
    allocate, allocate_ordered, allocate_ordered_with, AllocationRequest, AllocationResult,
    GreedyOrder,
};
pub use exhaustive::{exhaustive_search, ExhaustiveResult};
pub use explorer::{
    evaluate_all, evaluate_grid, evaluate_grid_with, feasible_by_budget, feasible_by_deadline,
    frontier_indices, savings_at_best_accuracy, EvaluatedConfig, Objective,
};
pub use joint::{
    joint_frontier, joint_grid, joint_grid_from_profile, sweet_spots, JointPoint, PrecisionModel,
};
pub use metrics::{car, tar, AccuracyMetric};
pub use pareto::{pareto_front, pareto_indices, ParetoFrontier, ParetoPoint};
pub use pareto3::{tri_pareto_indices, TriPoint};
pub use spec_search::{min_time_spec, Floor, SpecSearchResult};
pub use version::{caffenet_version_grid, googlenet_version_grid, AppVersion};
pub use whatif::{max_accuracy_within, min_cost_for_accuracy, min_time_for_accuracy, WhatIfAnswer};
