//! # cloud-cost-accuracy
//!
//! Reproduction of *"Characterizing the Cost-Accuracy Performance of
//! Cloud Applications"* (Rathnayake, Ramapantulu, Teo — ICPP Workshops
//! 2020): a library for quantifying and optimizing the three-way
//! trade-off between **cost**, **accuracy** and **execution time** of
//! cloud applications, with CNN inference under pruning as the worked
//! application.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`tensor`] ([`cap_tensor`]) — dense/sparse linear algebra, im2col
//!   convolution, pooling.
//! * [`cnn`] ([`cap_cnn`]) — Caffe-like inference framework, Caffenet,
//!   Googlenet, and a small trainable `SequentialNet` that reaches
//!   inference only as a `Network` (`to_network()`).
//! * [`pruning`] ([`cap_pruning`]) — pruning algorithms, prune specs,
//!   sweet-spot detection, calibrated profiles.
//! * [`cloud`] ([`cap_cloud`]) — EC2 catalog (Table 3), GPU saturation,
//!   pricing, execution simulation (Eqs. 1–4).
//! * [`core`] ([`cap_core`]) — TAR/CAR metrics, Pareto frontiers,
//!   Algorithm 1, exhaustive baseline, characterization.
//! * [`data`] ([`cap_data`]) — synthetic labeled image datasets.
//! * [`serve`] ([`cap_serve`]) — online serving: multi-tenant queues,
//!   deadline-driven dynamic batching against latency SLOs, admission
//!   control, deterministic open-loop load generation.
//!
//! ## Quickstart
//!
//! ```
//! use cloud_cost_accuracy::prelude::*;
//!
//! // 1. A degree of pruning: conv1 and conv2 at their sweet spots.
//! let profile = caffenet_profile();
//! let spec = PruneSpec::single("conv1", 0.3).with("conv2", 0.5);
//! let version = AppVersion::from_profile(&profile, spec);
//!
//! // 2. Run 50 000 inferences on one p2.xlarge.
//! let cfg = ResourceConfig::of(by_name("p2.xlarge").unwrap(), 1);
//! let est = simulate(&cfg, &version.exec, 50_000, 512, Distribution::EqualSplit).unwrap();
//!
//! // 3. Quantify with the paper's metrics.
//! let tar_value = tar(est.time_s, version.top5);
//! let car_value = car(est.cost_usd, version.top5);
//! assert!(est.time_s < 19.0 * 60.0); // faster than unpruned
//! assert!(tar_value > 0.0 && car_value > 0.0);
//! ```

pub use cap_cloud as cloud;
pub use cap_cnn as cnn;
pub use cap_core as core;
pub use cap_data as data;
pub use cap_pruning as pruning;
pub use cap_serve as serve;
pub use cap_tensor as tensor;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use cap_cloud::{
        by_name, catalog, cost_usd, enumerate_configs, simulate, simulate_with, AppExecModel,
        BatchModel, Distribution, EfficiencyCurve, GpuKind, GpuScaling, InstanceType,
        MeasurementHarness, ResourceConfig,
    };
    pub use cap_cnn::{
        evaluate_topk,
        models::{caffenet, googlenet, WeightInit},
        run_batched, strong_scaling,
        train::{SequentialBuilder, SequentialNet, Sgd},
        AccuracyReport, InferenceReport, Layer, LayerKind, Network, ParallelEngine,
    };
    pub use cap_core::{
        allocate, caffenet_version_grid, car, evaluate_all, evaluate_grid, evaluate_grid_with,
        exhaustive_search, feasible_by_budget, feasible_by_deadline, frontier_indices,
        pareto_front, pareto_indices, savings_at_best_accuracy, tar, AccuracyMetric,
        AllocationRequest, AllocationResult, AppVersion, EvaluatedConfig, ExhaustiveResult,
        Objective, ParetoFrontier, ParetoPoint,
    };
    pub use cap_data::{SyntheticImageNet, Workload};
    pub use cap_pruning::{
        apply_to_network, caffenet_profile, googlenet_profile, prune_filters_l1, prune_magnitude,
        prune_structured, sweet_spot, AppProfile, PruneAlgorithm, PruneSpec, SweetSpot,
    };
    pub use cap_serve::{
        generate_trace, ArrivalEvent, ArrivalPattern, Router, RouterConfig, ServeReport,
        ServiceModel, TenantConfig,
    };
    pub use cap_tensor::{CsrMatrix, Matrix, Tensor4};
}
