//! Online serving layer: multi-tenant request queues, deadline-driven
//! dynamic batching against latency SLOs, admission control with
//! counted load-shedding, and a deterministic open-loop load generator.
//!
//! The paper characterizes cloud applications by their cost-accuracy
//! frontier; this crate adds the *online* half of that story. Several
//! model variants (typically the same network at different prune
//! levels, built by [`fleet::pruned_tenant`]) are co-located behind one
//! router sharing a [`cap_cnn::ParallelEngine`] worker pool, and an
//! open-loop generator replays seeded Poisson / diurnal / burst traces
//! against them. The run reports throughput against p50/p99 latency per
//! tenant plus a cost per 1 000 inferences
//! ([`ServeReport::cost_per_1k_usd`], priced through `cap-cloud`) — the
//! serving-side cost-accuracy axis.
//!
//! # Determinism contract
//!
//! Everything that decides scheduling runs on a **virtual clock**:
//! arrivals come from [`generate_trace`] (seeded ChaCha8, libm-free
//! math, bit-identical on every platform), service times come from each
//! tenant's affine [`ServiceModel`], and the router advances virtual
//! time event by event. Same trace + same configs ⇒ identical
//! admitted / shed / batch counts and identical latency quantiles, on
//! any machine, at any load. Real forward passes still execute for
//! every dispatched batch, and their outputs are bitwise-identical to
//! [`cap_cnn::run_batched`] over the same images — the serving parity
//! test pins that down.
//!
//! # Quick start
//!
//! ```
//! use cap_serve::{fleet, generate_trace, ArrivalPattern, Router, RouterConfig};
//!
//! let tenants = vec![
//!     fleet::pruned_tenant("dense", 1, 0.0),
//!     fleet::pruned_tenant("pruned-60", 2, 0.6),
//! ];
//! let mut router = Router::new(RouterConfig::default(), tenants);
//! let trace = generate_trace(
//!     42,
//!     &[
//!         ArrivalPattern::Poisson { rate_per_s: 300.0 },
//!         ArrivalPattern::Poisson { rate_per_s: 300.0 },
//!     ],
//!     0.25,
//! );
//! let pool = fleet::demo_images(8);
//! let report = router
//!     .serve_trace(&trace, &[pool.clone(), pool])
//!     .unwrap();
//! assert_eq!(report.offered, report.admitted + report.shed);
//! assert!(report.throughput_per_s > 0.0);
//! ```
//!
//! Configuration is the [`RouterConfig`] and [`TenantConfig`] fields
//! (and `cap serve --workers`); no environment variable changes what a
//! router does. See `SERVING.md` for the operator guide and `DESIGN.md`
//! §11 for the architecture rationale.

#![warn(missing_docs)]

pub mod fleet;
pub mod router;
pub mod telemetry;
pub mod tenant;
pub mod trace;

pub use router::{Router, RouterConfig, ServeReport, ServedOutput, TenantReport};
pub use telemetry::{
    append_serve_prometheus, Series, TenantTelemetry, TENANT_TRACK_BASE, WORKER_TRACK_BASE,
};
pub use tenant::{ServiceModel, TenantConfig};
pub use trace::{det_ln, generate_trace, ArrivalEvent, ArrivalPattern};
