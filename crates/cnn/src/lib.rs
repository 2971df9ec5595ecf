//! # cap-cnn
//!
//! A Caffe-like CNN inference framework built on [`cap_tensor`], providing
//! the application substrate of the paper: Caffenet (Table 1 / Figure 1)
//! and Googlenet, executed layer by layer with per-layer wall-clock
//! timing — the instrument behind the paper's Figure 3 measurement.
//!
//! * [`layer`] — the [`Layer`] trait and every layer type
//!   the two models need (convolution with a sparse fast path for pruned
//!   weights, inner product, ReLU, max/avg pooling, LRN, channel concat,
//!   dropout, softmax).
//! * [`network`] — a DAG executor with topological scheduling and a
//!   timing collector.
//! * [`fusion`] — the `CAP_TENSOR_FUSION` mode governing the executor's
//!   graph-level `conv → relu` / `fc → relu` fusion pass (bitwise
//!   identical either way; `auto` fuses).
//! * [`models`] — Caffenet and Googlenet.
//! * [`accuracy`] — top-1 / top-5 metrics as defined in §3.2.2 of the
//!   paper.
//! * [`train`] — SGD with momentum and backprop for a small trainable
//!   [`train::SequentialNet`] (the *TinyNet* preset among them), so
//!   accuracy-vs-pruning curves can be *measured*, not just modelled;
//!   a trained net runs only as a [`Network`]
//!   ([`train::SequentialNet::to_network`]).
//! * [`parallel`] — the data-parallel inference engine: a worker pool
//!   sharding batched workloads with bitwise-deterministic outputs, and
//!   the strong-scaling measurement that calibrates `cap-cloud`'s
//!   efficiency curve.
//! * [`dag`] — the `CAP_CNN_DAG` mode: how many threads one pass
//!   splits its kernels across, for batch-1 latency
//!   ([`ForwardArena::with_team`] pins the count; bitwise identical to
//!   one thread either way).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod dag;
pub mod fusion;
pub mod inference;
pub mod layer;
pub mod models;
pub mod network;
pub mod parallel;
pub mod train;

pub use accuracy::{evaluate_topk, AccuracyReport};
pub use dag::DagMode;
pub use fusion::FusionMode;
pub use inference::{run_batched, ThroughputReport};
pub use layer::{Layer, LayerKind};
pub use network::{ForwardArena, ForwardRecord, LayerTiming, Network, NodeId};
pub use parallel::{strong_scaling, InferenceReport, ParallelEngine, WorkerReport};

// Observability vocabulary (tracers, span scopes) used by the traced
// entry points, re-exported so callers need not name `cap_obs` directly.
pub use cap_obs::{CollectingTracer, NoopTracer, ProfileReport, Tracer};
