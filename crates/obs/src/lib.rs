//! # cap-obs
//!
//! Structured observability for the inference pipeline: answer "where
//! did this forward pass spend its time" and "did the arena re-allocate"
//! without editing code, the way Perseus-style per-layer profiling does
//! for multi-tenant cost characterization.
//!
//! The cooperating pieces:
//!
//! * [`Tracer`] — span enter/exit hooks threaded through
//!   `Network::forward_into_traced` (one span per DAG node, tagged with
//!   layer name/kind/shape), `ParallelEngine` workers (one span per
//!   worker shard) and `cap-core`'s grid evaluation / Algorithm 1.
//!   [`NoopTracer`] is the disabled state; [`CollectingTracer`] records
//!   [`SpanRecord`]s for aggregation.
//! * [`MetricsRegistry`] — a process-global, lock-free set of
//!   [`Counter`]s, [`Gauge`]s and [`HdrHistogram`]s (forward-pass
//!   latency, per-layer time, GEMM/im2col split, arena bytes, batch
//!   sizes, kernel-split and serving counters). The set is
//!   declared once — one table row per instrument, listed in
//!   [`INSTRUMENTS`] — and the text, JSON and Prometheus exporters all
//!   walk that table. Histograms are log-linear, so snapshots report
//!   the [`QUANTILES`] (p50/p90/p95/p99) with a documented ≤ 1/32
//!   relative error.
//! * [`ProfileReport`] — turns collected spans into a per-layer time
//!   table comparable across pruning levels.
//! * [`trace_export`] — renders any span list as a Chrome
//!   `trace_event` JSON timeline loadable in Perfetto.
//!
//! # Zero-overhead-when-disabled contract
//!
//! Instrumented hot paths are generic over `T: Tracer` and guard every
//! clock read behind [`Tracer::enabled`]. [`NoopTracer::enabled`] is an
//! `#[inline(always)] false`, so the monomorphized no-op path contains
//! no `Instant::now` calls, no allocation, and folds each span down to
//! nothing. Always-on metrics (counters/gauges) are single relaxed
//! atomic operations; timed metrics are additionally gated behind the
//! process-wide [`timing_enabled`] flag (one relaxed load when off).
//! The allocator-counting test in `cap-cnn` (`tests/zero_alloc.rs`)
//! verifies the disabled path allocation-free; `OBSERVABILITY.md` at the
//! repository root documents the full contract.

#![warn(missing_docs)]

pub mod hdr;
mod jsonutil;
pub mod metrics;
pub mod prom;
pub mod report;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace_export;

pub use hdr::{HdrHistogram, HdrSnapshot, QUANTILES};
pub use metrics::{
    f32_tile_name, int8_kernel_name, kernel_path_name, metrics, precision_path_name,
    timing_enabled, Counter, Gauge, Instrument, Kind, MetricsRegistry, MetricsSnapshot, Scope,
    TimingGuard, INSTRUMENTS,
};
pub use prom::{
    append_registry, prometheus_text, spawn_exporter, validate as validate_prometheus, PromStats,
    PromWriter,
};
pub use report::{LayerRow, ProfileReport};
pub use slo::{BurnAlert, BurnKind, SloPolicy, SloStanding, SloTracker};
pub use span::{
    current_tid, CollectingTracer, NoopTracer, SpanInfo, SpanRecord, SpanScope, Tracer,
};
pub use timeseries::{TimeSeries, Window};
pub use trace_export::chrome_trace_json;
