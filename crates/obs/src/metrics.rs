//! Lock-free metrics: counters, gauges, and the process-global
//! [`MetricsRegistry`] that instrumented crates feed.
//!
//! Which instruments exist is declared once, in the `instruments!`
//! table below; the registry, its snapshot, `reset()` and every
//! exporter (text, JSON, Prometheus) are derived from that table, so
//! adding an instrument is one row. Distributions are log-linear
//! [`HdrHistogram`]s, so p50/p95/p99 read out with a bounded ≤ 1/32
//! relative error — tail latencies are what a serving system is
//! operated on.
//!
//! Everything here is a relaxed atomic — no locks anywhere, so workers
//! of a [`ParallelEngine`](https://docs.rs/cap-cnn) shard record into
//! the same registry without contention-induced serialization, and
//! recording never allocates. Cheap structural metrics (pass counts,
//! batch sizes, arena bytes) are always on; metrics that need a clock
//! read at the recording site (GEMM/im2col split, per-layer time) are
//! additionally gated behind the [`timing_enabled`] flag so the default
//! configuration pays one relaxed load and a never-taken branch.

use crate::hdr::{HdrHistogram, HdrSnapshot, QUANTILES};
use crate::jsonutil::{write_json_f64, write_json_opt_u64, write_json_str};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (high-water mark).
    ///
    /// Interaction with [`MetricsRegistry::reset`]: a reset drops the
    /// mark to zero, and the next `record_max` re-publishes whatever
    /// high-water the *next* recording site observes — not the
    /// pre-reset peak. A gauge like `arena_bytes` therefore reflects
    /// the era since the last reset only if recording sites re-report
    /// their current value afterwards (the forward pass does, every
    /// pass). Snapshot consumers that assert an exact value (cap-bench's
    /// `tests/pipeline_shape.rs`) must reset **before** their warm-up so
    /// the mark they capture covers exactly their own run; resetting
    /// mid-run would otherwise publish a partial, stale-looking
    /// high-water. Tested by
    /// `reset_then_record_max_republishes_current_high_water` below.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Global switch for metrics that need a clock read at the recording
/// site. Nesting-safe: a counter of active enables, not a boolean.
static TIMING_ENABLES: AtomicU64 = AtomicU64::new(0);

/// Whether timed metrics (per-layer time, GEMM/im2col split, forward
/// latency) should be recorded. One relaxed load; false by default.
#[inline]
pub fn timing_enabled() -> bool {
    TIMING_ENABLES.load(Ordering::Relaxed) > 0
}

/// RAII guard that turns timed-metrics recording on for its lifetime.
///
/// ```
/// assert!(!cap_obs::timing_enabled());
/// {
///     let _g = cap_obs::TimingGuard::enable();
///     assert!(cap_obs::timing_enabled());
/// }
/// assert!(!cap_obs::timing_enabled());
/// ```
#[derive(Debug)]
pub struct TimingGuard(());

impl TimingGuard {
    /// Enable timed metrics until the guard drops. Guards nest: timing
    /// stays on while any guard is alive.
    pub fn enable() -> Self {
        TIMING_ENABLES.fetch_add(1, Ordering::Relaxed);
        Self(())
    }
}

impl Drop for TimingGuard {
    fn drop(&mut self) {
        TIMING_ENABLES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How an instrument accumulates, which is also how exporters type it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A [`Counter`]; Prometheus family `cap_<name>_total`.
    Counter,
    /// A [`Gauge`]; Prometheus family `cap_<name>`.
    Gauge,
    /// An [`HdrHistogram`] exported as count, mean and the
    /// [`QUANTILES`]; Prometheus summary `cap_<name>`.
    Summary,
}

impl Kind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }
}

/// Whether [`MetricsRegistry::reset`] clears an instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Work done since the last reset; cleared.
    Workload,
    /// Describes the process, not work done, and is published only
    /// once by the dispatch layer — a reset would erase it for every
    /// later snapshot, so it is kept.
    Environment,
}

/// One row of [`INSTRUMENTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instrument {
    /// Field name in [`MetricsRegistry`] and [`MetricsSnapshot`], and
    /// the exported metric name.
    pub name: &'static str,
    /// Counter, gauge or summary.
    pub kind: Kind,
    /// Cleared or kept by [`MetricsRegistry::reset`].
    pub scope: Scope,
    /// Prometheus `# HELP` text.
    pub help: &'static str,
}

/// One instrument's value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Value<'a> {
    /// A counter or gauge reading.
    Scalar(u64),
    /// A summary's histogram state.
    Summary(&'a HdrSnapshot),
}

/// The per-[`Kind`] pieces `instruments!` expands to: the live cell
/// type, the snapshot field type, and how a cell is read and a snapshot
/// field is handed to the exporters.
#[rustfmt::skip]
macro_rules! kind {
    (cell Counter) => { Counter };
    (cell Gauge) => { Gauge };
    (cell Summary) => { HdrHistogram };
    (snap Summary) => { HdrSnapshot };
    (snap $scalar:ident) => { u64 };
    (read Summary $cell:expr) => { $cell.snapshot() };
    (read $scalar:ident $cell:expr) => { $cell.get() };
    (value Summary $snap:expr) => { Value::Summary(&$snap) };
    (value $scalar:ident $snap:expr) => { Value::Scalar($snap) };
    (poke Counter $cell:expr, $v:expr) => { $cell.add($v) };
    (poke Gauge $cell:expr, $v:expr) => { $cell.set($v) };
    (poke Summary $cell:expr, $v:expr) => { $cell.record($v) };
}

/// The instrument table. One row per instrument —
/// `name: Kind, Scope, help;` under its doc comment — and everything
/// that has to know the set is generated from it: the
/// [`MetricsRegistry`] fields and its `const` static, [`INSTRUMENTS`],
/// [`MetricsSnapshot`], `snapshot()`, `reset()` and the value list the
/// text, JSON and Prometheus exporters walk. An `Environment` gauge
/// that holds a code names its decoder function and the code names,
/// from 0 up.
macro_rules! instruments {
    ($(
        $(#[$doc:meta])*
        $name:ident: $kind:ident, $scope:ident $(($decode:ident: $($code:literal),+))?, $help:expr;
    )*) => {
        /// The fixed set of pipeline metrics, fed by `cap-tensor`,
        /// `cap-cnn` and `cap-serve` instrumentation. Obtain the
        /// process-global instance with [`metrics()`].
        #[derive(Debug, Default)]
        pub struct MetricsRegistry {
            $($(#[$doc])* pub $name: kind!(cell $kind),)*
        }

        static REGISTRY: MetricsRegistry = MetricsRegistry {
            $($name: <kind!(cell $kind)>::new(),)*
        };

        /// Every registry instrument, in the order the text and JSON
        /// exporters write them (Prometheus groups the same order by
        /// kind: counters, gauges, summaries).
        pub const INSTRUMENTS: &[Instrument] = &[$(
            Instrument {
                name: stringify!($name),
                kind: Kind::$kind,
                scope: Scope::$scope,
                help: $help,
            },
        )*];

        $($(
            #[doc = concat!(
                "Human-readable name for a `", stringify!($name), "` gauge code (`\"unknown\"` ",
                "past the table). `cap-tensor` publishes the codes; a test there cross-checks ",
                "the two tables."
            )]
            pub fn $decode(code: u64) -> &'static str {
                [$($code),+].get(code as usize).copied().unwrap_or("unknown")
            }
        )?)*

        /// Owned copy of the registry, with plain-text and JSON
        /// exporters.
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsSnapshot {
            $(
                #[doc = concat!("See [`MetricsRegistry::", stringify!($name), "`].")]
                pub $name: kind!(snap $kind),
            )*
        }

        impl MetricsRegistry {
            /// Point-in-time copy of every metric, for export.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: kind!(read $kind self.$name),)*
                }
            }

            /// Reset every [`Scope::Workload`] instrument to zero (tests
            /// and between-experiment boundaries; concurrent recorders
            /// may interleave). [`Scope::Environment`] ones are kept.
            pub fn reset(&self) {
                $(if Scope::$scope == Scope::Workload {
                    self.$name.reset();
                })*
            }

            /// Write `v` into every instrument.
            #[cfg(test)]
            fn poke_all(&self, v: u64) {
                $(kind!(poke $kind self.$name, v);)*
            }
        }

        impl MetricsSnapshot {
            /// Every instrument with its value, in [`INSTRUMENTS`]
            /// order.
            pub(crate) fn values(
                &self,
            ) -> impl Iterator<Item = (&'static Instrument, Value<'_>)> {
                INSTRUMENTS.iter().zip([$(kind!(value $kind self.$name)),*])
            }
        }
    };
}

/// Help text shared by every summary.
const HDR_HELP: &str = "Log-linear HDR histogram, <=1/32 relative quantile error.";

instruments! {
    /// Forward passes started (`Network::forward_into*`). Always on.
    forward_passes: Counter, Workload, "Forward passes executed.";
    /// Whole-pass latency in microseconds. Gated by [`timing_enabled`].
    /// Log-linear ([`HdrHistogram`]), so p50/p95/p99 read out with a
    /// bounded ≤ 1/32 relative error.
    forward_latency_us: Summary, Workload, HDR_HELP;
    /// Per-layer forward time in microseconds. Gated by [`timing_enabled`].
    layer_time_us: Summary, Workload, HDR_HELP;
    /// Nanoseconds inside packed-GEMM kernels during convolution.
    /// Gated by [`timing_enabled`].
    gemm_time_ns: Counter, Workload, "Nanoseconds inside packed-GEMM kernels.";
    /// Nanoseconds inside im2col lowering during convolution: padding
    /// the image (the int8 forms quantize it on the way) and writing the
    /// patch matrix. Wall time on the thread that called the
    /// convolution: a lowering split across the worker team counts
    /// once, as `gemm_time_ns` counts a row-split multiply; each band of
    /// a band split counts on the thread that ran it. Gated by
    /// [`timing_enabled`].
    im2col_time_ns: Counter, Workload, "Nanoseconds inside im2col lowering.";
    /// High-water mark of `ForwardArena` activation bytes. Always on.
    arena_bytes: Gauge, Workload, "High-water mark of arena activation bytes.";
    /// Batch sizes seen by forward passes. Always on.
    batch_sizes: Summary, Workload, HDR_HELP;
    /// Which SIMD microkernel backend `cap-tensor` dispatched to, as a
    /// code decoded by [`kernel_path_name`] (0 until the first kernel
    /// resolves the path). An environment descriptor, not a workload
    /// counter: [`MetricsRegistry::reset`] deliberately leaves it alone
    /// so experiment boundaries don't erase which backend is running.
    kernel_path: Gauge,
        Environment(kernel_path_name: "unset", "scalar", "avx2"),
        "Dispatched SIMD microkernel backend (code).";
    /// Which numeric precision `cap-tensor` resolved for the weighted
    /// layers, as a code decoded by [`precision_path_name`] (0 until
    /// the precision knob first resolves). Like `kernel_path` an
    /// environment descriptor that [`MetricsRegistry::reset`] keeps.
    precision_path: Gauge,
        Environment(precision_path_name: "unset", "f32", "int8"),
        "Resolved inference precision for weighted layers (code).";
    /// Which integer multiply kernel `cap-tensor` runs the int8 GEMM
    /// on, as a code decoded by [`int8_kernel_name`] (0 until the
    /// first int8 multiply resolves it). It follows from the CPU, not
    /// from a setting, and two hosts that both read `avx2` / `int8`
    /// above can differ severalfold here. An environment descriptor
    /// that [`MetricsRegistry::reset`] keeps.
    int8_kernel: Gauge,
        Environment(int8_kernel_name: "unset", "scalar", "avx2", "vnni"),
        "Integer multiply kernel behind the int8 GEMM (code).";
    /// Which register tile `cap-tensor` runs the f32 packed GEMM band
    /// on, as a code decoded by [`f32_tile_name`] (0 until the kernel
    /// path resolves): under `avx2`, the 512-bit `zmm` tile where the
    /// CPU has AVX-512F, the 256-bit `ymm` one where it does not. Like
    /// `int8_kernel` it follows from the CPU, not from a setting; an
    /// environment descriptor that [`MetricsRegistry::reset`] keeps.
    f32_tile: Gauge,
        Environment(f32_tile_name: "unset", "scalar", "ymm", "zmm"),
        "Register tile behind the f32 packed GEMM band (code).";
    /// Number of fused producer→ReLU steps in the network most recently
    /// executed by `Network::forward_into*` (0 when fusion is off or
    /// nothing matched). Overwritten by every traced forward pass and,
    /// unlike `kernel_path`, reset with the workload metrics — it
    /// describes what the last run did, not the process environment.
    /// Always on.
    fused_layers: Gauge, Workload, "Fused producer-ReLU steps in the last network.";
    /// Always 0: nothing increments it since the executor lost its
    /// branch scheduler (a pass's threads show in `intra_op_splits`).
    /// Kept only because the frozen benchmark harness reads it; it goes
    /// with the next benchmark change (ROADMAP.md, "Unfreeze the
    /// benchmark once").
    dag_parallel_passes: Counter, Workload, "Forward passes on the DAG-parallel scheduler.";
    /// Kernel calls split across a pass's worker team
    /// (`cap_tensor::team`): a convolution's multiply cut by rows of
    /// `A` or its bands by groups or images, an f32 convolution's
    /// lowering cut by panel ranges (its own split, ahead of the row
    /// split of the multiply it feeds), a batch-1 GEMV cut by column
    /// ranges, a pool
    /// or LRN cut by images or channel planes. Zero over a run means
    /// every kernel ran on one thread. Always on.
    intra_op_splits: Counter, Workload, "Kernel calls split across a pass's worker team.";
    /// Requests offered to the `cap-serve` router (admitted + shed).
    /// Always on.
    serve_requests: Counter, Workload, "Requests offered to the serve router.";
    /// Requests admitted into a tenant queue. Always on.
    serve_admitted: Counter, Workload, "Requests admitted into a tenant queue.";
    /// Requests shed at admission because the tenant's bounded queue
    /// was full — the counted reject path; nothing is ever dropped
    /// silently. Always on.
    serve_shed: Counter, Workload, "Requests shed at admission.";
    /// Batches the router dispatched to the engine. Always on.
    serve_batches: Counter, Workload, "Batches dispatched to the engine.";
    /// High-water mark of any tenant queue's depth. Always on.
    serve_queue_depth: Gauge, Workload, "High-water mark of tenant queue depth.";
    /// Formed batch sizes at dispatch (occupancy of the dynamic
    /// batcher). Always on.
    serve_batch_occupancy: Summary, Workload, HDR_HELP;
    /// End-to-end request latency (queue wait + service) in *virtual*
    /// microseconds from the router's deterministic clock — no clock
    /// read at the recording site, so unlike `forward_latency_us` this
    /// is always on and reproducible run-to-run. Always on.
    serve_latency_us: Summary, Workload, HDR_HELP;
}

/// The process-global metrics registry.
///
/// ```
/// let m = cap_obs::metrics();
/// let before = m.intra_op_splits.get();
/// m.intra_op_splits.inc();
/// assert_eq!(m.intra_op_splits.get() - before, 1);
/// ```
pub fn metrics() -> &'static MetricsRegistry {
    &REGISTRY
}

impl MetricsSnapshot {
    fn scalars(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values().filter_map(|(i, v)| match v {
            Value::Scalar(v) => Some((i.name, v)),
            Value::Summary(_) => None,
        })
    }

    fn summaries(&self) -> impl Iterator<Item = (&'static str, &HdrSnapshot)> {
        self.values().filter_map(|(i, v)| match v {
            Value::Summary(h) => Some((i.name, h)),
            Value::Scalar(_) => None,
        })
    }

    /// Plain-text export: one `name value` line per scalar, then one
    /// line per summary with count, mean, the [`QUANTILES`] (`-` when
    /// empty), and non-empty buckets.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in self.scalars() {
            writeln!(out, "{name} {v}").unwrap();
        }
        for (name, h) in self.summaries() {
            write!(out, "{name} count {} mean {:.1}", h.count, h.mean()).unwrap();
            for (label, _, q) in QUANTILES {
                match h.quantile(q) {
                    Some(v) => write!(out, " {label} {v}").unwrap(),
                    None => write!(out, " {label} -").unwrap(),
                }
            }
            for (i, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    let (lo, hi) = crate::hdr::hdr_bucket_bounds(i);
                    write!(out, " [{lo},{hi}):{c}").unwrap();
                }
            }
            out.push('\n');
        }
        out
    }

    /// JSON export: stable key order, no external dependencies, and
    /// defensively valid — metric names are string-escaped and any
    /// non-finite mean renders as `null` (quantiles of an empty
    /// histogram too). `crates/bench/tests/json_exports.rs` parses the
    /// output with a real JSON parser.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{");
        for (name, v) in self.scalars() {
            write_json_str(&mut out, name);
            write!(out, ":{v},").unwrap();
        }
        for (name, h) in self.summaries() {
            write_json_str(&mut out, name);
            write!(out, ":{{\"count\":{},\"sum\":{},\"mean\":", h.count, h.sum).unwrap();
            write_json_f64(&mut out, if h.count == 0 { 0.0 } else { h.mean() });
            for (label, _, q) in QUANTILES {
                write!(out, ",\"{label}\":").unwrap();
                write_json_opt_u64(&mut out, h.quantile(q));
            }
            out.push_str(",\"buckets\":{");
            let mut first = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    let (lo, _) = crate::hdr::hdr_bucket_bounds(i);
                    if !first {
                        out.push(',');
                    }
                    write!(out, "\"{lo}\":{c}").unwrap();
                    first = false;
                }
            }
            out.push_str("}},");
        }
        out.pop(); // trailing comma
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::{prometheus_text, validate};

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.record_max(10);
        g.record_max(7);
        assert_eq!(g.get(), 10);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn timing_guard_nests() {
        assert!(!timing_enabled());
        let a = TimingGuard::enable();
        {
            let _b = TimingGuard::enable();
            assert!(timing_enabled());
        }
        assert!(timing_enabled());
        drop(a);
        assert!(!timing_enabled());
    }

    /// The one registry test: whatever [`INSTRUMENTS`] declares is
    /// exported exactly once by each exporter under its declared type
    /// and help, and `reset()` clears exactly the workload rows. Adding
    /// an instrument needs no edit here.
    #[test]
    fn every_declared_instrument_is_exported_once_and_reset_follows_scope() {
        let reg = MetricsRegistry::default();
        reg.poke_all(7);
        let snap = reg.snapshot();
        let (text, json, prom) = (snap.to_text(), snap.to_json(), prometheus_text(&snap));
        let stats = validate(&prom).expect("registry exposition must validate");
        assert_eq!(stats.families, INSTRUMENTS.len());
        for i in INSTRUMENTS {
            let name = i.name;
            let lines = text.lines().filter(|l| l.split(' ').next() == Some(name));
            assert_eq!(lines.count(), 1, "{name} in to_text");
            assert_eq!(
                json.matches(&format!("\"{name}\":")).count(),
                1,
                "{name} in to_json"
            );
            let family = match i.kind {
                Kind::Counter => format!("cap_{name}_total"),
                Kind::Gauge | Kind::Summary => format!("cap_{name}"),
            };
            let header = format!(
                "# HELP {family} {}\n# TYPE {family} {}\n",
                i.help,
                i.kind.as_str()
            );
            assert_eq!(
                prom.matches(&header).count(),
                1,
                "{name} in prometheus_text"
            );
        }
        reg.reset();
        for (i, v) in reg.snapshot().values() {
            let left = match v {
                Value::Scalar(v) => v,
                Value::Summary(h) => h.sum,
            };
            let kept = if i.scope == Scope::Environment { 7 } else { 0 };
            assert_eq!(left, kept, "{} after reset", i.name);
        }
    }

    /// Format stability: the three exporters, byte for byte, on a fixed
    /// registry state. The expected files were written by the exporters
    /// as they stood before the instrument table existed.
    #[test]
    fn exporter_output_matches_golden_bytes() {
        let reg = MetricsRegistry::default();
        reg.forward_passes.add(3);
        for v in [900, 1200, 45_000] {
            reg.forward_latency_us.record(v);
        }
        reg.layer_time_us.record(17);
        reg.gemm_time_ns.add(123_456);
        reg.im2col_time_ns.add(7_890);
        reg.arena_bytes.record_max(1 << 20);
        for v in [4, 4, 1] {
            reg.batch_sizes.record(v);
        }
        reg.kernel_path.set(3);
        reg.precision_path.set(1);
        reg.int8_kernel.set(3);
        reg.f32_tile.set(3);
        reg.fused_layers.set(7);
        reg.dag_parallel_passes.add(2);
        reg.intra_op_splits.add(5);
        reg.serve_requests.add(10);
        reg.serve_admitted.add(8);
        reg.serve_shed.add(2);
        reg.serve_batches.add(3);
        reg.serve_queue_depth.record_max(6);
        reg.serve_latency_us.record(12_000); // serve_batch_occupancy stays empty
        let snap = reg.snapshot();
        assert_eq!(snap.to_text(), include_str!("../tests/golden/registry.txt"));
        assert_eq!(
            snap.to_json(),
            include_str!("../tests/golden/registry.json")
        );
        assert_eq!(
            prometheus_text(&snap),
            include_str!("../tests/golden/registry.prom")
        );
    }

    /// Doc drift: OBSERVABILITY.md names every instrument.
    #[test]
    fn every_instrument_is_documented() {
        let doc = include_str!("../../../OBSERVABILITY.md");
        for i in INSTRUMENTS {
            assert!(
                doc.contains(&format!("`{}`", i.name)),
                "OBSERVABILITY.md lacks `{}`",
                i.name
            );
        }
    }

    #[test]
    fn snapshot_reports_quantiles() {
        let reg = MetricsRegistry::default();
        for v in 1..=100u64 {
            reg.forward_latency_us.record(v * 10);
        }
        let snap = reg.snapshot();
        let (p50, p90, p95, p99) = snap.forward_latency_us.percentiles().unwrap();
        // True percentiles are 500/900/950/990 µs; estimates carry the
        // documented <= 1/32 relative bucket error.
        for (est, truth) in [(p50, 500u64), (p90, 900), (p95, 950), (p99, 990)] {
            assert!(
                est <= truth && (truth - est) as f64 <= (truth as f64 / 32.0).max(1.0),
                "estimate {est} for true {truth}"
            );
        }
        let text = snap.to_text();
        assert!(text.contains(&format!("p50 {p50}")), "{text}");
        assert!(text.contains(&format!("p99 {p99}")), "{text}");
        let json = snap.to_json();
        assert!(json.contains(&format!("\"p95\":{p95}")), "{json}");
        // Empty histograms export their quantiles as JSON null.
        assert!(json.contains("\"layer_time_us\":{\"count\":0,\"sum\":0,\"mean\":0,\"p50\":null"));
    }

    /// The satellite fix: a mid-run `reset` cannot leave a stale
    /// high-water mark behind — the gauge restarts from zero and the
    /// next `record_max` republishes only what is observed *after* the
    /// reset. Experiments that snapshot for a baseline therefore reset
    /// before their warm-up, so the captured mark covers exactly their
    /// own run.
    #[test]
    fn reset_then_record_max_republishes_current_high_water() {
        let reg = MetricsRegistry::default();
        reg.arena_bytes.record_max(1_000_000); // pre-run peak (stale)
        reg.reset();
        assert_eq!(reg.snapshot().arena_bytes, 0, "reset clears the mark");
        reg.arena_bytes.record_max(4096); // what this run actually uses
        assert_eq!(
            reg.snapshot().arena_bytes,
            4096,
            "post-reset mark reflects only post-reset observations"
        );
        // A smaller later observation does not lower it (still a max).
        reg.arena_bytes.record_max(1024);
        assert_eq!(reg.snapshot().arena_bytes, 4096);
    }

    #[test]
    fn kernel_path_names_decode() {
        assert_eq!(kernel_path_name(0), "unset");
        assert_eq!(kernel_path_name(1), "scalar");
        assert_eq!(kernel_path_name(2), "avx2");
        assert_eq!(kernel_path_name(3), "unknown");
        assert_eq!(kernel_path_name(99), "unknown");
    }

    #[test]
    fn int8_kernel_names_decode() {
        assert_eq!(int8_kernel_name(0), "unset");
        assert_eq!(int8_kernel_name(1), "scalar");
        assert_eq!(int8_kernel_name(2), "avx2");
        assert_eq!(int8_kernel_name(3), "vnni");
        assert_eq!(int8_kernel_name(99), "unknown");
    }

    #[test]
    fn f32_tile_names_decode() {
        assert_eq!(f32_tile_name(0), "unset");
        assert_eq!(f32_tile_name(1), "scalar");
        assert_eq!(f32_tile_name(2), "ymm");
        assert_eq!(f32_tile_name(3), "zmm");
        assert_eq!(f32_tile_name(99), "unknown");
    }

    #[test]
    fn precision_path_names_decode() {
        assert_eq!(precision_path_name(0), "unset");
        assert_eq!(precision_path_name(1), "f32");
        assert_eq!(precision_path_name(2), "int8");
        assert_eq!(precision_path_name(99), "unknown");
    }
}
