//! The CI perf-regression sentinel: run a fixed mini-Caffenet workload,
//! snapshot the metrics registry (structural counters + latency
//! quantiles), and compare against a checked-in baseline
//! (`BENCH_baseline.json` at the repository root).
//!
//! Two classes of metric, compared differently:
//!
//! * **strict** — deterministic structural counters (forward passes,
//!   batch observations, arena high-water). These must match the
//!   baseline exactly; any drift means the pipeline's *shape* changed
//!   (an extra pass, a grown arena) and the sentinel exits nonzero — a
//!   hard CI gate.
//! * **advisory** — wall-clock latency quantiles and rates. Shared CI
//!   runners make timing noisy, so these compare within a per-metric
//!   relative tolerance and violations are *report-only*: they flag a
//!   suspect; they never fail the build.
//!
//! The baseline file carries the kind and tolerance per metric, so the
//! comparison policy is versioned alongside the numbers it governs.
//! Regenerate with `repro --exp sentinel --write-baseline
//! BENCH_baseline.json` after an intentional pipeline change.
//!
//! The workload runs under a [`TimingGuard`] with the registry reset
//! **before** warm-up, so high-water gauges like `arena_bytes` cover
//! exactly this run (see [`cap_obs::Gauge::record_max`] on why the
//! order matters), and it reports into the global
//! [`FlightRecorder`](cap_obs::FlightRecorder) so a crash mid-sentinel
//! leaves a timeline behind.

use super::scaling_exp::{mini_caffenet, workload};
use cap_cnn::{run_batched, ParallelEngine};
use cap_obs::TimingGuard;
use serde::Value;
use std::fmt::Write;

/// Baseline file format identifier.
pub const SCHEMA: &str = "cap-sentinel-v1";

/// Sequential warm-up runs (arena growth, weight packing, page faults).
const WARM_RUNS: usize = 1;
/// Timed sequential runs feeding the latency histograms.
const TIMED_RUNS: usize = 3;
/// Parallel-engine runs (2 workers) exercising the concurrent paths.
const ENGINE_RUNS: usize = 2;
/// Engine worker count — fixed, so structural counts never depend on
/// the host's core count.
const ENGINE_WORKERS: usize = 2;
/// Images per chunk.
const BATCH: usize = 8;

/// How a metric is held against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Deterministic structural counter: must match exactly; a
    /// mismatch fails CI.
    Strict,
    /// Timing-derived: compared within `rel_tol`, report-only.
    Advisory,
}

impl MetricKind {
    fn tag(self) -> &'static str {
        match self {
            MetricKind::Strict => "strict",
            MetricKind::Advisory => "advisory",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "strict" => Some(MetricKind::Strict),
            "advisory" => Some(MetricKind::Advisory),
            _ => None,
        }
    }
}

/// One measured metric with its comparison policy.
#[derive(Debug, Clone)]
pub struct SentinelMetric {
    /// Stable metric name (baseline JSON key).
    pub name: &'static str,
    /// Measured value for this run.
    pub value: f64,
    /// Comparison class.
    pub kind: MetricKind,
    /// Relative tolerance (0.0 for strict metrics).
    pub rel_tol: f64,
}

/// The outcome of one sentinel workload run.
#[derive(Debug)]
pub struct SentinelRun {
    /// Every metric captured, in report order.
    pub metrics: Vec<SentinelMetric>,
    /// Human-readable run report (workload + metric table).
    pub report: String,
}

/// Result of holding a run against a baseline.
#[derive(Debug)]
pub struct Comparison {
    /// Human-readable comparison table with verdicts.
    pub report: String,
    /// Strict-metric mismatches (any > 0 must fail CI).
    pub strict_violations: usize,
    /// Advisory metrics outside tolerance (report-only).
    pub advisory_violations: usize,
}

/// Execute the fixed workload and capture the sentinel metrics.
///
/// Deterministic by construction: fixed model seed, fixed image set,
/// fixed batch/run/worker counts, and a registry reset before warm-up —
/// so every strict metric is a pure function of the pipeline's code.
pub fn run_workload() -> SentinelRun {
    let _timing = TimingGuard::enable();

    // Serve advisory segment FIRST, between two registry resets, so the
    // strict counters below cover exactly the offline workload and stay
    // byte-identical to the pre-serving baseline. The serve quantiles
    // are virtual-clock values — deterministic, but kept advisory so
    // serving-policy tuning shows up as drift in CI without gating it.
    cap_obs::metrics().reset();
    let serve = serve_segment();

    // Int8 fidelity probe, also between resets: the same workload under
    // both precisions, reduced to agreement/delta advisories. Kernel
    // parity makes the int8 logits host-independent, but the f32
    // reference differs slightly across dispatch paths (FMA), so these
    // stay advisory rather than strict.
    cap_obs::metrics().reset();
    let int8 = int8_segment();

    // Reset BEFORE warm-up: `arena_bytes` is a high-water mark that is
    // re-reported every pass — the captured numbers cover exactly this
    // run.
    cap_obs::metrics().reset();

    let net = mini_caffenet();
    let imgs = workload();
    let flight = cap_obs::flight::global();

    for _ in 0..WARM_RUNS + TIMED_RUNS {
        run_batched(&net, &imgs, BATCH).expect("sequential sentinel run");
    }
    let engine = ParallelEngine::new(ENGINE_WORKERS);
    for _ in 0..ENGINE_RUNS {
        engine
            .run_batched_traced(&net, &imgs, BATCH, flight)
            .expect("parallel sentinel run");
    }

    let snap = cap_obs::metrics().snapshot();
    let lat = &snap.forward_latency_us;
    let (p50, p90, p95, p99) = lat.percentiles().expect("timed runs recorded latency");

    let metrics = vec![
        // Structural: the pipeline's shape. Exact or bust.
        m(
            "forward_passes",
            snap.forward_passes as f64,
            MetricKind::Strict,
            0.0,
        ),
        m(
            "batch_observations",
            snap.batch_sizes.count as f64,
            MetricKind::Strict,
            0.0,
        ),
        m(
            "batch_p50",
            snap.batch_sizes.quantile(0.5).unwrap_or(0) as f64,
            MetricKind::Strict,
            0.0,
        ),
        m(
            "arena_bytes",
            snap.arena_bytes as f64,
            MetricKind::Strict,
            0.0,
        ),
        // Timing-derived: noisy on shared runners, advisory only.
        m(
            "forward_latency_p50_us",
            p50 as f64,
            MetricKind::Advisory,
            0.50,
        ),
        m(
            "forward_latency_p90_us",
            p90 as f64,
            MetricKind::Advisory,
            0.50,
        ),
        m(
            "forward_latency_p95_us",
            p95 as f64,
            MetricKind::Advisory,
            0.50,
        ),
        m(
            "forward_latency_p99_us",
            p99 as f64,
            MetricKind::Advisory,
            0.75,
        ),
        m(
            "forward_latency_mean_us",
            lat.mean(),
            MetricKind::Advisory,
            0.50,
        ),
        m(
            "layer_time_p99_us",
            snap.layer_time_us.quantile(0.99).unwrap_or(0) as f64,
            MetricKind::Advisory,
            0.75,
        ),
        // Serving quantiles from the fixed serve segment. Virtual-clock
        // values (reproducible to the microsecond), held advisory with
        // a tight tolerance: drift flags a serving-policy change
        // without hard-gating it.
        m(
            "serve_latency_p50_us",
            serve.lat_p50 as f64,
            MetricKind::Advisory,
            0.10,
        ),
        m(
            "serve_latency_p99_us",
            serve.lat_p99 as f64,
            MetricKind::Advisory,
            0.10,
        ),
        m(
            "serve_batch_occupancy_mean",
            serve.occupancy_mean,
            MetricKind::Advisory,
            0.10,
        ),
        m(
            "serve_completed",
            serve.completed as f64,
            MetricKind::Advisory,
            0.10,
        ),
        // Int8 fidelity advisories from the precision probe: drift here
        // means the quantized path's numerics moved relative to f32.
        m(
            "int8_top1_agreement",
            int8.top1_agreement,
            MetricKind::Advisory,
            0.10,
        ),
        m(
            "int8_logit_rel_delta",
            int8.logit_rel_delta,
            MetricKind::Advisory,
            0.75,
        ),
    ];

    let mut report = String::new();
    writeln!(report, "# Perf-regression sentinel").unwrap();
    writeln!(
        report,
        "\nworkload: mini-Caffenet 32 images batch {BATCH}; {} sequential runs \
         ({WARM_RUNS} warm + {TIMED_RUNS} timed), {ENGINE_RUNS} runs on a \
         {ENGINE_WORKERS}-worker ParallelEngine; plus isolated serve \
         (1 tenant, 0.1 virtual s) and int8-fidelity segments for the \
         serve_* / int8_* advisories",
        WARM_RUNS + TIMED_RUNS
    )
    .unwrap();
    // Report-only context, never a strict metric: the selected kernel
    // backend is host-dependent (AVX2 vs scalar), so baselining it
    // would make BENCH_baseline.json unportable across runners. The
    // strict counters above are allocation/shape metrics and identical
    // on every backend — see crates/tensor/tests/kernel_parity.rs.
    // The integer kernel beside it (from the int8-fidelity segment):
    // it, not the backend, sets the speed of every int8 row.
    writeln!(
        report,
        "kernel backend: {}, int8 kernel: {}\n",
        cap_obs::kernel_path_name(snap.kernel_path),
        cap_obs::int8_kernel_name(snap.int8_kernel)
    )
    .unwrap();
    writeln!(
        report,
        "{:<26} {:>16} {:>9} {:>8}",
        "metric", "value", "kind", "rel_tol"
    )
    .unwrap();
    for sm in &metrics {
        writeln!(
            report,
            "{:<26} {:>16.3} {:>9} {:>8.2}",
            sm.name,
            sm.value,
            sm.kind.tag(),
            sm.rel_tol
        )
        .unwrap();
    }
    writeln!(
        report,
        "\nmetrics snapshot (full registry):\n{}",
        snap.to_text()
    )
    .unwrap();

    SentinelRun { metrics, report }
}

/// Serving quantiles captured by [`serve_segment`].
struct ServeSegment {
    lat_p50: u64,
    lat_p99: u64,
    occupancy_mean: f64,
    completed: u64,
}

/// A fixed, tiny serve run feeding the `serve_*` advisory metrics: one
/// demo tenant, seeded Poisson arrivals, 0.1 virtual seconds. All
/// captured values come off the router's virtual clock, so this
/// segment is exactly reproducible; it runs between registry resets so
/// the offline strict counters never see it.
fn serve_segment() -> ServeSegment {
    use cap_serve::{fleet, generate_trace, ArrivalPattern, Router, RouterConfig};

    let mut router = Router::new(
        RouterConfig {
            workers: 2,
            ..RouterConfig::default()
        },
        vec![fleet::pruned_tenant("sentinel", 1, 0.0)],
    );
    let trace = generate_trace(4242, &[ArrivalPattern::Poisson { rate_per_s: 600.0 }], 0.1);
    let report = router
        .serve_trace(&trace, &[fleet::demo_images(4)])
        .expect("sentinel serve segment");
    let snap = cap_obs::metrics().snapshot();
    ServeSegment {
        lat_p50: snap.serve_latency_us.quantile(0.50).unwrap_or(0),
        lat_p99: snap.serve_latency_us.quantile(0.99).unwrap_or(0),
        occupancy_mean: snap.serve_batch_occupancy.mean(),
        completed: report.completed,
    }
}

/// Int8 fidelity advisories captured by [`int8_segment`].
struct Int8Segment {
    /// Fraction of workload images whose argmax class agrees between
    /// the f32 and int8 runs.
    top1_agreement: f64,
    /// Max absolute logit delta, relative to the largest f32 logit
    /// magnitude.
    logit_rel_delta: f64,
}

/// Run the sentinel workload once under each precision
/// (`cap_tensor::precision::force`) and reduce the two logit sets to
/// agreement/delta advisories. Uncalibrated, so activation scales come
/// from the per-batch max-abs fallback — deterministic for the fixed
/// image set.
fn int8_segment() -> Int8Segment {
    use cap_tensor::{precision, Precision};

    let net = mini_caffenet();
    let imgs = workload();
    precision::force(Some(Precision::F32));
    let (ref_out, _) = run_batched(&net, &imgs, BATCH).expect("f32 fidelity probe");
    precision::force(Some(Precision::Int8));
    let (q_out, _) = run_batched(&net, &imgs, BATCH).expect("int8 fidelity probe");
    precision::force(None);

    let argmax = |row: &[f32]| {
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
    };
    let mut agree = 0usize;
    let mut max_delta = 0f32;
    let mut max_mag = 0f32;
    for (r, q) in ref_out.iter().zip(&q_out) {
        if argmax(r) == argmax(q) {
            agree += 1;
        }
        for (&rv, &qv) in r.iter().zip(q) {
            max_delta = max_delta.max((rv - qv).abs());
            max_mag = max_mag.max(rv.abs());
        }
    }
    Int8Segment {
        top1_agreement: agree as f64 / ref_out.len().max(1) as f64,
        logit_rel_delta: (max_delta / max_mag.max(1e-12)) as f64,
    }
}

fn m(name: &'static str, value: f64, kind: MetricKind, rel_tol: f64) -> SentinelMetric {
    SentinelMetric {
        name,
        value,
        kind,
        rel_tol,
    }
}

impl SentinelRun {
    /// Serialize this run as a baseline file (`--write-baseline`).
    pub fn baseline_json(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"schema\": \"{SCHEMA}\",").unwrap();
        writeln!(
            out,
            "  \"workload\": \"mini-Caffenet 32 images batch {BATCH}, {} sequential + {} x \
             {}-worker engine runs\",",
            WARM_RUNS + TIMED_RUNS,
            ENGINE_RUNS,
            ENGINE_WORKERS
        )
        .unwrap();
        writeln!(out, "  \"metrics\": {{").unwrap();
        for (i, sm) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            writeln!(
                out,
                "    \"{}\": {{ \"value\": {}, \"kind\": \"{}\", \"rel_tol\": {} }}{comma}",
                sm.name,
                fmt_f64(sm.value),
                sm.kind.tag(),
                fmt_f64(sm.rel_tol)
            )
            .unwrap();
        }
        writeln!(out, "  }}").unwrap();
        writeln!(out, "}}").unwrap();
        out
    }

    /// Hold this run against a baseline file's contents.
    ///
    /// The baseline's `kind`/`rel_tol` govern the comparison (policy is
    /// versioned with the numbers). Baseline metrics absent from the
    /// current run count as strict violations — a silently vanished
    /// counter is a pipeline-shape change too. Returns `Err` only when
    /// the baseline itself is unreadable (malformed JSON, wrong
    /// schema) — the `exit 2` path, distinct from a regression.
    pub fn compare(&self, baseline_json: &str) -> Result<Comparison, String> {
        let root: Value = serde_json::from_str(baseline_json)
            .map_err(|e| format!("baseline is not valid JSON: {e:?}"))?;
        let schema = str_field(&root, "schema")?;
        if schema != SCHEMA {
            return Err(format!("baseline schema {schema:?}, expected {SCHEMA:?}"));
        }
        let Value::Map(entries) = serde::map_field(&root, "metrics")
            .map_err(|e| format!("baseline missing \"metrics\": {e:?}"))?
        else {
            return Err("baseline \"metrics\" is not an object".into());
        };

        let mut report = String::new();
        let mut strict_violations = 0usize;
        let mut advisory_violations = 0usize;
        writeln!(
            report,
            "{:<26} {:>14} {:>14} {:>9} {:>9} {:>10}",
            "metric", "current", "baseline", "delta%", "kind", "verdict"
        )
        .unwrap();
        for (name, entry) in entries {
            let base_value = f64_field(entry, "value")
                .ok_or_else(|| format!("baseline metric {name:?} has no numeric \"value\""))?;
            let kind = MetricKind::parse(&str_field(entry, "kind").unwrap_or_default())
                .ok_or_else(|| format!("baseline metric {name:?} has an unknown \"kind\""))?;
            let rel_tol = f64_field(entry, "rel_tol").unwrap_or(0.0);

            let Some(cur) = self.metrics.iter().find(|sm| sm.name == *name) else {
                strict_violations += 1;
                writeln!(
                    report,
                    "{:<26} {:>14} {:>14.3} {:>9} {:>9} {:>10}",
                    name,
                    "MISSING",
                    base_value,
                    "-",
                    kind.tag(),
                    "VIOLATION"
                )
                .unwrap();
                continue;
            };

            let denom = base_value.abs().max(1e-12);
            let delta = (cur.value - base_value) / denom;
            let within = match kind {
                // Strict counters are integers in disguise: exact up to
                // f64 round-trip noise.
                MetricKind::Strict => delta.abs() <= 1e-9,
                MetricKind::Advisory => delta.abs() <= rel_tol,
            };
            let verdict = if within {
                "ok"
            } else {
                match kind {
                    MetricKind::Strict => {
                        strict_violations += 1;
                        "VIOLATION"
                    }
                    MetricKind::Advisory => {
                        advisory_violations += 1;
                        "suspect"
                    }
                }
            };
            writeln!(
                report,
                "{:<26} {:>14.3} {:>14.3} {:>+8.1}% {:>9} {:>10}",
                name,
                cur.value,
                base_value,
                delta * 100.0,
                kind.tag(),
                verdict
            )
            .unwrap();
        }
        writeln!(
            report,
            "\nstrict violations: {strict_violations} (gate), advisory out-of-tolerance: \
             {advisory_violations} (report-only)"
        )
        .unwrap();
        Ok(Comparison {
            report,
            strict_violations,
            advisory_violations,
        })
    }
}

fn str_field(v: &Value, name: &str) -> Result<String, String> {
    match serde::map_field(v, name) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        Ok(_) => Err(format!("field {name:?} is not a string")),
        Err(e) => Err(format!("missing field {name:?}: {e:?}")),
    }
}

fn f64_field(v: &Value, name: &str) -> Option<f64> {
    match serde::map_field(v, name).ok()? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// Render an f64 as JSON: integers without a fraction, everything else
/// with enough digits to round-trip.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// The `sentinel` registry entry: run the workload and report.
/// (Baseline comparison and exit codes live in the `repro` binary,
/// which owns the process boundary.)
pub fn sentinel() -> String {
    run_workload().report
}

#[cfg(test)]
mod tests {
    use super::*;

    // Comparison-policy tests run on a synthetic run: they exercise
    // pure logic and stay independent of the process-global metrics
    // registry (which sibling tests mutate concurrently). The real
    // workload's determinism and the end-to-end gate live in
    // `crates/bench/tests/sentinel_gate.rs`, serialized in their own
    // test process.
    fn fake_run() -> SentinelRun {
        SentinelRun {
            metrics: vec![
                m("forward_passes", 24.0, MetricKind::Strict, 0.0),
                m("arena_bytes", 1_048_576.0, MetricKind::Strict, 0.0),
                m("forward_latency_p50_us", 1500.0, MetricKind::Advisory, 0.50),
                m("int8_logit_rel_delta", 0.01793, MetricKind::Advisory, 0.75),
            ],
            report: String::new(),
        }
    }

    #[test]
    fn run_against_its_own_baseline_is_clean() {
        let run = fake_run();
        let cmp = run.compare(&run.baseline_json()).unwrap();
        assert_eq!(cmp.strict_violations, 0, "{}", cmp.report);
        assert_eq!(cmp.advisory_violations, 0, "{}", cmp.report);
    }

    /// The negative test: doctor a strict metric in the baseline and
    /// the sentinel must flag it (this is what makes CI exit nonzero).
    #[test]
    fn doctored_strict_baseline_is_a_violation() {
        let run = fake_run();
        let doctored = run
            .baseline_json()
            .replace("\"value\": 24", "\"value\": 31");
        let cmp = run.compare(&doctored).unwrap();
        assert_eq!(cmp.strict_violations, 1, "{}", cmp.report);
        assert!(cmp.report.contains("VIOLATION"), "{}", cmp.report);

        // A baseline metric the run no longer produces is a violation
        // too: deleting a counter is a shape change.
        let ghost = run
            .baseline_json()
            .replace("\"forward_passes\"", "\"forward_passes_renamed\"");
        let cmp = run.compare(&ghost).unwrap();
        assert_eq!(cmp.strict_violations, 1, "{}", cmp.report);
        assert!(cmp.report.contains("MISSING"), "{}", cmp.report);
    }

    /// Advisory drift never counts toward the gate.
    #[test]
    fn advisory_drift_is_report_only() {
        let run = fake_run();
        let doctored = run
            .baseline_json()
            .replace("\"value\": 1500", "\"value\": 150000");
        let cmp = run.compare(&doctored).unwrap();
        assert_eq!(cmp.strict_violations, 0, "{}", cmp.report);
        assert_eq!(cmp.advisory_violations, 1, "{}", cmp.report);
        assert!(cmp.report.contains("suspect"), "{}", cmp.report);
    }

    /// Drift *within* an advisory tolerance is quietly ok.
    #[test]
    fn advisory_within_tolerance_passes() {
        let run = fake_run();
        // p50 baseline 10% above the measured 1500: inside rel_tol 0.5.
        let doctored = run
            .baseline_json()
            .replace("\"value\": 1500", "\"value\": 1650");
        let cmp = run.compare(&doctored).unwrap();
        assert_eq!(cmp.advisory_violations, 0, "{}", cmp.report);
    }

    /// Unreadable baselines are a distinct failure (exit 2 in repro),
    /// not a regression verdict.
    #[test]
    fn malformed_baseline_is_an_error_not_a_verdict() {
        let run = fake_run();
        assert!(run.compare("not json at all").is_err());
        assert!(run
            .compare("{\"schema\":\"cap-sentinel-v0\",\"metrics\":{}}")
            .is_err());
        assert!(run.compare("{\"metrics\":{}}").is_err());
    }

    #[test]
    fn baseline_json_parses_and_round_trips_policy() {
        let run = fake_run();
        let json = run.baseline_json();
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(str_field(&v, "schema").unwrap(), SCHEMA);
        let metrics = serde::map_field(&v, "metrics").unwrap();
        for sm in &run.metrics {
            let entry = serde::map_field(metrics, sm.name).unwrap();
            assert_eq!(
                str_field(entry, "kind").unwrap(),
                sm.kind.tag(),
                "{}",
                sm.name
            );
            let val = f64_field(entry, "value").unwrap();
            assert!((val - sm.value).abs() <= 1e-6 * sm.value.abs().max(1.0));
        }
    }
}
