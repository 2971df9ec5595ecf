//! End-to-end sentinel gate tests on the real workload. These run in
//! their own test process, serialized by a mutex, because the sentinel
//! reads the process-global metrics registry — a concurrent workload
//! would corrupt the strict counters it asserts on.

use cap_bench::experiments::sentinel::{run_workload, MetricKind};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Two back-to-back runs agree on every strict metric — the
/// determinism the hard CI gate stands on — and a run held against its
/// own baseline is clean.
#[test]
fn strict_metrics_are_deterministic_across_runs() {
    let _guard = SERIAL.lock().unwrap();
    let a = run_workload();
    let b = run_workload();
    assert_eq!(a.metrics.len(), b.metrics.len());
    for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
        assert_eq!(ma.name, mb.name);
        if ma.kind == MetricKind::Strict {
            assert_eq!(
                ma.value, mb.value,
                "strict metric {} drifted between identical runs",
                ma.name
            );
        }
    }
    let cmp = b.compare(&a.baseline_json()).unwrap();
    assert_eq!(cmp.strict_violations, 0, "{}", cmp.report);
}

/// The real workload produces sensible numbers: the expected pass
/// count, all-8 batches, non-empty latency quantiles.
#[test]
fn workload_metrics_are_plausible() {
    let _guard = SERIAL.lock().unwrap();
    let run = run_workload();
    let get = |name: &str| {
        run.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
    };
    // 4 sequential runs + 2 engine runs, 4 chunks each (32 imgs / 8).
    assert_eq!(get("forward_passes"), 24.0);
    assert_eq!(get("batch_p50"), 8.0);
    assert!(get("arena_bytes") > 0.0);
    assert!(get("forward_latency_p50_us") > 0.0);
    assert!(get("forward_latency_p99_us") >= get("forward_latency_p50_us"));
    assert!(run.report.contains("sentinel"));
}
