//! Every hand-rolled JSON exporter in the observability stack must
//! emit output a real JSON parser accepts — including the hostile
//! cases (quotes and backslashes in names, control characters, empty
//! inputs, non-finite means).

use cap_obs::{
    chrome_trace_json, CollectingTracer, MetricsRegistry, ProfileReport, SpanInfo, SpanScope,
    Tracer,
};
use serde::Value;
use std::time::Duration;

fn assert_parses(json: &str, what: &str) -> Value {
    match serde_json::from_str::<Value>(json) {
        Ok(v) => v,
        Err(e) => panic!("{what} is not valid JSON: {e:?}\n{json}"),
    }
}

#[test]
fn metrics_snapshot_json_is_valid_empty_and_populated() {
    let reg = MetricsRegistry::default();
    // Empty registry: all quantiles null, means zero.
    let v = assert_parses(&reg.snapshot().to_json(), "empty MetricsSnapshot");
    let lat = serde::map_field(&v, "forward_latency_us").unwrap();
    assert!(matches!(serde::map_field(lat, "p50").unwrap(), Value::Null));

    reg.forward_passes.add(2);
    reg.forward_latency_us.record(777);
    reg.forward_latency_us.record(12_345_678);
    reg.batch_sizes.record(0); // zero bucket
    reg.arena_bytes.record_max(u64::MAX / 2); // huge gauge
    let v = assert_parses(&reg.snapshot().to_json(), "populated MetricsSnapshot");
    let lat = serde::map_field(&v, "forward_latency_us").unwrap();
    match serde::map_field(lat, "count").unwrap() {
        Value::UInt(2) | Value::Int(2) => {}
        other => panic!("count should be 2, got {other:?}"),
    }
    assert!(!matches!(
        serde::map_field(lat, "p99").unwrap(),
        Value::Null
    ));
}

#[test]
fn profile_report_json_is_valid_with_hostile_names() {
    let t = CollectingTracer::new();
    let mut info = SpanInfo::new(SpanScope::Layer, "conv\"1\\weird");
    info.kind = "conv";
    t.span_exit(&info, Duration::from_micros(100));
    let report = ProfileReport::from_spans("label \"quoted\"", &t.take_spans());
    let v = assert_parses(&report.to_json(), "ProfileReport");
    match serde::map_field(&v, "label").unwrap() {
        Value::Str(s) => assert_eq!(s, "label \"quoted\""),
        other => panic!("label should be a string, got {other:?}"),
    }
}

#[test]
fn chrome_trace_json_is_valid_with_control_chars() {
    let t = CollectingTracer::new();
    t.span_exit(
        &SpanInfo::new(SpanScope::Layer, "tab\there\nnewline"),
        Duration::from_micros(10),
    );
    let json = chrome_trace_json(&t.take_spans());
    let v = assert_parses(&json, "chrome trace");
    let Value::Seq(events) = serde::map_field(&v, "traceEvents").unwrap() else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty());

    // Empty trace parses too.
    assert_parses(&chrome_trace_json(&[]), "empty chrome trace");
}
