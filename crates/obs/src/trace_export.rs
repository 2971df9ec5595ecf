//! Chrome `trace_event` export: turn collected spans into a timeline
//! file Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` can
//! open.
//!
//! Any `Vec<SpanRecord>` works — a [`CollectingTracer`]'s take, say —
//! because [`SpanRecord`] carries everything a timeline needs: a `start` offset
//! on the tracer's shared epoch and the recording thread's `tid`.
//! Each span becomes one complete (`"ph":"X"`) event; events sharing a
//! `tid` land on the same track, where the viewer nests them by time
//! containment — so `Layer` spans stack under their `Forward` span,
//! and each [`ParallelEngine`](https://docs.rs/cap-cnn) worker gets its
//! own track (its own thread, hence its own `tid`) headed by its
//! `Worker` span. Thread-name metadata events label worker tracks
//! `worker-<index>`.
//!
//! [`CollectingTracer`]: crate::CollectingTracer
//!
//! Produce a file with the wired-in consumer:
//!
//! ```sh
//! cargo run --release -p cap-bench --bin repro -- --exp profile --trace-out trace.json
//! ```
//!
//! then load `trace.json` in Perfetto ("Open trace file"). The
//! round-trip (span count, names, per-tid nesting) is asserted by
//! `crates/bench/tests/trace_roundtrip.rs`.

use crate::jsonutil::write_json_str;
use crate::span::{SpanRecord, SpanScope};
use std::fmt::Write;

/// Render spans as a Chrome `trace_event` JSON object
/// (`{"traceEvents": [...]}`), one `"ph":"X"` complete event per span
/// plus one `thread_name` metadata event per distinct `tid`.
///
/// Timestamps (`ts`) and durations (`dur`) are microseconds, as the
/// format requires; `ts` is the span's [`SpanRecord::start`] offset, so
/// spans from one tracer share a coherent timeline. The span's scope
/// tag becomes the event category (`cat`), and kind/shape/index ride
/// along under `args`.
///
/// ```
/// use cap_obs::{trace_export::chrome_trace_json, CollectingTracer, SpanInfo, SpanScope, Tracer};
/// use std::time::Duration;
///
/// let t = CollectingTracer::new();
/// t.span_exit(&SpanInfo::new(SpanScope::Layer, "conv1"), Duration::from_micros(250));
/// let json = chrome_trace_json(&t.take_spans());
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"name\":\"conv1\""));
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;

    // Track labels, by decreasing precedence: a tid that carried a
    // `Worker` span is an engine worker ("worker-<index>"); one that
    // carried `ServeCompute` spans is a router worker slot
    // ("serve-worker-<index>"); one that carried request-lifecycle
    // spans is a tenant track ("tenant-<name>"); anything else is a
    // plain thread.
    #[derive(Clone, PartialEq)]
    enum TrackLabel {
        Plain,
        Tenant(String),
        ServeWorker(usize),
        Worker(usize),
    }
    fn rank(l: &TrackLabel) -> u8 {
        match l {
            TrackLabel::Plain => 0,
            TrackLabel::Tenant(_) => 1,
            TrackLabel::ServeWorker(_) => 2,
            TrackLabel::Worker(_) => 3,
        }
    }
    let mut tids: Vec<(u64, TrackLabel)> = Vec::new();
    for s in spans {
        let candidate = match s.scope {
            SpanScope::Worker => TrackLabel::Worker(s.index),
            SpanScope::ServeCompute => TrackLabel::ServeWorker(s.index),
            SpanScope::Request | SpanScope::QueueWait | SpanScope::BatchAssembly => {
                TrackLabel::Tenant(s.name.clone())
            }
            _ => TrackLabel::Plain,
        };
        match tids.iter_mut().find(|(t, _)| *t == s.tid) {
            Some((_, label)) => {
                if rank(&candidate) > rank(label) {
                    *label = candidate;
                }
            }
            None => tids.push((s.tid, candidate)),
        }
    }
    tids.sort_by_key(|&(t, _)| t);
    for (tid, track) in &tids {
        if !first {
            out.push(',');
        }
        first = false;
        let label = match track {
            TrackLabel::Worker(w) => format!("worker-{w}"),
            TrackLabel::ServeWorker(w) => format!("serve-worker-{w}"),
            TrackLabel::Tenant(name) => format!("tenant-{name}"),
            TrackLabel::Plain => format!("thread-{tid}"),
        };
        write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        )
        .unwrap();
        write_json_str(&mut out, &label);
        out.push_str("}}");
    }

    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":");
        write_json_str(&mut out, &s.name);
        out.push_str(",\"cat\":");
        write_json_str(&mut out, s.scope.tag());
        let ts = s.start.as_secs_f64() * 1e6;
        let dur = s.elapsed.as_secs_f64() * 1e6;
        write!(
            out,
            ",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{}",
            s.tid
        )
        .unwrap();
        out.push_str(",\"args\":{\"kind\":");
        write_json_str(&mut out, &s.kind);
        let [n, c, h, w] = s.shape;
        write!(
            out,
            ",\"shape\":[{n},{c},{h},{w}],\"index\":{}}}}}",
            s.index
        )
        .unwrap();
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanInfo, Tracer};
    use crate::CollectingTracer;
    use std::time::Duration;

    fn record(scope: SpanScope, name: &str, tid: u64, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            scope,
            name: name.into(),
            kind: String::new(),
            shape: [0; 4],
            index: 3,
            elapsed: Duration::from_micros(dur_us),
            start: Duration::from_micros(start_us),
            tid,
        }
    }

    #[test]
    fn one_event_per_span_plus_thread_metadata() {
        let spans = vec![
            record(SpanScope::Forward, "net", 1, 0, 100),
            record(SpanScope::Layer, "conv1", 1, 0, 60),
            record(SpanScope::Worker, "worker", 2, 0, 100),
        ];
        let json = chrome_trace_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2, "{json}");
        assert!(json.contains("\"name\":\"worker-3\""), "{json}");
        assert!(json.contains("\"name\":\"thread-1\""), "{json}");
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn serve_spans_label_tenant_and_serve_worker_tracks() {
        let spans = vec![
            record(SpanScope::Request, "pruned-60", 1001, 0, 900),
            record(SpanScope::QueueWait, "pruned-60", 1001, 0, 400),
            record(SpanScope::ServeCompute, "pruned-60", 2000, 400, 500),
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"tenant-pruned-60\""), "{json}");
        assert!(json.contains("\"name\":\"serve-worker-3\""), "{json}");
        assert!(!json.contains("thread-1001"), "{json}");
    }

    #[test]
    fn timestamps_are_microseconds_from_start_offset() {
        let json = chrome_trace_json(&[record(SpanScope::Layer, "l", 1, 1500, 250)]);
        assert!(json.contains("\"ts\":1500.000"), "{json}");
        assert!(json.contains("\"dur\":250.000"), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let json = chrome_trace_json(&[record(SpanScope::Layer, "we\"ird\\name", 1, 0, 1)]);
        assert!(json.contains("\"we\\\"ird\\\\name\""), "{json}");
    }

    #[test]
    fn empty_span_list_is_valid_empty_trace() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn collecting_tracer_spans_export_directly() {
        let t = CollectingTracer::new();
        t.span_exit(
            &SpanInfo::new(SpanScope::Layer, "conv1"),
            Duration::from_micros(10),
        );
        let json = chrome_trace_json(&t.take_spans());
        assert!(json.contains("\"cat\":\"layer\""));
    }
}
