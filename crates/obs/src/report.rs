//! Per-layer profile aggregation: turn a pile of [`SpanRecord`]s into
//! the table a human (or a latency model like PROFET's) wants — layer,
//! kind, calls, total/mean time, share of the pass — plus text and JSON
//! exporters and a side-by-side comparison for pruning levels.

use crate::span::{SpanRecord, SpanScope};
use std::collections::HashMap;
use std::time::Duration;

/// Aggregated time for one layer across all collected passes.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer name.
    pub name: String,
    /// Layer kind tag (`conv`, `fc`, ...).
    pub kind: String,
    /// Output NCHW shape observed for this layer.
    pub shape: [usize; 4],
    /// Number of spans (forward passes) aggregated.
    pub calls: u64,
    /// Total time across all calls.
    pub total: Duration,
    /// Whether this row is a fused step (its kind tag carries a
    /// `+relu` suffix — the executor absorbed the following ReLU into
    /// this layer's kernel epilogue).
    pub fused: bool,
    /// Whether this row executed on the quantized int8 path: the
    /// process precision resolved to int8 at report-build time *and*
    /// the row is a weighted (conv/fc) layer — pooling, softmax and the
    /// other shape/activation layers stay f32 even under int8.
    pub quantized: bool,
}

impl LayerRow {
    /// Mean time per call.
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            Duration::ZERO
        } else {
            self.total / self.calls as u32
        }
    }
}

/// A per-layer time table built from tracer spans, comparable across
/// pruning levels (same layer names, different times).
///
/// ```
/// use cap_obs::{ProfileReport, SpanInfo, SpanScope, Tracer, CollectingTracer};
/// use std::time::Duration;
///
/// let t = CollectingTracer::new();
/// let mut conv = SpanInfo::new(SpanScope::Layer, "conv1");
/// conv.kind = "conv";
/// t.span_exit(&conv, Duration::from_micros(300));
/// t.span_exit(&SpanInfo::new(SpanScope::Layer, "relu1"), Duration::from_micros(100));
///
/// let report = ProfileReport::from_spans("demo", &t.take_spans());
/// assert_eq!(report.layers().len(), 2);
/// assert_eq!(report.layers()[0].name, "conv1");
/// assert!((report.share("conv1").unwrap() - 0.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileReport {
    label: String,
    layers: Vec<LayerRow>,
    /// Microkernel backend name captured from the `kernel_path` metrics
    /// gauge at build time — which SIMD path produced these numbers —
    /// with the f32 GEMM tile from the `f32_tile` gauge for `avx2`:
    /// `avx2 (zmm)` or `avx2 (ymm)`, since the tile sets the conv rate.
    kernel: &'static str,
    /// Numeric precision name captured from the `precision_path`
    /// metrics gauge at build time (`"unset"` when no weighted layer
    /// has resolved the precision knob yet); for int8, followed by the
    /// integer kernel from the `int8_kernel` gauge — `int8 (vnni)` —
    /// since that, not the precision, sets the speed of an int8 row.
    precision: String,
}

/// The `kernel_path` gauge's name, followed for `avx2` by the f32 tile
/// the `f32_tile` gauge names (`avx2 (zmm)`).
fn kernel_label(path: u64, tile: u64) -> &'static str {
    use crate::metrics::{f32_tile_name, kernel_path_name};
    match (kernel_path_name(path), f32_tile_name(tile)) {
        ("avx2", "zmm") => "avx2 (zmm)",
        ("avx2", "ymm") => "avx2 (ymm)",
        (name, _) => name,
    }
}

impl ProfileReport {
    /// Aggregate [`SpanScope::Layer`] spans by layer name, preserving
    /// first-seen (execution) order. Non-layer spans are ignored.
    ///
    /// The report also captures the current `kernel_path` gauge, so the
    /// rendered table and JSON record which microkernel backend
    /// (`scalar` / `avx2 (zmm)` / `avx2 (ymm)`) the profiled run
    /// dispatched to.
    pub fn from_spans(label: impl Into<String>, spans: &[SpanRecord]) -> Self {
        let metrics = crate::metrics();
        let precision = crate::metrics::precision_path_name(metrics.precision_path.get());
        let int8 = precision == "int8";
        let precision = if int8 {
            let kernel = crate::metrics::int8_kernel_name(metrics.int8_kernel.get());
            format!("{precision} ({kernel})")
        } else {
            precision.to_string()
        };
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut layers: Vec<LayerRow> = Vec::new();
        for s in spans.iter().filter(|s| s.scope == SpanScope::Layer) {
            match index.get(s.name.as_str()) {
                Some(&i) => {
                    layers[i].calls += 1;
                    layers[i].total += s.elapsed;
                }
                None => {
                    index.insert(s.name.as_str(), layers.len());
                    layers.push(LayerRow {
                        name: s.name.clone(),
                        kind: s.kind.clone(),
                        shape: s.shape,
                        calls: 1,
                        total: s.elapsed,
                        fused: s.kind.contains("+relu"),
                        quantized: int8 && (s.kind.starts_with("conv") || s.kind.starts_with("fc")),
                    });
                }
            }
        }
        Self {
            label: label.into(),
            layers,
            kernel: kernel_label(metrics.kernel_path.get(), metrics.f32_tile.get()),
            precision,
        }
    }

    /// Report label (e.g. `"caffenet @ 60% pruning"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Microkernel backend the profiled process dispatched to
    /// (`"unset"` if no kernel had run when the report was built), with
    /// the f32 GEMM tile for `avx2`: `avx2 (zmm)`.
    pub fn kernel(&self) -> &'static str {
        self.kernel
    }

    /// Numeric precision the profiled process resolved for weighted
    /// layers (`"unset"` if the knob had not resolved at build time),
    /// with the integer kernel for int8: `int8 (vnni)`.
    pub fn precision(&self) -> &str {
        &self.precision
    }

    /// Aggregated rows in execution order.
    pub fn layers(&self) -> &[LayerRow] {
        &self.layers
    }

    /// Total time across all layers.
    pub fn total_time(&self) -> Duration {
        self.layers.iter().map(|l| l.total).sum()
    }

    /// Fraction of total time spent in layer `name`, if present.
    pub fn share(&self, name: &str) -> Option<f64> {
        let total = self.total_time().as_secs_f64();
        let row = self.layers.iter().find(|l| l.name == name)?;
        Some(if total > 0.0 {
            row.total.as_secs_f64() / total
        } else {
            0.0
        })
    }

    /// Render as an aligned text table: name, kind, shape, calls,
    /// mean ms/call and share of total.
    pub fn to_text_table(&self) -> String {
        use std::fmt::Write;
        let total = self.total_time().as_secs_f64();
        let mut out = String::new();
        writeln!(
            out,
            "# profile: {} (kernel: {}, precision: {})",
            self.label, self.kernel, self.precision
        )
        .unwrap();
        writeln!(
            out,
            "{:<12} {:<6} {:>18} {:>6} {:>12} {:>7}",
            "layer", "kind", "out shape", "calls", "mean ms", "share"
        )
        .unwrap();
        for l in &self.layers {
            let share = if total > 0.0 {
                l.total.as_secs_f64() / total
            } else {
                0.0
            };
            let [n, c, h, w] = l.shape;
            writeln!(
                out,
                "{:<12} {:<6} {:>18} {:>6} {:>12.3} {:>6.1}%",
                l.name,
                l.kind,
                format!("{n}x{c}x{h}x{w}"),
                l.calls,
                l.mean().as_secs_f64() * 1000.0,
                share * 100.0
            )
            .unwrap();
        }
        writeln!(
            out,
            "{:<12} {:<6} {:>18} {:>6} {:>12.3} {:>6.1}%",
            "total",
            "",
            "",
            "",
            total * 1000.0 / self.layers.iter().map(|l| l.calls).max().unwrap_or(1) as f64,
            100.0
        )
        .unwrap();
        out
    }

    /// JSON export (stable key order, no external dependencies). Layer
    /// names, kinds and the label are string-escaped, so the output
    /// stays valid whatever the layers are called
    /// (`crates/bench/tests/json_exports.rs` parses it).
    pub fn to_json(&self) -> String {
        use crate::jsonutil::write_json_str;
        use std::fmt::Write;
        let total = self.total_time().as_secs_f64();
        let mut out = String::from("{\"label\":");
        write_json_str(&mut out, &self.label);
        out.push_str(",\"kernel\":");
        write_json_str(&mut out, self.kernel);
        out.push_str(",\"precision\":");
        write_json_str(&mut out, &self.precision);
        write!(out, ",\"total_ms\":{:.6},\"layers\":[", total * 1000.0).unwrap();
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let share = if total > 0.0 {
                l.total.as_secs_f64() / total
            } else {
                0.0
            };
            let [n, c, h, w] = l.shape;
            out.push_str("{\"name\":");
            write_json_str(&mut out, &l.name);
            out.push_str(",\"kind\":");
            write_json_str(&mut out, &l.kind);
            write!(
                out,
                ",\"shape\":[{n},{c},{h},{w}],\"fused\":{},\"quantized\":{},\
                 \"calls\":{},\"total_ms\":{:.6},\"mean_ms\":{:.6},\"share\":{:.6}}}",
                l.fused,
                l.quantized,
                l.calls,
                l.total.as_secs_f64() * 1000.0,
                l.mean().as_secs_f64() * 1000.0,
                share
            )
            .unwrap();
        }
        out.push(']');
        out.push('}');
        out
    }

    /// Side-by-side comparison with another report (e.g. the same model
    /// at a different pruning level): per-layer mean ms for both, plus
    /// the speedup of `other` relative to `self`.
    pub fn compare_table(&self, other: &ProfileReport) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "{:<12} {:<6} {:>14} {:>14} {:>8}",
            "layer",
            "kind",
            format!("[{}] ms", self.label),
            format!("[{}] ms", other.label),
            "speedup"
        )
        .unwrap();
        for l in &self.layers {
            let a = l.mean().as_secs_f64() * 1000.0;
            let b = other
                .layers
                .iter()
                .find(|o| o.name == l.name)
                .map(|o| o.mean().as_secs_f64() * 1000.0);
            match b {
                Some(b) if b > 0.0 => writeln!(
                    out,
                    "{:<12} {:<6} {:>14.3} {:>14.3} {:>7.2}x",
                    l.name,
                    l.kind,
                    a,
                    b,
                    a / b
                )
                .unwrap(),
                _ => writeln!(
                    out,
                    "{:<12} {:<6} {:>14.3} {:>14} {:>8}",
                    l.name, l.kind, a, "-", "-"
                )
                .unwrap(),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{CollectingTracer, SpanInfo, Tracer};

    fn span(name: &str, kind: &str, us: u64) -> SpanRecord {
        SpanRecord {
            scope: SpanScope::Layer,
            name: name.into(),
            kind: kind.into(),
            shape: [1, 8, 4, 4],
            index: 0,
            elapsed: Duration::from_micros(us),
            start: Duration::ZERO,
            tid: 1,
        }
    }

    #[test]
    fn aggregates_repeat_passes_in_execution_order() {
        let spans = vec![
            span("conv1", "conv", 100),
            span("relu1", "relu", 10),
            span("conv1", "conv", 300),
            span("relu1", "relu", 30),
        ];
        let r = ProfileReport::from_spans("t", &spans);
        assert_eq!(r.layers().len(), 2);
        assert_eq!(r.layers()[0].name, "conv1");
        assert_eq!(r.layers()[0].calls, 2);
        assert_eq!(r.layers()[0].mean(), Duration::from_micros(200));
        assert_eq!(r.total_time(), Duration::from_micros(440));
        assert!((r.share("conv1").unwrap() - 400.0 / 440.0).abs() < 1e-9);
        assert!(r.share("nope").is_none());
    }

    #[test]
    fn ignores_non_layer_spans() {
        let mut worker = span("worker", "", 999);
        worker.scope = SpanScope::Worker;
        let r = ProfileReport::from_spans("t", &[worker, span("conv1", "conv", 5)]);
        assert_eq!(r.layers().len(), 1);
    }

    #[test]
    fn text_table_and_json_render() {
        let r =
            ProfileReport::from_spans("m", &[span("conv1", "conv", 750), span("fc", "fc", 250)]);
        let table = r.to_text_table();
        assert!(table.contains("conv1"));
        assert!(table.contains("75.0%"));
        let json = r.to_json();
        assert!(json.contains("\"label\":\"m\""));
        assert!(json.contains("\"name\":\"conv1\""));
        assert!(json.contains("\"share\":0.75"));
    }

    #[test]
    fn report_records_kernel_path_label() {
        crate::metrics().kernel_path.set(1);
        let r = ProfileReport::from_spans("k", &[span("conv1", "conv", 10)]);
        assert_eq!(r.kernel(), "scalar");
        assert!(r.to_text_table().contains("(kernel: scalar,"));
        assert!(r.to_json().contains("\"kernel\":\"scalar\""));
        // `avx2` names the f32 tile it multiplies on.
        crate::metrics().kernel_path.set(2);
        for (tile, label) in [(3, "avx2 (zmm)"), (2, "avx2 (ymm)"), (0, "avx2")] {
            crate::metrics().f32_tile.set(tile);
            let r = ProfileReport::from_spans("k", &[span("conv1", "conv", 10)]);
            assert_eq!(r.kernel(), label);
            assert!(r.to_text_table().contains(&format!("(kernel: {label},")));
            assert!(r.to_json().contains(&format!("\"kernel\":\"{label}\"")));
        }
        crate::metrics().kernel_path.set(0);
    }

    #[test]
    fn report_records_precision_and_flags_quantized_rows() {
        crate::metrics().precision_path.set(2);
        crate::metrics().int8_kernel.set(3);
        let r = ProfileReport::from_spans(
            "q",
            &[
                span("conv1", "conv+relu", 100),
                span("pool1", "pool", 20),
                span("fc", "fc", 40),
            ],
        );
        assert_eq!(r.precision(), "int8 (vnni)");
        assert!(r.to_text_table().contains("precision: int8 (vnni))"));
        let json = r.to_json();
        assert!(json.contains("\"precision\":\"int8 (vnni)\""), "{json}");
        // Weighted layers (conv, fc) are flagged; pooling stays f32.
        assert!(r.layers()[0].quantized && r.layers()[2].quantized);
        assert!(!r.layers()[1].quantized);
        assert!(json.contains("\"quantized\":true"), "{json}");
        assert!(json.contains("\"quantized\":false"), "{json}");

        // Back to f32: nothing is flagged, and the integer kernel —
        // still resolved — is not part of the label.
        crate::metrics().precision_path.set(1);
        let r = ProfileReport::from_spans("f", &[span("conv1", "conv", 10)]);
        assert_eq!(r.precision(), "f32");
        assert!(!r.layers()[0].quantized);
        crate::metrics().precision_path.set(0);
        crate::metrics().int8_kernel.set(0);
    }

    #[test]
    fn compare_table_reports_speedup() {
        let dense = ProfileReport::from_spans("0%", &[span("conv1", "conv", 800)]);
        let pruned = ProfileReport::from_spans("60%", &[span("conv1", "conv", 400)]);
        let cmp = dense.compare_table(&pruned);
        assert!(cmp.contains("2.00x"), "{cmp}");
    }

    #[test]
    fn fused_rows_are_flagged_and_exported() {
        let r = ProfileReport::from_spans(
            "f",
            &[span("conv1", "conv+relu", 100), span("pool1", "pool", 50)],
        );
        assert!(r.layers()[0].fused);
        assert!(!r.layers()[1].fused);
        let json = r.to_json();
        assert!(json.contains("\"kind\":\"conv+relu\""), "{json}");
        assert!(json.contains("\"fused\":true"), "{json}");
        assert!(json.contains("\"fused\":false"), "{json}");
    }

    #[test]
    fn roundtrip_from_collecting_tracer() {
        let t = CollectingTracer::new();
        let mut info = SpanInfo::new(SpanScope::Layer, "conv1");
        info.kind = "conv";
        info.shape = [2, 4, 8, 8];
        t.span_exit(&info, Duration::from_micros(42));
        let r = ProfileReport::from_spans("rt", &t.take_spans());
        assert_eq!(r.layers()[0].shape, [2, 4, 8, 8]);
    }
}
