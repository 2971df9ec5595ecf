//! Dependency-free Prometheus text-format exposition (format 0.0.4).
//!
//! Three pieces:
//!
//! * [`PromWriter`] — an append-only builder that renders metric
//!   families with `# HELP`/`# TYPE` headers, label escaping, and
//!   HDR-histogram quantile summaries (`{quantile="…"}` sample lines
//!   plus `_sum`/`_count`, no `_bucket` series — the log-linear bucket
//!   layout is an implementation detail, quantiles are the contract).
//! * [`prometheus_text`] — the standard exposition of a
//!   [`MetricsSnapshot`]: every registry counter as `cap_<name>_total`,
//!   every gauge as `cap_<name>`, every histogram as a summary.
//! * [`validate`] — a strict format checker (`cap serve --metrics-out`
//!   runs it before writing): well-formed `# TYPE` lines, no duplicate
//!   families, every sample parseable and preceded by its family's type
//!   declaration.
//!
//! [`spawn_exporter`] serves the current registry snapshot over a std
//! `TcpListener` (HTTP/1.0, one response per connection) for scraping
//! a live run; the CLI wires it to the `CAP_OBS_PROM_ADDR` env knob.
//!
//! Everything here is plain `std` — `cap-obs` stays dependency-free.

use crate::hdr::{HdrSnapshot, QUANTILES};
use crate::metrics::{metrics, Kind, MetricsSnapshot, Value};
use std::fmt::Write as _;
use std::io::{self, Read, Write as _};
use std::net::{SocketAddr, TcpListener};

/// Append-only builder for Prometheus text exposition.
///
/// `# HELP`/`# TYPE` headers are emitted once per family on first use;
/// later samples for the same family (e.g. per-tenant label sets)
/// append below it. Re-declaring a family with a different type
/// panics — that is a programming error the format forbids.
///
/// ```
/// use cap_obs::PromWriter;
///
/// let mut w = PromWriter::new();
/// w.counter("cap_demo_requests_total", "Requests.", &[("tenant", "a")], 7);
/// w.counter("cap_demo_requests_total", "Requests.", &[("tenant", "b")], 3);
/// let text = w.finish();
/// assert_eq!(text.matches("# TYPE").count(), 1);
/// assert!(text.contains("cap_demo_requests_total{tenant=\"b\"} 3"));
/// ```
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    declared: Vec<(String, Kind)>,
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn declare(&mut self, name: &str, ty: Kind, help: &str) {
        if let Some((_, prev)) = self.declared.iter().find(|(n, _)| n == name) {
            assert_eq!(
                *prev, ty,
                "metric family {name} re-declared with a different type"
            );
            return;
        }
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        write!(self.out, "# HELP {name} ").unwrap();
        // HELP text escaping: backslash and newline only.
        for c in help.chars() {
            match c {
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c => self.out.push(c),
            }
        }
        self.out.push('\n');
        writeln!(self.out, "# TYPE {name} {}", ty.as_str()).unwrap();
        self.declared.push((name.to_string(), ty));
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                write!(self.out, "{k}=\"").unwrap();
                // Label value escaping: backslash, quote, newline.
                for c in v.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        if value.is_finite() {
            writeln!(self.out, " {value}").unwrap();
        } else if value.is_nan() {
            self.out.push_str(" NaN\n");
        } else if value > 0.0 {
            self.out.push_str(" +Inf\n");
        } else {
            self.out.push_str(" -Inf\n");
        }
    }

    /// One counter sample. By convention `name` ends in `_total`.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.declare(name, Kind::Counter, help);
        self.sample(name, labels, value as f64);
    }

    /// One gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.declare(name, Kind::Gauge, help);
        self.sample(name, labels, value);
    }

    /// An HDR histogram as a Prometheus *summary*: one `quantile`
    /// sample per standard percentile plus `<name>_sum` and
    /// `<name>_count`. Empty histograms emit only the zero
    /// `_sum`/`_count` (a quantile of nothing is not a number worth
    /// publishing).
    pub fn summary(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &HdrSnapshot) {
        self.declare(name, Kind::Summary, help);
        for (_, label, q) in QUANTILES {
            if let Some(v) = h.quantile(q) {
                let mut with_q: Vec<(&str, &str)> = labels.to_vec();
                with_q.push(("quantile", label));
                self.sample(name, &with_q, v as f64);
            }
        }
        let sum = format!("{name}_sum");
        let count = format!("{name}_count");
        self.sample(&sum, labels, h.sum as f64);
        self.sample(&count, labels, h.count as f64);
    }

    /// Finish and return the exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Render a [`MetricsSnapshot`] as Prometheus text: every registry
/// scalar (counters as `cap_<name>_total`, gauges as `cap_<name>`) and
/// every HDR histogram as a quantile summary.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut w = PromWriter::new();
    append_registry(&mut w, snap);
    w.finish()
}

/// [`prometheus_text`] in appendable form: write the registry families
/// into an existing writer, so callers can extend the exposition with
/// their own families (e.g. the serving layer's per-tenant section)
/// before finishing.
pub fn append_registry(w: &mut PromWriter, snap: &MetricsSnapshot) {
    for kind in [Kind::Counter, Kind::Gauge, Kind::Summary] {
        for (i, v) in snap.values().filter(|(i, _)| i.kind == kind) {
            match v {
                Value::Scalar(v) if kind == Kind::Counter => {
                    w.counter(&format!("cap_{}_total", i.name), i.help, &[], v)
                }
                Value::Scalar(v) => w.gauge(&format!("cap_{}", i.name), i.help, &[], v as f64),
                Value::Summary(h) => w.summary(&format!("cap_{}", i.name), i.help, &[], h),
            }
        }
    }
}

/// Counts reported by a successful [`validate`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromStats {
    /// Metric families declared by `# TYPE` lines.
    pub families: usize,
    /// Sample lines parsed.
    pub samples: usize,
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Check `text` against the exposition-format rules this crate relies
/// on: well-formed `# TYPE` lines with known types, no family declared
/// twice, every sample line parseable (`name[{labels}] value`) with a
/// valid metric name, a float value, and a preceding type declaration
/// for its family (modulo the summary `_sum`/`_count` suffixes).
///
/// Returns parse statistics, or the first violation with its line
/// number.
pub fn validate(text: &str) -> Result<PromStats, String> {
    let mut families: Vec<(String, String)> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_ascii_whitespace();
            let (Some(name), Some(ty), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE line: {line:?}"));
            };
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&ty) {
                return Err(format!("line {n}: unknown metric type {ty:?}"));
            }
            if families.iter().any(|(f, _)| f == name) {
                return Err(format!("line {n}: duplicate TYPE for family {name:?}"));
            }
            families.push((name.to_string(), ty.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and free comments
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_labels, rest) = match line.find([' ', '{']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let close = line[i..]
                    .find('}')
                    .map(|j| i + j)
                    .ok_or_else(|| format!("line {n}: unterminated label set: {line:?}"))?;
                let labels = &line[i + 1..close];
                // Labels: k="v" pairs; validate label names and quoting.
                if !labels.is_empty() {
                    for pair in split_labels(labels) {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| format!("line {n}: malformed label {pair:?}"))?;
                        if !valid_metric_name(k) {
                            return Err(format!("line {n}: invalid label name {k:?}"));
                        }
                        if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                            return Err(format!("line {n}: unquoted label value {v:?}"));
                        }
                    }
                }
                (&line[..i], line[close + 1..].trim_start())
            }
            Some(i) => (&line[..i], line[i + 1..].trim_start()),
            None => return Err(format!("line {n}: sample without value: {line:?}")),
        };
        if !valid_metric_name(name_labels) {
            return Err(format!("line {n}: invalid metric name {name_labels:?}"));
        }
        let value = rest.split_ascii_whitespace().next().unwrap_or("");
        let numeric =
            matches!(value, "NaN" | "+Inf" | "-Inf" | "Inf") || value.parse::<f64>().is_ok();
        if !numeric {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
        // Family lookup: exact, or summary base for _sum/_count.
        let base = name_labels
            .strip_suffix("_sum")
            .or_else(|| name_labels.strip_suffix("_count"))
            .filter(|b| {
                families
                    .iter()
                    .any(|(f, t)| f == b && (t == "summary" || t == "histogram"))
            })
            .unwrap_or(name_labels);
        if !families.iter().any(|(f, _)| f == base) {
            return Err(format!(
                "line {n}: sample {name_labels:?} has no preceding TYPE declaration"
            ));
        }
        samples += 1;
    }
    Ok(PromStats {
        families: families.len(),
        samples,
    })
}

/// Split a label body on commas that sit outside quoted values.
fn split_labels(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

/// Serve the live registry snapshot over HTTP for Prometheus scraping.
///
/// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port),
/// spawns a detached responder thread, and returns the bound address.
/// Every connection gets an HTTP/1.0 `200` with
/// `Content-Type: text/plain; version=0.0.4` and the current
/// [`prometheus_text`] of the global registry, then the connection
/// closes — the minimal contract a Prometheus scraper needs. The
/// thread runs for the life of the process; exporters are scrape
/// endpoints, not managed services.
pub fn spawn_exporter(addr: &str) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("cap-prom-exporter".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                // Drain the request head; the path is irrelevant —
                // every request gets the metrics page.
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let body = prometheus_text(&metrics().snapshot());
                let _ = write!(
                    stream,
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
            }
        })?;
    Ok(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdr::HdrHistogram;

    #[test]
    fn writer_emits_headers_once_per_family() {
        let mut w = PromWriter::new();
        w.counter("cap_x_total", "X.", &[("tenant", "a")], 1);
        w.counter("cap_x_total", "X.", &[("tenant", "b")], 2);
        w.gauge("cap_y", "Y.", &[], 3.5);
        let text = w.finish();
        assert_eq!(text.matches("# TYPE cap_x_total counter").count(), 1);
        assert!(text.contains("cap_x_total{tenant=\"a\"} 1"));
        assert!(text.contains("cap_x_total{tenant=\"b\"} 2"));
        assert!(text.contains("cap_y 3.5"));
        validate(&text).expect("writer output must validate");
    }

    #[test]
    fn summary_renders_quantiles_sum_count() {
        let h = HdrHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.summary("cap_lat_us", "Latency.", &[], &h.snapshot());
        let text = w.finish();
        assert!(text.contains("# TYPE cap_lat_us summary"));
        assert!(text.contains("cap_lat_us{quantile=\"0.5\"}"));
        assert!(text.contains("cap_lat_us_sum 5050"));
        assert!(text.contains("cap_lat_us_count 100"));
        assert!(!text.contains("_bucket"), "summaries must not emit buckets");
        validate(&text).expect("summary output must validate");
    }

    #[test]
    fn empty_summary_skips_quantiles() {
        let mut w = PromWriter::new();
        w.summary("cap_empty_us", "Empty.", &[], &HdrSnapshot::empty());
        let text = w.finish();
        assert!(!text.contains("quantile"));
        assert!(text.contains("cap_empty_us_count 0"));
        validate(&text).expect("empty summary must validate");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.gauge("cap_z", "Z.", &[("k", "a\"b\\c\nd")], 1.0);
        let text = w.finish();
        assert!(text.contains("k=\"a\\\"b\\\\c\\nd\""));
        validate(&text).expect("escaped labels must validate");
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn redeclaring_with_different_type_panics() {
        let mut w = PromWriter::new();
        w.counter("cap_x_total", "X.", &[], 1);
        w.gauge("cap_x_total", "X.", &[], 1.0);
    }

    #[test]
    fn validator_rejects_malformed_input() {
        assert!(validate("# TYPE cap_x bogus\ncap_x 1").is_err());
        assert!(validate("# TYPE cap_x counter\n# TYPE cap_x counter\ncap_x 1").is_err());
        assert!(validate("cap_orphan 1").is_err());
        assert!(validate("# TYPE cap_x counter\ncap_x notanumber").is_err());
        assert!(validate("# TYPE cap_x counter\ncap_x{k=unquoted} 1").is_err());
        assert!(validate("# TYPE cap_x counter\n9bad 1").is_err());
    }

    #[test]
    fn exporter_serves_a_scrapeable_page() {
        let addr = spawn_exporter("127.0.0.1:0").expect("bind");
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.0 200 OK"));
        assert!(response.contains("text/plain; version=0.0.4"));
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        validate(body).expect("scraped body must validate");
    }
}
