//! `capbench run` / `capbench traced`: every workload, several seeds,
//! each run in its own child process, collected into one result file
//! that `capbench compare` can read.

use crate::json::{self, Value};
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats;
use crate::traced::UNMEASURED_NOTE;
use crate::workloads::Workload;
use std::process::Command;

pub const SCHEMA: &str = "capbench-v1";

/// Whether a file holds end-to-end runs or traced (per-layer) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Run,
    Traced,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Traced => "traced",
        }
    }
}

pub struct SuiteArgs {
    pub mode: Mode,
    /// First seed; run `r` of a workload uses `seed + r`.
    pub seed: u64,
    pub runs: u64,
    /// A tenth of the window per run, flagged in the result file.
    pub smoke: bool,
    pub out: String,
}

/// `git rev-parse HEAD` of the working directory, when it is a checkout.
fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// What one child reported: its result line and its notes.
type ChildReport = (Value, Vec<(String, String)>);

/// One child: this same executable in single-run mode (which scrubs
/// `CAP_*` before its first call into the stack).
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if mode == Mode::Traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: child exited with {}\n{stderr}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: child printed nothing", workload.name()))?;
    // Notes travel on stderr as `capbench: <workload>: key = value`.
    let prefix = format!("capbench: {}: ", workload.name());
    let notes: Vec<(String, String)> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|l| l.split_once(" = "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok((without_unmeasured(json::parse(last)?, &notes)?, notes))
}

/// The child's result with the rows its `unmeasured` note names taken
/// out of `metrics`: the result line carries a 0 there only because the
/// driver wants every name on it.
fn without_unmeasured(result: Value, notes: &[(String, String)]) -> Result<Value, String> {
    let unmeasured: Vec<&str> = notes
        .iter()
        .filter(|(k, _)| k == UNMEASURED_NOTE)
        .flat_map(|(_, v)| v.split(','))
        .collect();
    let fields = json::entries(&result)?
        .iter()
        .map(|(key, value)| {
            let value = match (key.as_str(), value) {
                ("metrics", Value::Map(rows)) => Value::Map(
                    rows.iter()
                        .filter(|(name, _)| !unmeasured.contains(&name.as_str()))
                        .cloned()
                        .collect(),
                ),
                _ => value.clone(),
            };
            (key.clone(), value)
        })
        .collect();
    Ok(Value::Map(fields))
}

/// Median, quartiles and spread of one metric over a workload's runs.
fn summarize(values: &[f64], unit: &str) -> Value {
    let mut entries = vec![
        ("unit", json::text(unit)),
        ("median", json::num(stats::median(values))),
    ];
    if values.len() >= 2 {
        let (q1, q3) = stats::quartiles(values);
        entries.push(("q1", json::num(q1)));
        entries.push(("q3", json::num(q3)));
        entries.push(("spread", json::num(stats::spread(values))));
    }
    json::obj(entries)
}

pub fn run(args: &SuiteArgs) -> Result<(), String> {
    // The window is the benchmark's, not the caller's: one value per
    // `smoke` flag, so two result files with the same flag are comparable.
    let seconds = RUN_SECONDS as f64 / if args.smoke { 10.0 } else { 1.0 };
    let metric_names: Vec<(&str, &str)> = match args.mode {
        Mode::Run => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        Mode::Traced => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
    };
    let mut workloads = Vec::new();
    let mut header_notes: Vec<(String, String)> = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); metric_names.len()];
        let (mut attempted, mut failed) = (0u64, 0u64);
        for r in 0..args.runs {
            let seed = args.seed + r;
            eprintln!("capbench: {} seed {seed} ...", workload.name());
            let (result, notes) = run_child(workload, seed, seconds, args.mode)?;
            attempted += json::as_f64(json::get(&result, "attempted")?)? as u64;
            failed += json::as_f64(json::get(&result, "failed")?)? as u64;
            let metrics = json::get(&result, "metrics")?;
            for (slot, (name, _)) in per_metric.iter_mut().zip(&metric_names) {
                if let Ok(row) = json::get(metrics, name) {
                    slot.push(json::as_f64(json::get(row, "value")?)?);
                }
            }
            for (k, v) in &notes {
                if ["kernel_path", "fusion", "dag", "nproc", "rustc"].contains(&k.as_str())
                    && !header_notes.iter().any(|(hk, _)| hk == k)
                {
                    header_notes.push((k.clone(), v.clone()));
                }
            }
            runs.push(json::obj(vec![
                ("seed", json::int(seed)),
                ("result", result),
                (
                    "notes",
                    Value::Map(notes.into_iter().map(|(k, v)| (k, json::text(v))).collect()),
                ),
            ]));
        }
        // Rows this workload did not measure have no values and no summary.
        let measured = || {
            metric_names
                .iter()
                .zip(&per_metric)
                .filter(|(_, values)| !values.is_empty())
        };
        let summary = Value::Map(
            measured()
                .map(|((name, unit), values)| (name.to_string(), summarize(values, unit)))
                .collect(),
        );
        println!(
            "## {}  (attempted {attempted}, failed {failed})",
            workload.name()
        );
        for ((name, unit), values) in measured() {
            let spread = if values.len() >= 2 {
                format!("  spread {:.4}", stats::spread(values))
            } else {
                String::new()
            };
            println!(
                "{name:<44} {:>14.4} {unit:<8} n={}{spread}",
                stats::median(values),
                values.len()
            );
        }
        workloads.push((
            workload.name(),
            json::obj(vec![
                ("attempted", json::int(attempted)),
                ("failed", json::int(failed)),
                ("runs", Value::Seq(runs)),
                ("summary", summary),
            ]),
        ));
    }
    let doc = json::obj(vec![
        ("schema", json::text(SCHEMA)),
        ("mode", json::text(args.mode.as_str())),
        ("seed", json::int(args.seed)),
        ("runs", json::int(args.runs)),
        ("seconds", json::num(seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("git_sha", json::text(git_sha())),
        (
            "host",
            Value::Map(
                header_notes
                    .into_iter()
                    .map(|(k, v)| (k, json::text(v)))
                    .collect(),
            ),
        ),
        ("workloads", json::obj(workloads)),
        ("claim", Value::Null),
    ]);
    std::fs::write(&args.out, json::pretty(&doc) + "\n")
        .map_err(|e| format!("{}: {e}", args.out))?;
    println!("wrote {}  (\"claim\": null)", args.out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmeasured_rows_leave_the_result() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a.us": {"value": 2.5, "unit": "us"}, "b.count": {"value": 0.0, "unit": "count"}, "c.s": {"value": 0.0, "unit": "s"}}}"#;
        let notes = vec![
            ("nproc".to_string(), "2".to_string()),
            (UNMEASURED_NOTE.to_string(), "c.s,d.ms".to_string()),
        ];
        let kept = without_unmeasured(json::parse(line).unwrap(), &notes).unwrap();
        let metrics = json::get(&kept, "metrics").unwrap();
        assert!(json::get(metrics, "a.us").is_ok());
        // A measured 0 stays; only the named row goes.
        assert!(json::get(metrics, "b.count").is_ok());
        assert!(json::get(metrics, "c.s").is_err());
        assert_eq!(
            json::as_f64(json::get(&kept, "attempted").unwrap()),
            Ok(3.0)
        );
    }
}
