//! The end-to-end run of one workload: generate inputs, then three times
//! over set up and run closed-loop ops for a third of the measured
//! window with tracing off; check outputs, report.

use crate::host::Reference;
use crate::spec::{OP_TRIM, SETUPS_PER_RUN};
use crate::stats;
use crate::workloads::{self, Inputs, Prepared, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A metric value with its unit, keyed by metric name.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What the benchmark reports for one run of one workload.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Facts about the run that are not metrics (sample counts, the
    /// percentile the sample supports, input checksum, ...).
    pub notes: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The closed loop: ops back to back until `window` has passed. Returns
/// per-op latencies of the ops that passed their checks, units of work
/// completed, ops attempted and failed, and the wall time of the loop.
#[derive(Default)]
pub struct Window {
    pub latencies_ms: Vec<f64>,
    /// With a host reference: each passed op's host-normalised seconds
    /// per unit of work, its wall time over the mean of the reference
    /// readings taken right before and right after it.
    pub norm_s_per_unit: Vec<f64>,
    /// With a host reference: the reading after each passed op.
    pub slowdowns: Vec<f64>,
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
}

impl Window {
    /// Append another window's ops.
    pub fn extend(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.norm_s_per_unit.extend(other.norm_s_per_unit);
        self.slowdowns.extend(other.slowdowns);
        self.units += other.units;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall += other.wall;
    }
}

/// With `reference`, the host reference is read before the first op and
/// after every op (outside the op's own time, inside the window's).
pub fn timed_window(
    prepared: &mut Prepared,
    window: Duration,
    rec: Option<&crate::spans::Recorder>,
    first_op: usize,
    mut reference: Option<&mut Reference>,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut before = reference.as_deref_mut().map(Reference::read);
    loop {
        let t = Instant::now();
        let i = first_op + w.attempted as usize;
        let outcome = prepared.op(i, rec);
        let dt = t.elapsed();
        let after = reference.as_deref_mut().map(Reference::read);
        w.attempted += 1;
        match outcome {
            Ok(units) => {
                w.units += units;
                w.latencies_ms.push(dt.as_secs_f64() * 1e3);
                if let (Some(before), Some(after)) = (before, after) {
                    w.norm_s_per_unit
                        .push(dt.as_secs_f64() / (0.5 * (before + after)) / units as f64);
                    w.slowdowns.push(after);
                }
            }
            Err(why) => {
                w.failed += 1;
                eprintln!("capbench: op {i} failed: {why}");
            }
        }
        before = after;
        w.wall = start.elapsed();
        if w.wall >= window {
            return w;
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = Inputs::generate(workload, seed);

    // Set up, measure a third of the window, drop, repeat: `setup_s` gets
    // its three samples, and the ops sample three separately built
    // instances and a longer stretch of host time than one contiguous
    // window after the last set-up would.
    let slice = Duration::from_secs_f64(seconds / SETUPS_PER_RUN as f64);
    let mut reference = Reference::new();
    let mut setup_wall_s = Vec::with_capacity(SETUPS_PER_RUN);
    let mut setup_norm_s = Vec::with_capacity(SETUPS_PER_RUN);
    let mut window = Window::default();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUPS_PER_RUN {
        drop(prepared.take());
        let before = reference.read();
        let (p, dt) = workloads::time(|| workloads::setup(workload, &inputs, None));
        let after = reference.read();
        let mut p = p?;
        setup_wall_s.push(dt.as_secs_f64());
        setup_norm_s.push(dt.as_secs_f64() / (0.5 * (before + after)));
        window.extend(timed_window(
            &mut p,
            slice,
            None,
            window.attempted as usize,
            Some(&mut reference),
        ));
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("SETUPS_PER_RUN >= 1");
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let check = prepared.final_check();

    let attempted = window.attempted + 1;
    let mut failed = window.failed;
    if let Err(why) = &check.result {
        failed += 1;
        eprintln!("capbench: check {} failed: {why}", check.name);
    }
    if window.latencies_ms.is_empty() {
        return Err("no op passed its checks; nothing to report".into());
    }

    let sorted = stats::sorted(&window.latencies_ms);
    let op_seconds = window.latencies_ms.iter().sum::<f64>() / 1e3;
    let mut metrics = Metrics::new();
    // The middle of the ops, not all of them and not the median: a
    // preempted op is a stall of the host, and on a host that alternates
    // between two levels within a run the median jumps from one to the
    // other where a mean moves with the share of ops on each.
    metrics.insert(
        "throughput_norm_per_s",
        (
            1.0 / stats::trimmed_mean(&window.norm_s_per_unit, OP_TRIM),
            "1/s",
        ),
    );
    metrics.insert("peak_rss_mb", (rss, "MiB"));
    metrics.insert("setup_s", (stats::median(&setup_norm_s), "s"));

    // Printed with every run, not gated: the wall-clock figures behind
    // the two host-normalised metrics, the median op latency, the fastest
    // op, and the highest percentile that still has ten samples beyond it.
    let tail = stats::highest_supported_percentile(sorted.len())
        .map_or("none above p50 (fewer than 40 samples)".to_string(), |p| {
            format!("p{p} = {:.4}", stats::percentile_sorted(&sorted, p))
        });
    let millis =
        |times: &[f64]| -> Vec<f64> { times.iter().map(|t| (t * 1e3).round() / 1e3).collect() };
    let mut notes = vec![
        ("samples", sorted.len().to_string()),
        (
            "throughput_wall_per_s",
            format!("{:.4}", window.units as f64 / op_seconds),
        ),
        (
            "host_slowdown_p50",
            format!("{:.4}", stats::median(&window.slowdowns)),
        ),
        (
            "latency_ms_p50",
            format!("{:.4}", stats::median_sorted(&sorted)),
        ),
        ("latency_ms_best", format!("{:.4}", sorted[0])),
        ("latency_ms_tail", tail),
        ("throughput_unit", format!("{}/s", workload.unit())),
        ("window_s", format!("{:.3}", window.wall.as_secs_f64())),
        ("setup_wall_s", format!("{:?}", millis(&setup_wall_s))),
        ("setup_norm_s", format!("{:?}", millis(&setup_norm_s))),
        ("input_checksum", format!("{:016x}", inputs.checksum())),
        (
            "check",
            match &check.result {
                Ok(measured) => format!("{}=ok ({measured})", check.name),
                Err(_) => format!("{}=FAILED", check.name),
            },
        ),
    ];
    notes.extend(prepared.notes());
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        notes,
    })
}
