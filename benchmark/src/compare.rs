//! `capbench compare A B`: one row per (metric, workload) with both
//! medians, the ratio with its base, and a verdict against the bound the
//! benchmark fixed. `A` is the base.

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats;
use crate::suite::SCHEMA;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Either side's run-to-run spread is wider than the bound, so a move
    /// of the size of the bound cannot be told from noise.
    Unresolved,
    /// A per-layer row: reported, never judged (no bound).
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Run-to-run spread of one side (0 for a single run).
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 2 {
        stats::spread(values)
    } else {
        0.0
    }
}

/// The rule of the choosing-metrics guide, section 6.5: worse by more
/// than the bound is a regression; where either side's spread exceeds
/// the bound the row is unresolved, unless every run of one side beats
/// every run of the other.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (stats::median(base), stats::median(new));
    // Signed relative change, positive = worse.
    let worse_by = match better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let (bmin, bmax) = min_max(base);
    let (nmin, nmax) = min_max(new);
    let (all_better, all_worse) = match better {
        Better::Lower => (nmax < bmin, nmin > bmax),
        Better::Higher => (nmin > bmax, nmax < bmin),
    };
    let noisy = spread(base) > bound || spread(new) > bound;
    if noisy {
        return if all_better && worse_by < -bound {
            Verdict::Improved
        } else if all_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// A parsed result file.
pub struct ResultFile {
    doc: Value,
}

/// Header fields two files must share to be comparable.
const MUST_MATCH: [&str; 6] = ["schema", "mode", "seed", "runs", "seconds", "smoke"];

impl ResultFile {
    pub fn parse(raw: &str) -> Result<Self, String> {
        let doc = json::parse(raw)?;
        let schema = json::as_str(json::get(&doc, "schema")?)?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, this capbench reads {SCHEMA:?}"));
        }
        Ok(Self { doc })
    }

    fn header(&self, key: &str) -> String {
        json::get(&self.doc, key).map_or("<missing>".to_string(), json::compact)
    }

    fn nproc(&self) -> String {
        json::get(&self.doc, "host")
            .and_then(|h| json::get(h, "nproc"))
            .map_or("<missing>".to_string(), json::compact)
    }

    fn mode(&self) -> Result<&str, String> {
        json::as_str(json::get(&self.doc, "mode")?)
    }

    fn workloads(&self) -> Result<&[(String, Value)], String> {
        json::entries(json::get(&self.doc, "workloads")?)
    }

    fn failed(&self, workload: &str) -> Result<f64, String> {
        json::as_f64(json::get(
            json::get(json::get(&self.doc, "workloads")?, workload)?,
            "failed",
        )?)
    }

    /// The values of `metric` over the runs of `workload`; empty when
    /// the workload does not measure that row.
    fn values(&self, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
        let runs = json::as_list(json::get(
            json::get(json::get(&self.doc, "workloads")?, workload)?,
            "runs",
        )?)?;
        let mut values = Vec::with_capacity(runs.len());
        for r in runs {
            let metrics = json::get(json::get(r, "result")?, "metrics")?;
            if let Ok(row) = json::get(metrics, metric) {
                values.push(json::as_f64(json::get(row, "value")?)?);
            }
        }
        Ok(values)
    }
}

/// Why two files cannot be compared, if they cannot.
pub fn mismatch(a: &ResultFile, b: &ResultFile) -> Option<String> {
    for key in MUST_MATCH {
        if a.header(key) != b.header(key) {
            return Some(format!("{key}: {} vs {}", a.header(key), b.header(key)));
        }
    }
    (a.nproc() != b.nproc()).then(|| format!("host nproc: {} vs {}", a.nproc(), b.nproc()))
}

#[derive(Debug)]
pub struct Report {
    pub text: String,
    pub regressed: usize,
    pub more_failures: usize,
}

pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<Report, String> {
    if let Some(why) = mismatch(a, b) {
        return Err(format!("refusing to compare files that differ in {why}"));
    }
    let traced = a.mode()? == "traced";
    let rows: Vec<(&str, &str, Better, Option<f64>)> = if traced {
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better, None))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
            .collect()
    };
    let mut report = Report {
        text: format!(
            "{:<20} {:<42} {:>14} {:>14} {:>9} {:>7}  verdict\n",
            "workload", "metric", "base", "new", "new/base", "bound"
        ),
        regressed: 0,
        more_failures: 0,
    };
    for (workload, _) in a.workloads()? {
        for &(metric, unit, better, bound) in &rows {
            let (va, vb) = (a.values(workload, metric)?, b.values(workload, metric)?);
            if va.is_empty() && vb.is_empty() {
                // Not a row of this workload.
                continue;
            }
            if va.is_empty() || vb.is_empty() {
                report.text.push_str(&format!(
                    "{workload:<20} {:<42} measured on one side only  {}\n",
                    format!("{metric} [{unit}]"),
                    Verdict::Unresolved.as_str(),
                ));
                continue;
            }
            let (base, new) = (stats::median(&va), stats::median(&vb));
            let verdict = match bound {
                Some(bound) => judge(&va, &vb, better, bound),
                None => Verdict::Info,
            };
            if verdict == Verdict::Regressed {
                report.regressed += 1;
            }
            let ratio = if base == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", new / base)
            };
            report.text.push_str(&format!(
                "{workload:<20} {:<42} {:>14.4} {:>14.4} {ratio:>9} {:>7}  {}\n",
                format!("{metric} [{unit}]"),
                base,
                new,
                bound.map_or("-".to_string(), |b| format!("{b}")),
                verdict.as_str(),
            ));
        }
        let (fa, fb) = (a.failed(workload)?, b.failed(workload)?);
        if fb > fa {
            report.more_failures += 1;
            report.text.push_str(&format!(
                "{workload:<20} failed ops rose from {fa} to {fb}\n"
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 101.1, 99.3, 100.4, 99.9];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let faster = [88.0, 89.0, 87.0, 88.5, 87.5];
        let lower = Better::Lower;
        assert_eq!(judge(&base, &same, lower, 0.08), Verdict::Unchanged);
        assert_eq!(judge(&base, &slower, lower, 0.08), Verdict::Regressed);
        assert_eq!(judge(&base, &faster, lower, 0.08), Verdict::Improved);
        // Within the bound is unchanged even when clearly different.
        assert_eq!(judge(&base, &slower, lower, 0.15), Verdict::Unchanged);
        // For a higher-is-better metric the directions swap.
        let higher = Better::Higher;
        assert_eq!(judge(&base, &slower, higher, 0.08), Verdict::Improved);
        assert_eq!(judge(&base, &faster, higher, 0.08), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_slower = [95.0, 115.0, 135.0, 105.0, 125.0];
        let far_slower = [200.0, 220.0, 240.0, 210.0, 230.0];
        let lower = Better::Lower;
        assert_eq!(
            judge(&noisy, &noisy_slower, lower, 0.08),
            Verdict::Unresolved
        );
        // Every run of the new side is worse than every run of the base.
        assert_eq!(judge(&noisy, &far_slower, lower, 0.08), Verdict::Regressed);
        assert_eq!(judge(&far_slower, &noisy, lower, 0.08), Verdict::Improved);
    }

    /// A two-run, one-workload result file with the given set-up times.
    fn doctored(seed: u64, smoke: bool, setup_s: [f64; 2], failed: u64) -> String {
        let run = |v: f64| {
            let metrics: Vec<String> = spec::END_TO_END
                .iter()
                .map(|m| {
                    let value = if m.name == "setup_s" { v } else { 10.0 };
                    format!(
                        "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                        m.name, m.unit
                    )
                })
                .collect();
            format!(
                "{{\"seed\": 1, \"result\": {{\"correct\": true, \"attempted\": 5, \
                 \"failed\": 0, \"metrics\": {{{}}}}}, \"notes\": {{}}}}",
                metrics.join(", ")
            )
        };
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"mode\": \"run\", \"seed\": {seed}, \"runs\": 2, \
             \"seconds\": 9.0, \"smoke\": {smoke}, \"git_sha\": \"x\", \
             \"host\": {{\"nproc\": \"2\"}}, \"workloads\": {{\"caffenet_dense_b1\": \
             {{\"attempted\": 10, \"failed\": {failed}, \"runs\": [{}, {}], \"summary\": {{}}}}}}, \
             \"claim\": null}}",
            run(setup_s[0]),
            run(setup_s[1])
        )
    }

    #[test]
    fn compare_reads_doctored_files() {
        let base = ResultFile::parse(&doctored(1, false, [100.0, 101.0], 0)).unwrap();
        let same = ResultFile::parse(&doctored(1, false, [100.5, 100.9], 0)).unwrap();
        let slow = ResultFile::parse(&doctored(1, false, [130.0, 131.0], 0)).unwrap();
        let broken = ResultFile::parse(&doctored(1, false, [100.0, 101.0], 3)).unwrap();

        let r = compare(&base, &same).unwrap();
        assert_eq!((r.regressed, r.more_failures), (0, 0));
        assert!(r.text.contains("unchanged"));

        let r = compare(&base, &slow).unwrap();
        assert_eq!(r.regressed, 1);
        assert!(r.text.contains("regressed"));
        assert!(
            r.text.contains("1.2985"),
            "ratio new/base is printed: {}",
            r.text
        );

        let r = compare(&base, &broken).unwrap();
        assert_eq!((r.regressed, r.more_failures), (0, 1));
    }

    #[test]
    fn rows_a_workload_does_not_measure_are_skipped() {
        let full = doctored(1, false, [100.0, 101.0], 0);
        let partial = full.replace(
            "\"peak_rss_mb\": {\"value\": 10.0, \"unit\": \"MiB\"}, ",
            "",
        );
        assert_ne!(full, partial);
        let (full, partial) = (
            ResultFile::parse(&full).unwrap(),
            ResultFile::parse(&partial).unwrap(),
        );
        let r = compare(&partial, &partial).unwrap();
        assert!(!r.text.contains("peak_rss_mb"), "{}", r.text);
        assert!(r.text.contains("setup_s"));
        let r = compare(&full, &partial).unwrap();
        assert!(r.text.contains("measured on one side only"), "{}", r.text);
        assert_eq!(r.regressed, 0);
    }

    #[test]
    fn compare_refuses_to_mix_files() {
        let base = ResultFile::parse(&doctored(1, false, [100.0, 101.0], 0)).unwrap();
        let other_seed = ResultFile::parse(&doctored(2, false, [100.0, 101.0], 0)).unwrap();
        let smoke = ResultFile::parse(&doctored(1, true, [100.0, 101.0], 0)).unwrap();
        assert!(compare(&base, &other_seed).unwrap_err().contains("seed"));
        assert!(compare(&base, &smoke).unwrap_err().contains("smoke"));
        assert!(ResultFile::parse("{\"schema\": \"other\"}").is_err());
    }
}
