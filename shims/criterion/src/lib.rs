//! Offline stand-in for `criterion`.
//!
//! Same bench-authoring API (`criterion_group!`, `criterion_main!`,
//! `bench_function`, `benchmark_group`, `bench_with_input`, `iter`,
//! `iter_batched`), much simpler engine: warm up briefly, pick an
//! iteration count that makes each sample ≳1 ms, time `sample_size`
//! samples with `Instant`, and report min/median/mean per-iteration
//! times on stdout. Every result is also appended as a JSON line to
//! `target/criterion-shim.jsonl` (override with `CRITERION_SHIM_OUT`)
//! so tooling can collect numbers without scraping stdout. As with
//! criterion, `cargo bench --bench <name> -- <filter>` runs only the
//! benches whose `group/id` contains `<filter>`.
//!
//! No statistical regression analysis, no HTML reports, no outlier
//! rejection — medians on a quiet machine are adequate for the
//! before/after comparisons this workspace records.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Batch sizing hint for `iter_batched` (accepted, not acted on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Identifier `group_name/param` for parameterized benches.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Builder-style sample-count override (criterion's default is 100;
    /// this shim defaults lower to keep single-CPU runs quick).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be >= 2");
        self.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(None, id, self.sample_size, f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size,
        }
    }

    /// Criterion's CLI entry point — a no-op here.
    pub fn final_summary(&mut self) {}
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample_size must be >= 2");
        self.sample_size = n;
        self
    }

    pub fn bench_function<F>(&mut self, id: impl IntoBenchId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(Some(&self.name), &id.into_bench_id(), self.sample_size, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_bench(Some(&self.name), &id.id, self.sample_size, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Accepts both `&str` and `BenchmarkId` where criterion does.
pub trait IntoBenchId {
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.id
    }
}

/// Passed to the closure; runs and times the routine.
pub struct Bencher {
    sample_size: usize,
    /// Per-iteration sample durations, filled by `iter`/`iter_batched`.
    samples_ns: Vec<f64>,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate a single-iteration cost.
        let t0 = Instant::now();
        std_black_box(routine());
        let estimate = t0.elapsed().max(Duration::from_nanos(1));

        let iters = iters_per_sample(estimate);
        let samples = budgeted_samples(self.sample_size, estimate, iters);
        self.samples_ns.clear();
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(routine());
            }
            let dt = start.elapsed();
            self.samples_ns.push(dt.as_nanos() as f64 / iters as f64);
        }
    }

    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Setup runs outside the timed region, once per iteration.
        let input = setup();
        let t0 = Instant::now();
        std_black_box(routine(input));
        let estimate = t0.elapsed().max(Duration::from_nanos(1));

        let iters = iters_per_sample(estimate);
        let samples = budgeted_samples(self.sample_size, estimate, iters);
        self.samples_ns.clear();
        for _ in 0..samples {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                std_black_box(routine(input));
                total += start.elapsed();
            }
            self.samples_ns.push(total.as_nanos() as f64 / iters as f64);
        }
    }
}

/// Enough iterations that one sample is ≳1 ms (caps timer noise).
fn iters_per_sample(estimate: Duration) -> u64 {
    let est_ns = estimate.as_nanos().max(1) as u64;
    (1_000_000 / est_ns).clamp(1, 1_000_000)
}

/// Cap total wall time per bench at ~10 s so slow model-level benches
/// (single-CPU full forwards) stay tractable; always >= 3 samples.
fn budgeted_samples(requested: usize, estimate: Duration, iters: u64) -> usize {
    let per_sample_ns = (estimate.as_nanos() as u64).saturating_mul(iters).max(1);
    let fit = (10_000_000_000u64 / per_sample_ns) as usize;
    requested.min(fit.max(3))
}

/// Criterion's CLI filter, set by `criterion_main!` only (so unit tests
/// that drive the engine directly are never filtered).
static FILTER: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();

/// Read the bench filter from the command line: the first non-flag
/// argument (cargo passes `--bench` ahead of it).
#[doc(hidden)]
pub fn filter_from_args() {
    FILTER.get_or_init(|| std::env::args().skip(1).find(|a| !a.starts_with('-')));
}

fn run_bench<F>(group: Option<&str>, id: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let full_id = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_string(),
    };
    if matches!(FILTER.get(), Some(Some(filter)) if !full_id.contains(filter)) {
        return;
    }
    let mut b = Bencher {
        sample_size,
        samples_ns: Vec::new(),
    };
    f(&mut b);
    if b.samples_ns.is_empty() {
        println!("{full_id:<56} (no samples)");
        return;
    }
    let mut sorted = b.samples_ns.clone();
    sorted.sort_by(|a, c| a.partial_cmp(c).unwrap());
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    println!(
        "{full_id:<56} min {:>12}  median {:>12}  mean {:>12}  ({} samples)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        sorted.len()
    );
    append_jsonl(&full_id, min, median, mean, sorted.len());
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Append a machine-readable record; failures are silently ignored
/// (benches must not fail because a results file is unwritable).
fn append_jsonl(id: &str, min: f64, median: f64, mean: f64, samples: usize) {
    let path = std::env::var("CRITERION_SHIM_OUT")
        .unwrap_or_else(|_| "target/criterion-shim.jsonl".to_string());
    let escaped: String = id
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    let line = format!(
        "{{\"id\":\"{escaped}\",\"min_ns\":{min:.1},\"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"samples\":{samples}}}\n"
    );
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(line.as_bytes());
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            $(
                {
                    let mut c: $crate::Criterion = $config;
                    $target(&mut c);
                }
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = <$crate::Criterion as ::std::default::Default>::default();
            targets = $($target),+
        );
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::filter_from_args();
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_samples() {
        let mut c = Criterion::default().sample_size(3);
        let mut ran = 0u64;
        c.bench_function("shim_smoke", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box(ran)
            })
        });
        assert!(ran > 0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("g");
        group.bench_with_input(BenchmarkId::new("f", 4), &4u64, |b, &n| {
            b.iter(|| std::hint::black_box(n * 2))
        });
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }

    #[test]
    fn iters_scale_with_estimate() {
        assert_eq!(iters_per_sample(Duration::from_millis(5)), 1);
        assert!(iters_per_sample(Duration::from_nanos(100)) >= 1_000);
    }
}
