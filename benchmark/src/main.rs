//! `capbench`: the repository's one fixed benchmark. See `README.md`.

mod adapter;
mod alloc;
mod compare;
mod host;
mod inputs;
mod json;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;
mod suite;
mod traced;
mod workloads;

use json::Value;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  capbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
      one run of one workload; the last stdout line is the result JSON
      (--trace 0: end-to-end metrics, tracing off;
       --trace 1: per-layer metrics from the traced run)
  capbench run    --seed N --out FILE [--runs R] [--smoke]
  capbench traced --seed N --out FILE [--runs R] [--smoke]
      every workload, R runs each (seeds N..N+R-1), each in its own child
      process; `run` is end to end, `traced` is per layer; a run measures
      the benchmark's fixed window, or a tenth of it under --smoke
  capbench compare A B
      A is the base; exits 1 on any regressed row or on more failed ops
  capbench benchmark-json
      print BENCHMARK.json as generated from the tables in src/spec.rs
workloads: caffenet_dense_b1 caffenet_pruned_b1 googlenet_dense_b1
           caffenet_int8_b8 serve_mix_small";

/// `--key value` pairs for the keys named in `valued`, plus the bare
/// `--switch`es named in `switches`; any other argument is an error.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected argument {key:?}"));
            };
            if switches.contains(&name) {
                out.push((name.to_string(), "true".to_string()));
                continue;
            }
            if !valued.contains(&name) {
                return Err(format!("this command does not take --{name}"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Self(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("--{name}: cannot read {raw:?}"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.optional(name)?
            .ok_or_else(|| format!("missing --{name}"))
    }
}

fn check_seconds(seconds: f64) -> Result<f64, String> {
    if seconds > 0.0 && seconds <= 60.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds}: want 0 < S <= 60"))
    }
}

/// Remove every `CAP_*` variable so each knob resolves to `auto`, then
/// set the one variable the workload asks for. Must run before the first
/// call into the stack (the knobs are read once) and before any thread
/// exists.
fn scrub_env(workload: Workload) {
    let stale: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CAP_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
    if let Some((k, v)) = workload.env() {
        std::env::set_var(k, v);
    }
}

fn single_run(flags: &Flags) -> Result<(), String> {
    let name: String = flags.required("workload")?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.required("seed")?;
    let seconds = check_seconds(flags.required("seconds")?)?;
    let trace: u8 = flags.required("trace")?;
    scrub_env(workload);
    let mut result = match trace {
        0 => run::end_to_end(workload, seed, seconds)?,
        1 => traced::per_layer(workload, seed, seconds, flags.get("spans-out"))?,
        _ => return Err(format!("--trace {trace}: want 0 or 1")),
    };
    if trace == 1 {
        // The result line has to carry a number under every per-layer
        // name. A row this workload did not measure prints as 0 there;
        // the `unmeasured` note names each one, and `capbench traced`
        // leaves them out of its result file.
        for m in spec::PER_LAYER {
            result.metrics.entry(m.name).or_insert((0.0, m.unit));
        }
    }

    // The run header: what the knobs resolved to, and what built this.
    let modes = adapter::resolved_modes();
    let header = [
        ("kernel_path", modes.kernel_path.to_string()),
        ("fusion", modes.fusion.to_string()),
        ("dag", modes.dag.to_string()),
        ("precision", modes.precision.to_string()),
        ("nproc", host::nproc().to_string()),
        ("rustc", env!("CAPBENCH_RUSTC_VERSION").to_string()),
    ];
    for (k, v) in header
        .iter()
        .map(|(k, v)| (*k, v))
        .chain(result.notes.iter().map(|(k, v)| (*k, v)))
    {
        eprintln!("capbench: {}: {k} = {v}", workload.name());
    }

    let metrics = Value::Map(
        result
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.to_string(),
                    json::obj(vec![
                        ("value", json::num(*value)),
                        ("unit", json::text(*unit)),
                    ]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        json::compact(&json::obj(vec![
            ("correct", Value::Bool(result.correct())),
            ("attempted", json::int(result.attempted)),
            ("failed", json::int(result.failed)),
            ("metrics", metrics),
        ]))
    );
    Ok(())
}

fn suite_run(mode: suite::Mode, args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["seed", "out", "runs"], &["smoke"])?;
    suite::run(&suite::SuiteArgs {
        mode,
        seed: flags.required("seed")?,
        runs: flags.optional("runs")?.unwrap_or(10).max(1),
        smoke: flags.get("smoke").is_some(),
        out: flags.required("out")?,
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let read = |path: &String| -> Result<compare::ResultFile, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::ResultFile::parse(&raw).map_err(|e| format!("{path}: {e}"))
    };
    let report = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", report.text);
    println!(
        "{} regressed, {} workloads with more failed ops",
        report.regressed, report.more_failures
    );
    Ok(if report.regressed + report.more_failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => suite_run(suite::Mode::Run, &args[1..]).map(|()| ExitCode::SUCCESS),
        Some("traced") => suite_run(suite::Mode::Traced, &args[1..]).map(|()| ExitCode::SUCCESS),
        Some("compare") => compare_files(&args[1..]),
        Some("benchmark-json") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some(_) => Flags::parse(
            &args,
            &["workload", "seed", "seconds", "trace", "spans-out"],
            &[],
        )
        .and_then(|f| single_run(&f))
        .map(|()| ExitCode::SUCCESS),
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("capbench: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
