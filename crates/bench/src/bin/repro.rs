//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p cap-bench --bin repro -- --list
//! cargo run --release -p cap-bench --bin repro -- --exp fig8
//! cargo run --release -p cap-bench --bin repro -- --exp all
//! cargo run --release -p cap-bench --bin repro -- --exp all --out results/
//! # Chrome trace_event timeline of the profile experiment (load in
//! # Perfetto / chrome://tracing):
//! cargo run --release -p cap-bench --bin repro -- --exp profile --trace-out trace.json
//! # Virtual-clock serving timeline: one track per tenant plus router
//! # worker tracks, bit-identical run to run:
//! cargo run --release -p cap-bench --bin repro -- --exp serve --trace-out serve.json
//! ```

use cap_bench::experiments::{profile, serve_exp};
use cap_bench::{run_experiment, EXPERIMENTS};
use std::path::Path;

fn usage() -> ! {
    eprintln!("usage: repro --exp <id>|all [--out DIR] [--trace-out FILE] | --list");
    eprintln!("experiments:");
    for (id, desc, _) in EXPERIMENTS {
        eprintln!("  {id:<15} {desc}");
    }
    std::process::exit(2);
}

fn emit(id: &str, report: &str, out_dir: Option<&str>) {
    match out_dir {
        Some(dir) => {
            let path = Path::new(dir).join(format!("{id}.txt"));
            if let Err(e) = std::fs::write(&path, report) {
                eprintln!("failed writing {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
        None => println!("{report}"),
    }
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed writing {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut list = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => list = true,
            "--exp" => {
                exp = args.get(i + 1).cloned();
                i += 1;
            }
            "--out" => {
                out_dir = args.get(i + 1).cloned();
                i += 1;
            }
            "--trace-out" => {
                trace_out = args.get(i + 1).cloned();
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }
    if list {
        for (id, desc, _) in EXPERIMENTS {
            println!("{id:<15} {desc}");
        }
        return;
    }
    let Some(exp) = exp else { usage() };
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed creating {dir}: {e}");
            std::process::exit(1);
        }
    }
    // --trace-out works for any experiment with a span source: profile
    // (wall-clock forward-pass spans) and serve (virtual-clock request
    // lifecycle spans).
    if trace_out.is_some() && !matches!(exp.as_str(), "profile" | "serve") {
        eprintln!("--trace-out requires an experiment with a span source (profile, serve)");
        usage();
    }

    if exp == "profile" {
        let (report, spans) = profile::profile_caffenet_with_trace();
        emit("profile", &report, out_dir.as_deref());
        if let Some(path) = trace_out {
            write_file(&path, &cap_obs::chrome_trace_json(&spans));
        }
        return;
    }
    if exp == "serve" && trace_out.is_some() {
        let (report, spans) = serve_exp::serve_with_trace();
        emit("serve", &report, out_dir.as_deref());
        if let Some(path) = trace_out {
            write_file(&path, &cap_obs::chrome_trace_json(&spans));
        }
        return;
    }
    if exp == "all" {
        for (id, _, _) in EXPERIMENTS {
            if out_dir.is_none() {
                println!("{}", "=".repeat(72));
            }
            match run_experiment(id) {
                Some(report) => emit(id, &report, out_dir.as_deref()),
                None => eprintln!("experiment {id} failed to run"),
            }
        }
    } else {
        match run_experiment(&exp) {
            Some(report) => emit(&exp, &report, out_dir.as_deref()),
            None => {
                eprintln!("unknown experiment: {exp}");
                usage();
            }
        }
    }
}
