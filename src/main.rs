//! `cap` — command-line front end to the cost-accuracy toolkit.
//!
//! ```sh
//! cap characterize caffenet            # layer shares, prune headroom, saturation
//! cap sweep caffenet conv2             # single-layer sensitivity sweep
//! cap spec caffenet --top5 0.70        # min-time degree of pruning for a floor
//! cap explore --w 1000000 --deadline-h 10 --budget 300
//! cap allocate --w 1000000 --deadline-h 10 --budget 300
//! cap serve --load 2 --workers 2 --seed 42   # multi-tenant serving demo
//! cap serve --metrics-out metrics.prom       # + Prometheus exposition
//! CAP_OBS_PROM_ADDR=127.0.0.1:9464 cap serve --duration 5  # live scrape endpoint
//! ```

use cloud_cost_accuracy::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("spec") => cmd_spec(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("allocate") => cmd_allocate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => {
            eprintln!("usage: cap <characterize|sweep|spec|explore|allocate|serve> [args]");
            eprintln!("  characterize <caffenet|googlenet>");
            eprintln!("  sweep <caffenet|googlenet> <layer>");
            eprintln!("  spec <caffenet|googlenet> --top5 <floor> | --top1 <floor>");
            eprintln!("  explore  [--w N] [--deadline-h H] [--budget USD]");
            eprintln!("  allocate [--w N] [--deadline-h H] [--budget USD]");
            eprintln!(
                "  serve    [--load X] [--workers N] [--seed S] [--duration S] [--metrics-out FILE]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn profile_by_name(name: Option<&String>) -> AppProfile {
    match name.map(String::as_str) {
        Some("googlenet") => googlenet_profile(),
        _ => caffenet_profile(),
    }
}

fn flag(args: &[String], name: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn flag_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_characterize(args: &[String]) -> i32 {
    let profile = profile_by_name(args.first());
    println!("{} characterization", profile.name);
    println!(
        "  base: single inference {:.3} s, batched {:.2} min / 50k images, top1 {:.1}%, top5 {:.1}%",
        profile.base_single_latency_s,
        profile.base_batched_s_per_image * 50_000.0 / 60.0,
        profile.base_top1 * 100.0,
        profile.base_top5 * 100.0
    );
    println!("  single-inference layer shares:");
    for l in &profile.layers {
        if l.single_time_share >= 0.02 {
            println!("    {:<20} {:>5.1}%", l.name, l.single_time_share * 100.0);
        }
    }
    let spec = profile.uniform_spec(0.9);
    println!(
        "  uniform 90% pruning: single inference {:.3} s (headroom exists)",
        profile.single_latency_s(&spec)
    );
    0
}

fn cmd_sweep(args: &[String]) -> i32 {
    let profile = profile_by_name(args.first());
    let Some(layer) = args.get(1) else {
        eprintln!("sweep: layer name required; prunable layers:");
        for l in profile.conv_layer_names() {
            eprintln!("  {l}");
        }
        return 2;
    };
    if profile.layer(layer).is_none() {
        eprintln!("sweep: unknown layer {layer}");
        return 2;
    }
    let grid: Vec<f64> = (0..=9).map(|i| i as f64 / 10.0).collect();
    let sweep = cap_pruning::sensitivity::sweep_layer(&profile, layer, &grid);
    println!("{} / {layer}", profile.name);
    println!(
        "{:>7} {:>12} {:>8} {:>8}",
        "ratio", "time factor", "top1", "top5"
    );
    for p in &sweep.points {
        println!(
            "{:>6.0}% {:>12.3} {:>7.1}% {:>7.1}%",
            p.ratio * 100.0,
            p.time_factor,
            p.top1 * 100.0,
            p.top5 * 100.0
        );
    }
    if let Some(ss) = sweet_spot(&sweep.top5_curve(), &sweep.time_curve(), 1e-9) {
        println!(
            "sweet spot: up to {:.0}% at unchanged accuracy (time factor {:.3})",
            ss.last_ratio * 100.0,
            ss.time_factor_at_last
        );
    }
    0
}

fn cmd_spec(args: &[String]) -> i32 {
    let profile = profile_by_name(args.first());
    let floor = if let Some(f) = flag(args, "--top5") {
        cap_core::Floor::Top5(f)
    } else if let Some(f) = flag(args, "--top1") {
        cap_core::Floor::Top1(f)
    } else {
        eprintln!("spec: provide --top5 <floor> or --top1 <floor>");
        return 2;
    };
    match cap_core::min_time_spec(&profile, floor) {
        Some(r) => {
            println!(
                "min-time degree of pruning for {}: {}",
                profile.name,
                r.spec.label()
            );
            println!(
                "  time factor {:.3}, top1 {:.1}%, top5 {:.1}% ({} evaluations)",
                r.time_factor,
                r.top1 * 100.0,
                r.top5 * 100.0,
                r.evaluations
            );
            0
        }
        None => {
            eprintln!("spec: floor unreachable even unpruned");
            1
        }
    }
}

fn explore_space(w: u64) -> Vec<EvaluatedConfig> {
    let profile = caffenet_profile();
    let versions = caffenet_version_grid(&profile);
    let p2: Vec<InstanceType> = catalog()
        .into_iter()
        .filter(|i| i.family() == "p2")
        .collect();
    let configs = enumerate_configs(&p2, 3);
    evaluate_grid(&versions, &configs, w, &[48, 160, 512])
}

fn cmd_explore(args: &[String]) -> i32 {
    let w = flag(args, "--w").unwrap_or(1_000_000.0) as u64;
    let deadline_s = flag(args, "--deadline-h").unwrap_or(10.0) * 3600.0;
    let budget = flag(args, "--budget").unwrap_or(300.0);
    let evals = explore_space(w);
    let feasible: Vec<EvaluatedConfig> = evals
        .iter()
        .filter(|e| e.time_s <= deadline_s && e.cost_usd <= budget)
        .cloned()
        .collect();
    println!(
        "{} candidates, {} feasible under {:.1} h / ${budget}",
        evals.len(),
        feasible.len(),
        deadline_s / 3600.0
    );
    for (metric, name) in [
        (AccuracyMetric::Top1, "top1"),
        (AccuracyMetric::Top5, "top5"),
    ] {
        let front = frontier_indices(&feasible, metric, Objective::Cost);
        println!(
            "\n{name} cost-accuracy frontier ({} points, top 8 shown):",
            front.len()
        );
        for &i in front.iter().take(8) {
            let e = &feasible[i];
            println!(
                "  acc {:>5.1}%  ${:>7.2}  {:>5.2} h  {} on {}",
                e.accuracy(metric) * 100.0,
                e.cost_usd,
                e.time_s / 3600.0,
                e.version_label,
                e.config_label
            );
        }
    }
    0
}

fn cmd_serve(args: &[String]) -> i32 {
    use cloud_cost_accuracy::serve::fleet;

    let load = flag(args, "--load").unwrap_or(1.0).max(0.01);
    let workers = flag(args, "--workers").unwrap_or(2.0).max(1.0) as usize;
    let seed = flag(args, "--seed").unwrap_or(42.0) as u64;
    let duration_s = flag(args, "--duration").unwrap_or(0.5).clamp(0.01, 10.0);
    let metrics_out = flag_str(args, "--metrics-out");

    // Live scrape endpoint: serve the registry exposition over plain
    // HTTP while the run executes. Opt-in via env so the default CLI
    // path never opens a socket.
    if let Ok(addr) = std::env::var("CAP_OBS_PROM_ADDR") {
        match cap_obs::spawn_exporter(&addr) {
            Ok(bound) => eprintln!("prometheus exporter listening on http://{bound}/metrics"),
            Err(e) => {
                eprintln!("serve: CAP_OBS_PROM_ADDR {addr}: {e}");
                return 1;
            }
        }
    }

    let tenants = vec![
        fleet::pruned_tenant("dense", 1, 0.0),
        fleet::pruned_tenant("pruned-60", 2, 0.6),
    ];
    let mut router = Router::new(
        RouterConfig {
            workers,
            collect_outputs: false,
            ..RouterConfig::default()
        },
        tenants,
    );
    let trace = generate_trace(
        seed,
        &[
            ArrivalPattern::Poisson {
                rate_per_s: 800.0 * load,
            },
            ArrivalPattern::Burst {
                base_per_s: 300.0 * load,
                burst_per_s: 3_000.0 * load,
                burst_every_s: 0.25,
                burst_len_s: 0.05,
            },
        ],
        duration_s,
    );
    let pool = fleet::demo_images(8);
    let report = match router.serve_trace(&trace, &[pool.clone(), pool]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve: {e}");
            return 1;
        }
    };

    println!(
        "serving demo: 2 tenants, {workers} worker(s), load x{load}, seed {seed}, {duration_s} virtual s"
    );
    println!(
        "{:<10} {:>8} {:>8} {:>6} {:>8} {:>7} {:>9} {:>9}",
        "tenant", "offered", "admit", "shed", "batches", "mean b", "p50 ms", "p99 ms"
    );
    for t in &report.tenants {
        println!(
            "{:<10} {:>8} {:>8} {:>6} {:>8} {:>7.2} {:>9.2} {:>9.2}",
            t.name,
            t.offered,
            t.admitted,
            t.shed,
            t.batches,
            t.mean_batch,
            t.p50_us as f64 / 1e3,
            t.p99_us as f64 / 1e3
        );
    }
    let p2 = by_name("p2.xlarge").expect("catalog");
    println!(
        "aggregate: {:.0} inf/s; cost/1k ${:.6} on {} (${}/h)",
        report.throughput_per_s,
        report.cost_per_1k_usd(p2.price_per_hour),
        p2.name,
        p2.price_per_hour
    );

    // Prometheus exposition of the finished run: the registry families
    // plus the per-tenant serving section (admission counters, latency
    // quantiles, error-budget standing), written only if it passes
    // the strict cap_obs checker.
    if let Some(path) = metrics_out {
        let mut w = cap_obs::PromWriter::new();
        cap_obs::append_registry(&mut w, &cap_obs::metrics().snapshot());
        cloud_cost_accuracy::serve::append_serve_prometheus(&mut w, &report);
        let text = w.finish();
        if let Err(e) = cap_obs::validate_prometheus(&text) {
            eprintln!("serve: generated exposition failed validation: {e}");
            return 1;
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("serve: failed writing {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    0
}

fn cmd_allocate(args: &[String]) -> i32 {
    let w = flag(args, "--w").unwrap_or(1_000_000.0) as u64;
    let deadline_s = flag(args, "--deadline-h").unwrap_or(10.0) * 3600.0;
    let budget = flag(args, "--budget").unwrap_or(300.0);
    let profile = caffenet_profile();
    let versions = caffenet_version_grid(&profile);
    let pool: Vec<InstanceType> = catalog()
        .into_iter()
        .flat_map(|i| std::iter::repeat_n(i, 3))
        .collect();
    match allocate(
        &versions,
        &pool,
        &AllocationRequest {
            w,
            batch: 512,
            deadline_s,
            budget_usd: budget,
            metric: AccuracyMetric::Top1,
        },
    ) {
        Some(r) => {
            let v = &versions[r.version_idx];
            println!("allocation: {} on {}", v.label(), r.config.label());
            println!(
                "  top1 {:.1}%, top5 {:.1}%, time {:.2} h, cost ${:.2} ({} evaluations)",
                v.top1 * 100.0,
                v.top5 * 100.0,
                r.time_s / 3600.0,
                r.cost_usd,
                r.evaluations
            );
            0
        }
        None => {
            eprintln!(
                "no feasible allocation under {:.1} h / ${budget}",
                deadline_s / 3600.0
            );
            1
        }
    }
}
