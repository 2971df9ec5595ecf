//! Integration tests of the `cap` command-line front end.

use std::process::Command;

fn cap(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cap"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage() {
    let (_, err, ok) = cap(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"));
}

#[test]
fn characterize_both_models() {
    for model in ["caffenet", "googlenet"] {
        let (out, _, ok) = cap(&["characterize", model]);
        assert!(ok, "{model}");
        assert!(out.contains(model));
        assert!(out.contains("single inference"));
        assert!(out.contains("headroom"));
    }
}

#[test]
fn sweep_reports_sweet_spot() {
    let (out, _, ok) = cap(&["sweep", "caffenet", "conv2"]);
    assert!(ok);
    assert!(out.contains("sweet spot: up to 50%"));
}

#[test]
fn sweep_unknown_layer_fails_with_hint() {
    let (_, err, ok) = cap(&["sweep", "caffenet", "conv9"]);
    assert!(!ok);
    assert!(err.contains("unknown layer"));
    let (_, err2, ok2) = cap(&["sweep", "caffenet"]);
    assert!(!ok2);
    assert!(err2.contains("conv1"), "lists prunable layers");
}

#[test]
fn spec_finds_paper_sweet_spot_combo() {
    let (out, _, ok) = cap(&["spec", "caffenet", "--top5", "0.70"]);
    assert!(ok);
    assert!(out.contains("conv1@30+conv2@50"), "{out}");
}

#[test]
fn spec_unreachable_floor_fails() {
    let (_, err, ok) = cap(&["spec", "caffenet", "--top5", "0.95"]);
    assert!(!ok);
    assert!(err.contains("unreachable"));
}

#[test]
fn allocate_reports_feasible_plan() {
    let (out, _, ok) = cap(&[
        "allocate",
        "--w",
        "500000",
        "--deadline-h",
        "4",
        "--budget",
        "50",
    ]);
    assert!(ok);
    assert!(out.contains("allocation:"));
    assert!(out.contains("cost $"));
}

#[test]
fn allocate_infeasible_exits_nonzero() {
    let (_, err, ok) = cap(&[
        "allocate",
        "--w",
        "1000000",
        "--deadline-h",
        "0.0001",
        "--budget",
        "0.01",
    ]);
    assert!(!ok);
    assert!(err.contains("no feasible"));
}

/// An unrecognised value of any execution knob aborts the process at
/// the knob's first resolve, naming the variable, the bad value and the
/// accepted set. `serve` runs real forward passes, so it resolves all
/// four.
#[test]
fn serve_metrics_out_writes_a_valid_exposition() {
    let path = std::env::temp_dir().join(format!("cap-cli-serve-{}.prom", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let (_, err, ok) = cap(&[
        "serve",
        "--load",
        "1",
        "--duration",
        "0.2",
        "--metrics-out",
        path_arg,
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    let stats = cap_obs::validate_prometheus(&text).expect("on-disk exposition validates");

    let mut families: Vec<(String, &str)> = cap_obs::INSTRUMENTS
        .iter()
        .map(|i| match i.kind {
            cap_obs::Kind::Counter => (format!("cap_{}_total", i.name), "counter"),
            kind => (format!("cap_{}", i.name), kind.as_str()),
        })
        .collect();
    for (_, _, prom) in cloud_cost_accuracy::serve::Series::ALL {
        families.extend(prom.map(|(family, _, _)| (family.to_string(), "counter")));
    }
    for gauge in [
        "latency_p50_us",
        "latency_p99_us",
        "error_budget_consumed",
        "burn_alerts",
    ] {
        families.push((format!("cap_tenant_{gauge}"), "gauge"));
    }
    for (family, ty) in &families {
        assert!(
            text.contains(&format!("# TYPE {family} {ty}\n")),
            "missing {ty} family {family}"
        );
    }
    assert_eq!(stats.families, families.len(), "no family beyond these");
    for tenant in ["dense", "pruned-60"] {
        assert!(text.contains(&format!("cap_tenant_offered_total{{tenant=\"{tenant}\"}}")));
    }
}

#[test]
fn unknown_knob_value_is_fatal_and_names_the_accepted_set() {
    // Rows 2, 4 and 6 are spellings that are no longer values: they
    // fail like any typo.
    for (var, value, accepted) in [
        ("CAP_TENSOR_KERNEL", "bogus", "auto, scalar, avx2"),
        ("CAP_TENSOR_KERNEL", "avx2-fma", "auto, scalar, avx2"),
        ("CAP_TENSOR_FUSION", "bogus", "auto, off"),
        ("CAP_TENSOR_FUSION", "on", "auto, off"),
        ("CAP_CNN_DAG", "bogus", "auto, off"),
        ("CAP_CNN_DAG", "on", "auto, off"),
        ("CAP_TENSOR_PRECISION", "bogus", "auto, f32, int8"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cap"))
            .args(["serve", "--duration", "0.05"])
            .env(var, value)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        let case = format!("{var}={value}: {err}");
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(err.contains(var), "{case}");
        assert!(err.contains(&format!("{value:?}")), "{case}");
        let set = format!("accepted: {accepted}");
        assert!(err.lines().any(|l| l.ends_with(&set)), "{case}");
    }
}
