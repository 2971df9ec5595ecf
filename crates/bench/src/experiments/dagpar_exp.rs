//! Threads inside one pass: `CAP_CNN_DAG` off vs auto, and teams of
//! pinned size, on the same branchy network, weights, fusion plan and
//! kernel path — so the measured delta is split kernels only, never a
//! numeric trade (a pass on a team is bit-identical to one thread by
//! the contract proved in `crates/cnn/tests/dag_parity.rs`).
//!
//! Batch 1 is the whole point: data-parallel chunking
//! ([`cap_cnn::ParallelEngine`]) cannot touch single-request latency,
//! while the steps of one pass — an inception module's branches among
//! them — each split their large kernels across the arena's team.
//!
//! The last section is the end-to-end evidence on full Googlenet at
//! batch 1: one thread against whatever `DagMode::Auto` gives a pass on
//! this host, alternated round by round.

use super::kernels_exp::best_secs;
use cap_cnn::dag::{self, DagMode};
use cap_cnn::layer::{
    ConcatLayer, ConvLayer, InnerProductLayer, PoolLayer, PoolMode, ReluLayer, SoftmaxLayer,
};
use cap_cnn::models::{googlenet, WeightInit};
use cap_cnn::network::{Network, NodeId, INPUT};
use cap_cnn::ForwardArena;
use cap_tensor::{init::xavier_uniform, kernels, Conv2dParams, Team, Tensor4, TensorResult};
use std::fmt::Write;
use std::time::{Duration, Instant};

/// Inception-module channel plan:
/// `(#1x1, #3x3reduce, #3x3, #5x5reduce, #5x5, #poolproj)`.
type InceptionPlan = (usize, usize, usize, usize, usize, usize);

/// conv + relu helper mirroring the Googlenet builder.
fn conv(
    net: &mut Network,
    name: &str,
    p: Conv2dParams,
    inputs: &[NodeId],
    salt: u64,
) -> TensorResult<NodeId> {
    let w = xavier_uniform(p.out_channels, p.in_per_group() * p.kh * p.kw, salt);
    let c = net.add_layer(
        Box::new(ConvLayer::new(name, p, w, vec![0.0; p.out_channels])?),
        inputs,
    )?;
    net.add_layer(Box::new(ReluLayer::new(format!("{name}-relu"))), &[c])
}

/// One four-branch inception module (1x1 / 3x3 / 5x5 / pool-proj),
/// exactly the Googlenet shape at reduced channel counts.
fn inception(
    net: &mut Network,
    tag: &str,
    input: NodeId,
    in_c: usize,
    plan: InceptionPlan,
    salt: u64,
) -> TensorResult<NodeId> {
    let (n1, n3r, n3, n5r, n5, np) = plan;
    let b1 = conv(
        net,
        &format!("{tag}-1x1"),
        Conv2dParams::new(in_c, n1, 1, 0, 1),
        &[input],
        salt,
    )?;
    let b2r = conv(
        net,
        &format!("{tag}-3x3-reduce"),
        Conv2dParams::new(in_c, n3r, 1, 0, 1),
        &[input],
        salt + 1,
    )?;
    let b2 = conv(
        net,
        &format!("{tag}-3x3"),
        Conv2dParams::new(n3r, n3, 3, 1, 1),
        &[b2r],
        salt + 2,
    )?;
    let b3r = conv(
        net,
        &format!("{tag}-5x5-reduce"),
        Conv2dParams::new(in_c, n5r, 1, 0, 1),
        &[input],
        salt + 3,
    )?;
    let b3 = conv(
        net,
        &format!("{tag}-5x5"),
        Conv2dParams::new(n5r, n5, 5, 2, 1),
        &[b3r],
        salt + 4,
    )?;
    let bp = net.add_layer(
        Box::new(PoolLayer::new(
            format!("{tag}-pool"),
            PoolMode::Max,
            3,
            1,
            1,
        )),
        &[input],
    )?;
    let b4 = conv(
        net,
        &format!("{tag}-pool-proj"),
        Conv2dParams::new(in_c, np, 1, 0, 1),
        &[bp],
        salt + 5,
    )?;
    net.add_layer(
        Box::new(ConcatLayer::new(format!("{tag}-output"))),
        &[b1, b2, b3, b4],
    )
}

/// An inception-shaped network scaled to 3×32×32 input: a conv stem and
/// two four-branch inception modules (Googlenet's module topology at
/// reduced channel counts), global average pooling, and a 10-way
/// classifier — branchy enough that the plan width reaches 4, small
/// enough that the ablation completes in seconds.
fn mini_inception() -> Network {
    let mut net = Network::new("mini-inception", (3, 32, 32));
    let stem = conv(
        &mut net,
        "stem",
        Conv2dParams::new(3, 32, 3, 1, 1),
        &[INPUT],
        70_001,
    )
    .unwrap();
    // 32 -> 16+24+12+12 = 64 channels.
    let ia = inception(
        &mut net,
        "mini-3a",
        stem,
        32,
        (16, 16, 24, 8, 12, 12),
        70_100,
    )
    .unwrap();
    // 64 -> 24+32+16+16 = 88 channels.
    let ib = inception(
        &mut net,
        "mini-3b",
        ia,
        64,
        (24, 24, 32, 12, 16, 16),
        70_200,
    )
    .unwrap();
    let gap = net
        .add_layer(
            Box::new(PoolLayer::new("gap", PoolMode::Avg, 32, 0, 1)),
            &[ib],
        )
        .unwrap();
    let fc = net
        .add_layer(
            Box::new(
                InnerProductLayer::new("fc", xavier_uniform(10, 88, 70_300), vec![0.0; 10])
                    .unwrap(),
            ),
            &[gap],
        )
        .unwrap();
    net.add_layer(Box::new(SoftmaxLayer::new("prob")), &[fc])
        .unwrap();
    net
}

/// Batch-1 input for [`mini_inception`].
fn one_image() -> Tensor4 {
    Tensor4::from_fn(1, 3, 32, 32, |_, c, h, w| {
        ((c * 17 + h * 3 + w) % 23) as f32 / 11.0 - 1.0
    })
}

/// Run `f` with the DAG mode pinned, restoring the environment-driven
/// selection afterwards.
fn on_mode<T>(mode: DagMode, f: impl FnOnce() -> T) -> T {
    dag::force(Some(mode));
    let out = f();
    dag::force(None);
    out
}

/// Best batch-1 forward latency through `arena` and the kernel splits
/// of one pass (one warm-up pass first).
fn latency(mut arena: ForwardArena, net: &Network, img: &Tensor4) -> (Duration, u64) {
    let splits = &cap_obs::metrics().intra_op_splits;
    let before = splits.get();
    net.forward_into(img, &mut arena).unwrap();
    let per_pass = splits.get() - before;
    let best = best_secs(|| {
        net.forward_into(img, &mut arena).unwrap();
    });
    (Duration::from_secs_f64(best), per_pass)
}

/// Alternating rounds of [`googlenet_schedules`] in the registry entry.
const GOOGLENET_ROUNDS: usize = 12;

/// Full Googlenet at batch 1 under `DagMode::Off` and `DagMode::Auto`,
/// both in every round (which goes first alternates) on one warmed
/// arena, so host drift lands on both arms alike: median, min and
/// rounds won per schedule. `Auto` gives a pass the host's cores, so
/// on a one-core host both arms run on one thread and tie.
fn googlenet_schedules(rounds: usize) -> String {
    let net = googlenet(WeightInit::Xavier { seed: 7 }).expect("googlenet builds");
    let img = Tensor4::from_fn(1, 3, 224, 224, |_, c, h, w| {
        ((c * 13 + h * 3 + w) % 23) as f32 / 23.0 - 0.5
    });
    let modes = [DagMode::Off, DagMode::Auto];
    let mut arena = ForwardArena::new();
    let mut pass_ms = |i: usize| {
        on_mode(modes[i], || {
            let t = Instant::now();
            net.forward_into(&img, &mut arena).unwrap();
            t.elapsed().as_secs_f64() * 1e3
        })
    };
    pass_ms(0);
    pass_ms(1);
    let auto_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut ms, mut wins) = ([Vec::new(), Vec::new()], [0usize; 2]);
    for r in 0..rounds {
        let mut round = [0.0; 2];
        for i in [r % 2, 1 - r % 2] {
            round[i] = pass_ms(i);
            ms[i].push(round[i]);
        }
        if round[0] != round[1] {
            wins[usize::from(round[1] < round[0])] += 1;
        }
    }
    let mut out = format!(
        "\n## Full Googlenet, batch 1: dag=off vs dag=auto ({auto_threads} threads), \
         {rounds} alternating rounds on one warmed arena\n\n\
         {:<10} {:>10} {:>10} {:>6}\n",
        "schedule", "median ms", "min ms", "wins"
    );
    for (i, mode) in modes.iter().enumerate() {
        ms[i].sort_by(f64::total_cmp);
        let median = (ms[i][(rounds - 1) / 2] + ms[i][rounds / 2]) / 2.0;
        let (name, min) = (mode.name(), ms[i][0]);
        writeln!(
            out,
            "dag={name:<6} {median:>10.1} {min:>10.1} {:>6}",
            wins[i]
        )
        .unwrap();
    }
    out
}

/// The `dagpar` registry entry: the mini-inception ablation, then the
/// full-Googlenet schedule comparison.
pub fn dagpar_ablation() -> String {
    let mut out = mini_inception_ablation();
    out.push_str(&googlenet_schedules(GOOGLENET_ROUNDS));
    out
}

/// `CAP_CNN_DAG` off vs auto and pinned teams on [`mini_inception`].
fn mini_inception_ablation() -> String {
    let mut out = String::new();
    writeln!(out, "# Threads inside one pass: CAP_CNN_DAG off vs auto").unwrap();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    writeln!(
        out,
        "\nkernel path: {} (same on both arms); dag default: {}; host cores: {}",
        kernels::selected().name(),
        dag::selected().name(),
        host,
    )
    .unwrap();

    let net = mini_inception();
    let img = one_image();

    writeln!(out, "\n## Batch-1 latency (best of repeated runs)\n").unwrap();
    writeln!(
        out,
        "{:<26} {:>12} {:>9} {:>7}",
        "arm", "latency ms", "speedup", "splits"
    )
    .unwrap();
    let mut rows: Vec<(String, (Duration, u64))> = [DagMode::Off, DagMode::Auto]
        .into_iter()
        .map(|mode| {
            let t = on_mode(mode, || latency(ForwardArena::new(), &net, &img));
            (format!("dag={}", mode.name()), t)
        })
        .collect();
    for threads in [2, 4] {
        let arena = ForwardArena::with_team(Team::new(threads));
        rows.push((format!("team of {threads}"), latency(arena, &net, &img)));
    }
    let (off, _) = rows[0].1;
    for (label, (t, splits)) in &rows {
        writeln!(
            out,
            "{label:<26} {:>12.3} {:>8.2}x {splits:>7}",
            t.as_secs_f64() * 1e3,
            off.as_secs_f64() / t.as_secs_f64().max(1e-12),
        )
        .unwrap();
    }

    writeln!(
        out,
        "\nparity contract: a pass on a team is bitwise identical to one \
         thread (crates/cnn/tests/dag_parity.rs); speedups are split \
         kernels only. `splits` counts the kernel calls of one pass cut \
         across the team; every step runs once, in plan order."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_inception_is_branchy_and_classifies() {
        let net = mini_inception();
        assert_eq!(net.output_shape().unwrap(), (10, 1, 1));
        // Two four-branch modules: the shapes behind the ablation.
        let a = net.node_id("mini-3a-output").unwrap();
        assert_eq!(net.shape_of(a).unwrap(), (64, 32, 32));
        let b = net.node_id("mini-3b-output").unwrap();
        assert_eq!(net.shape_of(b).unwrap(), (88, 32, 32));
        let y = net.forward(&one_image()).unwrap();
        let s: f32 = y.image(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn ablation_reports_every_arm() {
        let out = mini_inception_ablation();
        assert!(out.contains("off vs auto"), "{out}");
        for row in ["dag=off", "dag=auto", "team of 2", "team of 4"] {
            assert!(out.contains(&format!("\n{row} ")), "{row}: {out}");
        }
        // One round of the Googlenet comparison (same test: `force` is
        // process-global).
        let out = googlenet_schedules(1);
        assert!(out.contains("\ndag=off "), "{out}");
        assert!(out.contains("\ndag=auto "), "{out}");
        // Force must have been restored for later tests in this process.
        let env_off = std::env::var("CAP_CNN_DAG").as_deref() == Ok("off");
        assert_eq!(dag::selected().enabled(), !env_off);
    }
}
