//! Measured strong scaling of the data-parallel inference engine, and
//! the efficiency-curve fit that feeds `cap-cloud`'s execution
//! simulator.
//!
//! The paper's Eq. 4 divides a workload ideally across GPUs; this
//! experiment replaces that assumption with a measurement: the same
//! batched workload runs under 1..N engine workers, the speedup series
//! is fitted to an Amdahl [`EfficiencyCurve`], and the fitted parallel
//! fraction is compared against the checked-in calibration constant the
//! simulator uses by default.

use cap_cloud::{EfficiencyCurve, CALIBRATED_PARALLEL_FRACTION};
use cap_cnn::layer::{
    ConvLayer, DropoutLayer, InnerProductLayer, LrnLayer, PoolLayer, PoolMode, ReluLayer,
    SoftmaxLayer,
};
use cap_cnn::network::Network;
use cap_cnn::strong_scaling;
use cap_tensor::{init::xavier_uniform, Conv2dParams, Tensor4};
use std::fmt::Write;

/// A Caffenet-shaped network scaled to 3×64×64 input: the same
/// five-conv (three grouped) + LRN + overlapping-pool + three-FC
/// topology as Table 1, with channel counts reduced so the experiment
/// completes in seconds on one core.
pub fn mini_caffenet() -> Network {
    let mut net = Network::new("mini-caffenet", (3, 64, 64));
    let conv = |p: Conv2dParams, name: &str, salt: u64| {
        let w = xavier_uniform(p.out_channels, p.in_per_group() * p.kh * p.kw, salt);
        Box::new(ConvLayer::new(name, p, w, vec![0.0; p.out_channels]).unwrap())
    };
    // conv1: 3 -> 32, 7x7 stride 2 -> 32x31x31.
    net.add_sequential(conv(Conv2dParams::new(3, 32, 7, 2, 2), "conv1", 1))
        .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu1")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool1", PoolMode::Max, 3, 0, 2)))
        .unwrap();
    net.add_sequential(Box::new(LrnLayer::alexnet("norm1")))
        .unwrap();
    // conv2: grouped x2 like Caffenet's conv2 -> 64x15x15.
    net.add_sequential(conv(Conv2dParams::grouped(32, 64, 5, 2, 1, 2), "conv2", 2))
        .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu2")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool2", PoolMode::Max, 3, 0, 2)))
        .unwrap();
    net.add_sequential(Box::new(LrnLayer::alexnet("norm2")))
        .unwrap();
    // conv3-5 mirror the 3x3 stack, conv4/5 grouped.
    net.add_sequential(conv(Conv2dParams::new(64, 96, 3, 1, 1), "conv3", 3))
        .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu3")))
        .unwrap();
    net.add_sequential(conv(Conv2dParams::grouped(96, 96, 3, 1, 1, 2), "conv4", 4))
        .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu4")))
        .unwrap();
    net.add_sequential(conv(Conv2dParams::grouped(96, 64, 3, 1, 1, 2), "conv5", 5))
        .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu5")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool5", PoolMode::Max, 3, 0, 2)))
        .unwrap();
    // fc6-8 on the 64*3*3 flattened map.
    net.add_sequential(Box::new(
        InnerProductLayer::new("fc6", xavier_uniform(256, 64 * 9, 6), vec![0.01; 256]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu6")))
        .unwrap();
    net.add_sequential(Box::new(DropoutLayer::new("drop6", 0.5)))
        .unwrap();
    net.add_sequential(Box::new(
        InnerProductLayer::new("fc7", xavier_uniform(256, 256, 7), vec![0.01; 256]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu7")))
        .unwrap();
    net.add_sequential(Box::new(DropoutLayer::new("drop7", 0.5)))
        .unwrap();
    net.add_sequential(Box::new(
        InnerProductLayer::new("fc8", xavier_uniform(100, 256, 8), vec![0.0; 100]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

/// The experiment's fixed workload: 32 images at batch 8 (four chunks).
pub fn workload() -> Tensor4 {
    Tensor4::from_fn(32, 3, 64, 64, |n, c, h, w| {
        ((n * 31 + c * 17 + h * 3 + w) % 23) as f32 / 11.0 - 1.0
    })
}

/// Strong-scaling profile of [`cap_cnn::ParallelEngine`] on the
/// mini-Caffenet batch-8 workload, with the Amdahl fit.
pub fn scalingm() -> String {
    // Timed metrics on, registry reset before any (warm-up) pass runs:
    // the latency quantiles printed below then cover exactly this
    // experiment's forward passes (see `Gauge::record_max` on ordering).
    let _timing = cap_obs::TimingGuard::enable();
    cap_obs::metrics().reset();

    let net = mini_caffenet();
    let imgs = workload();
    let counts = [1usize, 2, 4];
    let series = strong_scaling(&net, &imgs, 8, &counts).expect("scaling run");
    let base = series[0].1;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    writeln!(
        out,
        "# Strong scaling (measured): ParallelEngine on mini-Caffenet, 32 images, batch 8"
    )
    .unwrap();
    writeln!(out, "host parallelism: {cores} core(s)").unwrap();
    writeln!(
        out,
        "{:>8} {:>12} {:>9} {:>11}",
        "workers", "images/s", "speedup", "efficiency"
    )
    .unwrap();
    for &(w, rate) in &series {
        let s = rate / base.max(1e-12);
        writeln!(
            out,
            "{:>8} {:>12.1} {:>8.2}x {:>10.0}%",
            w,
            rate,
            s,
            100.0 * s / w as f64
        )
        .unwrap();
    }

    let profile: Vec<(u32, f64)> = series.iter().map(|&(w, r)| (w as u32, r)).collect();
    match EfficiencyCurve::fit(&profile) {
        Some(curve) => {
            writeln!(
                out,
                "\nAmdahl fit: parallel fraction {:.3} (simulator default constant: {:.3})",
                curve.parallel_fraction(),
                CALIBRATED_PARALLEL_FRACTION
            )
            .unwrap();
            writeln!(
                out,
                "fitted speedup at 8 GPUs: {:.2}x, at 16 GPUs: {:.2}x (ideal: 8x / 16x)",
                curve.speedup(8),
                curve.speedup(16)
            )
            .unwrap();
        }
        None => writeln!(out, "\nAmdahl fit: unavailable (no multi-worker point)").unwrap(),
    }
    if cores < 2 {
        writeln!(
            out,
            "note: single-core host — measured speedup reflects scheduling overhead, \
             not hardware parallelism; the checked-in calibration constant was \
             fitted on a multi-core host"
        )
        .unwrap();
    }

    // Tail view of the same runs: per-chunk forward latency quantiles
    // from the registry's log-linear histogram (<= 1/32 relative error).
    let lat = cap_obs::metrics().snapshot().forward_latency_us;
    match lat.percentiles() {
        Some((p50, p90, p95, p99)) => writeln!(
            out,
            "\nchunk forward latency across all arms: n {} mean {:.0} us, \
             p50 {p50} p90 {p90} p95 {p95} p99 {p99} us",
            lat.count,
            lat.mean()
        )
        .unwrap(),
        None => writeln!(out, "\nchunk forward latency: no timed passes recorded").unwrap(),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_cnn::{run_batched, ParallelEngine};

    #[test]
    fn mini_caffenet_shapes_work_end_to_end() {
        let net = mini_caffenet();
        let x = Tensor4::from_fn(2, 3, 64, 64, |_, c, h, w| ((c + h + w) % 5) as f32 / 5.0);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), (2, 100, 1, 1));
    }

    #[test]
    fn scalingm_reports_fit_and_all_counts() {
        let out = scalingm();
        assert!(out.contains("workers"), "{out}");
        assert!(out.contains("Amdahl fit"), "{out}");
        // Its own timed passes guarantee non-empty latency quantiles.
        assert!(out.contains("p50 ") && out.contains("p99 "), "{out}");
    }

    /// Two engine workers split the Caffenet-shaped batch-8 workload
    /// between them, two chunks each, and return the sequential
    /// driver's outputs bit for bit. Deterministic on any host; how fast
    /// that is, is `two_workers_beat_sequential_when_cores_allow`.
    #[test]
    fn two_workers_share_the_work_and_match_sequential_bitwise() {
        let net = mini_caffenet();
        let imgs = workload();
        let (seq, _) = run_batched(&net, &imgs, 8).unwrap();
        let (par, report) = ParallelEngine::new(2).run_batched(&net, &imgs, 8).unwrap();
        let chunks: Vec<usize> = report.workers.iter().map(|w| w.chunks).collect();
        assert_eq!(chunks, [2, 2], "both workers ran");
        let bits = |rows: &[Vec<f32>]| -> Vec<u32> {
            rows.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert!(bits(&par) == bits(&seq), "2-worker outputs differ");
    }

    /// The speed behind the strong-scaling curve: with real hardware
    /// parallelism, two engine workers beat the sequential driver on
    /// the same workload. A wall-clock race against whatever else runs,
    /// so it runs on request, alone — `cargo test --release -p
    /// cap-bench --lib -- --ignored --nocapture two_workers_beat`, as
    /// CI's advisory job does — and prints one `scaling:` line.
    #[test]
    #[ignore = "wall-clock race; run alone with --ignored"]
    fn two_workers_beat_sequential_when_cores_allow() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 2 {
            println!("scaling: skipped, single-core host");
            return;
        }
        let net = mini_caffenet();
        let imgs = workload();
        let engine = ParallelEngine::new(2);
        let _ = run_batched(&net, &imgs, 8).unwrap(); // warm weights
        let _ = engine.run_batched(&net, &imgs, 8).unwrap(); // warm arenas

        // The two arms alternate round by round, best of 7 each, so a
        // slow host phase lands on both instead of on whichever arm
        // happened to run through it.
        let (mut seq_best, mut par_best) = (0.0f64, 0.0f64);
        for _ in 0..7 {
            let (_, r) = run_batched(&net, &imgs, 8).unwrap();
            seq_best = seq_best.max(r.images_per_s);
            let (_, r) = engine.run_batched(&net, &imgs, 8).unwrap();
            par_best = par_best.max(r.throughput.images_per_s);
        }
        println!(
            "scaling: 2 engine workers {par_best:.1} img/s vs sequential {seq_best:.1} img/s \
             ({:.2}x) on {cores} cores, mini-Caffenet batch 8",
            par_best / seq_best
        );
        assert!(
            par_best > seq_best,
            "2 workers {par_best:.1} img/s <= sequential {seq_best:.1} img/s"
        );
    }
}
