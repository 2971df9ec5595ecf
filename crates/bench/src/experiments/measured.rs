//! Measured-track experiments: no calibrated profiles involved — a
//! really-trained CNN, really pruned, really executed. Accuracy comes
//! from the training forward ([`SequentialNet::evaluate`]); every
//! millisecond comes from the production executor, `run_batched` over
//! [`SequentialNet::to_network`]. A magnitude-pruned conv runs dense
//! there, so its zeros cost what its weights did.

use cap_cnn::train::{SequentialBuilder, SequentialNet, Sgd};
use cap_cnn::{run_batched, ForwardArena, Network};
use cap_data::SyntheticImageNet;
use cap_pruning::magnitude::sparsity_mask;
use cap_pruning::prune_magnitude;
use cap_tensor::Tensor4;
use std::collections::HashMap;
use std::fmt::Write;
use std::time::Instant;

/// The TinyNet preset after 40 SGD steps of 32 images.
pub(crate) fn train(data: &SyntheticImageNet, seed: u64) -> SequentialNet {
    let net =
        SequentialNet::tinynet(data.image_shape, 8, 12, data.classes, seed).expect("shape ok");
    train_epochs(net, data, 5)
}

fn train_epochs(mut net: SequentialNet, data: &SyntheticImageNet, epochs: usize) -> SequentialNet {
    let mut sgd = Sgd::new(0.03, 0.9);
    for _epoch in 0..epochs {
        for b in 0..8 {
            let (x, labels) = data.batch(b * 32, 32);
            net.train_batch(&x, &labels, &mut sgd, None)
                .expect("train step");
        }
    }
    net
}

/// Batch size of the timed fig6m / fig8m passes: eight chunks per pass
/// over the 128 test images, through one reused arena
/// ([`interleaved_best_ms`]); fig5m shows the compute does not depend
/// on the batch size.
const TIMED_BATCH: usize = 16;

/// Seconds the production executor takes over `images` in batches of
/// `batch`: min-of-3 of `run_batched`'s own stopwatch (§3.3), after a
/// warm-up pass that builds the layers' derived weight forms.
pub(crate) fn best_wall_s(net: &Network, images: &Tensor4, batch: usize) -> f64 {
    let wall_s = || {
        run_batched(net, images, batch)
            .expect("forward pass")
            .1
            .wall_s
    };
    wall_s();
    (0..3).map(|_| wall_s()).fold(f64::INFINITY, f64::min)
}

/// Rounds of [`interleaved_best_ms`].
const TIMED_ROUNDS: usize = 9;

/// Milliseconds each of `nets` takes over `images` in batches of
/// `batch`, all through one reused arena: after a warm-up pass of each,
/// every round times each net once — which goes first rotates — and
/// each keeps its fastest round, so a phase of the host lands on every
/// net alike instead of on whichever ran during it.
fn interleaved_best_ms(nets: &[&Network], images: &Tensor4, batch: usize) -> Vec<f64> {
    let (c, h, w) = (images.c(), images.h(), images.w());
    let chunks: Vec<Tensor4> = (0..images.n())
        .step_by(batch)
        .map(|i| {
            let take = batch.min(images.n() - i);
            let mut chunk = Tensor4::zeros(take, c, h, w);
            for j in 0..take {
                chunk.image_mut(j).copy_from_slice(images.image(i + j));
            }
            chunk
        })
        .collect();
    let mut arena = ForwardArena::new();
    let mut pass_ms = |net: &Network| {
        let t = Instant::now();
        for chunk in &chunks {
            net.forward_into(chunk, &mut arena).expect("forward pass");
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    for net in nets {
        pass_ms(net);
    }
    let mut best = vec![f64::INFINITY; nets.len()];
    for round in 0..TIMED_ROUNDS {
        for j in 0..nets.len() {
            let i = (round + j) % nets.len();
            best[i] = best[i].min(pass_ms(nets[i]));
        }
    }
    best
}

/// Figure 6, measured: prune a really-trained TinyNet's convolution
/// layers across the standard ratio grid (with brief masked fine-tuning,
/// as the paper's pruning tool chain does) and record measured accuracy
/// and the production executor's batch latency (the ten timed
/// interleaved, [`interleaved_best_ms`]).
pub fn fig6m() -> String {
    let data = SyntheticImageNet::tiny(2026);
    let net = train(&data, 7);
    let (test_x, test_labels) = data.batch(10_000, 128);
    let base = net.evaluate(&test_x, &test_labels).expect("eval");
    let convs = [0, 3];

    let mut out = String::new();
    writeln!(
        out,
        "# Figure 6 (measured): TinyNet pruning, trained on synthetic data"
    )
    .unwrap();
    writeln!(
        out,
        "baseline: top1 {:.1}%, top5 {:.1}% over {} held-out images",
        base.top1 * 100.0,
        base.top5 * 100.0,
        base.n
    )
    .unwrap();
    writeln!(
        out,
        "\n{:>6} {:>10} {:>8} {:>8} {:>9}",
        "ratio", "sparsity", "top1", "top5", "ms"
    )
    .unwrap();
    // Prune and evaluate every ratio first, then time the ten networks
    // interleaved, so a phase of the host lands on every ratio alike.
    let mut versions = Vec::new();
    for i in 0..=9u32 {
        let ratio = i as f64 / 10.0;
        let mut pruned = net.clone();
        let mut masks = HashMap::new();
        for idx in convs {
            let w = pruned.layer_mut(idx).unwrap().weights_mut().unwrap();
            prune_magnitude(w, ratio).unwrap();
            masks.insert(idx, sparsity_mask(w));
        }
        if ratio > 0.0 {
            let mut ft = Sgd::new(0.01, 0.9);
            for b in 0..4 {
                let (x, labels) = data.batch(b * 32, 32);
                pruned
                    .train_batch(&x, &labels, &mut ft, Some(&masks))
                    .unwrap();
            }
        }
        let report = pruned.evaluate(&test_x, &test_labels).unwrap();
        let network = pruned.to_network().expect("trained net as Network");
        versions.push((ratio, pruned.conv_sparsity(), report, network));
    }
    let networks: Vec<&Network> = versions.iter().map(|v| &v.3).collect();
    let ms = interleaved_best_ms(&networks, &test_x, TIMED_BATCH);
    // (ratio, top-1, ms) per row, for the trailer.
    let mut rows = Vec::new();
    for ((ratio, sparsity, report, _), ms) in versions.iter().zip(ms) {
        writeln!(
            out,
            "{:>5.0}% {:>9.1}% {:>7.1}% {:>7.1}% {:>9.2}",
            ratio * 100.0,
            sparsity * 100.0,
            report.top1 * 100.0,
            report.top5 * 100.0,
            ms,
        )
        .unwrap();
        rows.push((*ratio, report.top1, ms));
    }
    let plateau = rows
        .iter()
        .take_while(|r| r.1 >= base.top1 - 0.01)
        .last()
        .map_or(0.0, |r| r.0);
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    writeln!(
        out,
        "\nfig6m: top-1 within 1 pp of baseline through {:.0}% pruning, {:.1}% at {:.0}%; {:.2} ms unpruned -> {:.2} ms at {:.0}% ({:.2}x)",
        plateau * 100.0,
        last.1 * 100.0,
        last.0 * 100.0,
        first.2,
        last.2,
        last.0 * 100.0,
        first.2 / last.2,
    )
    .unwrap();
    out
}

/// Figure 5, measured: throughput of the implemented framework versus
/// batch size ("parallel inferences" on the CPU substrate).
pub fn fig5m() -> String {
    let data = SyntheticImageNet::tiny(11);
    let net = train(&data, 3)
        .to_network()
        .expect("trained net as Network");
    let (imgs, _) = data.batch(20_000, 256);
    let mut out = String::new();
    writeln!(
        out,
        "# Figure 5 (measured): TinyNet throughput vs batch size"
    )
    .unwrap();
    writeln!(out, "{:>7} {:>14}", "batch", "images/s").unwrap();
    let mut rates = Vec::new();
    for b in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let rate = imgs.n() as f64 / best_wall_s(&net, &imgs, b);
        writeln!(out, "{:>7} {:>14.0}", b, rate).unwrap();
        rates.push((b, rate));
    }
    let (first, last) = (rates[0], rates[rates.len() - 1]);
    let peak = rates
        .iter()
        .fold(first, |m, &r| if r.1 > m.1 { r } else { m });
    writeln!(
        out,
        "\nfig5m: batching speedup over batch 1: {:.2}x at batch {}, peak {:.2}x at batch {} (paper's GPU curve: ~2.8x, saturating at ~300)",
        last.1 / first.1,
        last.0,
        peak.1 / first.1,
        peak.0
    )
    .unwrap();
    out
}

/// Figure 8, measured: multi-layer pruning on a really-trained
/// three-conv "mini-Caffenet" — nonpruned vs first-two layers vs all
/// conv layers, with measured accuracy and production-executor latency
/// (the three timed interleaved, [`interleaved_best_ms`]: their
/// differences are a few percent, within one phase of the host).
pub fn fig8m() -> String {
    let data = SyntheticImageNet {
        classes: 8,
        image_shape: (3, 16, 16),
        seed: 909,
        noise: 0.8,
    };
    let net = SequentialBuilder::new(data.image_shape, 77)
        .conv(8, 3, 1)
        .relu()
        .maxpool(2)
        .conv(12, 3, 1)
        .relu()
        .maxpool(2)
        .conv(12, 3, 1)
        .relu()
        .fc(data.classes)
        .expect("geometry valid");
    let net = train_epochs(net, &data, 6);
    let (test_x, test_labels) = data.batch(12_000, 128);

    let conv_indices = net.weighted_layer_indices();
    let convs = &conv_indices[..conv_indices.len() - 1]; // drop the fc head
    let variants: Vec<(&str, Vec<usize>)> = vec![
        ("nonpruned", vec![]),
        ("conv1-2 @85%", convs[..2].to_vec()),
        ("all-conv @85%", convs.to_vec()),
    ];

    let mut out = String::new();
    writeln!(
        out,
        "# Figure 8 (measured): multi-layer pruning on a 3-conv SequentialNet"
    )
    .unwrap();
    writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>11}",
        "config", "top1", "top5", "latency ms"
    )
    .unwrap();
    let mut configs = Vec::new();
    for (name, idxs) in variants {
        let mut pruned = net.clone();
        for &i in &idxs {
            prune_magnitude(pruned.layer_mut(i).unwrap().weights_mut().unwrap(), 0.85).unwrap();
        }
        let report = pruned.evaluate(&test_x, &test_labels).expect("eval");
        let network = pruned.to_network().expect("trained net as Network");
        configs.push((name, report, network));
    }
    let networks: Vec<&Network> = configs.iter().map(|c| &c.2).collect();
    let ms = interleaved_best_ms(&networks, &test_x, TIMED_BATCH);
    // (top-1, ms) per row, for the trailer.
    let mut rows = Vec::new();
    for ((name, report, _), ms) in configs.iter().zip(ms) {
        writeln!(
            out,
            "{:<14} {:>7.1}% {:>7.1}% {:>11.2}",
            name,
            report.top1 * 100.0,
            report.top5 * 100.0,
            ms,
        )
        .unwrap();
        rows.push((report.top1, ms));
    }
    let falls = |f: fn(&(f64, f64)) -> f64| rows.windows(2).all(|w| f(&w[1]) < f(&w[0]));
    let verdict = |falls: bool| if falls { "falls" } else { "does NOT fall" };
    writeln!(
        out,
        "\nfig8m: Observation 3, measured: top-1 {:.1} -> {:.1} -> {:.1} % {} and latency {:.2} -> {:.2} -> {:.2} ms {} with every layer group pruned",
        rows[0].0 * 100.0,
        rows[1].0 * 100.0,
        rows[2].0 * 100.0,
        verdict(falls(|r| r.0)),
        rows[0].1,
        rows[1].1,
        rows[2].1,
        verdict(falls(|r| r.1)),
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    // fig6m/fig5m are exercised by the repro binary and the experiments
    // registry test; their building blocks are unit-tested in cap-cnn
    // and cap-pruning. Here we only check they produce plausible output
    // quickly enough for CI when run explicitly.
    #[test]
    #[ignore = "several seconds of training; run with --ignored"]
    fn fig6m_runs() {
        let out = super::fig6m();
        assert!(out.contains("baseline"));
        assert!(out.lines().count() > 12);
    }
}
