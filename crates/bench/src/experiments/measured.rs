//! Measured-track experiments: no calibrated profiles involved — a
//! really-trained CNN, really pruned, really executed. Accuracy comes
//! from the training forward ([`SequentialNet::evaluate`]); every
//! millisecond comes from the production executor, `run_batched` over
//! [`SequentialNet::to_network`], so the weight form that runs is the
//! one `ConvLayer` selects.

use cap_cnn::layer::ConvLayer;
use cap_cnn::network::{NodeId, INPUT};
use cap_cnn::train::{SequentialBuilder, SequentialNet, Sgd, TrainLayer};
use cap_cnn::{run_batched, Network};
use cap_data::SyntheticImageNet;
use cap_pruning::magnitude::sparsity_mask;
use cap_pruning::prune_magnitude;
use cap_tensor::Tensor4;
use std::collections::HashMap;
use std::fmt::Write;

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

/// Batch size of the timed fig6m / fig8m passes. `run_batched` builds a
/// fresh arena per call, and first-touching it is a per-call cost that
/// depends on the allocator's state, not on the weights; eight chunks
/// per call (128 test images) keep it small against the compute, which
/// fig5m shows does not depend on the batch size.
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

/// The stored form each conv layer of `net` multiplies with in
/// `network`, the executor's copy of it ([`ConvLayer::weight_form_name`]
/// on the layer's geometry and input map): one name when all layers
/// agree, else one per layer.
fn conv_forms(net: &SequentialNet, network: &Network) -> String {
    let mut forms: Vec<&str> = net
        .layers()
        .iter()
        .enumerate()
        .filter_map(|(i, layer)| match layer {
            TrainLayer::Conv { params, w, .. } => {
                // `to_network` adds one node per layer, in order.
                let from = i.checked_sub(1).map_or(INPUT, NodeId);
                let (_, h, w_in) = network.shape_of(from).expect("node of the network");
                Some(ConvLayer::weight_form_name(w, params, (h, w_in)))
            }
            _ => None,
        })
        .collect();
    if forms.windows(2).all(|w| w[0] == w[1]) {
        forms.truncate(1);
    }
    forms.join("/")
}

/// Figure 6, measured: prune a really-trained TinyNet's convolution
/// layers across the standard ratio grid (with brief masked fine-tuning,
/// as the paper's pruning tool chain does) and record measured accuracy
/// and the production executor's batch latency.
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
        "\n{:>6} {:>10} {:>8} {:>8} {:>9} {:>12}",
        "ratio", "sparsity", "top1", "top5", "ms", "conv form"
    )
    .unwrap();
    // (ratio, top-1, ms, form) per row, for the trailer.
    let mut rows = Vec::new();
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
        let ms = best_wall_s(&network, &test_x, TIMED_BATCH) * 1000.0;
        let form = conv_forms(&pruned, &network);
        writeln!(
            out,
            "{:>5.0}% {:>9.1}% {:>7.1}% {:>7.1}% {:>9.2} {:>12}",
            ratio * 100.0,
            pruned.conv_sparsity() * 100.0,
            report.top1 * 100.0,
            report.top5 * 100.0,
            ms,
            form
        )
        .unwrap();
        rows.push((ratio, report.top1, ms, form));
    }
    let plateau = rows
        .iter()
        .take_while(|r| r.1 >= base.top1 - 0.01)
        .last()
        .map_or(0.0, |r| r.0);
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let csr_from = rows.iter().find(|r| r.3 == "csr").map_or_else(
        || "no row runs all-csr".to_string(),
        |r| format!("all conv layers run csr from {:.0}%", r.0 * 100.0),
    );
    writeln!(
        out,
        "\nfig6m: top-1 within 1 pp of baseline through {:.0}% pruning, {:.1}% at {:.0}%; {:.2} ms unpruned -> {:.2} ms at {:.0}% ({:.2}x); {csr_from}",
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
/// conv layers, with measured accuracy and production-executor latency.
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
        "{:<14} {:>8} {:>8} {:>11} {:>16}",
        "config", "top1", "top5", "latency ms", "conv form"
    )
    .unwrap();
    // (top-1, ms) per row, for the trailer.
    let mut rows = Vec::new();
    for (name, idxs) in variants {
        let mut pruned = net.clone();
        for &i in &idxs {
            prune_magnitude(pruned.layer_mut(i).unwrap().weights_mut().unwrap(), 0.85).unwrap();
        }
        let report = pruned.evaluate(&test_x, &test_labels).expect("eval");
        let network = pruned.to_network().expect("trained net as Network");
        let ms = best_wall_s(&network, &test_x, TIMED_BATCH) * 1000.0;
        writeln!(
            out,
            "{:<14} {:>7.1}% {:>7.1}% {:>11.2} {:>16}",
            name,
            report.top1 * 100.0,
            report.top5 * 100.0,
            ms,
            conv_forms(&pruned, &network)
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
