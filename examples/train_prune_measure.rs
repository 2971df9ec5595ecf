//! Train–prune–measure: the end-to-end *measured* counterpart of the
//! calibrated profiles. Trains TinyNet on synthetic images, prunes its
//! convolution layers at increasing ratios (with brief fine-tuning), and
//! measures — not models — the accuracy curve and the time the
//! production executor (`to_network()` + `run_batched`) takes on the
//! pruned weights. This is the paper's methodology executed for real at
//! laptop scale.
//!
//! ```sh
//! cargo run --release --example train_prune_measure
//! ```

use cap_cnn::layer::{ConvLayer, SPARSE_THRESHOLD};
use cap_cnn::network::{NodeId, INPUT};
use cap_cnn::train::TrainLayer;
use cap_pruning::magnitude::sparsity_mask;
use cloud_cost_accuracy::prelude::*;
use std::collections::HashMap;

fn main() {
    let data = SyntheticImageNet::tiny(2024);
    let mut net =
        SequentialNet::tinynet(data.image_shape, 8, 12, data.classes, 7).expect("valid shape");
    let mut sgd = Sgd::new(0.03, 0.9);

    // Train on 40 batches of 32 images.
    println!(
        "training TinyNet on synthetic {}-class images...",
        data.classes
    );
    let mut loss = f32::NAN;
    for epoch in 0..5 {
        for b in 0..8 {
            let (x, labels) = data.batch(b * 32, 32);
            loss = net
                .train_batch(&x, &labels, &mut sgd, None)
                .expect("train step");
        }
        println!("  epoch {epoch}: loss {loss:.3}");
    }

    // Held-out evaluation set (indices beyond the training range).
    let (test_x, test_labels) = data.batch(10_000, 128);
    let base = net.evaluate(&test_x, &test_labels).expect("eval");
    println!(
        "baseline: top1 {:.1}%, top5 {:.1}%",
        base.top1 * 100.0,
        base.top5 * 100.0
    );

    println!(
        "\n{:>6} {:>10} {:>8} {:>8} {:>9} {:>12}",
        "ratio", "sparsity", "top1", "top5", "ms", "conv form"
    );
    for ratio in [0.0, 0.3, 0.5, 0.7, 0.9] {
        // Fresh copy of the trained weights each round; prune both conv
        // layers, then brief masked fine-tuning (pruned weights stay zero).
        let mut pruned = net.clone();
        let mut masks = HashMap::new();
        for conv in [0, 3] {
            let w = pruned.layer_mut(conv).unwrap().weights_mut().unwrap();
            prune_magnitude(w, ratio).unwrap();
            masks.insert(conv, sparsity_mask(w));
        }
        let mut ft = Sgd::new(0.01, 0.9);
        for b in 0..4 {
            let (x, labels) = data.batch(b * 32, 32);
            pruned
                .train_batch(&x, &labels, &mut ft, Some(&masks))
                .unwrap();
        }

        // Accuracy from the training forward; time from the production
        // executor on the same weights, 128 images in batches of 16
        // (warm-up, then min of 3).
        let report = pruned.evaluate(&test_x, &test_labels).unwrap();
        let network = pruned.to_network().expect("trained net as Network");
        let wall_ms = || run_batched(&network, &test_x, 16).unwrap().1.wall_s * 1000.0;
        wall_ms();
        let ms = (0..3).map(|_| wall_ms()).fold(f64::INFINITY, f64::min);
        let forms = [0, 3].map(|conv| {
            let TrainLayer::Conv { params, w, .. } = &pruned.layers()[conv] else {
                unreachable!("layers 0 and 3 of TinyNet are its convs")
            };
            // `to_network` adds one node per layer, in order.
            let from = conv.checked_sub(1).map_or(INPUT, NodeId);
            let (_, h, w_in) = network.shape_of(from).unwrap();
            ConvLayer::weight_form_name(w, params, (h, w_in))
        });
        println!(
            "{:>5.0}% {:>9.1}% {:>7.1}% {:>7.1}% {:>9.2} {:>12}",
            ratio * 100.0,
            pruned.conv_sparsity() * 100.0,
            report.top1 * 100.0,
            report.top5 * 100.0,
            ms,
            forms.join("/")
        );
    }
    println!("\nsweet-spot shape: accuracy holds at moderate ratios, falls at 90%;");
    println!("time falls once `ConvLayer` switches to its CSR form (sparsity above");
    println!("{SPARSE_THRESHOLD}, the measured crossover: bench conv_strategy).");
}
