//! Train–prune–measure: the end-to-end *measured* counterpart of the
//! calibrated profiles. Trains TinyNet on synthetic images, prunes its
//! convolution layers at increasing ratios (with brief fine-tuning), and
//! measures — not models — the accuracy curve and the sparse-kernel
//! speedup. This is the paper's methodology executed for real at laptop
//! scale.
//!
//! ```sh
//! cargo run --release --example train_prune_measure
//! ```

use cap_pruning::magnitude::sparsity_mask;
use cloud_cost_accuracy::prelude::*;
use std::time::Instant;

fn main() {
    let data = SyntheticImageNet::tiny(2024);
    let mut net = TinyNet::new(data.image_shape, 8, 12, data.classes, 7).expect("valid shape");
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
        "\n{:>6} {:>10} {:>8} {:>8} {:>12} {:>12}",
        "ratio", "sparsity", "top1", "top5", "dense ms", "sparse ms"
    );
    for ratio in [0.0, 0.3, 0.5, 0.7, 0.9] {
        // Fresh copy of the trained weights each round.
        let mut pruned = TinyNet::new(data.image_shape, 8, 12, data.classes, 7).unwrap();
        pruned.conv1_w = net.conv1_w.clone();
        pruned.conv1_b = net.conv1_b.clone();
        pruned.conv2_w = net.conv2_w.clone();
        pruned.conv2_b = net.conv2_b.clone();
        pruned.fc_w = net.fc_w.clone();
        pruned.fc_b = net.fc_b.clone();

        prune_magnitude(&mut pruned.conv1_w, ratio).unwrap();
        prune_magnitude(&mut pruned.conv2_w, ratio).unwrap();
        // Brief masked fine-tuning (pruned weights stay zero).
        let m1 = sparsity_mask(&pruned.conv1_w);
        let m2 = sparsity_mask(&pruned.conv2_w);
        let mut ft = Sgd::new(0.01, 0.9);
        for b in 0..4 {
            let (x, labels) = data.batch(b * 32, 32);
            pruned
                .train_batch(&x, &labels, &mut ft, Some((&m1, &m2)))
                .unwrap();
        }

        let report = pruned.evaluate(&test_x, &test_labels).unwrap();
        // Time both execution paths on the same batch.
        let t0 = Instant::now();
        let dense_logits = pruned.logits(&test_x).unwrap();
        let dense_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let t1 = Instant::now();
        let sparse_logits = pruned.logits_sparse(&test_x).unwrap();
        let sparse_ms = t1.elapsed().as_secs_f64() * 1000.0;
        assert!(
            dense_logits.max_abs_diff(&sparse_logits).unwrap() < 1e-2,
            "sparse and dense paths must agree"
        );
        println!(
            "{:>5.0}% {:>9.1}% {:>7.1}% {:>7.1}% {:>11.2} {:>11.2}",
            ratio * 100.0,
            pruned.conv_sparsity() * 100.0,
            report.top1 * 100.0,
            report.top5 * 100.0,
            dense_ms,
            sparse_ms
        );
    }
    println!("\nsweet-spot shape: accuracy holds at moderate ratios, falls at 90%;");
    println!("sparse kernels pull ahead as sparsity rises (early, on convs this small;");
    println!("on Caffenet shapes the crossover is ~75%: bench conv_strategy).");
}
