//! Layer-fusion ablation: the graph-level `conv → relu` / `fc → relu`
//! fusion pass (`CAP_TENSOR_FUSION`) off vs auto, on the same
//! network, weights, and kernel path — so the measured delta is pure
//! memory-traffic savings from skipping the intermediate activation
//! round-trip, never an accuracy trade (the fused pass is bit-identical
//! by the contract proved in `crates/cnn/tests/fusion_parity_net.rs`).
//!
//! Batch 1 is the headline arm: at batch 1 every GEMM in the FC head
//! degenerates to a matvec and the whole forward is memory-bound, which
//! is exactly where fusing the bias/ReLU epilogue into the kernel store
//! pays the most.

use super::kernels_exp::best_secs;
use super::scaling_exp::{mini_caffenet, workload};
use cap_cnn::fusion::{self, FusionMode};
use cap_cnn::{run_batched, LayerKind};
use cap_pruning::{apply_to_network, PruneAlgorithm, PruneSpec};
use cap_tensor::{kernels, Tensor4};
use std::fmt::Write;

/// Run `f` with the fusion pass pinned to `mode`, restoring the
/// environment-driven selection afterwards.
fn on_mode<T>(mode: FusionMode, f: impl FnOnce() -> T) -> T {
    fusion::force(Some(mode));
    let out = f();
    fusion::force(None);
    out
}

/// Images/s of `net` over `imgs` at `batch` under `mode`, after one
/// warm-up pass on that mode (plan build, weight packing, arenas).
fn rate(mode: FusionMode, net: &cap_cnn::Network, imgs: &Tensor4, batch: usize) -> f64 {
    on_mode(mode, || {
        run_batched(net, imgs, batch).unwrap();
        let secs = best_secs(|| {
            run_batched(net, imgs, batch).unwrap();
        });
        imgs.n() as f64 / secs
    })
}

/// The `fusion` registry entry: fusion-off vs fusion-auto ablation.
pub fn fusion_ablation() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Layer-fusion ablation: CAP_TENSOR_FUSION off vs auto"
    )
    .unwrap();
    writeln!(
        out,
        "\nkernel path: {} (same on both arms); fusion default: {}",
        kernels::selected().name(),
        fusion::selected().name()
    )
    .unwrap();

    let dense = mini_caffenet();
    let mut pruned = mini_caffenet();
    let convs = pruned.layers_of_kind(LayerKind::Convolution);
    let spec = PruneSpec::uniform(&convs, 0.6);
    apply_to_network(&mut pruned, &spec, PruneAlgorithm::FilterL1).expect("pruning applies");

    // How many producer→relu pairs the plan collapses (gauge is set by
    // every traced pass, run_batched included).
    on_mode(FusionMode::Auto, || {
        let one = Tensor4::from_fn(1, 3, 64, 64, |_, c, h, w| {
            ((c * 17 + h * 3 + w) % 23) as f32 / 11.0 - 1.0
        });
        run_batched(&dense, &one, 1).unwrap();
    });
    writeln!(
        out,
        "fused producer→relu pairs (mini-Caffenet): {}",
        cap_obs::metrics().snapshot().fused_layers
    )
    .unwrap();

    writeln!(
        out,
        "\n## End-to-end mini-Caffenet forward (images/s, best of repeated runs)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<34} {:>10} {:>10} {:>9}",
        "arm", "off", "auto", "speedup"
    )
    .unwrap();

    let batch8 = workload();
    let one = Tensor4::from_fn(1, 3, 64, 64, |_, c, h, w| {
        ((c * 17 + h * 3 + w) % 23) as f32 / 11.0 - 1.0
    });
    let arms: [(&str, &cap_cnn::Network, &Tensor4, usize); 4] = [
        ("dense, batch 1", &dense, &one, 1),
        ("dense, batch 8", &dense, &batch8, 8),
        ("60% conv-pruned, batch 1", &pruned, &one, 1),
        ("60% conv-pruned, batch 8", &pruned, &batch8, 8),
    ];
    for (label, net, imgs, batch) in arms {
        let off = rate(FusionMode::Off, net, imgs, batch);
        let auto = rate(FusionMode::Auto, net, imgs, batch);
        writeln!(
            out,
            "{label:<34} {off:>10.1} {auto:>10.1} {:>8.2}x",
            auto / off.max(1e-12)
        )
        .unwrap();
    }

    writeln!(
        out,
        "\nparity contract: fused and unfused passes are bitwise identical \
         (crates/cnn/tests/fusion_parity_net.rs, crates/tensor/tests/fused_parity.rs); \
         speedups are memory-traffic effects only."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_reports_both_arms_and_restores_selection() {
        let out = fusion_ablation();
        assert!(out.contains("off vs auto"), "{out}");
        assert!(out.contains("dense, batch 1"), "{out}");
        assert!(out.contains("60% conv-pruned, batch 1"), "{out}");
        assert!(out.contains("fused producer→relu pairs"), "{out}");
        // Force must have been restored for later tests in this process:
        // the selection is back to the environment-driven default.
        let env_off = std::env::var("CAP_TENSOR_FUSION").as_deref() == Ok("off");
        assert_eq!(fusion::selected().enabled(), !env_off);
    }
}
