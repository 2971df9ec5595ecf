//! Application characterization (§3.2 / §4.2): the three preparatory
//! measurements — per-layer time distribution, single-inference pruning
//! headroom, and GPU saturation — produced both from calibrated profiles
//! (paper scale) and from real [`cap_cnn::Network`] execution.

use cap_cloud::{AppExecModel, BatchModel, GpuKind};
use cap_cnn::{ForwardArena, Network};
use cap_obs::{CollectingTracer, SpanScope};
use cap_pruning::{AppProfile, PruneSpec};
use cap_tensor::{Tensor4, TensorResult};
use serde::{Deserialize, Serialize};

/// One row of a layer time distribution (Figure 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerShare {
    /// Layer name.
    pub name: String,
    /// Layer kind tag (`conv`, `fc`, ...).
    pub kind: String,
    /// Fraction of total execution time.
    pub share: f64,
}

/// Figure 3 from the calibrated profile: convolution layers carry their
/// calibrated single-inference shares; the remainder is attributed to
/// the non-conv layers ("fc + other").
pub fn layer_time_distribution_model(profile: &AppProfile) -> Vec<LayerShare> {
    let mut out: Vec<LayerShare> = profile
        .layers
        .iter()
        .map(|l| LayerShare {
            name: l.name.clone(),
            kind: "conv".to_string(),
            share: l.single_time_share,
        })
        .collect();
    let conv_total: f64 = out.iter().map(|l| l.share).sum();
    out.push(LayerShare {
        name: "fc+other".to_string(),
        kind: "fc".to_string(),
        share: (1.0 - conv_total).max(0.0),
    });
    out
}

/// Figure 3 measured for real with the paper's §3.3 protocol: `runs`
/// timed passes, per-layer minimum duration, normalized to shares.
///
/// Timing comes from the observability layer — each pass runs through
/// [`Network::forward_into_traced`] with a [`CollectingTracer`] and the
/// per-layer spans are reduced to minima — so these shares are the same
/// data any attached tracer would see, not a bespoke timer. The passes
/// share one [`ForwardArena`]; run 0 absorbs the buffer growth and the
/// min strips it back out.
pub fn layer_time_distribution_min_of(
    net: &Network,
    input: &Tensor4,
    runs: usize,
) -> TensorResult<Vec<LayerShare>> {
    let mut arena = ForwardArena::new();
    let mut min_times: Vec<(String, String, f64)> = Vec::new();
    for run in 0..runs.max(1) {
        let tracer = CollectingTracer::new();
        net.forward_into_traced(input, &mut arena, &tracer)?;
        let spans = tracer.take_spans();
        for (i, s) in spans
            .iter()
            .filter(|s| s.scope == SpanScope::Layer)
            .enumerate()
        {
            let secs = s.elapsed.as_secs_f64();
            if run == 0 {
                min_times.push((s.name.clone(), s.kind.clone(), secs));
            } else {
                min_times[i].2 = min_times[i].2.min(secs);
            }
        }
    }
    let total: f64 = min_times.iter().map(|(_, _, s)| s).sum();
    Ok(min_times
        .into_iter()
        .map(|(name, kind, secs)| LayerShare {
            name,
            kind,
            share: if total > 0.0 { secs / total } else { 0.0 },
        })
        .collect())
}

/// Figure 4: single-inference latency across uniform prune ratios.
pub fn single_inference_sweep(profile: &AppProfile, ratios: &[f64]) -> Vec<(f64, f64)> {
    ratios
        .iter()
        .map(|&r| {
            let spec = if r == 0.0 {
                PruneSpec::none()
            } else {
                profile.uniform_spec(r)
            };
            (r, profile.single_latency_s(&spec))
        })
        .collect()
}

/// Figure 5: time to infer `w` images versus the number of parallel
/// inferences, on one GPU of the given kind.
pub fn parallel_saturation_curve(
    profile: &AppProfile,
    gpu: GpuKind,
    w: u64,
    batches: &[u32],
) -> Vec<(u32, f64)> {
    let exec = AppExecModel {
        s_per_image_batched_ref: profile.base_batched_s_per_image,
        single_latency_ref: profile.base_single_latency_s,
    };
    let model: BatchModel = exec.batch_model(gpu);
    batches.iter().map(|&b| (b, model.time_s(w, b))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_cnn::models::{caffenet, WeightInit};
    use cap_pruning::caffenet_profile;

    #[test]
    fn model_distribution_matches_fig3_shares() {
        let shares = layer_time_distribution_model(&caffenet_profile());
        assert_eq!(shares.len(), 6);
        let conv1 = shares.iter().find(|l| l.name == "conv1").unwrap();
        assert!((conv1.share - 0.51).abs() < 1e-9);
        let total: f64 = shares.iter().map(|l| l.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measured_distribution_convs_dominate() {
        // Real execution of the real Caffenet: the GEMM-bound layers
        // (conv + fc) should dominate wall-clock, as Figure 3 reports.
        // Measured conv share at batch 1 (PR 12, 2-core host): 0.60-0.63
        // on the default release build — its lowest arm; scalar, int8
        // and debug builds all sit higher (0.74-0.87), because they
        // slow conv's compute more than fc6's bandwidth-bound matvec.
        // PR 5-11 recorded ~0.40 here, but a third of every pass was
        // the fc layers rescanning their weights for sparsity inside
        // their own spans; with the weight form decided at
        // `set_weights` the spans hold only the layers' work. Floor at
        // 0.45 to leave headroom for scheduler noise when the suite
        // shares a core; the combined conv+fc bound below is the other
        // half of the claim.
        let net = caffenet(WeightInit::Gaussian { std: 0.01, seed: 7 }).unwrap();
        let input = Tensor4::from_fn(1, 3, 224, 224, |_, c, h, w| {
            ((c * 31 + h * 7 + w) % 17) as f32 / 17.0 - 0.5
        });
        // §3.3 protocol: min over repeated runs strips scheduler noise,
        // which matters when the test suite shares a single core.
        let shares = layer_time_distribution_min_of(&net, &input, 3).unwrap();
        // Prefix match: fused rows report "conv+relu" / "fc+relu" when
        // the executor absorbs the activation (DESIGN.md §6c), and the
        // absorbed ReLU's time belongs to the conv/fc row either way.
        let conv: f64 = shares
            .iter()
            .filter(|l| l.kind.starts_with("conv"))
            .map(|l| l.share)
            .sum();
        let fc: f64 = shares
            .iter()
            .filter(|l| l.kind.starts_with("fc"))
            .map(|l| l.share)
            .sum();
        assert!(conv > 0.45, "conv share {conv}");
        assert!(conv + fc > 0.8, "conv+fc share {}", conv + fc);
        let total: f64 = shares.iter().map(|l| l.share).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn single_sweep_is_fig4_shaped() {
        let p = caffenet_profile();
        let ratios: Vec<f64> = (0..=9).map(|i| i as f64 / 10.0).collect();
        let sweep = single_inference_sweep(&p, &ratios);
        assert_eq!(sweep.len(), 10);
        assert!((sweep[0].1 - 0.090).abs() < 1e-9);
        assert!((sweep[9].1 - 0.050).abs() < 0.003);
        assert!(sweep.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12));
    }

    #[test]
    fn saturation_curve_flattens_after_300() {
        let p = caffenet_profile();
        let batches = [1u32, 10, 50, 100, 200, 300, 600, 2000];
        let curve = parallel_saturation_curve(&p, GpuKind::K80, 50_000, &batches);
        assert!(curve.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9));
        let t300 = curve.iter().find(|(b, _)| *b == 300).unwrap().1;
        let t2000 = curve.iter().find(|(b, _)| *b == 2000).unwrap().1;
        assert!((t300 - t2000) / t300 < 0.03);
    }
}
