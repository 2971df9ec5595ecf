//! Experiment registry: every table and figure of the paper's
//! evaluation, regenerated from this reproduction.

mod ablation;
mod algorithm;
mod characterization;
mod dagpar_exp;
mod extensions;
mod frontier;
mod fusion_exp;
mod kernels_exp;
mod measured;
mod metrics_exp;
pub mod profile;
mod quantize_exp;
pub mod scaling_exp;
mod sensitivity;
pub mod serve_exp;
mod tables;

/// An experiment: id, one-line description, generator.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// The registry, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "table1",
        "Caffenet layer shapes and filters",
        tables::table1,
    ),
    ("table3", "Amazon EC2 cloud resource types", tables::table3),
    (
        "fig3",
        "Caffenet execution time distribution across layers",
        characterization::fig3,
    ),
    (
        "profile",
        "Per-layer ProfileReport (tracer-driven): Caffenet at 0% and 60% pruning",
        profile::profile_caffenet,
    ),
    (
        "fig4",
        "Time for a single inference vs uniform prune ratio",
        characterization::fig4,
    ),
    (
        "fig5",
        "Parallel inference saturation on a GPU",
        characterization::fig5,
    ),
    (
        "fig6",
        "Caffenet single-layer pruning: time and accuracy",
        sensitivity::fig6,
    ),
    (
        "fig7",
        "Googlenet single-layer pruning (six selected layers)",
        sensitivity::fig7,
    ),
    (
        "fig8",
        "Caffenet multi-layer pruning (nonpruned / conv1-2 / all-conv)",
        sensitivity::fig8,
    ),
    (
        "fig9",
        "Time-accuracy configuration space under a 10 h deadline",
        frontier::fig9,
    ),
    (
        "fig10",
        "Cost-accuracy configuration space under a $300 budget",
        frontier::fig10,
    ),
    (
        "fig11",
        "TAR over the conv1 x conv2 sweet-spot grid",
        metrics_exp::fig11,
    ),
    (
        "fig12",
        "CAR across resource types (one GPU vs all GPUs)",
        metrics_exp::fig12,
    ),
    (
        "alg1",
        "Algorithm 1 (TAR/CAR greedy) vs exhaustive search",
        algorithm::alg1,
    ),
    (
        "headline",
        "Headline savings at highest achievable accuracy",
        algorithm::headline,
    ),
    (
        "fig5m",
        "Figure 5 measured on the implemented framework (TinyNet)",
        measured::fig5m,
    ),
    (
        "fig6m",
        "Figure 6 measured on a really-trained, really-pruned TinyNet",
        measured::fig6m,
    ),
    (
        "fig8m",
        "Figure 8 measured: multi-layer pruning on a 3-conv SequentialNet",
        measured::fig8m,
    ),
    (
        "scalingm",
        "Strong scaling of the parallel inference engine + Amdahl fit",
        scaling_exp::scalingm,
    ),
    (
        "kernels",
        "Ablation: scalar vs runtime-dispatched SIMD microkernels (GEMM, SpMM, end-to-end)",
        kernels_exp::kernels_ablation,
    ),
    (
        "fusion",
        "Ablation: graph-level conv/fc→relu fusion (CAP_TENSOR_FUSION) off vs auto",
        fusion_exp::fusion_ablation,
    ),
    (
        "dagpar",
        "Ablation: threads inside one pass (CAP_CNN_DAG) off vs auto and pinned teams",
        dagpar_exp::dagpar_ablation,
    ),
    (
        "serve",
        "Online serving: multi-tenant dynamic batching under open-loop load (throughput vs p50/p99 + cost/1k)",
        serve_exp::serve,
    ),
    (
        "quantize",
        "Ablation: int8 quantized kernels vs f32 (CAP_TENSOR_PRECISION) + joint prune x quantize frontier",
        quantize_exp::quantize_ablation,
    ),
    (
        "ablation-alloc",
        "Ablation: Algorithm 1 greedy ordering heuristics",
        ablation::ablation_alloc,
    ),
    (
        "ablation-knobs",
        "Ablation: pruning vs quantization vs weight sharing",
        ablation::ablation_knobs,
    ),
    (
        "fig9g",
        "Extension: Googlenet configuration space on the g3 family",
        extensions::fig9g,
    ),
    (
        "whatif",
        "Extension: what-if consumer queries over the space",
        extensions::whatif,
    ),
];

/// Run one experiment by id; `None` when the id is unknown.
pub fn run_experiment(id: &str) -> Option<String> {
    EXPERIMENTS
        .iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_paper_experiments() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
        for expected in [
            "table1", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "alg1", "headline",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("fig99").is_none());
    }

    #[test]
    fn quick_experiments_produce_output() {
        for id in ["table1", "table3", "fig4", "fig5", "fig8", "fig11", "fig12"] {
            let out = run_experiment(id).unwrap();
            assert!(out.len() > 100, "{id} output too short");
        }
    }
}
