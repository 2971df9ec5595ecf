//! The pipeline's shape on a fixed workload: how many forward passes a
//! batched run makes, what batch each sees, and how many activation
//! bytes the arena reserves. A binary of its own with a single test —
//! the metrics registry it reads is process-global, so a concurrent
//! workload would corrupt the counts.

use cap_bench::experiments::scaling_exp::{mini_caffenet, workload};
use cap_cnn::{run_batched, ParallelEngine};

/// Images per chunk: 32 images make 4 chunks per run.
const BATCH: usize = 8;
/// (4 sequential + 2 engine runs) × 4 chunks.
const PASSES: u64 = 24;
/// Arena high-water of mini-Caffenet at batch 8 under the fused plan
/// and under `CAP_TENSOR_FUSION=off`: the capacities of the plan's
/// liveness slots, as the PR 36 binary reported them (one slot per
/// node held 2_565_376 and 4_428_032). A different value means the
/// planner or the arena changed, and the constant moves in the PR that
/// changes it.
const ARENA_BYTES_FUSED: u64 = 1_444_864;
const ARENA_BYTES_UNFUSED: u64 = 1_968_128;

#[test]
fn batched_workload_makes_the_expected_passes_over_the_expected_arena() {
    let net = mini_caffenet();
    let imgs = workload();
    let arena_bytes = if cap_cnn::fusion::selected().enabled() {
        ARENA_BYTES_FUSED
    } else {
        ARENA_BYTES_UNFUSED
    };
    // Twice: the counts are a function of the code, not of what ran
    // before (warm weight forms, a grown allocator).
    for round in 0..2 {
        // Reset before the first pass: `arena_bytes` is a high-water
        // mark every pass re-reports (see `Gauge::record_max`).
        cap_obs::metrics().reset();
        for _ in 0..4 {
            run_batched(&net, &imgs, BATCH).expect("sequential run");
        }
        // Two workers whatever the host has, so the chunk split is fixed.
        let engine = ParallelEngine::new(2);
        for _ in 0..2 {
            engine.run_batched(&net, &imgs, BATCH).expect("engine run");
        }
        let snap = cap_obs::metrics().snapshot();
        assert_eq!(snap.forward_passes, PASSES, "round {round}");
        assert_eq!(snap.batch_sizes.count, PASSES, "round {round}");
        assert_eq!(
            snap.batch_sizes.quantile(0.5),
            Some(BATCH as u64),
            "round {round}"
        );
        assert_eq!(snap.arena_bytes, arena_bytes, "round {round}");
    }
}
