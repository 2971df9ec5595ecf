//! DAG-parallel/sequential parity: a forward pass scheduled by the
//! intra-network DAG executor (`CAP_CNN_DAG`) — the whole plan on the
//! ready queue, or staged with only its branchy stages there — must be
//! **bitwise identical** to the sequential schedule, on every kernel
//! path, with fusion on or off, dense or pruned/CSR — the whole-net
//! closure of the scheduling-cannot-change-bits argument in
//! `cap_cnn::dag`, proptested over randomly generated branchy DAGs.
//!
//! `dag::force`, `fusion::force` and `kernels::force` are all
//! process-global, so every test serializes on one mutex (which also
//! makes the metrics-gauge assertions race-free within this binary).

use cap_cnn::dag::{self, DagMode};
use cap_cnn::fusion::{self, FusionMode};
use cap_cnn::layer::{
    ConcatLayer, ConvLayer, InnerProductLayer, PoolLayer, PoolMode, ReluLayer, SoftmaxLayer,
    FC_SPARSE_THRESHOLD,
};
use cap_cnn::network::{ForwardArena, Network, INPUT};
use cap_cnn::{DagExecutor, NoopTracer, ParallelEngine};
use cap_tensor::init::xavier_uniform;
use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{Conv2dParams, Matrix, Team, Tensor4};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

mod common;

/// Global serialization for tests that touch the process-global force
/// hooks or assert on the global metrics registry.
fn force_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Zero every weight except each `keep_every`-th, so the layer crosses
/// its sparse `threshold` and runs the CSR kernels.
fn prune(w: &Matrix, keep_every: usize, threshold: f64) -> Matrix {
    let (rows, cols) = w.shape();
    let pruned = Matrix::from_fn(rows, cols, |r, c| {
        if (r * cols + c) % keep_every == 0 {
            w.get(r, c)
        } else {
            0.0
        }
    });
    assert!(pruned.sparsity(0.0) > threshold);
    pruned
}

/// Generate a random branchy DAG: a conv→relu stem that fans out into
/// `branches` independent chains of `depth` random ops (conv+relu /
/// pool / relu — all spatial-preserving so any mix joins), a concat
/// fan-in, and an fc tail. `branches == 1` degenerates to a pure chain
/// (the zero-branch-parallelism case `DagMode::Auto` must decline).
fn build_random_net(seed: u64, branches: usize, depth: usize, sparse: bool) -> Network {
    let mut net = Network::new("dag-parity", (3, 8, 8));
    let p_stem = Conv2dParams::new(3, 4, 3, 1, 1);
    let stem = net
        .add_layer(
            Box::new(
                ConvLayer::new("stem", p_stem, xavier_uniform(4, 27, seed), vec![0.05; 4]).unwrap(),
            ),
            &[INPUT],
        )
        .unwrap();
    let stem_r = net
        .add_layer(Box::new(ReluLayer::new("stem_r")), &[stem])
        .unwrap();
    let mut heads = Vec::with_capacity(branches);
    for b in 0..branches {
        let mut cur = stem_r;
        for d in 0..depth {
            let tag = format!("b{b}d{d}");
            cur = match (seed as usize + b * 7 + d * 13) % 3 {
                0 => {
                    let p = Conv2dParams::new(4, 4, 3, 1, 1);
                    let mut w = xavier_uniform(4, 36, seed + (b * 10 + d) as u64 + 1);
                    if sparse {
                        w = common::csr_weights(w);
                    }
                    let c = net
                        .add_layer(
                            Box::new(
                                ConvLayer::new(format!("conv_{tag}"), p, w, vec![-0.02; 4])
                                    .unwrap(),
                            ),
                            &[cur],
                        )
                        .unwrap();
                    net.add_layer(Box::new(ReluLayer::new(format!("relu_{tag}"))), &[c])
                        .unwrap()
                }
                1 => net
                    .add_layer(
                        Box::new(PoolLayer::new(
                            format!("pool_{tag}"),
                            PoolMode::Max,
                            3,
                            1,
                            1,
                        )),
                        &[cur],
                    )
                    .unwrap(),
                _ => net
                    .add_layer(Box::new(ReluLayer::new(format!("r_{tag}"))), &[cur])
                    .unwrap(),
            };
        }
        heads.push(cur);
    }
    let joined = if heads.len() == 1 {
        heads[0]
    } else {
        net.add_layer(Box::new(ConcatLayer::new("cat")), &heads)
            .unwrap()
    };
    let (c, h, w) = net.shape_of(joined).unwrap();
    let mut wfc = xavier_uniform(10, c * h * w, seed + 99);
    if sparse {
        wfc = prune(&wfc, 6, FC_SPARSE_THRESHOLD);
    }
    net.add_layer(
        Box::new(InnerProductLayer::new("fc", wfc, vec![0.01; 10]).unwrap()),
        &[joined],
    )
    .unwrap();
    net
}

fn images(n: usize, seed: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 8, 8, |ni, c, h, w| {
        (((ni * 131 + c * 31 + h * 7 + w + seed) % 19) as f32 - 9.0) / 6.0
    })
}

/// One forward pass under forced (dag, fusion, kernel) modes, returning
/// the output bits.
fn forward_bits(
    dag_mode: DagMode,
    fus: FusionMode,
    path: KernelPath,
    net: &Network,
    imgs: &Tensor4,
) -> Vec<u32> {
    dag::force(Some(dag_mode));
    fusion::force(Some(fus));
    kernels::force(Some(path));
    let mut arena = ForwardArena::new();
    let out = net
        .forward_into(imgs, &mut arena)
        .unwrap()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    kernels::force(None);
    fusion::force(None);
    dag::force(None);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Random branchy DAGs — fan-out, fan-in, pure chains, dense and
    /// pruned — produce bitwise-identical output whether scheduled
    /// sequentially or DAG-parallel, across every kernel path and both
    /// fusion arms.
    #[test]
    fn dag_parallel_matches_sequential_bitwise(
        seed in 0u64..40,
        branches in 1usize..5,
        depth in 1usize..4,
        sparse in proptest::bool::ANY,
        n in 1usize..4,
    ) {
        let _g = force_lock();
        let net = build_random_net(seed, branches, depth, sparse);
        let imgs = images(n, seed as usize);
        // Gold reference: sequential, unfused, scalar.
        let reference = forward_bits(DagMode::Off, FusionMode::Off, KernelPath::Scalar, &net, &imgs);
        for path in kernels::available_paths() {
            for fus in [FusionMode::Off, FusionMode::Auto] {
                let seq = forward_bits(DagMode::Off, fus, path, &net, &imgs);
                prop_assert_eq!(
                    &seq, &reference,
                    "sequential arm drifted: fusion={} path={}", fus.name(), path.name()
                );
                let par = forward_bits(DagMode::On, fus, path, &net, &imgs);
                prop_assert_eq!(
                    &par, &reference,
                    "dag arm differs: fusion={} path={} branches={} depth={} sparse={}",
                    fus.name(), path.name(), branches, depth, sparse
                );
            }
        }
        // Explicit executor at several worker counts, same contract, on
        // whatever path the environment selects.
        for workers in [1, 2, 4] {
            let exec = DagExecutor::new(workers);
            let mut arena = ForwardArena::new();
            let out: Vec<u32> = exec
                .run(&net, &imgs, &mut arena)
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&out, &reference, "DagExecutor workers={}", workers);
        }
        // Staged on teams that split whatever has two units: one-step
        // stages split their kernels, branchy stages take the queue.
        for threads in [2, 3] {
            let mut arena = ForwardArena::with_team(Team::new(threads).with_min_part_macs(0));
            let out: Vec<u32> = net
                .forward_into(&imgs, &mut arena)
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&out, &reference, "staged, team of {}", threads);
        }
    }
}

/// Two DAG-parallel runs are bit-identical to each other even though
/// the scheduling order is nondeterministic — each node writes its own
/// slot from the same inputs, so interleaving cannot leak into values.
#[test]
fn dag_parallel_is_deterministic_across_runs() {
    let _g = force_lock();
    let net = build_random_net(23, 4, 3, false);
    let imgs = images(2, 5);
    let first = forward_bits(
        DagMode::On,
        FusionMode::Auto,
        KernelPath::Scalar,
        &net,
        &imgs,
    );
    for run in 0..5 {
        let again = forward_bits(
            DagMode::On,
            FusionMode::Auto,
            KernelPath::Scalar,
            &net,
            &imgs,
        );
        assert_eq!(first, again, "run {run} diverged");
    }
}

/// One arena, two networks, three worker counts, alternating: a chain
/// and a four-branch pruned net (different slot counts, different
/// activation shapes, CSR and dense convs and a batched sparse fc all
/// drawing on the same workspaces) take turns on a single
/// `ForwardArena` at 1, 2 and 4 `DagExecutor` workers. Every pass must
/// equal the sequential pass of that net on that input through a fresh
/// arena, bit for bit: a worker reading scratch another worker — or the
/// previous, differently shaped pass — wrote would show here.
#[test]
fn one_arena_serves_alternating_networks_and_worker_counts() {
    let _g = force_lock();
    let nets = [
        build_random_net(7, 1, 3, false),
        build_random_net(12, 4, 3, true),
    ];
    assert_ne!(nets[0].len(), nets[1].len());
    let bits = |t: &Tensor4| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
    // Three inputs per net, batch 1..=3, so no two consecutive passes
    // of a net agree in shape or content.
    let inputs: Vec<Tensor4> = (0..3).map(|v| images(v + 1, v * 5)).collect();
    dag::force(Some(DagMode::Off));
    let want: Vec<Vec<Vec<u32>>> = nets
        .iter()
        .map(|net| {
            inputs
                .iter()
                .map(|x| bits(net.forward_into(x, &mut ForwardArena::new()).unwrap()))
                .collect()
        })
        .collect();
    dag::force(None);

    let mut arena = ForwardArena::new();
    for pass in 0..300 {
        let (which, variant) = (pass % 2, pass % 3);
        let workers = [1, 2, 4][(pass / 2) % 3];
        let got = DagExecutor::new(workers)
            .run(&nets[which], &inputs[variant], &mut arena)
            .unwrap();
        assert!(
            bits(got) == want[which][variant],
            "pass {pass}: net {which} input {variant} workers {workers}"
        );
    }
}

/// The degenerate single-node network survives every mode (and `Auto`
/// declines to parallelize a width-1 plan).
#[test]
fn single_node_net_all_modes() {
    let _g = force_lock();
    let mut net = Network::new("one", (2, 4, 4));
    net.add_sequential(Box::new(ReluLayer::new("r"))).unwrap();
    let imgs = Tensor4::from_fn(3, 2, 4, 4, |n, c, h, w| (n + c + h + w) as f32 - 5.0);
    let reference = forward_bits(
        DagMode::Off,
        FusionMode::Off,
        KernelPath::Scalar,
        &net,
        &imgs,
    );
    for mode in [DagMode::Auto, DagMode::On] {
        let got = forward_bits(mode, FusionMode::Off, KernelPath::Scalar, &net, &imgs);
        assert_eq!(got, reference, "mode={}", mode.name());
    }
    let before = cap_obs::metrics().dag_parallel_passes.get();
    dag::force(Some(DagMode::Auto));
    let mut arena = ForwardArena::new();
    net.forward_into(&imgs, &mut arena).unwrap();
    dag::force(None);
    assert_eq!(
        cap_obs::metrics().dag_parallel_passes.get(),
        before,
        "auto must not schedule a width-1 plan"
    );
}

/// A kernel error inside a branch aborts the DAG pass cleanly: the
/// error is returned (not a hang, not a panic), matching the
/// sequential schedule's behavior.
#[test]
fn dag_pass_propagates_branch_errors() {
    let _g = force_lock();
    // Softmax validates 1x1 spatial at forward time only; putting it on
    // an 8x8 branch makes one node of a parallel pass fail.
    let mut net = Network::new("bad-branch", (3, 8, 8));
    let a = net
        .add_layer(Box::new(ReluLayer::new("a")), &[INPUT])
        .unwrap();
    let b = net
        .add_layer(Box::new(SoftmaxLayer::new("boom")), &[INPUT])
        .unwrap();
    net.add_layer(Box::new(ConcatLayer::new("cat")), &[a, b])
        .unwrap();
    let imgs = images(1, 0);
    dag::force(Some(DagMode::Off));
    let mut arena = ForwardArena::new();
    let seq_err = net.forward_into(&imgs, &mut arena).unwrap_err();
    dag::force(Some(DagMode::On));
    let mut arena = ForwardArena::new();
    let dag_err = net.forward_into(&imgs, &mut arena).unwrap_err();
    dag::force(None);
    assert_eq!(seq_err, dag_err, "same first error either way");
}

/// `DagMode::Auto` stays sequential inside data-parallel engine
/// workers: stacking node-parallel threads on top of the engine's
/// would oversubscribe the host. (`CAP_CNN_DAG=on` still overrides —
/// also checked.)
#[test]
fn auto_defers_to_data_parallel_engine() {
    let _g = force_lock();
    let net = build_random_net(31, 3, 2, false);
    let imgs = images(6, 7);
    let metrics = cap_obs::metrics();

    dag::force(Some(DagMode::Auto));
    let before = metrics.dag_parallel_passes.get();
    let engine = ParallelEngine::new(2);
    let (out_auto, _) = engine.run_batched(&net, &imgs, 2).unwrap();
    assert_eq!(
        metrics.dag_parallel_passes.get(),
        before,
        "auto must not nest DAG workers inside engine workers"
    );

    dag::force(Some(DagMode::On));
    let before = metrics.dag_parallel_passes.get();
    let (out_on, _) = engine.run_batched(&net, &imgs, 2).unwrap();
    assert!(
        metrics.dag_parallel_passes.get() > before,
        "on must override the engine-worker guard"
    );
    dag::force(None);
    assert_eq!(out_auto, out_on, "nesting decision cannot change bits");
}

/// The CI-matrix assert (mirrors `fusion_override_is_honored…`): the
/// un-forced selection must honor `CAP_CNN_DAG`, and the scheduler
/// metrics must track which schedule actually ran.
#[test]
fn dag_override_is_honored_and_metrics_track_it() {
    let _g = force_lock();
    let net = build_random_net(17, 4, 2, false);
    let imgs = images(2, 3);
    let metrics = cap_obs::metrics();
    let mut arena = ForwardArena::new();

    // Forced off: sequential schedule, dag_workers reads 0.
    dag::force(Some(DagMode::Off));
    net.forward_into_traced(&imgs, &mut arena, &NoopTracer)
        .unwrap();
    assert_eq!(metrics.dag_workers.get(), 0, "dag=off must run sequential");

    // Forced on: the scheduler runs with >= 1 worker and accounts every
    // step through exactly one of the two handoff paths.
    let (pushes0, chained0, passes0) = (
        metrics.dag_queue_pushes.get(),
        metrics.dag_chained_steps.get(),
        metrics.dag_parallel_passes.get(),
    );
    dag::force(Some(DagMode::On));
    net.forward_into_traced(&imgs, &mut arena, &NoopTracer)
        .unwrap();
    assert!(metrics.dag_workers.get() >= 1, "dag=on must schedule");
    assert_eq!(metrics.dag_parallel_passes.get(), passes0 + 1);
    // Every plan step reaches a worker exactly once, via the shared
    // queue or the chained fast path. Steps = nodes minus fused-away
    // ReLUs (the gauge holds this pass's fused count).
    let handoffs =
        (metrics.dag_queue_pushes.get() - pushes0) + (metrics.dag_chained_steps.get() - chained0);
    let fused = metrics.fused_layers.get();
    assert_eq!(
        handoffs,
        net.len() as u64 - fused,
        "every step is handed off exactly once"
    );

    // Staged, on two threads (what `auto` gives a pass on a two-core
    // host; pinned here so every host agrees): the stem conv, its ReLU
    // (unfused), the concat and the fc are one-step stages on the
    // calling thread, so only the branches' steps — one wide stage —
    // go through the queue, and the pass still counts once.
    fusion::force(Some(FusionMode::Off));
    let (pushes0, chained0, passes0) = (
        metrics.dag_queue_pushes.get(),
        metrics.dag_chained_steps.get(),
        metrics.dag_parallel_passes.get(),
    );
    let mut two = ForwardArena::with_team(Team::new(2));
    net.forward_into_traced(&imgs, &mut two, &NoopTracer)
        .unwrap();
    fusion::force(None);
    assert_eq!(metrics.dag_workers.get(), 2);
    assert_eq!(metrics.dag_parallel_passes.get(), passes0 + 1);
    let handoffs =
        (metrics.dag_queue_pushes.get() - pushes0) + (metrics.dag_chained_steps.get() - chained0);
    assert_eq!(
        handoffs,
        net.len() as u64 - 4,
        "the wide stage's steps are handed off exactly once, the others never"
    );
    dag::force(None);

    // Un-forced, the selection must honor CAP_CNN_DAG (what the CI
    // dag-matrix leg asserts).
    match std::env::var("CAP_CNN_DAG").as_deref() {
        Ok("off") => {
            assert_eq!(dag::selected(), DagMode::Off);
            assert!(!dag::selected().enabled());
        }
        Ok("on") => {
            assert_eq!(dag::selected(), DagMode::On);
            assert!(dag::selected().enabled());
        }
        // auto / unset / unknown: Auto (parallelize where it pays).
        _ => {
            assert_eq!(dag::selected(), DagMode::Auto);
            assert!(dag::selected().enabled());
        }
    }
}
