//! Thread-count parity on branchy nets: a forward pass on more than
//! one thread — every step in order on the caller, its kernels split
//! across the arena's team — must be **bitwise identical** to the
//! one-thread pass, on every kernel path, with fusion on or off, dense
//! or pruned — the whole-net closure of the
//! splitting-cannot-change-bits argument in `cap_cnn::dag`, proptested
//! over randomly generated branchy DAGs. Thread counts are pinned with
//! `ForwardArena::with_team`; `CAP_CNN_DAG` picks between one thread
//! and the host's cores.
//!
//! `dag::force`, `fusion::force` and `kernels::force` are all
//! process-global, so every test serializes on one mutex (which also
//! makes the metrics-gauge assertions race-free within this binary).

use cap_cnn::dag::{self, DagMode};
use cap_cnn::fusion::{self, FusionMode};
use cap_cnn::layer::{
    ConcatLayer, ConvLayer, InnerProductLayer, PoolLayer, PoolMode, ReluLayer, SoftmaxLayer,
};
use cap_cnn::network::{ForwardArena, Network, INPUT};
use cap_cnn::{NoopTracer, ParallelEngine};
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

/// Zero every weight except each `keep_every`-th: a heavily pruned fc,
/// which runs the same dense form as any other.
fn prune(w: &Matrix, keep_every: usize) -> Matrix {
    let (rows, cols) = w.shape();
    Matrix::from_fn(rows, cols, |r, c| {
        if (r * cols + c) % keep_every == 0 {
            w.get(r, c)
        } else {
            0.0
        }
    })
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
                        w = common::unstructured_zeros(w);
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
        wfc = prune(&wfc, 6);
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

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One forward pass through `arena` under forced (dag, fusion, kernel)
/// modes, returning the output bits. A [`ForwardArena::with_team`]
/// arena ignores the dag mode.
fn bits_through(
    mut arena: ForwardArena,
    dag_mode: DagMode,
    fus: FusionMode,
    path: KernelPath,
    net: &Network,
    imgs: &Tensor4,
) -> Vec<u32> {
    dag::force(Some(dag_mode));
    fusion::force(Some(fus));
    kernels::force(Some(path));
    let out = bits(net.forward_into(imgs, &mut arena).unwrap());
    kernels::force(None);
    fusion::force(None);
    dag::force(None);
    out
}

/// [`bits_through`] a fresh arena, the thread count `dag_mode`'s.
fn forward_bits(
    dag_mode: DagMode,
    fus: FusionMode,
    path: KernelPath,
    net: &Network,
    imgs: &Tensor4,
) -> Vec<u32> {
    bits_through(ForwardArena::new(), dag_mode, fus, path, net, imgs)
}

/// [`bits_through`] an arena whose passes run on a team of `threads`.
fn team_bits(
    threads: usize,
    fus: FusionMode,
    path: KernelPath,
    net: &Network,
    imgs: &Tensor4,
) -> Vec<u32> {
    let arena = ForwardArena::with_team(Team::new(threads));
    bits_through(arena, DagMode::Off, fus, path, net, imgs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// The arena's liveness slots on random branchy DAGs, fused and
    /// unfused: every step reads its inputs from slots that still hold
    /// them, never writes its own input's slot, and the output slot is
    /// never reused (`common::check_slot_plan`). Pure: no pass runs.
    #[test]
    fn random_dag_slot_plans_never_clobber_a_live_value(
        seed in 0u64..40,
        branches in 1usize..6,
        depth in 1usize..5,
    ) {
        let net = build_random_net(seed, branches, depth, false);
        for fused in [false, true] {
            let plan = common::check_slot_plan(&net, fused);
            prop_assert!(plan.peak_live <= plan.reserved, "{:?}", plan);
        }
    }

    /// Random branchy DAGs — fan-out, fan-in, pure chains, dense and
    /// pruned — produce bitwise-identical output whether run on one
    /// thread or with their kernels split across a team, across every
    /// kernel path and both fusion arms.
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
                for threads in [1, 2, 4] {
                    let par = team_bits(threads, fus, path, &net, &imgs);
                    prop_assert_eq!(
                        &par, &reference,
                        "team of {} differs: fusion={} path={} branches={} depth={} sparse={}",
                        threads, fus.name(), path.name(), branches, depth, sparse
                    );
                }
            }
        }
        // On teams that split whatever has two units: every step's
        // kernels split, the branches' included.
        for threads in [2, 3] {
            let mut arena = ForwardArena::with_team(Team::new(threads).with_min_part_macs(0));
            let out = bits(net.forward_into(&imgs, &mut arena).unwrap());
            prop_assert_eq!(&out, &reference, "eager split, team of {}", threads);
        }
    }
}

/// Two runs on a four-thread team are bit-identical to each other even
/// though which helper finishes a piece first varies — each piece
/// writes its own part of the output from the same inputs, so timing
/// cannot leak into values.
#[test]
fn dag_parallel_is_deterministic_across_runs() {
    let _g = force_lock();
    let net = build_random_net(23, 4, 3, false);
    let imgs = images(2, 5);
    let first = team_bits(4, FusionMode::Auto, KernelPath::Scalar, &net, &imgs);
    for run in 0..5 {
        let again = team_bits(4, FusionMode::Auto, KernelPath::Scalar, &net, &imgs);
        assert_eq!(first, again, "run {run} diverged");
    }
}

/// One arena, two networks, three batch sizes, alternating: a chain
/// and a four-branch pruned net (different slot counts, different
/// activation shapes, pruned and dense convs and a batched pruned fc all
/// drawing on the same workspaces) take turns on a single
/// `ForwardArena` with a four-thread team that splits every kernel it
/// can, in both nets. Every pass must equal the sequential pass of that net
/// on that input through a fresh arena, bit for bit: a worker reading
/// scratch another worker — or the previous, differently shaped pass —
/// wrote would show here.
#[test]
fn one_arena_serves_alternating_networks_and_batch_sizes() {
    let _g = force_lock();
    let nets = [
        build_random_net(7, 1, 3, false),
        build_random_net(12, 4, 3, true),
    ];
    assert_ne!(nets[0].len(), nets[1].len());
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

    let mut arena = ForwardArena::with_team(Team::new(4).with_min_part_macs(0));
    for pass in 0..300 {
        let (which, variant) = (pass % 2, pass % 3);
        let got = nets[which]
            .forward_into(&inputs[variant], &mut arena)
            .unwrap();
        assert!(
            bits(got) == want[which][variant],
            "pass {pass}: net {which} input {variant}"
        );
    }
}

/// The degenerate single-node network survives every mode (and `Auto`
/// splits nothing in a net with no kernel worth a team).
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
    let got = forward_bits(
        DagMode::Auto,
        FusionMode::Off,
        KernelPath::Scalar,
        &net,
        &imgs,
    );
    assert_eq!(got, reference);
    let before = cap_obs::metrics().intra_op_splits.get();
    dag::force(Some(DagMode::Auto));
    let mut arena = ForwardArena::new();
    net.forward_into(&imgs, &mut arena).unwrap();
    dag::force(None);
    assert_eq!(
        cap_obs::metrics().intra_op_splits.get(),
        before,
        "auto must not split a net with nothing to split"
    );
}

/// A kernel error inside a branch aborts a pass on a team cleanly: the
/// error is returned (not a hang, not a panic), the same first error
/// the one-thread pass returns.
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
    dag::force(None);
    let mut arena = ForwardArena::with_team(Team::new(2).with_min_part_macs(0));
    let team_err = net.forward_into(&imgs, &mut arena).unwrap_err();
    assert_eq!(seq_err, team_err, "same first error either way");
}

/// One 16→32 3×3 conv on 32×32 maps: 4.7 M multiply-accumulates an
/// image, enough that `DagMode::Auto` splits it on any host with two
/// cores or more.
fn big_conv_net() -> Network {
    let mut net = Network::new("big-conv", (16, 32, 32));
    let p = Conv2dParams::new(16, 32, 3, 1, 1);
    let w = xavier_uniform(32, p.col_rows(), 5);
    net.add_sequential(Box::new(
        ConvLayer::new("conv", p, w, vec![0.0; 32]).unwrap(),
    ))
    .unwrap();
    net
}

/// `DagMode::Auto` keeps each pass on one thread inside data-parallel
/// engine workers: stacking a worker team on top of the engine's
/// threads would oversubscribe the host. The same net outside the
/// engine splits wherever the host has two cores.
#[test]
fn auto_defers_to_data_parallel_engine() {
    let _g = force_lock();
    let net = big_conv_net();
    let imgs = Tensor4::from_fn(4, 16, 32, 32, |n, c, h, w| {
        (((n * 7 + c * 5 + h * 3 + w) % 17) as f32 - 8.0) / 8.0
    });
    let splits = || cap_obs::metrics().intra_op_splits.get();

    dag::force(Some(DagMode::Auto));
    let before = splits();
    net.forward_into(&imgs, &mut ForwardArena::new()).unwrap();
    let outside = splits() - before;
    let before = splits();
    ParallelEngine::new(2).run_batched(&net, &imgs, 1).unwrap();
    let inside = splits() - before;
    dag::force(None);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(outside > 0, cores > 1, "auto outside the engine");
    assert_eq!(inside, 0, "auto must not split inside engine workers");
}

/// The CI-matrix assert (mirrors `fusion_override_is_honored…`): the
/// un-forced selection must honor `CAP_CNN_DAG`, and `intra_op_splits`
/// must track whether a pass used more than one thread.
#[test]
fn dag_override_is_honored_and_metrics_track_it() {
    let _g = force_lock();
    let net = build_random_net(17, 4, 2, false);
    let imgs = images(2, 3);
    let metrics = cap_obs::metrics();
    let splits = || metrics.intra_op_splits.get();

    // Forced off: one thread, so no kernel splits.
    dag::force(Some(DagMode::Off));
    let before = splits();
    net.forward_into_traced(&imgs, &mut ForwardArena::new(), &NoopTracer)
        .unwrap();
    assert_eq!(splits(), before, "dag=off must run on one thread");
    dag::force(None);

    // On a pinned two-thread team that splits whatever has two units,
    // the kernels split, the branches' included. Nothing counts
    // `dag_parallel_passes` any more.
    let (before, passes0) = (splits(), metrics.dag_parallel_passes.get());
    let mut two = ForwardArena::with_team(Team::new(2).with_min_part_macs(0));
    net.forward_into_traced(&imgs, &mut two, &NoopTracer)
        .unwrap();
    assert!(splits() > before, "a two-thread team must split");
    assert_eq!(metrics.dag_parallel_passes.get(), passes0);

    // Un-forced, the selection must honor CAP_CNN_DAG (what the CI
    // dag-matrix leg asserts).
    match std::env::var("CAP_CNN_DAG").as_deref() {
        Ok("off") => {
            assert_eq!(dag::selected(), DagMode::Off);
            assert!(!dag::selected().enabled());
        }
        // auto / unset: Auto (parallelize where it pays).
        _ => {
            assert_eq!(dag::selected(), DagMode::Auto);
            assert!(dag::selected().enabled());
        }
    }
}
