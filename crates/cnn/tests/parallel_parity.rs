//! Parallel/sequential parity: [`ParallelEngine::run_batched`] must be
//! bitwise-identical to [`run_batched`] — same per-image vectors, same
//! order — for every (images, batch, workers) combination, including
//! ragged trailing chunks, more workers than chunks, and repeated runs
//! through a recycled engine state pool.
//!
//! Workers share one `&Network` and nothing else: no layer holds
//! scratch or a lock (the LRN's square-sum plane and the conv/fc
//! lowering buffers are the worker's own arena workspace), so two
//! workers may be inside the same LRN or conv at once.

use cap_cnn::layer::{
    ConcatLayer, ConvLayer, DropoutLayer, InnerProductLayer, LrnLayer, PoolLayer, PoolMode,
    ReluLayer, SoftmaxLayer,
};
use cap_cnn::network::{Network, INPUT};
use cap_cnn::{run_batched, CollectingTracer, ParallelEngine};
use cap_obs::SpanScope;
use cap_tensor::{init::xavier_uniform, Conv2dParams, Tensor4};
use proptest::prelude::*;

/// A branchy net (conv → relu → LRN → two conv branches → concat → pool
/// → dropout → fc → softmax) so parity covers every layer kind and a
/// branching plan, not just a sequential stack.
fn build_net(seed: u64) -> Network {
    let mut net = Network::new("par-parity", (4, 9, 9));
    let p1 = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
    let c1 = net
        .add_layer(
            Box::new(
                ConvLayer::new("c1", p1, xavier_uniform(6, 2 * 9, seed), vec![0.05; 6]).unwrap(),
            ),
            &[INPUT],
        )
        .unwrap();
    let r1 = net
        .add_layer(Box::new(ReluLayer::new("r1")), &[c1])
        .unwrap();
    let n1 = net
        .add_layer(Box::new(LrnLayer::alexnet("n1")), &[r1])
        .unwrap();
    let pa = Conv2dParams::new(6, 3, 1, 0, 1);
    let ba = net
        .add_layer(
            Box::new(
                ConvLayer::new("ba", pa, xavier_uniform(3, 6, seed + 1), vec![0.0; 3]).unwrap(),
            ),
            &[n1],
        )
        .unwrap();
    let pb = Conv2dParams::new(6, 5, 3, 1, 1);
    let bb = net
        .add_layer(
            Box::new(
                ConvLayer::new("bb", pb, xavier_uniform(5, 54, seed + 2), vec![0.0; 5]).unwrap(),
            ),
            &[n1],
        )
        .unwrap();
    let cat = net
        .add_layer(Box::new(ConcatLayer::new("cat")), &[ba, bb])
        .unwrap();
    let pool = net
        .add_layer(
            Box::new(PoolLayer::new("p1", PoolMode::Max, 3, 0, 2)),
            &[cat],
        )
        .unwrap();
    let drop = net
        .add_layer(Box::new(DropoutLayer::new("d1", 0.5)), &[pool])
        .unwrap();
    let fc = net
        .add_layer(
            Box::new(
                InnerProductLayer::new("fc", xavier_uniform(10, 8 * 16, seed + 3), vec![0.01; 10])
                    .unwrap(),
            ),
            &[drop],
        )
        .unwrap();
    net.add_layer(Box::new(SoftmaxLayer::new("prob")), &[fc])
        .unwrap();
    net
}

fn images(n: usize, seed: usize) -> Tensor4 {
    Tensor4::from_fn(n, 4, 9, 9, |ni, c, h, w| {
        (((ni * 131 + c * 31 + h * 7 + w + seed) % 19) as f32 - 9.0) / 6.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Any (n, batch, workers) combination — ragged trailing chunk,
    /// workers > chunks, workers > images — reproduces the sequential
    /// output bitwise and in order.
    #[test]
    fn parallel_matches_sequential_bitwise(
        seed in 0u64..50,
        n in 1usize..14,
        batch in 1usize..6,
        workers in 1usize..9,
    ) {
        let net = build_net(seed);
        let imgs = images(n, seed as usize);
        let (seq, _) = run_batched(&net, &imgs, batch).unwrap();
        let engine = ParallelEngine::new(workers);
        let (par, report) = engine.run_batched(&net, &imgs, batch).unwrap();
        prop_assert_eq!(&par, &seq);
        // Bitwise, not approximately: compare the raw f32 bit patterns.
        for (a, b) in par.iter().zip(seq.iter()) {
            let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(ab, bb);
        }
        prop_assert_eq!(report.workers.len(), workers);
        prop_assert_eq!(
            report.workers.iter().map(|w| w.images).sum::<usize>(),
            n
        );
    }
}

#[test]
fn odd_combinations_workers_exceed_images() {
    // Deliberately awkward shards: 7 images / batch 3 → 3 chunks, split
    // across up to 16 workers; 13 of them must idle without perturbing
    // output order.
    let net = build_net(11);
    let imgs = images(7, 3);
    let (seq, _) = run_batched(&net, &imgs, 3).unwrap();
    for workers in [1, 2, 3, 5, 7, 8, 16] {
        let engine = ParallelEngine::new(workers);
        let (par, report) = engine.run_batched(&net, &imgs, 3).unwrap();
        assert_eq!(par, seq, "workers={workers}");
        let active = report.workers.iter().filter(|w| w.chunks > 0).count();
        assert!(active <= 3, "workers={workers} active={active}");
        assert_eq!(report.workers.len(), workers);
    }
}

#[test]
fn repeated_runs_through_one_engine_stay_identical() {
    // The state pool hands back grown arenas in arbitrary order; outputs
    // must not depend on which worker inherits which arena.
    let net = build_net(5);
    let engine = ParallelEngine::new(3);
    let big = images(9, 1);
    let small = images(4, 2);
    let (seq_big, _) = run_batched(&net, &big, 2).unwrap();
    let (seq_small, _) = run_batched(&net, &small, 3).unwrap();
    for _ in 0..3 {
        let (pb, _) = engine.run_batched(&net, &big, 2).unwrap();
        assert_eq!(pb, seq_big);
        let (ps, _) = engine.run_batched(&net, &small, 3).unwrap();
        assert_eq!(ps, seq_small);
    }
}

#[test]
fn batch_larger_than_workload_single_chunk() {
    let net = build_net(9);
    let imgs = images(3, 7);
    let (seq, _) = run_batched(&net, &imgs, 64).unwrap();
    let engine = ParallelEngine::new(4);
    let (par, report) = engine.run_batched(&net, &imgs, 64).unwrap();
    assert_eq!(par, seq);
    // One chunk → exactly one worker does all the images.
    assert_eq!(report.workers.iter().filter(|w| w.images == 3).count(), 1);
}

#[test]
fn engine_runs_reuse_their_threads() {
    // Worker 0 is the caller and worker 1 a helper of the engine's
    // team, built on the first run and kept: both runs stamp their
    // worker spans with the same two thread ids.
    let net = build_net(3);
    let imgs = images(4, 0);
    let engine = ParallelEngine::new(2);
    let worker_tids = || {
        let tracer = CollectingTracer::new();
        engine.run_batched_traced(&net, &imgs, 1, &tracer).unwrap();
        let mut tids: Vec<(usize, u64)> = tracer
            .take_spans()
            .into_iter()
            .filter(|s| s.scope == SpanScope::Worker)
            .map(|s| (s.index, s.tid))
            .collect();
        tids.sort_unstable();
        tids
    };
    let first = worker_tids();
    assert_eq!(first.len(), 2, "{first:?}");
    assert_eq!(first[0].1, cap_obs::current_tid(), "worker 0 is the caller");
    assert_ne!(first[1].1, first[0].1, "worker 1 has a thread of its own");
    assert_eq!(worker_tids(), first, "the second run reuses the threads");
}
