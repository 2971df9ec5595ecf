//! The flight recorder under real concurrency: attach a
//! [`FlightRecorder`] to [`ParallelEngine::run_batched_traced`] and
//! hammer it from every worker at once. Dumped records must never be
//! torn (every field internally consistent), the ring must retain
//! exactly the last `capacity` spans, and worker spans must land on
//! distinct thread ids.

use cap_cnn::layer::{ConvLayer, InnerProductLayer, ReluLayer, SoftmaxLayer};
use cap_cnn::network::Network;
use cap_cnn::{FlightRecorder, ParallelEngine};
use cap_obs::{SpanScope, Tracer};
use cap_tensor::{init::xavier_uniform, Conv2dParams, Tensor4};
use std::collections::HashSet;

fn small_net() -> Network {
    let mut net = Network::new("flight-net", (3, 9, 9));
    net.add_sequential(Box::new(
        ConvLayer::new(
            "conv1",
            Conv2dParams::new(3, 6, 3, 1, 2),
            xavier_uniform(6, 27, 7),
            vec![0.0; 6],
        )
        .unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu1")))
        .unwrap();
    net.add_sequential(Box::new(
        InnerProductLayer::new("fc", xavier_uniform(5, 6 * 5 * 5, 9), vec![0.0; 5]).unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

fn images(n: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 9, 9, |ni, c, h, w| {
        (((ni * 37 + c * 11 + h * 3 + w) % 17) as f32 - 8.0) / 6.0
    })
}

/// All worker spans recorded concurrently come back whole: known layer
/// names, consistent scope/kind pairing, plausible timing fields — and
/// each of the engine's workers reported from its own thread id.
#[test]
fn parallel_spans_are_never_torn_and_tids_are_distinct() {
    let net = small_net();
    let engine = ParallelEngine::new(4);
    let recorder = FlightRecorder::new(4096);
    let imgs = images(32);

    for _ in 0..6 {
        engine
            .run_batched_traced(&net, &imgs, 4, &recorder)
            .unwrap();
    }

    let spans = recorder.dump();
    assert!(!spans.is_empty());
    let layer_names: HashSet<&str> = ["conv1", "relu1", "fc", "prob"].into();
    let mut worker_tids: HashSet<u64> = HashSet::new();
    let mut seen_layer = false;
    for s in &spans {
        match s.scope {
            SpanScope::Layer => {
                seen_layer = true;
                assert!(
                    layer_names.contains(s.name.as_str()),
                    "torn or corrupt layer name: {:?}",
                    s.name
                );
                // Layer spans carry the output shape stamped by the
                // network; batch dim matches the chunking.
                assert!(s.shape[0] >= 1 && s.shape[0] <= 4, "shape {:?}", s.shape);
            }
            SpanScope::Worker => {
                assert_eq!(s.name, "worker");
                assert!(s.index < 4, "worker index {}", s.index);
                worker_tids.insert(s.tid);
            }
            SpanScope::Forward => assert_eq!(s.name, "flight-net"),
            other => panic!("unexpected scope {other:?} from the engine"),
        }
        assert!(s.tid > 0, "tid must be assigned");
        // A worker span contains its layers: start offsets grow
        // monotonically from the recorder's epoch and elapsed is
        // bounded by the test's runtime (sanity, not timing-exact).
        assert!(s.elapsed.as_secs() < 60);
        assert!(s.start.as_secs() < 60);
    }
    assert!(seen_layer, "per-layer spans must flow through the engine");
    // 6 runs x 4 active workers; the scope shim spawns a fresh OS
    // thread per worker, so at least 4 distinct tids must appear
    // (spans from different runs may or may not reuse tids — fresh
    // threads each run means strictly more, but 4 is the floor only
    // when the ring still holds one full run).
    assert!(
        worker_tids.len() >= 4,
        "expected >= 4 distinct worker tids, got {:?}",
        worker_tids
    );
}

/// Overfilling the ring keeps exactly the last `capacity` records, in
/// ticket order, with the oldest tickets evicted first.
#[test]
fn ring_keeps_exactly_the_last_capacity_spans() {
    let net = small_net();
    let engine = ParallelEngine::new(3);
    let recorder = FlightRecorder::new(32);
    let imgs = images(24);

    // Each run emits well over 32 spans (24/4 chunks x (1 forward +
    // 4 layers) + workers), so the ring wraps repeatedly.
    for _ in 0..4 {
        engine
            .run_batched_traced(&net, &imgs, 4, &recorder)
            .unwrap();
    }

    let spans = recorder.dump();
    assert_eq!(
        spans.len(),
        32,
        "a saturated ring dumps exactly its capacity"
    );
    // Quiescent now: recording a single span evicts exactly the oldest.
    let marker = cap_obs::SpanInfo::new(SpanScope::Forward, "marker-after-wrap");
    recorder.span_exit(&marker, std::time::Duration::from_micros(5));
    let spans2 = recorder.dump();
    assert_eq!(spans2.len(), 32);
    assert_eq!(spans2.last().unwrap().name, "marker-after-wrap");
    // The previous dump's tail (all but its evicted head) is preserved
    // verbatim as the new dump's front.
    assert_eq!(&spans2[..31], &spans[1..]);
}
