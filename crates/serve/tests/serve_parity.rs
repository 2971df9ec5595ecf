//! Served-vs-offline parity: a request served through the router —
//! queued, batched with whatever neighbors the load happened to
//! provide, dispatched through `ParallelEngine::run_chunk` — must
//! produce logits **bitwise identical** to the same image pushed
//! through the offline [`cap_cnn::run_batched`] driver. This extends
//! the repo-wide batching-invariance contract (outputs independent of
//! batch grouping, worker count, kernel path, fusion and DAG modes)
//! across the serving layer; CI runs it under the full
//! kernel × fusion × DAG × precision matrix.
//!
//! Every network is **calibrated** on the image pool first: under
//! `CAP_TENSOR_PRECISION=int8` an uncalibrated network falls back to
//! per-batch max-abs activation scales, which would make logits depend
//! on batch composition and break bitwise parity by construction.
//! Calibration freezes the scales, restoring batch invariance.

use cap_serve::{fleet, generate_trace, ArrivalPattern, Router, RouterConfig};
use cap_tensor::CalibrationMethod;

#[test]
fn served_logits_equal_offline_run_batched_bitwise() {
    let pool = fleet::demo_images(6);

    // Offline reference: every pool image through the plain batched
    // driver (batch size irrelevant by the batching-invariance
    // contract — use an awkward one on purpose).
    let reference_net = fleet::demo_network(11);
    reference_net
        .calibrate(&pool, CalibrationMethod::MaxAbs)
        .unwrap();
    let (reference, _) = cap_cnn::run_batched(&reference_net, &pool, 5).unwrap();

    // Served run: same weights (the constructor is deterministic), a
    // bursty two-tenant trace so batches form at many sizes.
    let tenants: Vec<_> = [("a", 11), ("b", 11)]
        .into_iter()
        .map(|(name, seed)| {
            let net = fleet::demo_network(seed);
            net.calibrate(&pool, CalibrationMethod::MaxAbs).unwrap();
            (fleet::pruned_tenant(name, seed, 0.0).0, net)
        })
        .collect();
    let mut router = Router::new(
        RouterConfig {
            workers: 2,
            collect_outputs: true,
            ..RouterConfig::default()
        },
        tenants,
    );
    let trace = generate_trace(
        77,
        &[
            ArrivalPattern::Burst {
                base_per_s: 300.0,
                burst_per_s: 4_000.0,
                burst_every_s: 0.1,
                burst_len_s: 0.03,
            },
            ArrivalPattern::Poisson { rate_per_s: 800.0 },
        ],
        0.4,
    );
    let report = router
        .serve_trace(&trace, &[pool.clone(), pool.clone()])
        .unwrap();

    assert_eq!(
        report.outputs.len() as u64,
        report.completed,
        "collect_outputs must capture every completed request"
    );
    assert!(
        report.completed > 100,
        "trace too small to exercise batching"
    );

    let mean_batch = report.completed as f64 / report.batches as f64;
    assert!(
        mean_batch > 1.2,
        "parity test needs multi-image batches to be meaningful (mean {mean_batch:.2})"
    );

    for out in &report.outputs {
        let img = (out.seq % pool.n() as u64) as usize;
        assert_eq!(
            out.logits, reference[img],
            "tenant {} seq {} (image {img}) diverged from offline inference",
            out.tenant, out.seq
        );
    }
}

#[test]
fn parity_holds_for_pruned_tenants() {
    // A pruned network is a different model; its served outputs must
    // match *its own* offline reference, not the dense one.
    let pool = fleet::demo_images(4);
    let (cfg, net) = fleet::pruned_tenant("p60", 5, 0.6);
    let (cfg2, net2) = fleet::pruned_tenant("p60-ref", 5, 0.6);
    assert_eq!(cfg.service, cfg2.service);
    net.calibrate(&pool, CalibrationMethod::MaxAbs).unwrap();
    net2.calibrate(&pool, CalibrationMethod::MaxAbs).unwrap();
    let (reference, _) = cap_cnn::run_batched(&net2, &pool, 4).unwrap();

    let mut router = Router::new(
        RouterConfig {
            workers: 1,
            collect_outputs: true,
            ..RouterConfig::default()
        },
        vec![(cfg, net)],
    );
    let trace = generate_trace(9, &[ArrivalPattern::Poisson { rate_per_s: 600.0 }], 0.3);
    let report = router
        .serve_trace(&trace, std::slice::from_ref(&pool))
        .unwrap();
    assert!(report.completed > 50);
    for out in &report.outputs {
        let img = (out.seq % pool.n() as u64) as usize;
        assert_eq!(out.logits, reference[img]);
    }
}

#[test]
fn served_passes_never_split_their_kernels() {
    // Every batch runs through `ParallelEngine::run_chunk` on one
    // thread; the demo nets are far below the per-part minimum of a
    // kernel split besides, so replaying a three-tenant trace must not
    // move the split counter (no other net in this binary is big
    // enough to split either).
    let pool = fleet::demo_images(8);
    let tenants = vec![
        fleet::pruned_tenant("dense", 1, 0.0),
        fleet::pruned_tenant("pruned-60", 2, 0.6),
        fleet::pruned_tenant("pruned-90", 3, 0.9),
    ];
    let mut router = Router::new(
        RouterConfig {
            workers: 2,
            ..RouterConfig::default()
        },
        tenants,
    );
    let trace = generate_trace(
        35,
        &[
            ArrivalPattern::Poisson { rate_per_s: 800.0 },
            ArrivalPattern::Diurnal {
                base_per_s: 200.0,
                peak_per_s: 1_400.0,
                period_s: 0.25,
            },
            ArrivalPattern::Burst {
                base_per_s: 400.0,
                burst_per_s: 4_000.0,
                burst_every_s: 0.25,
                burst_len_s: 0.05,
            },
        ],
        0.3,
    );
    let metrics = cap_obs::metrics();
    let (splits, passes) = (metrics.intra_op_splits.get(), metrics.forward_passes.get());
    let report = router
        .serve_trace(&trace, &[pool.clone(), pool.clone(), pool.clone()])
        .unwrap();
    assert!(report.batches > 50, "{} batches", report.batches);
    assert!(metrics.forward_passes.get() - passes >= report.batches);
    assert_eq!(metrics.intra_op_splits.get(), splits, "a served pass split");
}
