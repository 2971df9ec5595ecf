//! Network-level fusion parity: a full forward pass must be **bitwise
//! identical** whether the executor's graph-level `conv → relu` /
//! `fc → relu` fusion pass is on or off (`CAP_TENSOR_FUSION`), on every
//! microkernel path — the end-to-end closure of the
//! per-kernel fused-epilogue guarantees in
//! `crates/tensor/tests/fused_parity.rs`.
//!
//! Both `cap_cnn::fusion::force` and `cap_tensor::kernels::force` are
//! process-global, so every test serializes on one mutex (this also
//! makes the `fused_layers` gauge assertions race-free within this
//! binary; other test binaries are separate processes).

use cap_cnn::fusion::{self, FusionMode};
use cap_cnn::layer::{ConvLayer, InnerProductLayer, PoolLayer, PoolMode, ReluLayer, SoftmaxLayer};
use cap_cnn::network::{ForwardArena, Network, INPUT};
use cap_cnn::{run_batched, NoopTracer};
use cap_tensor::init::xavier_uniform;
use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{Conv2dParams, Matrix, Tensor4};
use std::sync::{Mutex, MutexGuard, OnceLock};

mod common;

/// Global serialization for tests that touch `fusion::force`,
/// `kernels::force`, or the global metrics registry.
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

/// conv → relu → pool → conv(optionally pruned) → relu →
/// fc(optionally pruned) → relu → fc → softmax: both fusible layer
/// kinds, dense and pruned, plus a trailing unfusible fc.
///
/// 3 fusible producer→relu pairs in total.
const FUSIBLE_PAIRS: u64 = 3;

fn build_net(seed: u64, sparse: bool) -> Network {
    let mut net = Network::new("fusion-parity", (3, 13, 13));
    let p1 = Conv2dParams::new(3, 8, 3, 1, 1);
    let c1 = net
        .add_layer(
            Box::new(ConvLayer::new("c1", p1, xavier_uniform(8, 27, seed), vec![0.05; 8]).unwrap()),
            &[INPUT],
        )
        .unwrap();
    let r1 = net
        .add_layer(Box::new(ReluLayer::new("r1")), &[c1])
        .unwrap();
    let pool = net
        .add_layer(
            Box::new(PoolLayer::new("p1", PoolMode::Max, 3, 0, 2)),
            &[r1],
        )
        .unwrap();
    let mut w2 = xavier_uniform(6, 8 * 9, seed + 1);
    if sparse {
        w2 = common::unstructured_zeros(w2);
    }
    let p2 = Conv2dParams::new(8, 6, 3, 1, 1);
    let c2 = net
        .add_layer(
            Box::new(ConvLayer::new("c2", p2, w2, vec![-0.02; 6]).unwrap()),
            &[pool],
        )
        .unwrap();
    let r2 = net
        .add_layer(Box::new(ReluLayer::new("r2")), &[c2])
        .unwrap();
    let mut w3 = xavier_uniform(16, 6 * 36, seed + 2);
    if sparse {
        w3 = prune(&w3, 6);
    }
    let fc1 = net
        .add_layer(
            Box::new(InnerProductLayer::new("fc1", w3, vec![0.01; 16]).unwrap()),
            &[r2],
        )
        .unwrap();
    let r3 = net
        .add_layer(Box::new(ReluLayer::new("r3")), &[fc1])
        .unwrap();
    let fc2 = net
        .add_layer(
            Box::new(
                InnerProductLayer::new("fc2", xavier_uniform(10, 16, seed + 3), vec![-0.01; 10])
                    .unwrap(),
            ),
            &[r3],
        )
        .unwrap();
    net.add_layer(Box::new(SoftmaxLayer::new("prob")), &[fc2])
        .unwrap();
    net
}

fn images(n: usize, seed: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 13, 13, |ni, c, h, w| {
        (((ni * 131 + c * 31 + h * 7 + w + seed) % 19) as f32 - 9.0) / 6.0
    })
}

fn forward_on(
    mode: FusionMode,
    path: KernelPath,
    net: &Network,
    imgs: &Tensor4,
    batch: usize,
) -> Vec<Vec<f32>> {
    fusion::force(Some(mode));
    kernels::force(Some(path));
    let (out, _) = run_batched(net, imgs, batch).unwrap();
    kernels::force(None);
    fusion::force(None);
    out
}

fn assert_outputs_bitwise_equal(a: &[Vec<f32>], b: &[Vec<f32>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: image count");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "{what}: image {i} logits differ");
    }
}

#[test]
fn dense_network_fused_bitwise_identical_to_unfused() {
    let _g = force_lock();
    let net = build_net(7, false);
    for (n, batch) in [(1, 1), (5, 2), (8, 8)] {
        let imgs = images(n, 3);
        // The gold reference: unfused scalar.
        let reference = forward_on(FusionMode::Off, KernelPath::Scalar, &net, &imgs, batch);
        for path in kernels::available_paths() {
            let got = forward_on(FusionMode::Auto, path, &net, &imgs, batch);
            assert_outputs_bitwise_equal(
                &reference,
                &got,
                &format!("dense net n={n} batch={batch} fused on {}", path.name()),
            );
        }
    }
}

#[test]
fn pruned_network_fused_bitwise_identical_to_unfused() {
    let _g = force_lock();
    // Pruned conv2 runs the fused dense GEMM, multiplying its zeros;
    // pruned fc1 the fused dense GEMV at batch 1 and GEMM at batch 2.
    let net = build_net(11, true);
    for (n, batch) in [(1, 1), (6, 2)] {
        let imgs = images(n, 9);
        let reference = forward_on(FusionMode::Off, KernelPath::Scalar, &net, &imgs, batch);
        for path in kernels::available_paths() {
            let got = forward_on(FusionMode::Auto, path, &net, &imgs, batch);
            assert_outputs_bitwise_equal(
                &reference,
                &got,
                &format!("pruned net n={n} batch={batch} on {}", path.name()),
            );
        }
    }
}

#[test]
fn mode_switching_leaves_no_stale_state() {
    let _g = force_lock();
    // The plan cache keys on the fusion mode: flipping off → auto → off
    // must reproduce the first unfused run bit-for-bit.
    let net = build_net(13, false);
    let imgs = images(4, 1);
    let first = forward_on(FusionMode::Off, KernelPath::Scalar, &net, &imgs, 2);
    let _ = forward_on(FusionMode::Auto, KernelPath::Scalar, &net, &imgs, 2);
    let again = forward_on(FusionMode::Off, KernelPath::Scalar, &net, &imgs, 2);
    assert_outputs_bitwise_equal(&first, &again, "unfused after mode switching");
}

#[test]
fn fusion_override_is_honored_and_gauge_tracks_it() {
    let _g = force_lock();
    let net = build_net(17, false);
    let imgs = images(2, 5);
    let mut arena = ForwardArena::new();

    // Forced off: every node is its own step, gauge reads 0.
    fusion::force(Some(FusionMode::Off));
    net.forward_into_traced(&imgs, &mut arena, &NoopTracer)
        .unwrap();
    assert_eq!(
        cap_obs::metrics().snapshot().fused_layers,
        0,
        "fusion=off must fuse nothing"
    );

    // Forced auto: every fusible producer→relu pair collapses.
    fusion::force(Some(FusionMode::Auto));
    net.forward_into_traced(&imgs, &mut arena, &NoopTracer)
        .unwrap();
    assert_eq!(
        cap_obs::metrics().snapshot().fused_layers,
        FUSIBLE_PAIRS,
        "fusion=auto must fuse all fusible pairs"
    );
    fusion::force(None);

    // Un-forced, the selection must honor CAP_TENSOR_FUSION (this is
    // what the CI fusion-matrix leg asserts).
    match std::env::var("CAP_TENSOR_FUSION").as_deref() {
        Ok("off") => {
            assert_eq!(fusion::selected(), FusionMode::Off);
            assert!(!fusion::selected().enabled());
        }
        // auto / unset: fusion defaults on (it is bitwise invisible by
        // the contract this file proves).
        _ => {
            assert_eq!(fusion::selected(), FusionMode::Auto);
            assert!(fusion::selected().enabled());
        }
    }
}
