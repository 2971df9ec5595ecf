//! Network-level kernel parity: a full forward pass — conv (packed
//! GEMM), ReLU, LRN, max-pool, fully-connected (GEMM + bias), softmax
//! — must be **bitwise
//! identical** whichever microkernel path (`cap_tensor::kernels`) the
//! dispatcher runs on. This is the
//! end-to-end closure of the per-kernel guarantees in
//! `crates/tensor/tests/kernel_parity.rs`: if any layer's inner loop
//! re-ordered its accumulation under SIMD, the logits would drift and
//! this suite would catch it.
//!
//! On non-AVX2 hosts `available_paths()` is `[Scalar]` and the
//! comparison degenerates to scalar vs scalar — a pass, never a skip.

use cap_cnn::layer::{ConvLayer, InnerProductLayer, PoolLayer, PoolMode, ReluLayer, SoftmaxLayer};
use cap_cnn::network::{Network, INPUT};
use cap_cnn::run_batched;
use cap_tensor::init::xavier_uniform;
use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{Conv2dParams, Tensor4};

/// conv → relu → pool → conv → relu → fc → softmax: every kernel
/// family the dispatch layer serves, in one pass.
fn build_net(seed: u64) -> Network {
    let mut net = Network::new("kernel-parity", (3, 13, 13));
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
    let w2 = xavier_uniform(6, 8 * 9, seed + 1);
    let p2 = Conv2dParams::new(8, 6, 3, 1, 1);
    let c2 = net
        .add_layer(
            Box::new(ConvLayer::new("c2", p2, w2, vec![0.0; 6]).unwrap()),
            &[pool],
        )
        .unwrap();
    let r2 = net
        .add_layer(Box::new(ReluLayer::new("r2")), &[c2])
        .unwrap();
    let fc = net
        .add_layer(
            Box::new(
                InnerProductLayer::new("fc", xavier_uniform(10, 6 * 36, seed + 2), vec![0.01; 10])
                    .unwrap(),
            ),
            &[r2],
        )
        .unwrap();
    net.add_layer(Box::new(SoftmaxLayer::new("prob")), &[fc])
        .unwrap();
    net
}

fn images(n: usize, seed: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 13, 13, |ni, c, h, w| {
        (((ni * 131 + c * 31 + h * 7 + w + seed) % 19) as f32 - 9.0) / 6.0
    })
}

fn forward_on(path: KernelPath, net: &Network, imgs: &Tensor4, batch: usize) -> Vec<Vec<f32>> {
    // `kernels::force` is process-global: another test's `force(None)`
    // mid-pass would drop this one onto the environment's path, so the
    // pass would no longer run on the path it names.
    static FORCED: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = FORCED.lock().unwrap_or_else(|e| e.into_inner());
    kernels::force(Some(path));
    let (out, _) = run_batched(net, imgs, batch).unwrap();
    kernels::force(None);
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
fn dense_network_forward_bitwise_identical_across_paths() {
    let net = build_net(7);
    for (n, batch) in [(1, 1), (5, 2), (8, 8)] {
        let imgs = images(n, 3);
        let reference = forward_on(KernelPath::Scalar, &net, &imgs, batch);
        for path in kernels::available_paths() {
            let got = forward_on(path, &net, &imgs, batch);
            assert_outputs_bitwise_equal(
                &reference,
                &got,
                &format!("dense net n={n} batch={batch} on {}", path.name()),
            );
        }
    }
}

#[test]
fn repeated_forwards_stable_after_path_switching() {
    // Switching the forced path back and forth must not leave stale
    // state behind (packed weights, arenas): scalar → simd → scalar
    // reproduces the first scalar run bit-for-bit.
    let net = build_net(13);
    let imgs = images(4, 1);
    let first = forward_on(KernelPath::Scalar, &net, &imgs, 2);
    for path in kernels::available_paths() {
        let _ = forward_on(path, &net, &imgs, 2);
    }
    let again = forward_on(KernelPath::Scalar, &net, &imgs, 2);
    assert_outputs_bitwise_equal(&first, &again, "scalar after path switching");
}
