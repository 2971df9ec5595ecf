//! Canned tenant fleets: small CNNs at different prune levels sharing
//! one router, used by the `serve` experiment and the integration
//! tests. Everything here is seeded and shape-fixed so a fleet is as
//! reproducible as the traces that drive it.

use crate::tenant::{ServiceModel, TenantConfig};
use cap_cnn::layer::{ConvLayer, InnerProductLayer, PoolLayer, PoolMode, ReluLayer, SoftmaxLayer};
use cap_cnn::Network;
use cap_pruning::{apply_to_network, PruneAlgorithm, PruneSpec};
use cap_tensor::{init::xavier_uniform, Conv2dParams, Tensor4};

/// Calibration constant for deriving virtual service times from a
/// network's MAC count: MACs executed per virtual microsecond. Chosen
/// so the demo network's per-image service lands in the low
/// milliseconds — absolute values shift every tenant equally and cancel
/// out of relative comparisons.
pub const DEMO_MACS_PER_US: f64 = 200.0;

/// A small two-conv CNN on 3×16×16 input (10-class head), sized so a
/// serving experiment dispatching hundreds of real batches finishes in
/// seconds on one core. `seed` salts the weight init, letting each
/// tenant own distinct weights.
pub fn demo_network(seed: u64) -> Network {
    let mut net = Network::new("demo", (3, 16, 16));
    let c1 = Conv2dParams::new(3, 8, 3, 1, 1);
    net.add_sequential(Box::new(
        ConvLayer::new(
            "conv1",
            c1,
            xavier_uniform(8, 27, seed.wrapping_mul(7).wrapping_add(1)),
            vec![0.0; 8],
        )
        .unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu1")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool1", PoolMode::Max, 2, 0, 2)))
        .unwrap();
    let c2 = Conv2dParams::new(8, 8, 3, 1, 1);
    net.add_sequential(Box::new(
        ConvLayer::new(
            "conv2",
            c2,
            xavier_uniform(8, 72, seed.wrapping_mul(7).wrapping_add(2)),
            vec![0.0; 8],
        )
        .unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(ReluLayer::new("relu2")))
        .unwrap();
    net.add_sequential(Box::new(PoolLayer::new("pool2", PoolMode::Max, 2, 0, 2)))
        .unwrap();
    net.add_sequential(Box::new(
        InnerProductLayer::new(
            "fc",
            xavier_uniform(10, 8 * 4 * 4, seed.wrapping_mul(7).wrapping_add(3)),
            vec![0.0; 10],
        )
        .unwrap(),
    ))
    .unwrap();
    net.add_sequential(Box::new(SoftmaxLayer::new("prob")))
        .unwrap();
    net
}

/// Build one serving tenant: the demo network pruned to `prune_ratio`
/// (L1 filter pruning on both conv layers, the paper's algorithm), with
/// a service model derived from the network's MAC count.
///
/// The service model is the dense network's MAC count, taken before
/// pruning narrows the network; the *time* benefit of pruning is
/// modeled by scaling the dense service time with `1 − 0.7·ratio`
/// (pruned execution recovers ~70 % of the pruned fraction — a
/// calibration assumption, stated here so the experiment can be read
/// honestly). Charging the narrowed MACs too would count pruning twice.
/// A pruned tenant therefore serves faster and batches larger under
/// the same SLO, which is exactly the cost-accuracy trade the paper
/// prices.
pub fn pruned_tenant(name: &str, seed: u64, prune_ratio: f64) -> (TenantConfig, Network) {
    let mut net = demo_network(seed);
    let time_factor = 1.0 - 0.7 * prune_ratio.clamp(0.0, 1.0);
    let service = ServiceModel::from_network(&net, DEMO_MACS_PER_US, time_factor);
    if prune_ratio > 0.0 {
        let spec = PruneSpec::uniform(&["conv1", "conv2"], prune_ratio);
        apply_to_network(&mut net, &spec, PruneAlgorithm::FilterL1)
            .expect("demo network has the layers the spec names");
    }
    (TenantConfig::new(name, service), net)
}

/// A deterministic pool of `n` demo-shaped images (3×16×16), values in
/// roughly `[-1, 1]`. Request `seq` of a tenant carries image
/// `seq % n`.
pub fn demo_images(n: usize) -> Tensor4 {
    Tensor4::from_fn(n, 3, 16, 16, |i, c, h, w| {
        ((i * 31 + c * 17 + h * 5 + w) % 19) as f32 / 9.0 - 1.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_network_runs_and_counts_macs() {
        let net = demo_network(1);
        let macs = net.macs_per_image().unwrap();
        assert!(macs > 0);
        let mut arena = cap_cnn::ForwardArena::new();
        let y = net.forward_into(&demo_images(2), &mut arena).unwrap();
        assert_eq!((y.n(), y.c() * y.h() * y.w()), (2, 10));
    }

    #[test]
    fn pruned_tenant_is_faster_than_dense() {
        let (dense, _) = pruned_tenant("d", 1, 0.0);
        let (pruned, _) = pruned_tenant("p", 1, 0.6);
        assert!(
            pruned.service.per_image_us < dense.service.per_image_us,
            "pruned {} vs dense {}",
            pruned.service.per_image_us,
            dense.service.per_image_us
        );
        // Faster service ⇒ at least as large a batch target under the
        // same SLO.
        assert!(pruned.target_batch() >= dense.target_batch());
    }

    #[test]
    fn tenants_with_different_seeds_differ() {
        let a = demo_network(1);
        let b = demo_network(2);
        let mut ar = cap_cnn::ForwardArena::new();
        let imgs = demo_images(1);
        let ya = a.forward_into(&imgs, &mut ar).unwrap().image(0).to_vec();
        let yb = b.forward_into(&imgs, &mut ar).unwrap().image(0).to_vec();
        assert_ne!(ya, yb);
    }
}
