//! Integration tests of the extension surface: quantization, weight
//! sharing, gradual schedules, what-if queries, spec search, and the
//! joint 3-objective frontier — all through the public facade.

use cloud_cost_accuracy::prelude::*;

#[test]
fn quantization_and_sharing_compose_with_real_network() {
    use cap_pruning::{quantize_uniform, share_weights};
    let mut net = caffenet(WeightInit::Gaussian { std: 0.01, seed: 5 }).unwrap();
    // Quantize conv3 to 8 bits and weight-share conv4 into 32 clusters.
    let mut w3 = net.layer("conv3").unwrap().weights().unwrap().clone();
    let q = quantize_uniform(&mut w3, 8).unwrap();
    assert!(q.rms_error < 1e-3);
    net.set_layer_weights("conv3", w3).unwrap();

    let mut w4 = net.layer("conv4").unwrap().weights().unwrap().clone();
    let s = share_weights(&mut w4, 32).unwrap();
    assert!(s.clusters_used <= 32);
    net.set_layer_weights("conv4", w4).unwrap();

    // The network still runs and classifies.
    let x = cap_tensor::Tensor4::from_fn(1, 3, 224, 224, |_, c, h, w| {
        ((c + h * 2 + w) % 13) as f32 / 13.0 - 0.5
    });
    let y = net.forward(&x).unwrap();
    let total: f32 = y.image(0).iter().sum();
    assert!((total - 1.0).abs() < 1e-3);
}

#[test]
fn gradual_schedule_reaches_target_with_fine_tuning() {
    use cap_pruning::magnitude::sparsity_mask;
    let data = SyntheticImageNet::tiny(88);
    let mut net = SequentialNet::tinynet(data.image_shape, 6, 8, data.classes, 4).unwrap();
    let mut sgd = Sgd::new(0.03, 0.9);
    for b in 0..10 {
        let (x, labels) = data.batch(b * 24, 24);
        net.train_batch(&x, &labels, &mut sgd, None).unwrap();
    }
    // Cubic (Zhu–Gupta) schedule to 80 % in four steps: sparsity rises
    // fast early and flattens near the target.
    let schedule = (1..=4).map(|i| 0.8 - 0.8 * (1.0 - i as f64 / 4.0).powi(3));
    for target in schedule {
        let mut masks = std::collections::HashMap::new();
        for conv in [0, 3] {
            let w = net.layer_mut(conv).unwrap().weights_mut().unwrap();
            prune_magnitude(w, target).unwrap();
            masks.insert(conv, sparsity_mask(w));
        }
        let mut ft = Sgd::new(0.01, 0.9);
        for b in 0..3 {
            let (x, labels) = data.batch(b * 24, 24);
            net.train_batch(&x, &labels, &mut ft, Some(&masks)).unwrap();
        }
    }
    assert!(
        (net.conv_sparsity() - 0.8).abs() < 0.02,
        "sparsity {}",
        net.conv_sparsity()
    );
}

#[test]
fn whatif_answers_agree_with_algorithm1() {
    let profile = caffenet_profile();
    let versions = caffenet_version_grid(&profile);
    let p2: Vec<InstanceType> = catalog()
        .into_iter()
        .filter(|i| i.family() == "p2")
        .collect();
    let configs = enumerate_configs(&p2, 2);
    let evals = evaluate_all(&versions, &configs, 500_000, 512);

    let deadline = 3.0 * 3600.0;
    let budget = 20.0;
    let exact = cap_core::max_accuracy_within(&evals, AccuracyMetric::Top1, deadline, budget)
        .expect("feasible");
    // Algorithm 1 over the same resource pool reaches the same accuracy.
    let pool: Vec<InstanceType> = p2
        .iter()
        .flat_map(|i| std::iter::repeat_n(i.clone(), 2))
        .collect();
    let alloc = allocate(
        &versions,
        &pool,
        &AllocationRequest {
            w: 500_000,
            batch: 512,
            deadline_s: deadline,
            budget_usd: budget,
            metric: AccuracyMetric::Top1,
        },
    )
    .expect("feasible");
    assert!(
        (versions[alloc.version_idx].top1 - exact.accuracy).abs() < 1e-9,
        "greedy {} vs exact {}",
        versions[alloc.version_idx].top1,
        exact.accuracy
    );
}

#[test]
fn spec_search_result_consistent_with_profile() {
    let profile = caffenet_profile();
    let r = cap_core::min_time_spec(&profile, cap_core::Floor::Top5(0.70)).unwrap();
    let (t1, t5) = profile.accuracy(&r.spec);
    assert_eq!((t1, t5), (r.top1, r.top5));
    assert!((profile.batched_time_factor(&r.spec) - r.time_factor).abs() < 1e-12);
    assert!(r.top5 + 1e-9 >= 0.70);
}

#[test]
fn tri_frontier_never_larger_than_candidate_set_and_contains_2d_bests() {
    let profile = caffenet_profile();
    let versions = caffenet_version_grid(&profile);
    let p2: Vec<InstanceType> = catalog()
        .into_iter()
        .filter(|i| i.family() == "p2")
        .collect();
    let configs = enumerate_configs(&p2, 2);
    let evals = evaluate_all(&versions, &configs, 500_000, 512);
    let tri = cap_core::explorer::tri_frontier_indices(&evals, AccuracyMetric::Top1);
    assert!(!tri.is_empty());
    assert!(tri.len() <= evals.len());
    // The min-cost candidate at the max accuracy must be on the joint frontier.
    let best = cap_core::min_cost_for_accuracy(
        &evals,
        AccuracyMetric::Top1,
        evals.iter().map(|e| e.top1).fold(0.0, f64::max),
    )
    .unwrap();
    let coords: Vec<(f64, f64, f64)> = tri
        .iter()
        .map(|&i| (evals[i].top1, evals[i].time_s, evals[i].cost_usd))
        .collect();
    assert!(
        coords
            .iter()
            .any(|&(a, _, c)| (a - best.accuracy).abs() < 1e-12 && c <= best.cost_usd + 1e-9),
        "min-cost best-accuracy candidate missing from joint frontier"
    );
}

#[test]
fn billing_model_changes_short_job_costs_only() {
    use cap_cloud::{cost_usd_with, BillingModel};
    // Short job: per-hour billing is much worse.
    let short = 120.0;
    assert!(
        cost_usd_with(BillingModel::PerHour, 0.9, short)
            > 5.0 * cost_usd_with(BillingModel::PerSecond, 0.9, short)
    );
    // Long job at an exact hour boundary: identical.
    let exact = 2.0 * 3600.0;
    assert!(
        (cost_usd_with(BillingModel::PerHour, 0.9, exact)
            - cost_usd_with(BillingModel::PerSecond, 0.9, exact))
        .abs()
            < 1e-9
    );
}
