//! End-to-end inference throughput of the implemented CNN framework:
//! TinyNet batches (as a `Network`, like everything timed) and single
//! Caffenet / Googlenet forward passes.

use cap_cnn::models::{caffenet, googlenet, WeightInit};
use cap_cnn::network::ForwardArena;
use cap_cnn::run_batched;
use cap_cnn::train::SequentialNet;
use cap_data::SyntheticImageNet;
use cap_tensor::Tensor4;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_tinynet(c: &mut Criterion) {
    let data = SyntheticImageNet::tiny(5);
    let tiny = SequentialNet::tinynet(data.image_shape, 8, 12, data.classes, 3).unwrap();
    let (x, _) = data.batch(0, 64);
    let net = tiny.to_network().unwrap();
    c.bench_function("tinynet_batch64_dense", |b| {
        b.iter(|| run_batched(&net, &x, 64).unwrap())
    });
}

fn bench_big_models(c: &mut Criterion) {
    let input = Tensor4::from_fn(1, 3, 224, 224, |_, ci, h, w| {
        ((ci * 7 + h + w) % 9) as f32 / 9.0 - 0.5
    });
    let caffe = caffenet(WeightInit::Gaussian { std: 0.01, seed: 1 }).unwrap();
    let mut group = c.benchmark_group("full_models");
    group.sample_size(10);
    group.bench_function("caffenet_single_forward", |b| {
        b.iter(|| caffe.forward(&input).unwrap())
    });
    let goog = googlenet(WeightInit::Gaussian { std: 0.01, seed: 2 }).unwrap();
    group.bench_function("googlenet_single_forward", |b| {
        b.iter(|| goog.forward(&input).unwrap())
    });
    group.finish();
}

/// The PR's headline workload: batched dense Caffenet inference via the
/// allocating `forward` (one fresh tensor per layer per pass) versus
/// `forward_into` through one long-lived [`ForwardArena`].
fn bench_batched_caffenet(c: &mut Criterion) {
    let batch = Tensor4::from_fn(4, 3, 224, 224, |n, ci, h, w| {
        ((n * 13 + ci * 7 + h + w) % 9) as f32 / 9.0 - 0.5
    });
    let caffe = caffenet(WeightInit::Gaussian { std: 0.01, seed: 1 }).unwrap();
    let mut group = c.benchmark_group("batched_inference");
    group.sample_size(10);
    group.bench_function("caffenet_batch4_forward", |b| {
        b.iter(|| caffe.forward(&batch).unwrap())
    });
    let mut arena = ForwardArena::new();
    group.bench_function("caffenet_batch4_arena", |b| {
        b.iter(|| caffe.forward_into(&batch, &mut arena).unwrap().as_slice()[0])
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tinynet, bench_big_models, bench_batched_caffenet
}
criterion_main!(benches);
