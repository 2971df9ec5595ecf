//! im2col+GEMM vs direct sliding-window convolution — the Caffe-lowering
//! ablation (DESIGN.md §9) — over the driver's weight forms.

use cap_tensor::reference::conv2d_direct;
use cap_tensor::{conv2d, Conv2dParams, ConvWeights, Matrix, Tensor4, WorkspacePool};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_conv(c: &mut Criterion) {
    // A conv3-like layer at reduced channel count for bench runtime.
    let params = Conv2dParams::new(64, 96, 3, 1, 1);
    let input = Tensor4::from_fn(1, 64, 13, 13, |_, ci, h, w| {
        ((ci + h * 2 + w) % 11) as f32 / 11.0 - 0.5
    });
    let weights = Matrix::from_fn(96, 64 * 9, |r, cc| ((r * 7 + cc) % 9) as f32 / 9.0 - 0.4);
    let bias = vec![0.1_f32; 96];
    // Sparse at 70 % pruning.
    let mut sparse_w = weights.clone();
    for (i, v) in sparse_w.as_mut_slice().iter_mut().enumerate() {
        if i % 10 < 7 {
            *v = 0.0;
        }
    }
    let csr = ConvWeights::csr_bands(&sparse_w, &params).unwrap();

    // Steady state, as a layer runs it: im2col scratch drawn from a
    // workspace pool, output tensor reused across calls.
    let pool = WorkspacePool::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let mut group = c.benchmark_group("conv_13x13x64_to_96");
    group.bench_function("direct", |b| {
        b.iter(|| conv2d_direct(&input, &weights, Some(&bias), &params).unwrap())
    });
    for (name, form) in [
        ("im2col_gemm", ConvWeights::Dense(&weights)),
        ("sparse_csr_70pct", ConvWeights::Csr(&csr)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| conv2d(&input, form, Some(&bias), false, &params, &pool, &mut out).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conv
}
criterion_main!(benches);
