//! Microkernel dispatch ablation: the same packed GEMM, CSR SpMM, and
//! elementwise workloads under each available `cap_tensor::kernels`
//! path, forced explicitly so Criterion isolates the kernel effect
//! from everything else (DESIGN.md §6 kernel dispatch).

use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{gemm_prepacked, CsrMatrix, Matrix, PackedB, Pool2dParams, Tensor4, Workspace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn mat(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 17 + salt) % 29) as f32 - 14.0) / 15.0
    })
}

/// Run `body` with the dispatcher pinned to `path`, restoring auto
/// selection afterwards so benches don't leak state into each other.
fn forced<T>(path: KernelPath, body: impl FnOnce() -> T) -> T {
    kernels::force(Some(path));
    let out = body();
    kernels::force(None);
    out
}

fn bench_kernel_paths(c: &mut Criterion) {
    // Caffenet conv2-like GEMM: 256 filters x 1200 taps x 729 pixels.
    let a = mat(256, 1200, 1);
    let packed = PackedB::pack(&mat(1200, 729, 2));
    let mut out = Matrix::zeros(256, 729);
    let mut group = c.benchmark_group("kernel_gemm_256x1200x729");
    for path in kernels::available_paths() {
        group.bench_function(BenchmarkId::from_parameter(path.name()), |b| {
            forced(path, || {
                b.iter(|| gemm_prepacked(&a, &packed, &mut out).unwrap())
            })
        });
    }
    group.finish();

    // 90%-pruned conv2 weights through the CSR row kernel.
    let sparse_w = Matrix::from_fn(256, 1200, |r, cc| {
        if (r * 1200 + cc) % 10 == 0 {
            (((r * 13 + cc * 7) % 23) as f32 - 11.0) / 12.0
        } else {
            0.0
        }
    });
    let csr = CsrMatrix::from_dense(&sparse_w, 0.0);
    let b_dense = mat(1200, 729, 3);
    let mut spmm_out = Matrix::zeros(256, 729);
    let mut group = c.benchmark_group("kernel_spmm_90pct_256x1200x729");
    for path in kernels::available_paths() {
        group.bench_function(BenchmarkId::from_parameter(path.name()), |b| {
            forced(path, || {
                b.iter(|| csr.matmul_dense_into(&b_dense, &mut spmm_out).unwrap())
            })
        });
    }
    group.finish();

    // Elementwise + pooling on a conv1-sized activation map (96x55x55).
    let acts = Tensor4::from_fn(1, 96, 55, 55, |_, cc, h, w| {
        (((cc * 31 + h * 7 + w) % 19) as f32 - 9.0) / 6.0
    });
    let pool = Pool2dParams::new(3, 0, 2);
    let (oh, ow) = pool.out_shape(55, 55).unwrap();
    let mut pooled = Tensor4::zeros(1, 96, oh, ow);
    let mut ws = Workspace::new();
    let mut group = c.benchmark_group("kernel_elementwise_96x55x55");
    for path in kernels::available_paths() {
        let mut buf = acts.clone();
        group.bench_function(BenchmarkId::new("relu", path.name()), |b| {
            forced(path, || {
                b.iter(|| {
                    buf.as_mut_slice().copy_from_slice(acts.as_slice());
                    cap_tensor::ops::relu_inplace(buf.as_mut_slice());
                })
            })
        });
        group.bench_function(BenchmarkId::new("maxpool3s2", path.name()), |b| {
            forced(path, || {
                b.iter(|| cap_tensor::max_pool2d_into(&acts, &pool, &mut ws, &mut pooled).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernel_paths
}
criterion_main!(benches);
