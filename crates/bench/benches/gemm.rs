//! Dense vs CSR-sparse GEMM across sparsity levels — locates the
//! break-even point that justifies the sparse-Caffe substrate
//! (DESIGN.md §9 ablation) — and the packed GEMM on the real conv
//! layer shapes, the record behind `gemm.rs`'s `STRIP_BYTES`.

use cap_tensor::{gemm, gemm_prepacked, CsrMatrix, Matrix, PackedB};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

fn weight_matrix(rows: usize, cols: usize, sparsity_pct: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r * 31 + c * 17) % 100;
        if h < sparsity_pct {
            0.0
        } else {
            (h as f32 - 50.0) / 50.0
        }
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_256x1200_x_729");
    // Caffenet conv2-like dimensions: 256 filters, 1200 taps, 27x27 output.
    let activations = Matrix::from_fn(1200, 729, |r, q| ((r + q) % 13) as f32 / 13.0 - 0.5);
    for sparsity in [0usize, 30, 50, 70, 90] {
        let w = weight_matrix(256, 1200, sparsity);
        group.bench_with_input(BenchmarkId::new("dense", sparsity), &w, |b, w| {
            b.iter(|| gemm(w, &activations).unwrap())
        });
        let csr = CsrMatrix::from_dense(&w, 0.0);
        group.bench_with_input(BenchmarkId::new("sparse_csr", sparsity), &csr, |b, csr| {
            b.iter(|| csr.matmul_dense(&activations).unwrap())
        });
        // Pack-once/run-many: the B panels are packed outside the loop
        // (as an FC layer packs its transposed weights at construction)
        // and the output buffer is reused, so the steady state is
        // allocation-free.
        let packed = PackedB::pack(&activations);
        let mut out = Matrix::zeros(w.rows(), activations.cols());
        group.bench_with_input(BenchmarkId::new("dense_prepacked", sparsity), &w, |b, w| {
            b.iter(|| gemm_prepacked(w, &packed, &mut out).unwrap())
        });
    }
    group.finish();
}

/// The packed f32 GEMM on the batch-1 conv multiplies of Caffenet and
/// Googlenet (`m` filters × `k` taps × `n` output pixels; grouped
/// layers are one group's multiply). Patch matrices of 1.2–7.4 MB on
/// every row but the last, which fits one strip — so this group is
/// what moves when the driver's column-strip budget (`STRIP_BYTES`)
/// does; the sweep it was chosen from is in EXPERIMENTS.md "PR 16".
/// Ends with one `gemm_layer_shapes:` line (min / max GFLOP/s over the
/// shapes, each from its fastest call) for the CI job summary.
fn bench_layer_shapes(c: &mut Criterion) {
    const SHAPES: [(&str, usize, usize, usize); 11] = [
        ("googlenet_conv1", 64, 147, 12544),
        ("googlenet_conv2_3x3", 192, 576, 3136),
        ("incep3a_3x3", 128, 864, 784),
        ("incep3b_3x3", 192, 1152, 784),
        ("incep3b_5x5", 96, 800, 784),
        ("incep4e_3x3", 320, 1440, 196),
        ("caffenet_conv1", 96, 363, 3025),
        ("caffenet_conv2_group", 128, 1200, 729),
        ("caffenet_conv3", 384, 2304, 169),
        ("caffenet_conv4_group", 192, 1728, 169),
        ("incep3a_1x1", 64, 192, 784),
    ];
    let mut group = c.benchmark_group("gemm_layer_shapes");
    let mut rates: Vec<(f64, &str)> = Vec::new();
    for (name, m, k, n) in SHAPES {
        let a = Matrix::from_fn(m, k, |r, q| ((r * 7 + q * 3) % 17) as f32 / 17.0 - 0.5);
        let packed = PackedB::pack(&Matrix::from_fn(k, n, |r, q| {
            ((r + q * 5) % 13) as f32 / 13.0 - 0.5
        }));
        let mut out = Matrix::zeros(m, n);
        let mut best = Duration::MAX;
        group.bench_function(BenchmarkId::new(name, format!("{m}x{k}x{n}")), |b| {
            b.iter(|| {
                let t0 = Instant::now();
                gemm_prepacked(&a, &packed, &mut out).unwrap();
                best = best.min(t0.elapsed());
            })
        });
        if best < Duration::MAX {
            let gflops = 2.0 * (m * k * n) as f64 / best.as_nanos() as f64;
            println!("gemm_layer_shapes/{name}: {gflops:.1} GFLOP/s");
            rates.push((gflops, name));
        }
    }
    group.finish();
    rates.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(lo), Some(hi)) = (rates.first(), rates.last()) {
        println!(
            "gemm_layer_shapes: min {:.1} GFLOP/s ({}), max {:.1} GFLOP/s ({}) over {} shapes on {}",
            lo.0,
            lo.1,
            hi.0,
            hi.1,
            rates.len(),
            cap_tensor::kernels::selected().name()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_layer_shapes
}
criterion_main!(benches);
