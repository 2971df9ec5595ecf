//! Dense vs CSR-sparse GEMM across sparsity levels — locates the
//! break-even point that justifies the sparse-Caffe substrate
//! (DESIGN.md §9 ablation) — the packed GEMM on the real conv layer
//! shapes, the record behind `gemm.rs`'s `STRIP_BYTES`, and the
//! batch-1 Caffenet multiplies split across a two-thread worker team.

use cap_tensor::team::{self, Team};
use cap_tensor::{gemm, gemm_packed, gemm_prepacked, CsrMatrix, Epilogue, Matrix, PackedB};
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

/// Fastest call of `run` over the group's samples, as `id`.
fn fastest(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    mut run: impl FnMut(),
) -> Duration {
    let mut best = Duration::MAX;
    group.bench_function(id, |b| {
        b.iter(|| {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed());
        })
    });
    best
}

/// The multiplies of a batch-1 Caffenet pass on one thread and split
/// across a two-thread [`Team`]: the eight conv multiplies (conv2,
/// conv4 and conv5 are two groups each) cut by rows of `A`
/// (`team::split_rows`), and the fc6/fc7/fc8 GEMVs against their packed
/// `Wᵀ` cut by panel-aligned column ranges (`team::split_columns`).
/// The network cuts conv1, conv3 and the GEMVs this way; on two threads
/// it runs a grouped layer's two groups one per thread instead, and
/// cuts each group by rows only on three or more. The two outputs of every
/// multiply are compared bit for bit. Ends with one `gemm_split:` line
/// — the 2-worker speed-up over 1 worker, min and max over the
/// multiplies, each arm from its fastest call — for the CI job summary.
fn bench_split(c: &mut Criterion) {
    const CONV: [(&str, usize, usize, usize); 8] = [
        ("conv1", 96, 363, 3025),
        ("conv2_g1", 128, 1200, 729),
        ("conv2_g2", 128, 1200, 729),
        ("conv3", 384, 2304, 169),
        ("conv4_g1", 192, 1728, 169),
        ("conv4_g2", 192, 1728, 169),
        ("conv5_g1", 128, 1728, 169),
        ("conv5_g2", 128, 1728, 169),
    ];
    const FC: [(&str, usize, usize); 3] = [
        ("fc6", 9216, 4096),
        ("fc7", 4096, 4096),
        ("fc8", 4096, 1000),
    ];
    let mut group = c.benchmark_group("gemm_split");
    let mut two = Team::new(2);
    let mut speedups: Vec<(f64, &str)> = Vec::new();
    let mut measure =
        |name: &'static str, len: usize, multiply: &dyn Fn(Option<&mut Team>, &mut [f32])| {
            let mut outs = [vec![0.0f32; len], vec![0.0f32; len]];
            let [one_out, two_out] = &mut outs;
            let one = fastest(&mut group, BenchmarkId::new(name, "1w"), || {
                multiply(None, one_out)
            });
            let split = fastest(&mut group, BenchmarkId::new(name, "2w"), || {
                multiply(Some(&mut two), two_out)
            });
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(one_out) == bits(two_out),
                "gemm_split/{name}: split output differs"
            );
            if split < Duration::MAX {
                let speedup = one.as_secs_f64() / split.as_secs_f64();
                println!("gemm_split/{name}: 2w/1w {speedup:.2}x");
                speedups.push((speedup, name));
            }
        };
    for (seed, (name, m, k, n)) in CONV.into_iter().enumerate() {
        let a = Matrix::from_fn(m, k, |r, q| {
            ((r * 7 + q * 3 + seed) % 17) as f32 / 17.0 - 0.5
        });
        let packed = PackedB::pack(&Matrix::from_fn(k, n, |r, q| {
            ((r + q * 5 + seed) % 13) as f32 / 13.0 - 0.5
        }));
        let (a, b) = (a.as_slice(), packed.as_slice());
        measure(name, m * n, &|team, out| {
            team::split_rows(team, k, n, out, &|rows, part| {
                let a = &a[rows.start * k..rows.end * k];
                gemm_packed(a, rows.len(), k, n, b, part, Epilogue::NONE)
            })
            .unwrap()
        });
    }
    for (name, k, n) in FC {
        let x = Matrix::from_fn(1, k, |_, q| (q % 19) as f32 / 19.0 - 0.5);
        let w_t = PackedB::pack_transposed(&Matrix::from_fn(n, k, |r, q| {
            ((r * 3 + q * 11) % 23) as f32 / 23.0 - 0.5
        }));
        let (x, b) = (x.as_slice(), w_t.as_slice());
        measure(name, n, &|team, out| {
            team::split_columns(team, k, out, &|cols, part| {
                gemm_packed(
                    x,
                    1,
                    k,
                    cols.len(),
                    &b[cols.start * k..],
                    part,
                    Epilogue::NONE,
                )
            })
            .unwrap()
        });
    }
    group.finish();
    speedups.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(lo), Some(hi)) = (speedups.first(), speedups.last()) {
        println!(
            "gemm_split: 2w/1w min {:.2}x ({}) max {:.2}x ({}) over {} multiplies on {}",
            lo.0,
            lo.1,
            hi.0,
            hi.1,
            speedups.len(),
            cap_tensor::kernels::selected().name()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_layer_shapes, bench_split
}
criterion_main!(benches);
