//! Int8 quantized-kernel ablation: f32 packed GEMM vs the int8 path
//! (runtime activation quantize + int8 GEMM) under each dispatch path,
//! plus the bare activation-quantize overhead that separates the two
//! (DESIGN.md §12 int8 execution model), and the integer multiply
//! kernels against each other on Caffenet's shapes
//! (`gemm_i8_kernels`).

use cap_tensor::kernels::int8::{gemm_i8_packed_band_with, gemv_i8_packed_with, Int8Kernel};
use cap_tensor::kernels::{self, Epilogue, KernelPath};
use cap_tensor::{
    gemm_i8, gemm_prepacked, quantize_rows_into, symmetric_scale, Matrix, PackedB, PackedBI8,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

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

fn bench_shape(c: &mut Criterion, group_name: &str, m: usize, k: usize, n: usize) {
    let a = mat(m, k, 1);
    let b = mat(k, n, 2);
    let pb_f32 = PackedB::pack(&b);
    let pb_i8 = PackedBI8::pack(&b, symmetric_scale(b.as_slice()));
    let a_scale = symmetric_scale(a.as_slice());
    let mut c_out = Matrix::zeros(m, n);
    let mut group = c.benchmark_group(group_name);
    for path in kernels::available_paths() {
        group.bench_function(BenchmarkId::new("f32", path.name()), |bch| {
            forced(path, || {
                bch.iter(|| gemm_prepacked(&a, &pb_f32, &mut c_out).unwrap())
            })
        });
        let mut qa: Vec<i8> = Vec::new();
        group.bench_function(BenchmarkId::new("int8", path.name()), |bch| {
            forced(path, || {
                bch.iter(|| {
                    let kp = quantize_rows_into(a.as_slice(), m, k, 1.0 / a_scale, &mut qa);
                    gemm_i8(
                        &qa,
                        m,
                        kp,
                        n,
                        pb_i8.data(),
                        c_out.as_mut_slice(),
                        pb_i8.scale() * a_scale,
                        Epilogue::NONE,
                    )
                    .unwrap()
                })
            })
        });
    }
    group.finish();
}

fn bench_quantize_paths(c: &mut Criterion) {
    // Caffenet conv2-like GEMM (the band kernel) and a batch-1 FC
    // slice (the GEMV route).
    bench_shape(c, "quantize_gemm_256x1200x729", 256, 1200, 729);
    bench_shape(c, "quantize_gemv_1x4096x1000", 1, 4096, 1000);

    // The activation quantize alone: the per-call overhead the int8 arm
    // pays before its GEMM starts.
    let a = mat(256, 1200, 1);
    let inv = 1.0 / symmetric_scale(a.as_slice());
    let mut qa: Vec<i8> = Vec::new();
    c.bench_function("quantize_rows_256x1200", |bch| {
        bch.iter(|| quantize_rows_into(a.as_slice(), 256, 1200, inv, &mut qa))
    });
}

/// The bare int8 multiply (operands quantized beforehand) on every
/// integer kernel this host can run, over the multiplies of a Caffenet
/// batch-8 pass: the five conv shapes (one group, one image) and the
/// three fc layers. A kernel the host lacks is named and skipped. Ends
/// with one `gemm_i8_kernels:` line — the vnni/avx2 and amx/vnni speed
/// ratios, min and max over the shapes, each side from its fastest
/// call — for the CI job summary.
fn bench_i8_kernels(c: &mut Criterion) {
    const SHAPES: [(&str, usize, usize, usize); 8] = [
        ("conv1", 96, 363, 3025),
        ("conv2_group", 128, 1200, 729),
        ("conv3", 384, 2304, 169),
        ("conv4_group", 192, 1728, 169),
        ("conv5_group", 128, 1728, 169),
        ("fc6_b8", 8, 9216, 4096),
        ("fc7_b8", 8, 4096, 4096),
        ("fc8_b8", 8, 4096, 1000),
    ];
    let kernels = Int8Kernel::available();
    for missing in Int8Kernel::ALL.iter().filter(|k| !kernels.contains(k)) {
        println!(
            "gemm_i8_kernels: note: `{}` is not available on this host, skipped",
            missing.name()
        );
    }
    let mut group = c.benchmark_group("gemm_i8_kernels");
    // (speed ratio, shape) per pair of kernels, where both ran.
    let pairs = [
        (Int8Kernel::Vnni, Int8Kernel::Avx2),
        (Int8Kernel::Amx, Int8Kernel::Vnni),
    ];
    let mut ratios: [Vec<(f64, &str)>; 2] = Default::default();
    for (name, m, k, n) in SHAPES {
        let a = mat(m, k, 1);
        let b = mat(k, n, 2);
        let pb = PackedBI8::pack(&b, symmetric_scale(b.as_slice()));
        let mut qa: Vec<i8> = Vec::new();
        let kp = quantize_rows_into(a.as_slice(), m, k, 127.0, &mut qa);
        let mut out = vec![0.0f32; m * n];
        // Each kernel's fastest call.
        let mut fastest: Vec<(Int8Kernel, Duration)> = Vec::new();
        for &kernel in &kernels {
            let mut best = Duration::MAX;
            group.bench_function(BenchmarkId::new(name, kernel.name()), |bch| {
                bch.iter(|| {
                    let t0 = Instant::now();
                    // `gemm_i8`'s own call, with the kernel named.
                    let (pbd, epi) = (pb.data(), Epilogue::NONE);
                    gemm_i8_packed_band_with(kernel, &qa, kp, n, pbd, &mut out, 0, 1.0, epi);
                    best = best.min(t0.elapsed());
                })
            });
            fastest.push((kernel, best));
        }
        let secs = |kernel| {
            let ran = fastest
                .iter()
                .find(|(k, t)| *k == kernel && *t < Duration::MAX);
            ran.map(|(_, t)| t.as_secs_f64())
        };
        for ((fast, slow), ratios) in pairs.iter().zip(&mut ratios) {
            if let (Some(fast), Some(slow)) = (secs(*fast), secs(*slow)) {
                ratios.push((slow / fast, name));
            }
        }
    }
    // The batch-1 route of the same kernels: fc7 as a matvec.
    let (k, n) = (4096, 4096);
    let pb = PackedBI8::pack(&mat(k, n, 2), 1.0 / 127.0);
    let mut qa: Vec<i8> = Vec::new();
    quantize_rows_into(mat(1, k, 1).as_slice(), 1, k, 127.0, &mut qa);
    let mut out = vec![0.0f32; n];
    for &kernel in &kernels {
        group.bench_function(BenchmarkId::new("fc7_b1", kernel.name()), |bch| {
            bch.iter(|| {
                gemv_i8_packed_with(kernel, &qa, n, pb.data(), &mut out, 0, 1.0, Epilogue::NONE)
            })
        });
    }
    group.finish();
    let summary: Vec<String> = pairs
        .iter()
        .zip(&mut ratios)
        .map(|((fast, slow), ratios)| {
            let pair = format!("{}/{}", fast.name(), slow.name());
            ratios.sort_by(|x, y| x.0.total_cmp(&y.0));
            match (ratios.first(), ratios.last()) {
                (Some(lo), Some(hi)) => format!(
                    "{pair} min {:.2}x ({}) max {:.2}x ({}) over {} shapes",
                    lo.0,
                    lo.1,
                    hi.0,
                    hi.1,
                    ratios.len()
                ),
                _ => format!("{pair} not measured on this host"),
            }
        })
        .collect();
    println!("gemm_i8_kernels: {}", summary.join("; "));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantize_paths, bench_i8_kernels
}
criterion_main!(benches);
