//! im2col+GEMM vs direct sliding-window convolution — the Caffe-lowering
//! ablation (DESIGN.md §9) — over the driver's weight forms, and the
//! dense-vs-CSR crossover the layers' sparse thresholds are set from
//! (`conv_form_*` for `SPARSE_THRESHOLD`, `fc_form_b1` for
//! `FC_SPARSE_THRESHOLD`; table in EXPERIMENTS.md "PR 14").
//! `conv_form_i8_*` is the int8 side: the lowering stages on their own
//! and the int8 dense-vs-CSR crossover `SPARSE_THRESHOLD_I8` is set
//! from (table in EXPERIMENTS.md "PR 23").

use cap_tensor::kernels::{self, int8::quantize_slice_with};
use cap_tensor::reference::conv2d_direct;
use cap_tensor::{
    conv2d, gemm_packed, im2col_i8_packed_prealloc, im2col_packed_prealloc, symmetric_scale,
    Conv2dParams, ConvWeights, CsrMatrix, Epilogue, Matrix, PackedB, Tensor4, Workspace,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Unit-scale weights with `zero_pct` % (to a tenth) of the elements
/// zeroed at scattered positions (unstructured, as magnitude pruning
/// leaves them).
fn scattered(rows: usize, cols: usize, zero_pct: f64) -> Matrix {
    let zero_permille = (zero_pct * 10.0).round() as usize;
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r * 31 + c * 17 + (r * c) % 7) % 1000;
        if h < zero_permille {
            0.0
        } else {
            ((h % 100) as f32 - 50.0) / 50.0 + 0.01
        }
    })
}

/// One Caffenet conv layer at batch 1 through `conv2d`: dense, CSR at
/// rising unstructured sparsity, and both forms filter pruning can run
/// on (every second filter zeroed).
fn bench_conv_forms(c: &mut Criterion, name: &str, params: Conv2dParams, hw: usize) {
    let input = Tensor4::from_fn(1, params.in_channels, hw, hw, |_, ci, h, w| {
        ((ci + h * 2 + w) % 11) as f32 / 11.0 - 0.5
    });
    let (rows, cols) = (params.out_channels, params.col_rows());
    let bias = vec![0.1_f32; rows];
    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let mut group = c.benchmark_group(name);
    let mut run = |id: BenchmarkId, form: ConvWeights<'_>| {
        group.bench_with_input(id, &form, |b, &form| {
            b.iter(|| conv2d(&input, form, Some(&bias), true, &params, &mut ws, &mut out).unwrap())
        });
    };
    let dense = scattered(rows, cols, 0.0);
    run(BenchmarkId::new("dense", 0), ConvWeights::Dense(&dense));
    for zero_pct in [40.0, 50.0, 60.0, 65.0, 70.0, 75.0, 80.0, 90.0] {
        let csr = ConvWeights::csr_bands(&scattered(rows, cols, zero_pct), &params).unwrap();
        run(BenchmarkId::new("csr", zero_pct), ConvWeights::Csr(&csr));
    }
    let mut half_rows = dense.clone();
    for r in (1..rows).step_by(2) {
        half_rows.row_mut(r).fill(0.0);
    }
    let csr = ConvWeights::csr_bands(&half_rows, &params).unwrap();
    run(BenchmarkId::new("csr_rows", 50), ConvWeights::Csr(&csr));
    let kept = ConvWeights::kept_row_bands(&half_rows, &params).unwrap();
    run(
        BenchmarkId::new("dense_rows", 50),
        ConvWeights::DenseRows(&kept),
    );
    group.finish();
}

/// The int8 side of one Caffenet conv layer at batch 1: the stages of
/// its operand path on their own (quantize the image once; lower one
/// group in int8, against the f32 packed lowering of the same group),
/// then `conv2d` in f32, dense int8, and CSR int8 at rising
/// unstructured sparsity — where CSR crosses under dense int8 is
/// `SPARSE_THRESHOLD_I8`.
fn bench_conv_forms_i8(c: &mut Criterion, name: &str, params: Conv2dParams, hw: usize) {
    let input = Tensor4::from_fn(1, params.in_channels, hw, hw, |_, ci, h, w| {
        ((ci + h * 2 + w) % 11) as f32 / 11.0 - 0.5
    });
    let (rows, cols) = (params.out_channels, params.col_rows());
    let bias = vec![0.1_f32; rows];
    let act_scale = symmetric_scale(input.as_slice());
    let mut group = c.benchmark_group(name);

    let (cpg, k, pad, stride) = (params.in_per_group(), params.kh, params.pad, params.stride);
    let image = &input.as_slice()[..cpg * hw * hw];
    let mut packed = Matrix::zeros(0, 0);
    group.bench_function("lower_f32", |b| {
        b.iter(|| im2col_packed_prealloc(image, cpg, hw, hw, k, k, pad, stride, &mut packed))
    });
    let path = kernels::selected();
    let mut q_image = vec![0i8; input.as_slice().len()];
    group.bench_function("quantize_image", |b| {
        b.iter(|| quantize_slice_with(path, input.as_slice(), 1.0 / act_scale, &mut q_image))
    });
    let (q_group, mut lines, mut q_packed) = (&q_image[..image.len()], Vec::new(), Vec::new());
    group.bench_function("lower_i8", |b| {
        b.iter(|| {
            im2col_i8_packed_prealloc(
                q_group,
                cpg,
                hw,
                hw,
                k,
                k,
                pad,
                stride,
                &mut lines,
                &mut q_packed,
            )
        })
    });

    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let mut run = |id: BenchmarkId, form: ConvWeights<'_>| {
        group.bench_with_input(id, &form, |b, &form| {
            b.iter(|| conv2d(&input, form, Some(&bias), true, &params, &mut ws, &mut out).unwrap())
        });
    };
    let dense = scattered(rows, cols, 0.0);
    run(BenchmarkId::new("dense_f32", 0), ConvWeights::Dense(&dense));
    for zero_pct in [0.0, 60.0, 70.0, 80.0, 85.0, 90.0, 92.5, 95.0, 97.5] {
        let w = scattered(rows, cols, zero_pct);
        let bands = ConvWeights::i8_bands(&w, &params).unwrap();
        run(
            BenchmarkId::new("dense_i8", zero_pct),
            ConvWeights::DenseI8 {
                bands: &bands,
                act_scale,
            },
        );
        if zero_pct > 0.0 {
            let bands = ConvWeights::csr_i8_bands(&w, &params).unwrap();
            run(
                BenchmarkId::new("csr_i8", zero_pct),
                ConvWeights::CsrI8 {
                    bands: &bands,
                    act_scale,
                },
            );
        }
    }
    group.finish();
}

fn bench_weight_forms(c: &mut Criterion) {
    let conv2 = Conv2dParams::grouped(96, 256, 5, 2, 1, 2);
    let conv3 = Conv2dParams::new(256, 384, 3, 1, 1);
    bench_conv_forms(c, "conv_form_conv2", conv2, 27);
    bench_conv_forms(c, "conv_form_conv3", conv3, 13);
    bench_conv_forms_i8(c, "conv_form_i8_conv2", conv2, 27);
    bench_conv_forms_i8(c, "conv_form_i8_conv3", conv3, 13);

    // Batch-1 fc (Caffenet fc7, 4096x4096): the dense side is the
    // packed GEMV streaming all of Wᵀ once, the sparse side the CSR
    // matvec streaming values + column indices — bandwidth against
    // bandwidth, so the crossover is not the conv one.
    let (outf, inf) = (4096usize, 4096usize);
    let x: Vec<f32> = (0..inf).map(|i| (i % 13) as f32 / 13.0 - 0.5).collect();
    let bias = vec![0.1_f32; outf];
    let mut y = vec![0.0_f32; outf];
    let mut group = c.benchmark_group("fc_form_b1");
    let packed = PackedB::pack(&scattered(outf, inf, 0.0).transpose());
    group.bench_function(BenchmarkId::new("dense", 0), |b| {
        b.iter(|| gemm_packed(&x, 1, inf, outf, packed.as_slice(), &mut y, Epilogue::NONE).unwrap())
    });
    for zero_pct in [30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0] {
        let csr = CsrMatrix::from_dense(&scattered(outf, inf, zero_pct), 0.0);
        group.bench_with_input(BenchmarkId::new("csr", zero_pct), &csr, |b, csr| {
            b.iter(|| csr.matvec_into(&x, &mut y, Some(&bias), true).unwrap())
        });
    }
    group.finish();
}

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
    // workspace, output tensor reused across calls.
    let mut ws = Workspace::new();
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
            b.iter(|| conv2d(&input, form, Some(&bias), false, &params, &mut ws, &mut out).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conv, bench_weight_forms
}
criterion_main!(benches);
