//! im2col+GEMM vs direct sliding-window convolution — the Caffe-lowering
//! ablation (DESIGN.md §9) — over the driver's weight forms, and the
//! dense-vs-CSR crossover `ConvLayer`'s `SPARSE_THRESHOLD` is set from
//! (`conv_form_*`; tables in EXPERIMENTS.md, "Dense vs CSR crossover,
//! measured" and "One fc form per precision").
//! `conv_form_i8_*` is the int8 side: the lowering stages on their own
//! and the dense int8 conv against f32, the one int8 conv form at every
//! sparsity.
//! `lowering` is the two packed lowerings alone on the real batch-1
//! shapes, the f32 one on one and two threads, the int8 one on one
//! (tables in EXPERIMENTS.md, "The lowering alone" and after it).
//! `winograd` is the dense f32 3×3 on both of its algorithms, im2col
//! and Winograd F(2×2, 3×3), on every Googlenet / Caffenet 3×3 shape and
//! the serving demo's, at one and two workers — the crossover
//! `WINOGRAD_MIN_CHANNELS` / `WINOGRAD_MIN_MAP` are set from (table in
//! EXPERIMENTS.md "PR 36").

use cap_cnn::layer::{ConvLayer, SPARSE_THRESHOLD};
use cap_tensor::kernels::{self, int8::quantize_slice_with};
use cap_tensor::reference::conv2d_direct;
use cap_tensor::{
    conv2d, im2col, im2col_packed_prealloc, pack_b_i8_into, symmetric_scale, Conv2dParams,
    ConvWeights, Lowering, Matrix, Team, Tensor4, Workspace,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

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

/// One Caffenet conv layer at batch 1 through `conv2d`: dense, the
/// Winograd form where `ConvLayer` runs it, CSR at rising unstructured
/// sparsity, and both forms filter pruning can run on (every second
/// filter zeroed). Ends with one `conv_form:` line — the time of the
/// form `ConvLayer` runs below `SPARSE_THRESHOLD` (`dense` im2col or
/// `winograd`) over the CSR time at each sparsity (above 1: CSR is
/// faster), and the lowest sparsity from which CSR stays faster — for
/// the CI job summary, next to the threshold.
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
        fastest(&mut group, id, || {
            conv2d(&input, form, Some(&bias), true, &params, &mut ws, &mut out).unwrap()
        })
    };
    let dense = scattered(rows, cols, 0.0);
    let mut below = "dense";
    let mut below_time = run(BenchmarkId::new(below, 0), ConvWeights::Dense(&dense));
    if ConvLayer::weight_form_name(&dense, &params, (hw, hw)) == "winograd" {
        below = "winograd";
        let bands = ConvWeights::winograd_bands(&dense, &params).unwrap();
        below_time = run(BenchmarkId::new(below, 0), ConvWeights::Winograd(&bands));
    }
    let mut ratios = Vec::new();
    for zero_pct in [40.0, 50.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 90.0] {
        let csr = ConvWeights::csr_bands(&scattered(rows, cols, zero_pct), &params).unwrap();
        let sparse = run(BenchmarkId::new("csr", zero_pct), ConvWeights::Csr(&csr));
        if sparse != Duration::MAX {
            ratios.push((zero_pct, below_time.as_secs_f64() / sparse.as_secs_f64()));
        }
    }
    let mut half_rows = dense.clone();
    for r in (1..rows).step_by(2) {
        half_rows.row_mut(r).fill(0.0);
    }
    let csr = ConvWeights::csr_bands(&half_rows, &params).unwrap();
    run(BenchmarkId::new("csr_rows", 50), ConvWeights::Csr(&csr));
    let kept = ConvWeights::kept_row_bands(&half_rows, &params, &[]).unwrap();
    run(
        BenchmarkId::new("dense_rows", 50),
        ConvWeights::DenseRows(&kept),
    );
    group.finish();
    if below_time != Duration::MAX && !ratios.is_empty() {
        let cells: Vec<String> = ratios
            .iter()
            .map(|(pct, r)| format!("{pct:.0}% {r:.2}x"))
            .collect();
        let from = ratios
            .iter()
            .rposition(|&(_, r)| r < 1.0)
            .map_or(Some(0), |i| (i + 1 < ratios.len()).then_some(i + 1));
        let crossover = from.map_or("none measured".into(), |i| format!("{:.0}%", ratios[i].0));
        println!(
            "conv_form: {below}/csr on {name} b1, {}; csr faster from {crossover} (SPARSE_THRESHOLD {:.0}%) on {}",
            cells.join(", "),
            SPARSE_THRESHOLD * 100.0,
            kernels::selected().name()
        );
    }
}

/// The int8 side of one Caffenet conv layer at batch 1: the stages of
/// its operand path on their own (quantize the image once; lower one
/// group in int8, against the f32 packed lowering of the same group),
/// then `conv2d` in f32 and in dense int8 at rising unstructured
/// sparsity.
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
    let lo = Lowering::new(cpg, hw, hw, k, k, pad, stride).unwrap();
    let q_group = &q_image[..image.len()];
    let (mut q_padded, mut lines, mut q_packed) = (Vec::new(), Vec::new(), Vec::new());
    group.bench_function("lower_i8", |b| {
        b.iter(|| {
            let q_padded = lo.padded(q_group, None, &mut q_padded).unwrap();
            lo.quads_into(q_padded, &mut lines, &mut q_packed).unwrap()
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
        let bands = ConvWeights::i8_bands(&w, &params, &[]).unwrap();
        run(
            BenchmarkId::new("dense_i8", zero_pct),
            ConvWeights::DenseI8 {
                bands: &bands,
                act_scale,
            },
        );
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

/// The lowering stage of every batch-1 conv shape of Caffenet (conv1–5,
/// one group each) and of Googlenet's stem (conv1, conv2-reduce,
/// conv2-3x3) and inception 3a / 4a / 5a (the 1×1 pack, the 3×3 and
/// the 5×5, each on its reduce's output), as `conv2d` runs it: the f32
/// arm pads the image and writes the packed panels
/// ([`Lowering::panels_into`]) on one thread and split by panel ranges
/// across a two-thread [`Team`], the two outputs compared bit for bit;
/// the int8 arm quantizes into the padded layout and writes the quad
/// panels ([`Lowering::quads_into`]) on one thread, compared with the
/// f32 patch matrix packed by [`pack_b_i8_into`]. Ends with one
/// `lowering:` line — min / max GB/s of the one-thread arms (the f32
/// image read plus the packed `B` written, from the fastest call) and
/// min / max of the f32 2-worker speed-up — for the CI job summary.
fn bench_lowering(c: &mut Criterion) {
    // (name, input channels of one group, input side, kernel, pad, stride)
    const SHAPES: [(&str, usize, usize, usize, usize, usize); 17] = [
        ("caffenet_conv1", 3, 224, 11, 2, 4),
        ("caffenet_conv2", 48, 27, 5, 2, 1),
        ("caffenet_conv3", 256, 13, 3, 1, 1),
        ("caffenet_conv4", 192, 13, 3, 1, 1),
        ("caffenet_conv5", 192, 13, 3, 1, 1),
        ("googlenet_conv1", 3, 224, 7, 3, 2),
        ("googlenet_conv2_reduce", 64, 56, 1, 0, 1),
        ("googlenet_conv2_3x3", 64, 56, 3, 1, 1),
        ("incep3a_1x1", 192, 28, 1, 0, 1),
        ("incep3a_3x3", 96, 28, 3, 1, 1),
        ("incep3a_5x5", 16, 28, 5, 2, 1),
        ("incep4a_1x1", 480, 14, 1, 0, 1),
        ("incep4a_3x3", 96, 14, 3, 1, 1),
        ("incep4a_5x5", 16, 14, 5, 2, 1),
        ("incep5a_1x1", 832, 7, 1, 0, 1),
        ("incep5a_3x3", 160, 7, 3, 1, 1),
        ("incep5a_5x5", 32, 7, 5, 2, 1),
    ];
    let mut group = c.benchmark_group("lowering");
    let mut team = Team::new(2);
    let mut rates: Vec<(f64, String)> = Vec::new();
    let mut speedups: Vec<(f64, String)> = Vec::new();
    for (name, ch, hw, k, pad, stride) in SHAPES {
        let image: Vec<f32> = (0..ch * hw * hw)
            .map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0)
            .collect();
        let lo = Lowering::new(ch, hw, hw, k, k, pad, stride).unwrap();
        let rate = |one: Duration, written: usize| {
            (4 * image.len() + written) as f64 / one.as_nanos() as f64
        };

        let mut padded = [Vec::new(), Vec::new()];
        let mut packed = [Matrix::zeros(0, 0), Matrix::zeros(0, 0)];
        let mut f32_arm = |i: usize, team: Option<&mut Team>| {
            let parts = if team.is_some() { 2 } else { 1 };
            let padded = lo.padded(&image, None, &mut padded[i]).unwrap();
            lo.panels_into(team, parts, padded, &mut packed[i]).unwrap()
        };
        let one = fastest(&mut group, BenchmarkId::new(name, "f32_1w"), || {
            f32_arm(0, None)
        });
        let two = fastest(&mut group, BenchmarkId::new(name, "f32_2w"), || {
            f32_arm(1, Some(&mut team))
        });
        if one < Duration::MAX && two < Duration::MAX {
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&packed[0]) == bits(&packed[1]),
                "lowering/{name}: split f32 panels differ"
            );
            let gbs = rate(one, 4 * packed[0].len());
            let speedup = one.as_secs_f64() / two.as_secs_f64();
            println!("lowering/{name}/f32: {gbs:.1} GB/s, 2w/1w {speedup:.2}x");
            rates.push((gbs, format!("{name}/f32")));
            speedups.push((speedup, format!("{name}/f32")));
        }

        let inv_scale = 127.0;
        let (mut q_padded, mut lines, mut q_packed) = (Vec::new(), Vec::new(), Vec::new());
        let one = fastest(&mut group, BenchmarkId::new(name, "i8_1w"), || {
            lo.quantize_padded(&image, None, inv_scale, &mut q_padded)
                .unwrap();
            lo.quads_into(&q_padded, &mut lines, &mut q_packed).unwrap();
        });
        if one < Duration::MAX {
            let cols = im2col(&image, ch, hw, hw, k, k, pad, stride).unwrap();
            let mut want = Vec::new();
            pack_b_i8_into(
                cols.as_slice(),
                cols.rows(),
                cols.cols(),
                inv_scale,
                &mut want,
            );
            assert!(q_packed == want, "lowering/{name}: i8 quads differ");
            let gbs = rate(one, q_packed.len());
            println!("lowering/{name}/i8: {gbs:.1} GB/s");
            rates.push((gbs, format!("{name}/i8")));
        }
    }
    group.finish();
    rates.sort_by(|x, y| x.0.total_cmp(&y.0));
    speedups.sort_by(|x, y| x.0.total_cmp(&y.0));
    if let (Some(slow), Some(fast), Some(least), Some(most)) = (
        rates.first(),
        rates.last(),
        speedups.first(),
        speedups.last(),
    ) {
        println!(
            "lowering: min {:.1} GB/s ({}) max {:.1} GB/s ({}), 2w/1w min {:.2}x ({}) max {:.2}x ({}) over {} lowerings on {}",
            slow.0,
            slow.1,
            fast.0,
            fast.1,
            least.0,
            least.1,
            most.0,
            most.1,
            rates.len(),
            cap_tensor::kernels::selected().name()
        );
    }
}

/// Every dense f32 3×3 stride-1 conv shape of Googlenet (conv2 and the
/// nine inception modules) and Caffenet (conv3–conv5, conv4/5 grouped)
/// at batch 1, the serving demo net's two, and a ladder of narrow
/// shapes between them, through `conv2d` on both algorithms — im2col +
/// GEMM (`ConvWeights::Dense`) and Winograd F(2×2, 3×3)
/// (`ConvWeights::Winograd`) — on one thread and on a two-thread
/// [`Team`]. Inside the bench, each algorithm's two-worker output must
/// equal its one-worker output bit for bit, and Winograd must agree
/// with im2col to 1e-4 of the output's scale. Prints each shape's
/// im2col ÷ Winograd time ratio and ends with one `winograd:` line —
/// min / max of the ratio over the model shapes at one and two workers
/// and the summed-time ratio — for the CI job summary.
fn bench_winograd(c: &mut Criterion) {
    // (name, input channels, output channels, groups, map side, model?)
    const SHAPES: [(&str, usize, usize, usize, usize, bool); 20] = [
        ("googlenet_conv2_3x3", 64, 192, 1, 56, true),
        ("incep3a_3x3", 96, 128, 1, 28, true),
        ("incep3b_3x3", 128, 192, 1, 28, true),
        ("incep4a_3x3", 96, 208, 1, 14, true),
        ("incep4b_3x3", 112, 224, 1, 14, true),
        ("incep4c_3x3", 128, 256, 1, 14, true),
        ("incep4d_3x3", 144, 288, 1, 14, true),
        ("incep4e_3x3", 160, 320, 1, 14, true),
        ("incep5a_3x3", 160, 320, 1, 7, true),
        ("incep5b_3x3", 192, 384, 1, 7, true),
        ("caffenet_conv3", 256, 384, 1, 13, true),
        ("caffenet_conv4", 384, 384, 2, 13, true),
        ("caffenet_conv5", 384, 256, 2, 13, true),
        ("demo_conv1", 3, 8, 1, 16, false),
        ("demo_conv2", 8, 8, 1, 8, false),
        ("narrow_16to32_28", 16, 32, 1, 28, false),
        ("narrow_24to24_16", 24, 24, 1, 16, false),
        ("narrow_32to32_14", 32, 32, 1, 14, false),
        ("narrow_32to32_7", 32, 32, 1, 7, false),
        ("narrow_64to64_7", 64, 64, 1, 7, false),
    ];
    let mut group = c.benchmark_group("winograd");
    let mut team = Team::new(2);
    let (mut ratios_1w, mut ratios_2w) = (Vec::new(), Vec::new());
    let mut totals = [Duration::ZERO; 4];
    for (name, cin, cout, groups, hw, model) in SHAPES {
        let params = Conv2dParams::grouped(cin, cout, 3, 1, 1, groups);
        let input = Tensor4::from_fn(1, cin, hw, hw, |_, ci, h, w| {
            ((ci * 7 + h * 3 + w) % 13) as f32 / 13.0 - 0.5
        });
        let weights = Matrix::from_fn(cout, params.col_rows(), |r, c| {
            (((r * 31 + c * 17) % 29) as f32 / 29.0 - 0.5) / (params.col_rows() as f32).sqrt()
        });
        let bias = vec![0.05_f32; cout];
        let bands = ConvWeights::winograd_bands(&weights, &params).unwrap();
        let forms = [
            ("im2col", ConvWeights::Dense(&weights)),
            ("winograd", ConvWeights::Winograd(&bands)),
        ];
        let mut outs = vec![Tensor4::zeros(0, 0, 0, 0); 4];
        let mut times = [Duration::MAX; 4];
        for (f, (form_name, form)) in forms.into_iter().enumerate() {
            for workers in [1, 2] {
                let arm = 2 * f + workers - 1;
                let mut ws = Workspace::new();
                if workers == 2 {
                    ws.team = Some(std::mem::replace(&mut team, Team::new(1)));
                }
                let out = &mut outs[arm];
                times[arm] = fastest(
                    &mut group,
                    BenchmarkId::new(name, format!("{form_name}_{workers}w")),
                    || conv2d(&input, form, Some(&bias), true, &params, &mut ws, out).unwrap(),
                );
                if let Some(t) = ws.team.take() {
                    team = t;
                }
            }
        }
        if times.contains(&Duration::MAX) {
            continue;
        }
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&outs[0]) == bits(&outs[1]),
            "winograd/{name}: split im2col differs"
        );
        assert!(
            bits(&outs[2]) == bits(&outs[3]),
            "winograd/{name}: split Winograd differs"
        );
        let scale = outs[0]
            .as_slice()
            .iter()
            .fold(0.0f32, |a, v| a.max(v.abs()));
        let gap = outs[0].max_abs_diff(&outs[2]).unwrap();
        assert!(
            gap <= 1e-4 * scale.max(1.0),
            "winograd/{name}: {gap} from im2col"
        );
        let ratio =
            |im2col: Duration, winograd: Duration| im2col.as_secs_f64() / winograd.as_secs_f64();
        let (one, two) = (ratio(times[0], times[2]), ratio(times[1], times[3]));
        println!("winograd/{name}: im2col/winograd 1w {one:.2}x, 2w {two:.2}x");
        if model {
            ratios_1w.push((one, name));
            ratios_2w.push((two, name));
            for (total, t) in totals.iter_mut().zip(times) {
                *total += t;
            }
        }
    }
    group.finish();
    let span = |ratios: &mut Vec<(f64, &str)>| {
        ratios.sort_by(|x, y| x.0.total_cmp(&y.0));
        match (ratios.first(), ratios.last()) {
            (Some(lo), Some(hi)) => {
                format!("min {:.2}x ({}) max {:.2}x ({})", lo.0, lo.1, hi.0, hi.1)
            }
            _ => "no shapes".into(),
        }
    };
    if !ratios_1w.is_empty() {
        let total = |i: usize, w: usize| totals[i].as_secs_f64() / totals[w].as_secs_f64();
        println!(
            "winograd: im2col/winograd on {} model 3x3s, 1w {}, 2w {}, summed 1w {:.2}x 2w {:.2}x on {}",
            ratios_1w.len(),
            span(&mut ratios_1w),
            span(&mut ratios_2w),
            total(0, 2),
            total(1, 3),
            cap_tensor::kernels::selected().name()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conv, bench_weight_forms, bench_lowering, bench_winograd
}
criterion_main!(benches);
