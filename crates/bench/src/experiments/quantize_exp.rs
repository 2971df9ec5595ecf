//! Int8 quantization ablation: the *executed* member of the paper's
//! §2.1 quantization knob family (`cap_pruning::quantize` is the
//! simulated one). Three sections:
//!
//! 1. **Kernel arm** — f32 packed GEMM vs int8 packed GEMM on
//!    conv-shaped problems, per dispatch path (the int8 timing
//!    includes the runtime quantize of its `A` rows; weights are
//!    pre-packed in both arms), then what a conv layer actually sees:
//!    `conv2d` on Caffenet's conv2 geometry at batch 1, f32 form
//!    against int8 form, lowering and quantization included.
//! 2. **Network arm** — a really-trained TinyNet as a
//!    [`cap_cnn::network::Network`] (`SequentialNet::to_network`), run
//!    twice through the *same* code path: `CAP_TENSOR_PRECISION` f32 vs int8 (forced via
//!    `precision::force`). Measured top-1/top-5 delta and throughput.
//! 3. **Joint frontier** — a [`PrecisionModel`] built from the TinyNet
//!    accuracy drops and the conv2 `conv2d` speedup (TinyNet's toy
//!    layers are overhead-bound, so its throughput ratio is not
//!    representative of paper-scale layers); crossing it with the
//!    calibrated Caffenet 60-version grid yields the 120-cell joint
//!    prune × precision space, its Pareto frontier, and the
//!    accuracy-floor sweet-spot map (`cap_core::joint`).
//!
//! Numbers are measured on this host, min-of-repeats; on a non-AVX2
//! host the kernel table degenerates to the scalar arm only. The
//! header names the integer kernel the int8 numbers ran on.

use super::kernels_exp::best_secs;
use super::measured::{best_wall_s, train};
use cap_cnn::{evaluate_topk, run_batched};
use cap_core::{caffenet_version_grid, joint_frontier, joint_grid, sweet_spots, PrecisionModel};
use cap_data::SyntheticImageNet;
use cap_pruning::profile::caffenet_profile;
use cap_tensor::kernels::{self, int8::Int8Kernel, Epilogue};
use cap_tensor::{
    conv2d, gemm_i8, gemm_prepacked, precision, quantize_rows_into, symmetric_scale,
    CalibrationMethod, Conv2dParams, ConvWeights, Matrix, PackedB, PackedBI8, Precision, Tensor4,
    Workspace,
};
use std::fmt::Write;

/// Conv-shaped GEMM problems, `(label, m, k, n)`: Caffenet's conv2 /
/// conv3 im2col shapes plus a batch-1 FC slice (GEMV route).
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("conv2-like 256x1200x729", 256, 1200, 729),
    ("conv3-like 384x2304x169", 384, 2304, 169),
    ("fc batch-1 1x4096x1000", 1, 4096, 1000),
];

fn deterministic_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 17 + salt) % 29) as f32 - 14.0) / 15.0
    })
}

fn scores_matrix(outputs: &[Vec<f32>]) -> Matrix {
    let classes = outputs.first().map_or(0, Vec::len);
    let flat: Vec<f32> = outputs.iter().flatten().copied().collect();
    Matrix::from_vec(outputs.len(), classes, flat).expect("rectangular logits")
}

/// The `quantize` registry entry.
pub fn quantize_ablation() -> String {
    let mut out = String::new();
    writeln!(out, "# Int8 ablation: quantized kernels + joint frontier").unwrap();

    // --- 1. Kernel arm -----------------------------------------------------
    let paths = kernels::available_paths();
    let dispatched = kernels::selected();
    // Every int8 number below is this kernel's: a host without the
    // integer dot product reads `avx2` here and ~3x lower ratios.
    writeln!(
        out,
        "kernel: {}, int8 kernel: {}",
        dispatched.name(),
        Int8Kernel::for_path(dispatched).name()
    )
    .unwrap();
    // int8/f32 ratio of the bare conv2-like multiply under the
    // dispatched path, printed beside the `conv2d` ratio below.
    let mut gemm_speedup = 1.0_f64;
    writeln!(
        out,
        "\n## Packed GEMM, f32 vs int8 (GOP/s, best of repeated runs)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<26} {:>9} {:>7} {:>10} {:>10} {:>8}",
        "shape", "path", "i8 krn", "f32", "int8", "int8/f32"
    )
    .unwrap();
    for &(label, m, k, n) in SHAPES {
        let a = deterministic_matrix(m, k, 1);
        let b = deterministic_matrix(k, n, 2);
        let pb_f32 = PackedB::pack(&b);
        let w_scale = symmetric_scale(b.as_slice());
        let pb_i8 = PackedBI8::pack(&b, w_scale);
        let a_scale = symmetric_scale(a.as_slice());
        let mut c = Matrix::zeros(m, n);
        let ops = 2.0 * m as f64 * k as f64 * n as f64;
        for &p in &paths {
            kernels::force(Some(p));
            let f32_secs = best_secs(|| gemm_prepacked(&a, &pb_f32, &mut c).unwrap());
            let mut qa: Vec<i8> = Vec::new();
            let int8_secs = best_secs(|| {
                let kp = quantize_rows_into(a.as_slice(), m, k, 1.0 / a_scale, &mut qa);
                gemm_i8(
                    &qa,
                    m,
                    kp,
                    n,
                    pb_i8.data(),
                    c.as_mut_slice(),
                    pb_i8.scale() * a_scale,
                    Epilogue::NONE,
                )
                .unwrap();
            });
            kernels::force(None);
            if label.starts_with("conv2") && p == dispatched {
                gemm_speedup = f32_secs / int8_secs;
            }
            writeln!(
                out,
                "{label:<26} {:>9} {:>7} {:>10.2} {:>10.2} {:>7.2}x",
                p.name(),
                Int8Kernel::for_path(p).name(),
                ops / f32_secs / 1e9,
                ops / int8_secs / 1e9,
                f32_secs / int8_secs
            )
            .unwrap();
        }
    }

    // What a Caffenet-scale conv layer sees, and what the joint model
    // below is fed: the whole `conv2d` call — quantize, lower, multiply
    // — on the conv2 geometry, one image, activation scale fixed
    // beforehand as calibration does.
    let params = Conv2dParams::grouped(96, 256, 5, 2, 1, 2);
    let input = Tensor4::from_fn(1, 96, 27, 27, |_, c, h, w| {
        ((c * 13 + h * 7 + w * 3) % 41) as f32 / 20.5 - 1.0
    });
    let weights = deterministic_matrix(256, params.col_rows(), 3);
    let bands = ConvWeights::i8_bands(&weights, &params).expect("conv2 weight shape");
    let int8_form = ConvWeights::DenseI8 {
        bands: &bands,
        act_scale: symmetric_scale(input.as_slice()),
    };
    let bias = vec![0.1_f32; 256];
    let mut ws = Workspace::new();
    let mut conv_out = Tensor4::zeros(0, 0, 0, 0);
    let mut conv_secs = |form: ConvWeights<'_>| {
        best_secs(|| {
            conv2d(
                &input,
                form,
                Some(&bias),
                true,
                &params,
                &mut ws,
                &mut conv_out,
            )
            .unwrap()
        })
    };
    let f32_secs = conv_secs(ConvWeights::Dense(&weights));
    let int8_secs = conv_secs(int8_form);
    let conv_speedup = f32_secs / int8_secs;
    writeln!(
        out,
        "\nconv2d 96x27x27 -> 256, 5x5 pad 2, groups 2, batch 1 ({} path): \
         f32 {:.2} ms, int8 {:.2} ms, int8/f32 {conv_speedup:.2}x (bare GEMM above: {gemm_speedup:.2}x)",
        dispatched.name(),
        f32_secs * 1e3,
        int8_secs * 1e3
    )
    .unwrap();

    // --- 2. Network arm ----------------------------------------------------
    writeln!(out, "\n## TinyNet end-to-end: f32 vs int8 (same weights)").unwrap();
    let data = SyntheticImageNet::tiny(2026);
    let tiny = train(&data, 7);
    let net = tiny.to_network().expect("tinynet as layer network");
    let (test_x, test_labels) = data.batch(10_000, 256);
    let (cal_x, _) = data.batch(30_000, 64);
    net.calibrate(&cal_x, CalibrationMethod::MaxAbs)
        .expect("calibration pass");

    let mut arms = Vec::new();
    for (name, prec) in [("f32", None), ("int8", Some(Precision::Int8))] {
        precision::force(prec);
        let (outputs, _) = run_batched(&net, &test_x, 64).unwrap();
        let secs = best_wall_s(&net, &test_x, 64);
        precision::force(None);
        let acc = evaluate_topk(&scores_matrix(&outputs), &test_labels).unwrap();
        let s_per_img = secs / test_x.shape().0 as f64;
        writeln!(
            out,
            "{name:<6} top1 {:>5.1}%  top5 {:>5.1}%  {:>8.1} img/s  ({:.1} us/img)",
            acc.top1 * 100.0,
            acc.top5 * 100.0,
            1.0 / s_per_img,
            s_per_img * 1e6
        )
        .unwrap();
        arms.push((acc.top1, acc.top5, s_per_img));
    }
    let net_model = PrecisionModel::from_measured(arms[0], arms[1]);
    writeln!(
        out,
        "tinynet arms: int8/f32 throughput {:.2}x, top1 drop {:+.2} pp, top5 drop {:+.2} pp",
        net_model.speedup,
        net_model.top1_drop * 100.0,
        net_model.top5_drop * 100.0
    )
    .unwrap();
    // TinyNet's layers are far below the size where the integer
    // multiply outweighs the per-call quantize and widen, so its
    // throughput ratio is not representative of a Caffenet-scale
    // layer. The joint model takes the accuracy drops from the TinyNet
    // arms (really executed, same weights) and the speedup from the
    // conv2 `conv2d` measurement — the same reference-machine scaling
    // the paper uses for its grid.
    let model = PrecisionModel {
        speedup: conv_speedup,
        ..net_model
    };
    writeln!(
        out,
        "joint model: speedup {:.2}x (conv2d on the conv2 geometry, {} path), drops from tinynet arms",
        model.speedup,
        dispatched.name()
    )
    .unwrap();
    writeln!(
        out,
        "precision_path gauge now reads: {}",
        cap_obs::metrics::precision_path_name(cap_obs::metrics().precision_path.get())
    )
    .unwrap();

    // --- 3. Joint frontier -------------------------------------------------
    writeln!(
        out,
        "\n## Joint prune x precision space (Caffenet profile x measured model)"
    )
    .unwrap();
    let profile = caffenet_profile();
    let versions = caffenet_version_grid(&profile);
    let grid = joint_grid(&versions, &model);
    let frontier = joint_frontier(&grid);
    let int8_on_frontier = frontier
        .indices()
        .iter()
        .filter(|&&i| grid[i].precision == "int8")
        .count();
    writeln!(
        out,
        "{} cells ({} versions x 2 precisions); frontier keeps {} ({} int8, {} f32)",
        grid.len(),
        versions.len(),
        frontier.len(),
        int8_on_frontier,
        frontier.len() - int8_on_frontier
    )
    .unwrap();
    writeln!(
        out,
        "\n{:<34} {:>7} {:>7} {:>12}",
        "frontier cell", "top1", "top5", "s/img (ref)"
    )
    .unwrap();
    for &i in frontier.indices().iter().take(12) {
        let p = &grid[i];
        writeln!(
            out,
            "{:<34} {:>6.1}% {:>6.1}% {:>12.5}",
            p.label(),
            p.top1 * 100.0,
            p.top5 * 100.0,
            p.s_per_image
        )
        .unwrap();
    }
    if frontier.len() > 12 {
        writeln!(out, "... ({} more frontier cells)", frontier.len() - 12).unwrap();
    }

    let top = grid.iter().map(|p| p.top1).fold(0.0f64, f64::max);
    let floors = [top, top - 0.05, top - 0.10, top - 0.15];
    writeln!(out, "\nsweet spots (fastest cell above each top-1 floor):").unwrap();
    for (floor, pick) in sweet_spots(&grid, &floors) {
        match pick {
            Some(i) => writeln!(
                out,
                "  top1 >= {:>5.1}%  ->  {}  ({:.5} s/img)",
                floor * 100.0,
                grid[i].label(),
                grid[i].s_per_image
            )
            .unwrap(),
            None => writeln!(out, "  top1 >= {:>5.1}%  ->  unreachable", floor * 100.0).unwrap(),
        }
    }
    writeln!(
        out,
        "\nreading: int8 cells join the frontier wherever the measured quantization drop\n\
         costs less accuracy than the extra pruning a pure-f32 configuration would need\n\
         to match the speedup; with a near-zero measured drop the int8 arm dominates\n\
         every f32 cell outright."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[ignore = "several seconds of training + timing; run with --ignored"]
    fn quantize_ablation_runs() {
        let out = super::quantize_ablation();
        assert!(out.contains("int8/f32"), "{out}");
        assert!(out.contains("frontier keeps"), "{out}");
        assert!(out.contains("sweet spots"), "{out}");
        // Force must be restored for later tests in this process.
        assert_eq!(
            cap_tensor::precision::selected(),
            cap_tensor::Precision::F32
        );
    }
}
