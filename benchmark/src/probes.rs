//! Kernel probes of the `tensor` layer at the shapes the workloads run,
//! each placed against the host roofline. A probe times a kernel on its
//! own, so what it reads belongs to the host and the code, not to a
//! workload: every traced run takes all of them, and README.md names the
//! workload each one should move. They explain an end-to-end change,
//! they do not gate one.

use crate::adapter::{
    GemmF32, GemmI8, Im2colPacked, PackedRhs, QuantizeRows, RuntimeOperand, SpmmCsr,
};
use crate::host::Ceilings;
use crate::inputs::SplitMix64;
use crate::run::Metrics;
use crate::stats;
use std::hint::black_box;
use std::time::Instant;

const WARM_CALLS: usize = 2;
const TIMED_CALLS: usize = 30;

/// Median wall time of `calls` calls after two warm ones, microseconds.
pub fn median_us<T>(
    calls: usize,
    mut call: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    for _ in 0..WARM_CALLS {
        black_box(call()?);
    }
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        black_box(call()?);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&samples))
}

/// `(m, k, n)` of the GEMM shapes: conv2-like and conv3-like (the PR 10
/// shapes), Caffenet fc6 at batch 1 and 8, and Googlenet's inception-3a
/// 1x1 branch.
const CONV2: (usize, usize, usize) = (256, 1200, 729);
const CONV3: (usize, usize, usize) = (384, 2304, 169);
const FC6: (usize, usize) = (9216, 4096);
const INCEP3A_1X1: (usize, usize, usize) = (64, 192, 784);
/// conv2 geometry per group: 48 channels of 27x27, 5x5 kernel, pad 2.
const CONV2_IMAGE: (usize, usize, usize) = (48, 27, 27);

fn gemm_flops((m, k, n): (usize, usize, usize)) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// Compulsory bytes of an f32 GEMM: each operand and the result once.
fn gemm_bytes((m, k, n): (usize, usize, usize)) -> f64 {
    4.0 * (m * k + k * n + m * n) as f64
}

struct Out<'a> {
    metrics: &'a mut Metrics,
    host: &'a Ceilings,
}

impl Out<'_> {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// The three rows of a floating-point probe: time, rate, share of roof.
    fn flop_rows(&mut self, names: [&'static str; 3], us: f64, flops: f64, bytes: f64) {
        let gflops = flops / us / 1e3;
        self.put(names[0], us, "us");
        self.put(names[1], gflops, "GFLOP/s");
        self.put(
            names[2],
            100.0 * gflops / self.host.roof_gflops(flops, bytes),
            "%",
        );
    }
}

fn gemm_f32(
    out: &mut Out<'_>,
    g: &mut SplitMix64,
    names: [&'static str; 3],
    shape: (usize, usize, usize),
) -> Result<f64, String> {
    let rhs = PackedRhs::random(g, shape.1, shape.2);
    let mut probe = GemmF32::random(g, shape.0, &rhs);
    let us = median_us(TIMED_CALLS, || probe.run(&rhs))?;
    out.flop_rows(names, us, gemm_flops(shape), gemm_bytes(shape));
    Ok(us)
}

fn gemm_i8(
    out: &mut Out<'_>,
    g: &mut SplitMix64,
    names: [&'static str; 2],
    (m, k, n): (usize, usize, usize),
    runtime: RuntimeOperand,
) -> Result<f64, String> {
    let mut probe = GemmI8::random(g, m, k, n, runtime);
    let us = median_us(TIMED_CALLS, || probe.run())?;
    out.put(names[0], us, "us");
    out.put(names[1], gemm_flops((m, k, n)) / us / 1e3, "GOP/s");
    Ok(us)
}

const CONV2_F32: [&str; 3] = [
    "tensor.gemm_f32_conv2.us",
    "tensor.gemm_f32_conv2.gflops",
    "tensor.gemm_f32_conv2.pct_of_roof",
];

/// Run every probe.
pub fn run_all(seed: u64, host: &Ceilings, metrics: &mut Metrics) -> Result<(), String> {
    let mut g = SplitMix64::new(seed);
    let g = &mut g;
    let mut out = Out { metrics, host };
    let out = &mut out;

    // f32: the Caffenet conv shapes, fc6 at batch 1, Googlenet's 1x1.
    let f32_conv2 = gemm_f32(out, g, CONV2_F32, CONV2)?;
    gemm_f32(
        out,
        g,
        [
            "tensor.gemm_f32_conv3.us",
            "tensor.gemm_f32_conv3.gflops",
            "tensor.gemm_f32_conv3.pct_of_roof",
        ],
        CONV3,
    )?;
    gemv_fc6(out, g)?;
    im2col_conv2(out, g)?;
    gemm_f32(
        out,
        g,
        [
            "tensor.gemm_f32_incep3a_1x1.us",
            "tensor.gemm_f32_incep3a_1x1.gflops",
            "tensor.gemm_f32_incep3a_1x1.pct_of_roof",
        ],
        INCEP3A_1X1,
    )?;

    // CSR against dense on conv2.
    let (m, k, n) = CONV2;
    let mut spmm = SpmmCsr::random_half_rows(g, m, k, n);
    let us = median_us(TIMED_CALLS, || spmm.run())?;
    // Useful work only: the stored non-zeros. Bytes: CSR values and
    // indices, the dense operand, the result.
    let nnz = spmm.density() * (m * k) as f64;
    out.flop_rows(
        [
            "tensor.spmm_csr_conv2_d50.us",
            "tensor.spmm_csr_conv2_d50.gflops",
            "tensor.spmm_csr_conv2_d50.pct_of_roof",
        ],
        us,
        2.0 * nnz * n as f64,
        8.0 * nnz + 4.0 * (k * n + m * n) as f64,
    );
    out.put("tensor.spmm_over_dense_conv2_d50", us / f32_conv2, "ratio");

    // int8 against f32 on conv2 and on fc6 at batch 8.
    let i8_conv2 = gemm_i8(
        out,
        g,
        ["tensor.gemm_i8_conv2.us", "tensor.gemm_i8_conv2.gops"],
        CONV2,
        RuntimeOperand::Rhs,
    )?;
    out.put(
        "tensor.gemm_i8_over_f32_conv2",
        i8_conv2 / f32_conv2,
        "ratio",
    );
    let fc6_b8 = (8, FC6.0, FC6.1);
    let f32_fc6 = gemm_f32(
        out,
        g,
        [
            "tensor.gemm_f32_fc6_b8.us",
            "tensor.gemm_f32_fc6_b8.gflops",
            "tensor.gemm_f32_fc6_b8.pct_of_roof",
        ],
        fc6_b8,
    )?;
    let i8_fc6 = gemm_i8(
        out,
        g,
        ["tensor.gemm_i8_fc6_b8.us", "tensor.gemm_i8_fc6_b8.gops"],
        fc6_b8,
        RuntimeOperand::Lhs,
    )?;
    out.put("tensor.gemm_i8_over_f32_fc6_b8", i8_fc6 / f32_fc6, "ratio");

    // The conv2 column matrix, quantized row by row: reads f32, writes i8.
    let (rows, k) = (CONV2.1, CONV2.2);
    let mut quant = QuantizeRows::random(g, rows, k);
    let us = median_us(TIMED_CALLS, || quant.run())?;
    out.put("tensor.quantize_rows_conv2.us", us, "us");
    out.put(
        "tensor.quantize_rows_conv2.gbs",
        5.0 * (rows * k) as f64 / us / 1e3,
        "GB/s",
    );
    Ok(())
}

fn gemv_fc6(out: &mut Out<'_>, g: &mut SplitMix64) -> Result<(), String> {
    gemm_f32(
        out,
        g,
        [
            "tensor.gemv_f32_fc6.us",
            "tensor.gemv_f32_fc6.gflops",
            "tensor.gemv_f32_fc6.pct_of_roof",
        ],
        (1, FC6.0, FC6.1),
    )
    .map(|_| ())
}

fn im2col_conv2(out: &mut Out<'_>, g: &mut SplitMix64) -> Result<(), String> {
    let mut probe = Im2colPacked::random(g, CONV2_IMAGE, 5, 2, 1);
    let us = median_us(TIMED_CALLS, || probe.run())?;
    // Reads the image once, writes the packed column matrix once.
    let (c, h, w) = CONV2_IMAGE;
    let bytes = 4.0 * (c * h * w + CONV2.1 * CONV2.2) as f64;
    let gbs = bytes / us / 1e3;
    out.put("tensor.im2col_conv2.us", us, "us");
    out.put("tensor.im2col_conv2.gbs", gbs, "GB/s");
    out.put(
        "tensor.im2col_conv2.pct_of_roof",
        100.0 * gbs / out.host.bandwidth_gbs(bytes),
        "%",
    );
    Ok(())
}
