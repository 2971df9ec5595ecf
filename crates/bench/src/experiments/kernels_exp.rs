//! Microkernel ablation: scalar vs runtime-dispatched SIMD paths on the
//! three kernel families `cap_tensor::kernels` serves — packed dense
//! GEMM, CSR sparse×dense SpMM, and the end-to-end network forward that
//! composes them with the elementwise kernels (ReLU, bias, max-pool).
//!
//! Every arm runs the *same* code path through the public API; only the
//! forced [`KernelPath`] differs. Because every path is bit-identical
//! to scalar (see `crates/tensor/tests/kernel_parity.rs`),
//! the measured deltas are pure execution-speed effects, never
//! accuracy trades. On a non-AVX2 host only the scalar arm is
//! available and the table says so instead of skipping silently.

use super::scaling_exp::{mini_caffenet, workload};
use cap_cnn::run_batched;
use cap_tensor::kernels::{self, KernelPath};
use cap_tensor::{gemm_prepacked, CsrMatrix, Matrix, PackedB, Tensor4};
use std::fmt::Write;
use std::time::Instant;

/// GEMM shapes measured, `(label, m, k, n)`. The first two are
/// Caffenet's conv2/conv3 im2col shapes from Table 1 (output channels ×
/// in·kh·kw × output pixels); the third is a batch-1 FC slice that
/// stresses the single-row tail of the panel kernel.
const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("conv2-like 256x1200x729", 256, 1200, 729),
    ("conv3-like 384x2304x169", 384, 2304, 169),
    ("fc batch-1 1x4096x1000", 1, 4096, 1000),
];

/// SpMM sparsity arms: the paper's pruning sweep end-points.
const SPARSITIES: &[f64] = &[0.0, 0.6, 0.9];

fn deterministic_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 17 + salt) % 29) as f32 - 14.0) / 15.0
    })
}

/// Time `f` adaptively: repeat until the total exceeds ~40 ms, report
/// the best single-iteration time (least-noise estimator on a shared
/// host). Shared with the `fusion` ablation.
pub(crate) fn best_secs<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut iters = 0usize;
    while spent < 0.04 || iters < 3 {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        iters += 1;
    }
    best
}

/// The SIMD arm (last) over the scalar arm (`rates[0]`); 1.0 when only
/// the scalar path exists.
fn speedup(rates: &[f64]) -> f64 {
    rates[rates.len() - 1] / rates[0].max(1e-12)
}

fn on_path<T>(path: KernelPath, f: impl FnOnce() -> T) -> T {
    kernels::force(Some(path));
    let out = f();
    kernels::force(None);
    out
}

/// The `kernels` registry entry: ablation table for the dispatch layer.
pub fn kernels_ablation() -> String {
    let paths = kernels::available_paths();
    let mut out = String::new();
    writeln!(out, "# Microkernel ablation: scalar vs SIMD dispatch").unwrap();
    writeln!(
        out,
        "\navailable paths: {} (selected by default: {})",
        paths
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", "),
        kernels::selected().name()
    )
    .unwrap();
    if paths.len() == 1 {
        writeln!(
            out,
            "note: host has no AVX2 — every arm below runs the scalar kernel"
        )
        .unwrap();
    }

    // --- Packed dense GEMM -------------------------------------------------
    writeln!(out, "\n## Packed GEMM (GFLOP/s, best of repeated runs)").unwrap();
    write!(out, "{:<26}", "shape").unwrap();
    for p in &paths {
        write!(out, " {:>10}", p.name()).unwrap();
    }
    writeln!(out, " {:>9}", "speedup").unwrap();
    for &(label, m, k, n) in GEMM_SHAPES {
        let a = deterministic_matrix(m, k, 1);
        let b = PackedB::pack(&deterministic_matrix(k, n, 2));
        let mut c = Matrix::zeros(m, n);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let mut rates = Vec::new();
        for &p in &paths {
            let secs = on_path(p, || best_secs(|| gemm_prepacked(&a, &b, &mut c).unwrap()));
            rates.push(flops / secs / 1e9);
        }
        write!(out, "{label:<26}").unwrap();
        for r in &rates {
            write!(out, " {r:>10.2}").unwrap();
        }
        writeln!(out, " {:>8.2}x", speedup(&rates)).unwrap();
    }

    // --- Sparse CSR x dense ------------------------------------------------
    writeln!(
        out,
        "\n## CSR SpMM 256x1200 x 1200x729 (effective dense GFLOP/s)"
    )
    .unwrap();
    write!(out, "{:<26}", "sparsity").unwrap();
    for p in &paths {
        write!(out, " {:>10}", p.name()).unwrap();
    }
    writeln!(out, " {:>9}", "speedup").unwrap();
    let (m, k, n) = (256usize, 1200usize, 729usize);
    let b = deterministic_matrix(k, n, 3);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    for &sp in SPARSITIES {
        // Prune by striding: keep every floor(1/(1-sp))-th weight.
        let keep_every = if sp == 0.0 {
            1
        } else {
            (1.0 / (1.0 - sp)).round() as usize
        };
        let dense = Matrix::from_fn(m, k, |r, c| {
            if (r * k + c) % keep_every == 0 {
                (((r * 13 + c * 7) % 23) as f32 - 11.0) / 12.0
            } else {
                0.0
            }
        });
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        let mut c = Matrix::zeros(m, n);
        let mut rates = Vec::new();
        for &p in &paths {
            let secs = on_path(p, || {
                best_secs(|| csr.matmul_dense_into(&b, &mut c).unwrap())
            });
            rates.push(flops / secs / 1e9);
        }
        write!(out, "{:<26}", format!("{:.0}% pruned", sp * 100.0)).unwrap();
        for r in &rates {
            write!(out, " {r:>10.2}").unwrap();
        }
        writeln!(out, " {:>8.2}x", speedup(&rates)).unwrap();
    }

    // --- End-to-end network forward ----------------------------------------
    writeln!(
        out,
        "\n## End-to-end mini-Caffenet forward (images/s, 32-image workload)"
    )
    .unwrap();
    write!(out, "{:<26}", "batch").unwrap();
    for p in &paths {
        write!(out, " {:>10}", p.name()).unwrap();
    }
    writeln!(out, " {:>9}", "speedup").unwrap();
    let net = mini_caffenet();
    let imgs = workload();
    let one = Tensor4::from_fn(1, 3, 64, 64, |_, c, h, w| {
        ((c * 17 + h * 3 + w) % 23) as f32 / 11.0 - 1.0
    });
    for (label, imgs, batch) in [("batch 1", &one, 1usize), ("batch 8", &imgs, 8usize)] {
        let mut rates = Vec::new();
        for &p in &paths {
            // Warm once on this path (packs weights, grows arenas), then time.
            let secs = on_path(p, || {
                run_batched(&net, imgs, batch).unwrap();
                best_secs(|| {
                    run_batched(&net, imgs, batch).unwrap();
                })
            });
            rates.push(imgs.n() as f64 / secs);
        }
        write!(out, "{label:<26}").unwrap();
        for r in &rates {
            write!(out, " {r:>10.1}").unwrap();
        }
        writeln!(out, " {:>8.2}x", speedup(&rates)).unwrap();
    }

    writeln!(
        out,
        "\nparity contract: every arm above is bit-identical to scalar \
         (crates/tensor/tests/kernel_parity.rs, crates/cnn/tests/kernel_parity_net.rs); \
         speedups are execution-only, never accuracy trades."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_reports_all_available_paths() {
        let out = kernels_ablation();
        for p in kernels::available_paths() {
            assert!(out.contains(p.name()), "missing {} in:\n{out}", p.name());
        }
        assert!(out.contains("Packed GEMM"), "{out}");
        assert!(out.contains("CSR SpMM"), "{out}");
        assert!(out.contains("mini-Caffenet forward"), "{out}");
        // Force must have been restored for later tests in this process.
        assert!(kernels::selected().is_available());
    }
}
