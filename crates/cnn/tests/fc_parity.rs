//! A fully-connected layer multiplies its row-major `W` in place — the
//! row GEMV at batch 1, the packed GEMM of `W · Xᵀ` at larger batches —
//! and every output must still be bitwise `gemm(X, Wᵀ)` followed by the
//! bias and ReLU passes: on every kernel path, at batch 1, 2 and 8,
//! narrowed or not (input channels at `+0` removed, with their
//! columns), with and without the fused ReLU, on one thread and on a
//! two-thread team that splits every multiply.
//!
//! The one test in this binary: it forces the process-wide precision
//! and kernel path for its whole length.

use cap_cnn::layer::{InnerProductLayer, Layer};
use cap_tensor::{gemm, kernels, precision, Matrix, Precision, Team, Tensor4, Workspace};

#[test]
fn f32_batches_are_bitwise_gemm_of_x_and_w_transposed() {
    // 4 channels of 3×3 into 37 outputs: two 16-row blocks and a 5-row
    // tail, depths of 36 / 27 / 18 (whole 16-deep steps and a tail).
    let w = Matrix::from_fn(37, 36, |r, c| ((r * 7 + c * 5) % 11) as f32 / 5.0 - 1.0);
    let bias: Vec<f32> = (0..37).map(|o| (o % 5) as f32 * 0.5 - 1.0).collect();
    let wt = w.transpose();
    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    precision::force(Some(Precision::F32));
    for path in kernels::available_paths() {
        kernels::force(Some(path));
        for dead in [&[][..], &[1], &[0, 3]] {
            let mut fc = InnerProductLayer::new("fc_t", w.clone(), bias.clone()).unwrap();
            fc.narrow(&[(4, 3, 3)], &[dead], &[]).unwrap();
            for batch in [1, 2, 8] {
                let x = Tensor4::from_fn(batch, 4, 3, 3, |n, c, h, ww| {
                    if dead.contains(&c) {
                        0.0
                    } else {
                        ((n * 13 + c * 9 + h * 3 + ww) % 17) as f32 / 8.0 - 1.0
                    }
                });
                let xm = Matrix::from_vec(batch, 36, x.as_slice().to_vec()).unwrap();
                let live: Vec<usize> = (0..4).filter(|c| !dead.contains(c)).collect();
                let narrowed = Tensor4::from_fn(batch, live.len(), 3, 3, |n, c, h, ww| {
                    x.get(n, live[c], h, ww)
                });
                let plain = gemm(&xm, &wt).unwrap();
                for relu in [false, true] {
                    let want: Vec<f32> = (0..batch * 37)
                        .map(|i| {
                            let v = plain.as_slice()[i] + bias[i % 37];
                            if !relu || v > 0.0 {
                                v
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    for team in [None, Some(Team::new(2).with_min_part_macs(0))] {
                        let threads = team.as_ref().map_or(1, Team::threads);
                        let mut ws = Workspace::new();
                        ws.team = team;
                        let mut y = Tensor4::zeros(0, 0, 0, 0);
                        if relu {
                            fc.forward_into_fused(&[&narrowed], &mut ws, &mut y)
                                .unwrap();
                        } else {
                            fc.forward_into(&[&narrowed], &mut ws, &mut y).unwrap();
                        }
                        let case = format!(
                            "{} narrowed {dead:?} batch {batch} relu {relu} on {threads} threads",
                            path.name()
                        );
                        assert_eq!(bits(y.as_slice()), bits(&want), "{case}");
                    }
                }
            }
        }
    }
    kernels::force(None);
    precision::force(None);
}
