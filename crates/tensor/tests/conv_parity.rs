//! Table-driven parity for the one convolution driver.
//!
//! Every [`ConvWeights`] form {dense-f32, csr-f32, dense-i8, csr-i8} ×
//! {no ReLU, fused ReLU} × groups {1, 2} × batch {1, 3} runs through
//! [`conv2d`] and is held against the direct sliding-window oracle
//! ([`conv2d_direct`]), which shares no code with it:
//!
//! * f32 forms: within 1e-4 of the oracle, and **bitwise** equal (on
//!   bit-identical kernel paths) to the allocating seed composition the
//!   driver replaced — per image and group, `im2col` → unpacked `gemm`
//!   / CSR `matmul_dense` → a separate bias pass → a separate ReLU pass.
//!   That is the fusion contract (fused == unfused + passes) and the
//!   packed-vs-unpacked contract in one assertion.
//! * int8 forms: within the int8 bound (0.2 absolute on unit-scale
//!   data) of the oracle, and csr-i8 **bitwise** equal to dense-i8 on
//!   the same weights on every path (exact i32 accumulation is
//!   order-free; the dequantize epilogue is the same float sequence).
//!
//! One `WorkspacePool` and one output tensor serve the whole table, so
//! every case after the first starts from scratch dirtied by earlier,
//! differently-shaped work — results must not depend on it.

use cap_tensor::reference::conv2d_direct;
use cap_tensor::{
    conv2d, gemm, im2col, kernels, symmetric_scale, Conv2dParams, ConvWeights, CsrMatrix, Matrix,
    Tensor4, WorkspacePool,
};

fn input(n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
    Tensor4::from_fn(n, c, h, w, |ni, ci, hi, wi| {
        (((ni * 7 + ci * 5 + hi * 3 + wi) % 11) as f32 - 5.0) / 5.0
    })
}

/// Unit-scale weights; `pruned` zeroes every other element.
fn weights(params: &Conv2dParams, pruned: bool) -> Matrix {
    let cols = params.col_rows();
    Matrix::from_fn(params.out_channels, cols, |r, c| {
        if pruned && (r * cols + c).is_multiple_of(2) {
            0.0
        } else {
            (((r + 5) * 13 + c * 7) % 17) as f32 / 8.0 - 1.0
        }
    })
}

fn relu_pass(t: &mut Tensor4) {
    for v in t.as_mut_slice() {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// What the allocating entry points this driver replaced computed.
/// Shares only the microkernels (and `im2col`) with [`conv2d`].
fn seed_composition(
    x: &Tensor4,
    w: &Matrix,
    bias: &[f32],
    relu: bool,
    params: &Conv2dParams,
    sparse: bool,
) -> Tensor4 {
    let (n, _c, h, wd) = x.shape();
    let (oh, ow) = params.out_shape(h, wd).unwrap();
    let (cpg, opg, col_rows) = (
        params.in_per_group(),
        params.out_per_group(),
        params.col_rows(),
    );
    let n_out = oh * ow;
    let mut out = Tensor4::zeros(n, params.out_channels, oh, ow);
    for ni in 0..n {
        for g in 0..params.groups {
            let cols = im2col(
                &x.image(ni)[g * cpg * h * wd..(g + 1) * cpg * h * wd],
                cpg,
                h,
                wd,
                params.kh,
                params.kw,
                params.pad,
                params.stride,
            )
            .unwrap();
            let band = Matrix::from_vec(
                opg,
                col_rows,
                w.as_slice()[g * opg * col_rows..(g + 1) * opg * col_rows].to_vec(),
            )
            .unwrap();
            let prod = if sparse {
                CsrMatrix::from_dense(&band, 0.0)
                    .matmul_dense(&cols)
                    .unwrap()
            } else {
                gemm(&band, &cols).unwrap()
            };
            out.image_mut(ni)[g * opg * n_out..(g + 1) * opg * n_out]
                .copy_from_slice(prod.as_slice());
        }
        for (oc, bv) in bias.iter().enumerate() {
            for v in &mut out.image_mut(ni)[oc * n_out..(oc + 1) * n_out] {
                *v += bv;
            }
        }
    }
    if relu {
        relu_pass(&mut out);
    }
    out
}

fn bits(t: &Tensor4) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_weight_form_matches_the_direct_oracle() {
    let pool = WorkspacePool::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let bit_identical = kernels::selected().is_bit_identical_to_scalar();

    for groups in [1usize, 2] {
        let params = Conv2dParams::grouped(4, 6, 3, 1, 1, groups);
        let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.05 - 0.1).collect();
        let dense_w = weights(&params, false);
        let pruned_w = weights(&params, true);
        let csr = ConvWeights::csr_bands(&pruned_w, &params).unwrap();
        let dense_q = ConvWeights::i8_bands(&dense_w, &params).unwrap();
        let pruned_q = ConvWeights::i8_bands(&pruned_w, &params).unwrap();
        let csr_q = ConvWeights::csr_i8_bands(&pruned_w, &params).unwrap();
        assert_eq!(csr_q[0].scale(), pruned_q[0].scale());

        for batch in [1usize, 3] {
            let x = input(batch, 4, 7, 7);
            let act_scale = symmetric_scale(x.as_slice());
            for relu in [false, true] {
                let case = format!("groups={groups} batch={batch} relu={relu}");
                let oracle = |w: &Matrix| {
                    let mut t = conv2d_direct(&x, w, Some(&bias), &params).unwrap();
                    if relu {
                        relu_pass(&mut t);
                    }
                    t
                };
                let mut run = |form: ConvWeights<'_>| {
                    conv2d(&x, form, Some(&bias), relu, &params, &pool, &mut out).unwrap();
                    out.clone()
                };

                for (name, form, w, sparse) in [
                    ("dense-f32", ConvWeights::Dense(&dense_w), &dense_w, false),
                    ("csr-f32", ConvWeights::Csr(&csr), &pruned_w, true),
                ] {
                    let got = run(form);
                    let diff = got.max_abs_diff(&oracle(w)).unwrap();
                    assert!(diff < 1e-4, "{name} {case}: {diff} from the oracle");
                    let seed = seed_composition(&x, w, &bias, relu, &params, sparse);
                    if bit_identical {
                        assert!(bits(&got) == bits(&seed), "{name} {case}: vs seed path");
                    } else {
                        assert!(got.max_abs_diff(&seed).unwrap() < 1e-5, "{name} {case}");
                    }
                }

                let dense_i8 = run(ConvWeights::DenseI8 {
                    bands: &dense_q,
                    act_scale,
                });
                let diff = dense_i8.max_abs_diff(&oracle(&dense_w)).unwrap();
                assert!(diff < 0.2, "dense-i8 {case}: {diff} from the oracle");

                let csr_i8 = run(ConvWeights::CsrI8 {
                    bands: &csr_q,
                    act_scale,
                });
                let diff = csr_i8.max_abs_diff(&oracle(&pruned_w)).unwrap();
                assert!(diff < 0.2, "csr-i8 {case}: {diff} from the oracle");
                let pruned_dense_i8 = run(ConvWeights::DenseI8 {
                    bands: &pruned_q,
                    act_scale,
                });
                assert!(
                    bits(&csr_i8) == bits(&pruned_dense_i8),
                    "csr-i8 vs dense-i8 on the same weights, {case}"
                );
            }
        }
    }
}
