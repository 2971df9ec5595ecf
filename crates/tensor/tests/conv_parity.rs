//! Table-driven parity for the one convolution driver.
//!
//! Every im2col [`ConvWeights`] form {dense-f32, csr-f32, dense-i8} ×
//! {no ReLU, fused ReLU} × groups {1, 2} × batch {1, 3} runs through
//! [`conv2d`] and is held against the direct sliding-window oracle
//! ([`conv2d_direct`]), which shares no code with it:
//!
//! * f32 forms: within 1e-4 of the oracle, and **bitwise** equal to the
//!   allocating seed composition the driver replaced — per image and
//!   group, `im2col` → `gemm_naive` / CSR `matmul_dense` → a separate
//!   bias pass → a separate ReLU pass.
//!   That is the fusion contract (fused == unfused + passes) and the
//!   packed-vs-unpacked contract in one assertion.
//! * dense-i8, on dense and on half-zero weights: within the int8
//!   bound (0.2 absolute on unit-scale data) of the oracle.
//!
//! * kept-rows f32 (`DenseRows`, filter-pruned weights): **bitwise**
//!   equal to `Dense` on the same zero-row weights over every row
//!   pattern that changes its control flow, within 1e-4 of the oracle,
//!   and no more scratch than `Dense`.
//!
//! * narrowed bands (kept rows plus live input channels, uneven live
//!   counts per group, a whole group dead): **bitwise** `Dense` (f32)
//!   or the full dense-i8 bands on the same zero-row weights with the
//!   dead input planes zeroed, on every kernel path, at batch 1 and 8,
//!   on teams of one to three threads; a non-finite weight on a dead
//!   channel keeps its column.
//!
//! * dense and kept-rows f32 on one geometry whose patch matrix spans
//!   three column strips of the packed GEMM: **bitwise** the seed
//!   composition (the strip walk only reorders tiles).
//!
//! * dense-i8 over a geometry table (stride × pad × groups, odd
//!   patch depth, output pixels off the panel width): **bitwise** the
//!   lower-then-quantize composition `conv2d` ran before it quantized
//!   the image instead of the patch matrix — public `im2col` →
//!   `pack_b_i8_into` → `gemm_i8` — on every path.
//!
//! One `Workspace` and one output tensor serve the whole table, so
//! every case after the first starts from scratch dirtied by earlier,
//! differently-shaped work — results must not depend on it.

use cap_tensor::kernels;
use cap_tensor::reference::{conv2d_direct, gemm_naive};
use cap_tensor::{
    conv2d, gemm_i8, im2col, pack_b_i8_into, symmetric_scale, Conv2dParams, ConvWeights, CsrMatrix,
    EpiBias, Epilogue, I8Storage, Matrix, QuantizedA, Team, Tensor4, Workspace,
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
                gemm_naive(&band, &cols).unwrap()
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
    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);

    for groups in [1usize, 2] {
        let params = Conv2dParams::grouped(4, 6, 3, 1, 1, groups);
        let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.05 - 0.1).collect();
        let dense_w = weights(&params, false);
        let pruned_w = weights(&params, true);
        let csr = ConvWeights::csr_bands(&pruned_w, &params).unwrap();
        let dense_q = ConvWeights::i8_bands(&dense_w, &params, &[]).unwrap();
        let pruned_q = ConvWeights::i8_bands(&pruned_w, &params, &[]).unwrap();

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
                    conv2d(&x, form, Some(&bias), relu, &params, &mut ws, &mut out).unwrap();
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
                    assert!(bits(&got) == bits(&seed), "{name} {case}: vs seed path");
                }

                for (name, bands, w) in [
                    ("dense-i8", &dense_q, &dense_w),
                    ("pruned dense-i8", &pruned_q, &pruned_w),
                ] {
                    let got = run(ConvWeights::DenseI8 { bands, act_scale });
                    let diff = got.max_abs_diff(&oracle(w)).unwrap();
                    assert!(diff < 0.2, "{name} {case}: {diff} from the oracle");
                }
            }
        }
    }
}

/// The int8 convolution as it ran before the image was quantized ahead
/// of the lowering: per image and group, the f32 patch matrix, then
/// quantize-and-pack every element of it, then the integer GEMM of the
/// group's whole band of `w`, quantized at the layer's max-abs scale.
fn lower_then_quantize(
    x: &Tensor4,
    w: &Matrix,
    act_scale: f32,
    bias: Option<&[f32]>,
    relu: bool,
    params: &Conv2dParams,
) -> Tensor4 {
    let (n, _c, h, wd) = x.shape();
    let (oh, ow) = params.out_shape(h, wd).unwrap();
    let (cpg, opg, n_out) = (params.in_per_group(), params.out_per_group(), oh * ow);
    let mut out = Tensor4::zeros(n, params.out_channels, oh, ow);
    let mut qb = Vec::new();
    let col_rows = params.col_rows();
    let bands: Vec<QuantizedA> = (0..params.groups)
        .map(|g| {
            let band = &w.as_slice()[g * opg * col_rows..];
            QuantizedA::quantize(band, opg, col_rows, symmetric_scale(w.as_slice()))
        })
        .collect();
    for ni in 0..n {
        for (g, band) in bands.iter().enumerate() {
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
            pack_b_i8_into(
                cols.as_slice(),
                cols.rows(),
                n_out,
                1.0 / act_scale,
                &mut qb,
            );
            gemm_i8(
                band.data(),
                opg,
                band.kp(),
                n_out,
                &qb,
                &mut out.image_mut(ni)[g * opg * n_out..(g + 1) * opg * n_out],
                band.scale() * act_scale,
                Epilogue {
                    bias: bias.map(|b| EpiBias::PerRow(&b[g * opg..(g + 1) * opg])),
                    relu,
                },
            )
            .unwrap();
        }
    }
    out
}

/// Quantizing the image and lowering in int8 changes no output bit of
/// the int8 form, on dense or half-zero weights. 3 input channels per
/// group under a 3×3 kernel give an odd patch depth (27, so a pad row);
/// the 11×9 input gives 63, 99, 143, 20, 30, 42, 6, 9 and 12 output
/// pixels — never a whole number of panels; 10 filters cross the 8-row
/// block. The activation scale clips the top of the input range. The
/// one workspace's int8 slots and `out` start every case poisoned.
#[test]
fn int8_forms_are_bitwise_the_lower_then_quantize_composition() {
    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let bias: Vec<f32> = (0..10).map(|i| i as f32 * 0.07 - 0.3).collect();
    for groups in [1usize, 2] {
        for stride in [1usize, 2, 4] {
            for pad in [0usize, 1, 2] {
                let params = Conv2dParams::grouped(3 * groups, 10, 3, pad, stride, groups);
                assert_eq!(params.col_rows() % 2, 1);
                let dense_w = weights(&params, false);
                let pruned_w = weights(&params, true);
                let dense_q = ConvWeights::i8_bands(&dense_w, &params, &[]).unwrap();
                let pruned_q = ConvWeights::i8_bands(&pruned_w, &params, &[]).unwrap();
                for batch in [1usize, 3] {
                    let x = input(batch, 3 * groups, 11, 9);
                    let act_scale = 0.75 * symmetric_scale(x.as_slice());
                    for (relu, bias) in [
                        (false, Some(&bias[..])),
                        (true, Some(&bias[..])),
                        (true, None),
                    ] {
                        let case = format!(
                            "groups={groups} stride={stride} pad={pad} batch={batch} relu={relu} bias={}",
                            bias.is_some()
                        );
                        for (name, bands, w) in [
                            ("dense-i8", &dense_q, &dense_w),
                            ("pruned dense-i8", &pruned_q, &pruned_w),
                        ] {
                            let form = ConvWeights::DenseI8 { bands, act_scale };
                            ws.qbuf.resize_for_overwrite(8192).fill(77);
                            for slot in [&mut ws.qimage, &mut ws.qlines] {
                                slot.clear();
                                slot.resize(8192, 77);
                            }
                            out.as_mut_slice().fill(f32::NAN);
                            conv2d(&x, form, bias, relu, &params, &mut ws, &mut out).unwrap();
                            let (_, _, oh, ow) = out.shape();
                            assert_ne!(oh * ow % 8, 0, "{case}");
                            let want = lower_then_quantize(&x, w, act_scale, bias, relu, &params);
                            assert!(bits(&out) == bits(&want), "{name} {case}");
                        }
                    }
                }
            }
        }
    }
}

/// `weights(params, false)` with the listed filters (rows) zeroed.
fn filter_pruned(params: &Conv2dParams, pruned_rows: &[usize]) -> Matrix {
    let mut w = weights(params, false);
    for &r in pruned_rows {
        w.row_mut(r).fill(0.0);
    }
    w
}

#[test]
fn kept_rows_form_is_bitwise_dense_on_the_same_weights() {
    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let all: Vec<usize> = (0..12).collect();
    // 12 filters: one group of 12 or two of 6.
    let patterns: [(&str, &[usize]); 7] = [
        ("none pruned", &[]),
        ("all pruned", &all),
        ("first group pruned", &all[..6]),
        ("kept count off the row block", &[1, 4, 5, 8, 10, 11]),
        ("first and last rows pruned", &[0, 5, 6, 11]),
        ("one kept row per group", &[0, 1, 2, 4, 5, 6, 7, 9, 10, 11]),
        ("one kept row", &all[1..]),
    ];
    let bias: Vec<f32> = (0..12).map(|i| i as f32 * 0.05 - 0.3).collect();

    for groups in [1usize, 2] {
        let params = Conv2dParams::grouped(4, 12, 3, 1, 1, groups);
        for (pattern, pruned_rows) in patterns {
            let w = filter_pruned(&params, pruned_rows);
            let kept = ConvWeights::kept_row_bands(&w, &params, &[]).unwrap();
            for (batch, relu, bias) in [
                (1usize, false, Some(&bias[..])),
                (1, true, Some(&bias[..])),
                (3, false, Some(&bias[..])),
                (3, true, Some(&bias[..])),
                (3, false, None),
            ] {
                let case = format!(
                    "{pattern}: groups={groups} batch={batch} relu={relu} bias={}",
                    bias.is_some()
                );
                let x = input(batch, 4, 7, 7);
                let dense_form = ConvWeights::Dense(&w);
                conv2d(&x, dense_form, bias, relu, &params, &mut ws, &mut out).unwrap();
                let dense = out.clone();
                // Every element must be written, not inherited.
                out.as_mut_slice().fill(f32::NAN);
                let kept_form = ConvWeights::DenseRows(&kept);
                conv2d(&x, kept_form, bias, relu, &params, &mut ws, &mut out).unwrap();
                assert!(bits(&out) == bits(&dense), "{case}: vs dense");
                let mut oracle = conv2d_direct(&x, &w, bias, &params).unwrap();
                if relu {
                    relu_pass(&mut oracle);
                }
                let diff = out.max_abs_diff(&oracle).unwrap();
                assert!(diff < 1e-4, "{case}: {diff} from the oracle");
            }
        }
    }
}

/// The edge cases of treating a pruned filter as absent.
#[test]
fn pruned_filters_are_absent_not_zero() {
    let params = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
    let bias = [0.5f32, -0.5, 0.25, -0.0, 1.0, -2.0];
    let epi = |b: f32, relu: bool| {
        let v = 0.0 + b;
        if !relu || v > 0.0 {
            v
        } else {
            0.0
        }
    };
    let n_out = 7 * 7;
    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let x = input(2, 4, 7, 7);

    // Group 1 entirely pruned: its channels hold the bias constant.
    let w = filter_pruned(&params, &[3, 4, 5]);
    let kept = ConvWeights::kept_row_bands(&w, &params, &[]).unwrap();
    // Every filter pruned: the layer is its bias broadcast.
    let none =
        ConvWeights::kept_row_bands(&filter_pruned(&params, &[0, 1, 2, 3, 4, 5]), &params, &[])
            .unwrap();
    for relu in [false, true] {
        let rows = ConvWeights::DenseRows(&kept);
        conv2d(&x, rows, Some(&bias), relu, &params, &mut ws, &mut out).unwrap();
        for n in 0..2 {
            for (oc, &b) in bias.iter().enumerate().skip(3) {
                let want = epi(b, relu).to_bits();
                let got = &out.image(n)[oc * n_out..(oc + 1) * n_out];
                assert!(got.iter().all(|v| v.to_bits() == want), "channel {oc}");
            }
        }
        let rows = ConvWeights::DenseRows(&none);
        conv2d(&x, rows, Some(&bias), relu, &params, &mut ws, &mut out).unwrap();
        for (i, v) in out.as_slice().iter().enumerate() {
            let oc = i / n_out % 6;
            assert_eq!(v.to_bits(), epi(bias[oc], relu).to_bits(), "element {i}");
        }
    }

    // Non-finite activations: the dense form multiplies the zero
    // filter through (0·inf = NaN), the kept-rows form does not.
    let mut hot = x.clone();
    hot.as_mut_slice().fill(f32::INFINITY);
    let dense = ConvWeights::Dense(&w);
    conv2d(&hot, dense, Some(&bias), false, &params, &mut ws, &mut out).unwrap();
    assert!(out.image(0)[3 * n_out..].iter().all(|v| v.is_nan()));
    let rows = ConvWeights::DenseRows(&kept);
    conv2d(&hot, rows, Some(&bias), false, &params, &mut ws, &mut out).unwrap();
    for (oc, &b) in bias.iter().enumerate().skip(3) {
        let got = &out.image(0)[oc * n_out..(oc + 1) * n_out];
        assert!(got.iter().all(|&v| v == b), "channel {oc}");
    }
}

/// The kept-rows form works in the output band itself: its workspace
/// high-water is the dense form's (the packed patch matrix), with no
/// `kept × n_out` side buffer.
#[test]
fn kept_rows_form_needs_no_more_scratch_than_dense() {
    let params = Conv2dParams::grouped(4, 12, 3, 1, 1, 2);
    let w = filter_pruned(&params, &[1, 4, 5, 8, 10, 11]);
    let kept = ConvWeights::kept_row_bands(&w, &params, &[]).unwrap();
    let x = input(3, 4, 7, 7);
    let scratch = |form: ConvWeights<'_>| {
        let mut ws = Workspace::new();
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        conv2d(&x, form, None, true, &params, &mut ws, &mut out).unwrap();
        ws.reserved_bytes()
    };
    let dense = scratch(ConvWeights::Dense(&w));
    assert!(dense > 0);
    assert_eq!(scratch(ConvWeights::DenseRows(&kept)), dense);
}

/// A patch matrix wider than two column strips of the packed GEMM
/// (`k` = 64·3·3 = 576 taps puts 28 panels in a 512 KiB strip; 22×22
/// output pixels are 61 panels — strips of 28, 28 and 5 with a ragged
/// last panel), six filters so a 4-row block and two trailing rows
/// cross every strip: both dense forms stay bitwise the unpacked seed
/// composition (`gemm_naive`), epilogue included.
#[test]
fn dense_forms_are_bitwise_the_seed_path_across_column_strips() {
    let params = Conv2dParams::grouped(64, 6, 3, 1, 1, 1);
    let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.05 - 0.1).collect();
    let x = input(2, 64, 22, 22);
    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let dense_w = weights(&params, false);
    let rows_w = filter_pruned(&params, &[1, 4]);
    let kept = ConvWeights::kept_row_bands(&rows_w, &params, &[]).unwrap();
    for relu in [false, true] {
        for (name, form, w) in [
            ("dense", ConvWeights::Dense(&dense_w), &dense_w),
            ("kept-rows", ConvWeights::DenseRows(&kept), &rows_w),
        ] {
            out.as_mut_slice().fill(f32::NAN);
            conv2d(&x, form, Some(&bias), relu, &params, &mut ws, &mut out).unwrap();
            let seed = seed_composition(&x, w, &bias, relu, &params, false);
            assert!(
                bits(&out) == bits(&seed),
                "{name} relu={relu}: vs seed path"
            );
            let mut oracle = conv2d_direct(&x, w, Some(&bias), &params).unwrap();
            if relu {
                relu_pass(&mut oracle);
            }
            let diff = out.max_abs_diff(&oracle).unwrap();
            assert!(diff < 1e-3, "{name} relu={relu}: {diff} from the oracle");
        }
    }
}

/// The narrowed bands drop exactly the products of a weight and a `+0`
/// input: with the dead input planes zeroed, they are bitwise the
/// forms that multiply every channel — `Dense` in f32, the full
/// dense-i8 bands in int8 — on the same zero-row weights.
#[test]
fn narrowed_bands_are_bitwise_dense_on_zeroed_input_planes() {
    // Two groups of 5 input channels and 6 filters; filters 1, 4, 5
    // and 8 pruned leave 3 and 5 kept rows.
    let params = Conv2dParams::grouped(10, 12, 3, 1, 1, 2);
    let w = filter_pruned(&params, &[1, 4, 5, 8]);
    let bias: Vec<f32> = (0..12).map(|i| i as f32 * 0.05 - 0.3).collect();
    let full_q = ConvWeights::i8_bands(&w, &params, &[]).unwrap();
    // Uneven live counts (2 and 4), then a whole group dead.
    for (dead, live) in [
        (&[0, 2, 3, 6][..], [&[1, 4][..], &[0, 2, 3, 4][..]]),
        (&[0, 1, 2, 3, 4, 9][..], [&[][..], &[0, 1, 2, 3][..]]),
    ] {
        let kept = ConvWeights::kept_row_bands(&w, &params, dead).unwrap();
        let kept_q = ConvWeights::i8_bands(&w, &params, dead).unwrap();
        for (g, live) in live.iter().enumerate() {
            assert_eq!(kept[g].live(), *live, "dead {dead:?} group {g}");
            assert_eq!(kept_q[g].live(), *live, "dead {dead:?} group {g}");
        }
        for path in kernels::available_paths() {
            kernels::force(Some(path));
            for batch in [1, 8] {
                let mut x = input(batch, 10, 9, 7);
                let plane = 9 * 7;
                for n in 0..batch {
                    for &c in dead {
                        x.image_mut(n)[c * plane..(c + 1) * plane].fill(0.0);
                    }
                }
                let act_scale = symmetric_scale(x.as_slice());
                for threads in [1, 2, 3] {
                    let mut ws = Workspace::new();
                    ws.team = (threads > 1).then(|| Team::new(threads).with_min_part_macs(0));
                    for relu in [false, true] {
                        let mut run = |form: ConvWeights<'_>| {
                            let mut out = Tensor4::zeros(batch, 12, 9, 7);
                            out.as_mut_slice().fill(f32::NAN);
                            conv2d(&x, form, Some(&bias), relu, &params, &mut ws, &mut out)
                                .unwrap();
                            bits(&out)
                        };
                        let case = format!(
                            "dead {dead:?} {} batch {batch} team {threads} relu {relu}",
                            path.name()
                        );
                        let dense = run(ConvWeights::Dense(&w));
                        assert!(run(ConvWeights::DenseRows(&kept)) == dense, "f32 {case}");
                        let full = run(ConvWeights::DenseI8 {
                            bands: &full_q,
                            act_scale,
                        });
                        let narrowed = run(ConvWeights::DenseI8 {
                            bands: &kept_q,
                            act_scale,
                        });
                        assert!(narrowed == full, "int8 {case}");
                    }
                }
            }
        }
        kernels::force(None);
    }

    // A non-finite weight on a dead channel keeps that channel's column
    // (`inf·0` is NaN, which dropping the product would hide), in both
    // forms; f32 then reads the NaN the dense form reads.
    let mut hot = w.clone();
    hot.set(0, 2 * 9 + 4, f32::INFINITY);
    let dead = [0, 2, 3, 6];
    let kept = ConvWeights::kept_row_bands(&hot, &params, &dead).unwrap();
    let kept_q = ConvWeights::i8_bands(&hot, &params, &dead).unwrap();
    for g in 0..2 {
        let want: &[usize] = if g == 0 { &[1, 2, 4] } else { &[0, 2, 3, 4] };
        assert_eq!(kept[g].live(), want);
        assert_eq!(kept_q[g].live(), want);
    }
    let mut x = input(1, 10, 9, 7);
    for &c in &dead {
        x.image_mut(0)[c * 63..(c + 1) * 63].fill(0.0);
    }
    let mut ws = Workspace::new();
    let mut run = |form: ConvWeights<'_>| {
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        conv2d(&x, form, Some(&bias), false, &params, &mut ws, &mut out).unwrap();
        out
    };
    let (dense, narrowed) = (
        run(ConvWeights::Dense(&hot)),
        run(ConvWeights::DenseRows(&kept)),
    );
    assert!(dense.image(0)[..63].iter().all(|v| v.is_nan()));
    for (d, n) in dense.as_slice().iter().zip(narrowed.as_slice()) {
        assert!(d.to_bits() == n.to_bits() || d.is_nan() && n.is_nan());
    }
}
