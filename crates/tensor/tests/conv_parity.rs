//! Table-driven parity for the one convolution driver.
//!
//! Every im2col [`ConvWeights`] form {dense-f32, dense-i8} on dense and
//! on half-zero weights ×
//! {no ReLU, fused ReLU} × groups {1, 2} × batch {1, 3} runs through
//! [`conv2d`] and is held against the direct sliding-window oracle
//! ([`conv2d_direct`]), which shares no code with it:
//!
//! * f32 forms: within 1e-4 of the oracle, and **bitwise** equal to the
//!   allocating seed composition the driver replaced — per image and
//!   group, `im2col` → `gemm_naive` → a separate bias pass → a separate
//!   ReLU pass.
//!   That is the fusion contract (fused == unfused + passes) and the
//!   packed-vs-unpacked contract in one assertion.
//! * dense-i8, on dense and on half-zero weights: within the int8
//!   bound (0.2 absolute on unit-scale data) of the oracle.
//!
//! * bands of uneven widths (a narrowed grouped conv: kept filters and
//!   kept input channels per group, a group with no input channel
//!   left): f32 bands **bitwise** `Dense`, and dense-i8 bitwise
//!   the full dense-i8 bands, on the full zero-row weights with the
//!   removed input planes zeroed, on every kernel path, at batch 1 and
//!   8, on teams of one to three threads; bands whose widths do not add
//!   up to the geometry are a shape error.
//!
//! * dense f32, as one matrix and as bands, on one geometry whose patch
//!   matrix spans three column strips of the packed GEMM: **bitwise**
//!   the seed composition (the strip walk only reorders tiles).
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
    conv2d, gemm_i8, im2col, pack_b_i8_into, symmetric_scale, Conv2dParams, ConvWeights, EpiBias,
    Epilogue, I8Storage, Matrix, QuantizedA, Team, Tensor4, Workspace,
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
            let prod = gemm_naive(&band, &cols).unwrap();
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
        let dense_q = ConvWeights::i8_bands(&dense_w, &params).unwrap();
        let pruned_q = ConvWeights::i8_bands(&pruned_w, &params).unwrap();

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

                for (name, w) in [("dense-f32", &dense_w), ("pruned dense-f32", &pruned_w)] {
                    let got = run(ConvWeights::Dense(w));
                    let diff = got.max_abs_diff(&oracle(w)).unwrap();
                    assert!(diff < 1e-4, "{name} {case}: {diff} from the oracle");
                    let seed = seed_composition(&x, w, &bias, relu, &params);
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
                let dense_q = ConvWeights::i8_bands(&dense_w, &params).unwrap();
                let pruned_q = ConvWeights::i8_bands(&pruned_w, &params).unwrap();
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
                            ws.qimage.clear();
                            ws.qimage.resize(8192, 77);
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

/// A patch matrix wider than two column strips of the packed GEMM
/// (`k` = 64·3·3 = 576 taps puts 28 panels in a 512 KiB strip; 22×22
/// output pixels are 61 panels — strips of 28, 28 and 5 with a ragged
/// last panel), six filters so a 4-row block and two trailing rows
/// cross every strip: the dense form, as one matrix and as a band,
/// stays bitwise the unpacked seed composition (`gemm_naive`),
/// epilogue included.
#[test]
fn dense_forms_are_bitwise_the_seed_path_across_column_strips() {
    let params = Conv2dParams::grouped(64, 6, 3, 1, 1, 1);
    let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.05 - 0.1).collect();
    let x = input(2, 64, 22, 22);
    let mut ws = Workspace::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    let dense_w = weights(&params, false);
    let rows_w = filter_pruned(&params, &[1, 4]);
    let band = [rows_w.clone()];
    for relu in [false, true] {
        for (name, form, w) in [
            ("dense", ConvWeights::Dense(&dense_w), &dense_w),
            ("band", ConvWeights::Bands(&band), &rows_w),
        ] {
            out.as_mut_slice().fill(f32::NAN);
            conv2d(&x, form, Some(&bias), relu, &params, &mut ws, &mut out).unwrap();
            let seed = seed_composition(&x, w, &bias, relu, &params);
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

/// Bands of uneven widths — a narrowed grouped conv, each group with
/// its own kept filters and kept input channels — drop exactly the
/// products of a weight and a `+0` input: on the narrowed input they
/// are bitwise the full forms on the full zero-row weights with the
/// removed input planes zeroed, at the kept output channels — f32
/// bands against `Dense`, int8 bands (quantized at the full
/// weights' scale) against the full dense-i8 bands. A group left no
/// input channel is its bias through the epilogue.
#[test]
fn uneven_bands_are_bitwise_the_full_forms_on_zeroed_planes() {
    // Two groups of 5 input channels and 6 filters; filters 1, 4, 5
    // and 8 pruned leave 3 and 5 kept rows.
    let params = Conv2dParams::grouped(10, 12, 3, 1, 1, 2);
    let pruned_rows = [1, 4, 5, 8];
    let w = filter_pruned(&params, &pruned_rows);
    let bias: Vec<f32> = (0..12).map(|i| i as f32 * 0.05 - 0.3).collect();
    let full_q = ConvWeights::i8_bands(&w, &params).unwrap();
    let scale = symmetric_scale(w.as_slice());
    let kept_rows: Vec<usize> = (0..12).filter(|r| !pruned_rows.contains(r)).collect();
    let kept_bias: Vec<f32> = kept_rows.iter().map(|&r| bias[r]).collect();
    // Uneven kept inputs (2 and 4), then none in group 0.
    for gone in [&[0, 2, 3, 6][..], &[0, 1, 2, 3, 4, 9]] {
        let kept_in: Vec<usize> = (0..10).filter(|c| !gone.contains(c)).collect();
        let bands: Vec<Matrix> = (0..2)
            .map(|g| {
                let mut band = Matrix::from_fn(6, 45, |r, c| w.get(g * 6 + r, c));
                band.retain(
                    |r| !pruned_rows.contains(&(g * 6 + r)),
                    |c| !gone.contains(&(g * 5 + c / 9)),
                );
                band
            })
            .collect();
        let narrowed = Conv2dParams {
            in_channels: kept_in.len(),
            out_channels: kept_rows.len(),
            ..params
        };
        let q: Vec<QuantizedA> = bands
            .iter()
            .map(|b| QuantizedA::quantize(b.as_slice(), b.rows(), b.cols(), scale))
            .collect();
        for path in kernels::available_paths() {
            kernels::force(Some(path));
            for batch in [1, 8] {
                let full_x = Tensor4::from_fn(batch, 10, 9, 7, |n, c, h, wd| {
                    if gone.contains(&c) {
                        0.0
                    } else {
                        input(batch, 10, 9, 7).get(n, c, h, wd)
                    }
                });
                let x = Tensor4::from_fn(batch, kept_in.len(), 9, 7, |n, c, h, wd| {
                    full_x.get(n, kept_in[c], h, wd)
                });
                let act_scale = symmetric_scale(x.as_slice());
                for threads in [1, 2, 3] {
                    let mut ws = Workspace::new();
                    ws.team = (threads > 1).then(|| Team::new(threads).with_min_part_macs(0));
                    for relu in [false, true] {
                        let case = format!(
                            "gone {gone:?} {} batch {batch} team {threads} relu {relu}",
                            path.name()
                        );
                        let mut full = |form: ConvWeights<'_>| {
                            let mut out = Tensor4::zeros(0, 0, 0, 0);
                            conv2d(&full_x, form, Some(&bias), relu, &params, &mut ws, &mut out)
                                .unwrap();
                            // The kept channels of every image.
                            let plane = 9 * 7;
                            (0..batch)
                                .flat_map(|n| {
                                    let img = out.image(n).to_vec();
                                    kept_rows
                                        .iter()
                                        .flat_map(move |&r| {
                                            img[r * plane..(r + 1) * plane].to_vec()
                                        })
                                        .collect::<Vec<_>>()
                                })
                                .map(f32::to_bits)
                                .collect::<Vec<_>>()
                        };
                        let dense = full(ConvWeights::Dense(&w));
                        let full_i8 = full(ConvWeights::DenseI8 {
                            bands: &full_q,
                            act_scale,
                        });
                        let mut run = |form: ConvWeights<'_>| {
                            let mut out = Tensor4::zeros(batch, 8, 9, 7);
                            out.as_mut_slice().fill(f32::NAN);
                            let b = Some(&kept_bias[..]);
                            conv2d(&x, form, b, relu, &narrowed, &mut ws, &mut out).unwrap();
                            bits(&out)
                        };
                        assert!(run(ConvWeights::Bands(&bands)) == dense, "f32 {case}");
                        let int8 = run(ConvWeights::DenseI8 {
                            bands: &q,
                            act_scale,
                        });
                        assert!(int8 == full_i8, "int8 {case}");
                    }
                }
            }
        }
        kernels::force(None);
    }

    // Widths that do not add up to the geometry, or a band that is not
    // whole kernels deep, are refused.
    let band = |rows, cols| Matrix::zeros(rows, cols);
    let x = input(1, 10, 9, 7);
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    for bands in [
        vec![band(6, 45), band(5, 45)],
        vec![band(6, 45), band(6, 36)],
        vec![band(6, 45), band(6, 44)],
        vec![band(12, 90)],
    ] {
        let form = ConvWeights::Bands(&bands);
        let err = conv2d(
            &x,
            form,
            None,
            false,
            &params,
            &mut Workspace::new(),
            &mut out,
        );
        assert!(
            err.is_err(),
            "{:?}",
            bands.iter().map(Matrix::shape).collect::<Vec<_>>()
        );
    }
}
