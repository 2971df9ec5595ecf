//! Naive reference implementations — correctness oracles for the
//! parity suites and baseline arms for the ablation benches.
//!
//! Nothing on a production path calls into this module; tests and
//! benches import it explicitly (`cap_tensor::reference::…`). The loops
//! are written for obviousness, not speed, and share no code with the
//! kernels they check. All but one keep a separate multiply and add
//! where the kernels fuse them (the FMA contract of
//! [`crate::kernels`]): they bound the kernels' error within a
//! tolerance, never bit for bit. The exception is [`gemm_naive`], which
//! fuses each step as the contract does, so the packed GEMM is pinned
//! to it bit for bit.

use crate::conv::Conv2dParams;
use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::pool::LrnParams;
use crate::tensor4::Tensor4;

/// Direct (sliding-window) convolution — the oracle for
/// [`crate::conv2d`] and the baseline arm of the `conv_strategy`
/// ablation bench.
///
/// `weights` is `out_channels × (in_per_group*kh*kw)`; `bias`, when
/// given, has one entry per output channel.
pub fn conv2d_direct(
    input: &Tensor4,
    weights: &Matrix,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> TensorResult<Tensor4> {
    params.validate()?;
    params.check_weights(weights.shape())?;
    params.check_io(input, bias)?;
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    let mut out = Tensor4::zeros(n, params.out_channels, oh, ow);
    let cpg = params.in_per_group();
    let opg = params.out_per_group();
    for ni in 0..n {
        for oc in 0..params.out_channels {
            let g = oc / opg;
            let wrow = weights.row(oc);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b[oc]);
                    for icg in 0..cpg {
                        let ic = g * cpg + icg;
                        for ky in 0..params.kh {
                            let iy = (oy * params.stride + ky) as isize - params.pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..params.kw {
                                let ix = (ox * params.stride + kx) as isize - params.pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let wv = wrow[(icg * params.kh + ky) * params.kw + kx];
                                acc += wv * input.get(ni, ic, iy as usize, ix as usize);
                            }
                        }
                    }
                    out.set(ni, oc, oy, ox, acc);
                }
            }
        }
    }
    Ok(out)
}

/// Convolution in `f64` — the oracle every f32 form of
/// [`crate::conv2d`] is bounded against (im2col + GEMM and Winograd
/// alike): each output's window summed tap by tap in `f64`, then the
/// bias added and, with `relu`, negatives clamped to zero. Returns the
/// outputs in NCHW order, unrounded to `f32`, so a test can measure a
/// kernel's relative error rather than compare bits. Shares no code
/// with the kernels, nor with [`conv2d_direct`] (which sums in f32).
pub fn conv2d_f64(
    input: &Tensor4,
    weights: &Matrix,
    bias: Option<&[f32]>,
    relu: bool,
    params: &Conv2dParams,
) -> TensorResult<Vec<f64>> {
    params.validate()?;
    params.check_weights(weights.shape())?;
    params.check_io(input, bias)?;
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    let (cpg, opg) = (params.in_per_group(), params.out_per_group());
    let (kh, kw, pad, stride) = (params.kh, params.kw, params.pad, params.stride);
    let mut out = Vec::with_capacity(n * params.out_channels * oh * ow);
    for ni in 0..n {
        for oc in 0..params.out_channels {
            let g = oc / opg;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f64;
                    for icg in 0..cpg {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                                if iy < pad || ix < pad || iy - pad >= h || ix - pad >= w {
                                    continue;
                                }
                                let x = input.get(ni, g * cpg + icg, iy - pad, ix - pad);
                                let wv = weights.get(oc, (icg * kh + ky) * kw + kx);
                                acc += f64::from(wv) * f64::from(x);
                            }
                        }
                    }
                    let v = acc + bias.map_or(0.0, |b| f64::from(b[oc]));
                    out.push(if !relu || v > 0.0 { v } else { 0.0 });
                }
            }
        }
    }
    Ok(out)
}

/// Naive triple-loop GEMM — the oracle for [`crate::gemm()`] and every
/// packed GEMM path: each output element is one chain of
/// `f32::mul_add` steps in ascending `kk` from `+0.0`, every term taken
/// (zeros of `A` included), which is the FMA contract's arithmetic, so
/// the kernels match it bit for bit.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(ShapeError::new(format!(
            "gemm_naive: inner dims {}x{} * {}x{}",
            m, ka, kb, n
        )));
    }
    let mut c = Matrix::zeros(m, n);
    for r in 0..m {
        for kk in 0..ka {
            let aik = a.get(r, kk);
            for cc in 0..n {
                let v = aik.mul_add(b.get(kk, cc), c.get(r, cc));
                c.set(r, cc, v);
            }
        }
    }
    Ok(c)
}

/// Across-channel local response normalization in `f64` — the oracle
/// for [`crate::lrn_into`]: every element's window rescanned over its
/// `local_size` channels (clipped at the first and last), no sliding
/// sums, and the power taken with `f64::powf`. Returns the outputs in
/// NCHW order, unrounded to `f32`, so a test can measure the kernel's
/// relative error rather than compare bits.
pub fn lrn(input: &Tensor4, params: &LrnParams) -> TensorResult<Vec<f64>> {
    params.validate()?;
    let (n, c, h, w) = input.shape();
    let half = params.local_size / 2;
    let scale = f64::from(params.alpha) / params.local_size as f64;
    let mut out = Vec::with_capacity(input.len());
    for ni in 0..n {
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let window = ci.saturating_sub(half)..(ci + half + 1).min(c);
                    let sum: f64 = window
                        .map(|cj| f64::from(input.get(ni, cj, y, x)).powi(2))
                        .sum();
                    let d = f64::from(params.k) + scale * sum;
                    out.push(f64::from(input.get(ni, ci, y, x)) / d.powf(f64::from(params.beta)));
                }
            }
        }
    }
    Ok(out)
}
