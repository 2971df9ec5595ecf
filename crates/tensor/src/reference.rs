//! Naive reference implementations — correctness oracles for the
//! parity suites and baseline arms for the ablation benches.
//!
//! Nothing on a production path calls into this module; tests and
//! benches import it explicitly (`cap_tensor::reference::…`). The loops
//! are written for obviousness, not speed, and share no code with the
//! kernels they check. They also keep a separate multiply and add where
//! the kernels fuse them (the FMA contract of [`crate::kernels`]): they
//! bound the kernels' error within a tolerance, never bit for bit.

use crate::conv::Conv2dParams;
use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
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

/// Naive triple-loop GEMM — the oracle for [`crate::gemm()`].
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
                let v = c.get(r, cc) + aik * b.get(kk, cc);
                c.set(r, cc, v);
            }
        }
    }
    Ok(c)
}
