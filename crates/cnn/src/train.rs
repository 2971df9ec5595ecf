//! Training primitives: backward passes for conv / fc / relu / maxpool,
//! softmax–cross-entropy loss, and SGD with momentum.
//!
//! The paper consumes *trained* CNNs; since no trained Caffe weights are
//! available here, [`SequentialNet`] trains a small CNN for real on
//! synthetic data so that accuracy-vs-pruning curves can be measured
//! end-to-end rather than only modelled. Training ends at
//! [`SequentialNet::to_network`]: inference, and every timed pass, is
//! [`crate::Network`]'s.

pub mod sequential;

pub use sequential::{SequentialBuilder, SequentialNet, TrainLayer};

use cap_tensor::{
    col2im, conv2d, gemm, im2col, Conv2dParams, ConvWeights, Matrix, ShapeError, Tensor4,
    TensorResult, Workspace,
};
use std::collections::HashMap;

/// Gradients produced by [`conv_backward`].
pub struct ConvGrad {
    /// Weight gradient, same shape as the weight matrix.
    pub dw: Matrix,
    /// Bias gradient, one entry per output channel.
    pub db: Vec<f32>,
    /// Input gradient, same shape as the forward input.
    pub dx: Tensor4,
}

/// Gradients produced by [`fc_backward`].
pub struct FcGrad {
    /// Weight gradient (`out × in`).
    pub dw: Matrix,
    /// Bias gradient (`out`).
    pub db: Vec<f32>,
    /// Input gradient (`batch × in`).
    pub dx: Matrix,
}

/// Forward convolution for the training path: [`conv2d`] (bias added,
/// no ReLU) into a fresh tensor with throwaway scratch — training keeps
/// every activation for the backward pass, so there is nothing to reuse.
pub fn conv_forward(
    input: &Tensor4,
    weights: ConvWeights<'_>,
    bias: &[f32],
    params: &Conv2dParams,
) -> TensorResult<Tensor4> {
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    conv2d(
        input,
        weights,
        Some(bias),
        false,
        params,
        &mut Workspace::new(),
        &mut out,
    )?;
    Ok(out)
}

/// Backward pass of an ungrouped convolution.
///
/// Given the forward input, upstream gradient `dy` (shape = forward
/// output), and weights, returns gradients w.r.t. weights, bias and input
/// using the same im2col lowering as the forward pass:
/// `dW = dY · colsᵀ`, `dcols = Wᵀ · dY`, `dX = col2im(dcols)`.
pub fn conv_backward(
    input: &Tensor4,
    dy: &Tensor4,
    weights: &Matrix,
    params: &Conv2dParams,
) -> TensorResult<ConvGrad> {
    if params.groups != 1 {
        return Err(ShapeError::new(
            "conv_backward: grouped convolution not supported in the training path",
        ));
    }
    let (n, c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    if dy.shape() != (n, params.out_channels, oh, ow) {
        return Err(ShapeError::new(format!(
            "conv_backward: dy shape {:?}, expected {:?}",
            dy.shape(),
            (n, params.out_channels, oh, ow)
        )));
    }
    let n_out = oh * ow;
    let mut dw = Matrix::zeros(weights.rows(), weights.cols());
    let mut db = vec![0.0_f32; params.out_channels];
    let mut dx = Tensor4::zeros(n, c, h, w);
    let wt = weights.transpose();
    for ni in 0..n {
        let cols = im2col(
            input.image(ni),
            c,
            h,
            w,
            params.kh,
            params.kw,
            params.pad,
            params.stride,
        )?;
        let dy_img = Matrix::from_vec(params.out_channels, n_out, dy.image(ni).to_vec())?;
        // dW accumulation: dY (oc × n_out) * colsᵀ (n_out × ck²).
        let dw_img = gemm(&dy_img, &cols.transpose())?;
        dw.axpy(1.0, &dw_img)?;
        // db accumulation: row sums of dY.
        for (oc, dbv) in db.iter_mut().enumerate() {
            *dbv += dy_img.row(oc).iter().sum::<f32>();
        }
        // dX: col2im(Wᵀ · dY).
        let dcols = gemm(&wt, &dy_img)?;
        let dx_img = col2im(
            &dcols,
            c,
            h,
            w,
            params.kh,
            params.kw,
            params.pad,
            params.stride,
        )?;
        dx.image_mut(ni).copy_from_slice(&dx_img);
    }
    Ok(ConvGrad { dw, db, dx })
}

/// Backward pass of a fully-connected layer `y = x Wᵀ + b`.
///
/// `x: batch × in`, `dy: batch × out`, `w: out × in`.
pub fn fc_backward(x: &Matrix, dy: &Matrix, w: &Matrix) -> TensorResult<FcGrad> {
    if x.rows() != dy.rows() {
        return Err(ShapeError::new(format!(
            "fc_backward: batch {} vs {}",
            x.rows(),
            dy.rows()
        )));
    }
    if w.shape() != (dy.cols(), x.cols()) {
        return Err(ShapeError::new(format!(
            "fc_backward: weights {:?}, expected {:?}",
            w.shape(),
            (dy.cols(), x.cols())
        )));
    }
    let dw = gemm(&dy.transpose(), x)?; // out × in
    let mut db = vec![0.0_f32; dy.cols()];
    for r in 0..dy.rows() {
        for (c, dbv) in db.iter_mut().enumerate() {
            *dbv += dy.get(r, c);
        }
    }
    let dx = gemm(dy, w)?; // batch × in
    Ok(FcGrad { dw, db, dx })
}

/// Backward pass of ReLU: gradient passes where the forward *input* was
/// positive.
pub fn relu_backward(forward_input: &[f32], dy: &[f32]) -> Vec<f32> {
    forward_input
        .iter()
        .zip(dy.iter())
        .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
        .collect()
}

/// Backward pass of max pooling: routes each output gradient to the
/// argmax input element recorded during the forward pass.
pub fn maxpool_backward(input_len: usize, argmax: &[usize], dy: &[f32]) -> TensorResult<Vec<f32>> {
    if argmax.len() != dy.len() {
        return Err(ShapeError::new(format!(
            "maxpool_backward: {} argmax vs {} dy",
            argmax.len(),
            dy.len()
        )));
    }
    let mut dx = vec![0.0_f32; input_len];
    for (&idx, &g) in argmax.iter().zip(dy.iter()) {
        if idx != usize::MAX {
            if idx >= input_len {
                return Err(ShapeError::new("maxpool_backward: argmax out of range"));
            }
            dx[idx] += g;
        }
    }
    Ok(dx)
}

/// Softmax + cross-entropy: returns `(mean loss, dlogits)` where
/// `dlogits = (softmax(logits) - onehot) / batch`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> TensorResult<(f32, Matrix)> {
    if logits.rows() != labels.len() {
        return Err(ShapeError::new(format!(
            "softmax_ce: {} rows vs {} labels",
            logits.rows(),
            labels.len()
        )));
    }
    let classes = logits.cols();
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(ShapeError::new(format!(
            "softmax_ce: label {bad} out of range for {classes} classes"
        )));
    }
    let batch = logits.rows();
    let mut probs = logits.clone();
    cap_tensor::ops::softmax_rows(&mut probs);
    let mut loss = 0.0_f32;
    let mut grad = probs.clone();
    for (r, &label) in labels.iter().enumerate() {
        loss += cap_tensor::ops::cross_entropy(probs.row(r), label);
        let g = grad.get(r, label) - 1.0;
        grad.set(r, label, g);
    }
    grad.scale(1.0 / batch.max(1) as f32);
    Ok((loss / batch.max(1) as f32, grad))
}

/// SGD with classical momentum, keyed per-parameter-tensor.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: HashMap<String, Vec<f32>>,
}

impl Sgd {
    /// Create an optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }

    /// Apply one update step: `v = momentum*v - lr*g; p += v`.
    ///
    /// `key` identifies the parameter tensor across steps (for its
    /// velocity buffer); `mask` (when given) freezes pruned weights at
    /// zero so fine-tuning after pruning keeps sparsity.
    pub fn step(&mut self, key: &str, params: &mut [f32], grads: &[f32], mask: Option<&[f32]>) {
        assert_eq!(params.len(), grads.len(), "sgd: param/grad length mismatch");
        let v = self
            .velocity
            .entry(key.to_string())
            .or_insert_with(|| vec![0.0; params.len()]);
        assert_eq!(v.len(), params.len(), "sgd: velocity length changed");
        for i in 0..params.len() {
            v[i] = self.momentum * v[i] - self.lr * grads[i];
            params[i] += v[i];
            if let Some(m) = mask {
                params[i] *= m[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_tensor::init::xavier_uniform;
    use cap_tensor::{max_pool2d_indices, Pool2dParams};

    /// Central-difference numerical gradient of a scalar loss w.r.t. one
    /// weight element.
    fn numeric_grad(mut f: impl FnMut(f32) -> f32, x0: f32) -> f32 {
        let eps = 1e-3;
        (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps)
    }

    #[test]
    fn conv_backward_matches_numeric() {
        let params = Conv2dParams::new(2, 3, 3, 1, 1);
        let input = Tensor4::from_fn(2, 2, 4, 4, |n, c, h, w| {
            ((n * 5 + c * 3 + h * 2 + w) % 7) as f32 / 7.0 - 0.4
        });
        let weights = xavier_uniform(3, 18, 21);
        let bias = vec![0.0; 3];
        // Loss = sum of outputs; so dy = ones.
        let out = conv_forward(&input, ConvWeights::Dense(&weights), &bias, &params).unwrap();
        let dy =
            Tensor4::from_vec(out.n(), out.c(), out.h(), out.w(), vec![1.0; out.len()]).unwrap();
        let grad = conv_backward(&input, &dy, &weights, &params).unwrap();

        // Check a few weight elements numerically.
        for &(r, c) in &[(0usize, 0usize), (1, 7), (2, 17)] {
            let w0 = weights.get(r, c);
            let num = numeric_grad(
                |v| {
                    let mut wmod = weights.clone();
                    wmod.set(r, c, v);
                    conv_forward(&input, ConvWeights::Dense(&wmod), &bias, &params)
                        .unwrap()
                        .as_slice()
                        .iter()
                        .sum::<f32>()
                },
                w0,
            );
            let ana = grad.dw.get(r, c);
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + num.abs()),
                "dW[{r},{c}] numeric {num} vs analytic {ana}"
            );
        }
        // And an input element.
        let idx = 13;
        let x0 = input.as_slice()[idx];
        let num = numeric_grad(
            |v| {
                let mut xmod = input.clone();
                xmod.as_mut_slice()[idx] = v;
                conv_forward(&xmod, ConvWeights::Dense(&weights), &bias, &params)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .sum::<f32>()
            },
            x0,
        );
        let ana = grad.dx.as_slice()[idx];
        assert!((num - ana).abs() < 0.05 * (1.0 + num.abs()));
        // Bias gradient for "sum" loss = number of output positions per channel * batch.
        let expected_db = (out.h() * out.w() * out.n()) as f32;
        for &dbv in &grad.db {
            assert!((dbv - expected_db).abs() < 1e-2);
        }
    }

    #[test]
    fn conv_backward_rejects_groups() {
        let params = Conv2dParams::grouped(4, 4, 3, 1, 1, 2);
        let input = Tensor4::zeros(1, 4, 4, 4);
        let dy = Tensor4::zeros(1, 4, 4, 4);
        let w = Matrix::zeros(4, 18);
        assert!(conv_backward(&input, &dy, &w, &params).is_err());
    }

    #[test]
    fn fc_backward_matches_numeric() {
        let x = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) / 3.0);
        let w = xavier_uniform(2, 4, 5);
        // Loss = sum(x Wᵀ) -> dy = ones.
        let dy = Matrix::full(3, 2, 1.0);
        let grad = fc_backward(&x, &dy, &w).unwrap();
        for &(r, c) in &[(0usize, 0usize), (1, 3)] {
            let w0 = w.get(r, c);
            let num = numeric_grad(
                |v| {
                    let mut wmod = w.clone();
                    wmod.set(r, c, v);
                    gemm(&x, &wmod.transpose())
                        .unwrap()
                        .as_slice()
                        .iter()
                        .sum::<f32>()
                },
                w0,
            );
            assert!((num - grad.dw.get(r, c)).abs() < 1e-2);
        }
        // db = batch count per output.
        assert!(grad.db.iter().all(|&v| (v - 3.0).abs() < 1e-5));
        assert_eq!(grad.dx.shape(), (3, 4));
    }

    #[test]
    fn relu_backward_masks() {
        let dx = relu_backward(&[-1.0, 0.0, 2.0], &[5.0, 5.0, 5.0]);
        assert_eq!(dx, vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let input = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 9.0, 2.0, 3.0]).unwrap();
        let (_, argmax) = max_pool2d_indices(&input, &Pool2dParams::new(2, 0, 2)).unwrap();
        let dx = maxpool_backward(4, &argmax, &[7.0]).unwrap();
        assert_eq!(dx, vec![0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_ce_gradient_shape_and_direction() {
        let logits = Matrix::from_vec(2, 3, vec![2.0, 1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2]).unwrap();
        assert!(loss > 0.0);
        // Gradient at the true class is negative (push logit up).
        assert!(grad.get(0, 0) < 0.0);
        assert!(grad.get(1, 2) < 0.0);
        // Rows sum to ~0.
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_ce_matches_numeric() {
        let logits = Matrix::from_vec(1, 4, vec![0.5, -0.3, 0.2, 0.1]).unwrap();
        let labels = [2usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        for c in 0..4 {
            let l0 = logits.get(0, c);
            let num = numeric_grad(
                |v| {
                    let mut lm = logits.clone();
                    lm.set(0, c, v);
                    softmax_cross_entropy(&lm, &labels).unwrap().0
                },
                l0,
            );
            assert!((num - grad.get(0, c)).abs() < 1e-2, "logit {c}");
        }
    }

    #[test]
    fn sgd_descends_quadratic() {
        // Minimize f(p) = p² with gradient 2p.
        let mut sgd = Sgd::new(0.1, 0.9);
        let mut p = vec![5.0_f32];
        for _ in 0..100 {
            let g = vec![2.0 * p[0]];
            sgd.step("p", &mut p, &g, None);
        }
        assert!(p[0].abs() < 0.1, "p = {}", p[0]);
    }

    #[test]
    fn sgd_mask_freezes_pruned_weights() {
        let mut sgd = Sgd::new(0.1, 0.0);
        let mut p = vec![0.0_f32, 1.0];
        let mask = vec![0.0_f32, 1.0];
        sgd.step("p", &mut p, &[1.0, 1.0], Some(&mask));
        assert_eq!(p[0], 0.0);
        assert!((p[1] - 0.9).abs() < 1e-6);
    }
}
