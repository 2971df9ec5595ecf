//! Fully-connected (Caffe "InnerProduct") layer.

use super::{ChwShape, Layer, LayerKind};
use cap_tensor::{
    gemm_i8, gemm_packed, precision, quantize_rows_into, symmetric_scale, team, CalibrationMethod,
    CsrMatrix, EpiBias, Epilogue, Matrix, PackedB, PackedBI8, Precision, ShapeError, Tensor4,
    TensorResult, Workspace,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Weight sparsity above which the CSR matvec beats the packed dense
/// GEMV at batch 1. Both sides are bandwidth-bound (the dense one
/// streams every weight once, the sparse one each stored value plus a
/// column index, through a scalar kernel), so this is not the conv
/// crossover: measured at 0.8 on the Caffenet fc7 shape by `cargo bench
/// -p cap-bench --bench conv_strategy -- fc_form` (table in
/// EXPERIMENTS.md "PR 14").
pub const FC_SPARSE_THRESHOLD: f64 = 0.8;

/// Fully-connected layer: flattens each image to a vector and applies
/// `y = W x + b` with `W: out × in`.
///
/// Like [`super::ConvLayer`], weights pruned past a measured sparsity
/// ([`FC_SPARSE_THRESHOLD`]) switch execution to the CSR kernel, and
/// that choice is made once, when the weights are set — never per
/// forward.
pub struct InnerProductLayer {
    name: String,
    in_features: usize,
    out_features: usize,
    weights: Matrix,
    /// Panel-packed transpose of `weights` (`in × out`): the dense
    /// forward computes `Y = X · Wᵀ`, whose GEMM inner loop runs along
    /// the `out` dimension and vectorizes even at batch 1 (computing
    /// `W · Xᵀ` instead degenerates to single-column GEMM). Packing
    /// happens once here, not per forward call.
    packed_t: PackedB,
    bias: Vec<f32>,
    /// `weights.sparsity(0.0) > FC_SPARSE_THRESHOLD`, as of the last
    /// `new`/`set_weights`.
    sparse: bool,
    /// CSR view of `weights`, built on the first sparse forward;
    /// dropped by `set_weights`.
    csr: OnceLock<CsrMatrix>,
    /// Int8 quantization of the packed transpose, built on the first
    /// dense int8 forward (lazy: `precision::force` can flip the
    /// precision at run time); dropped by `set_weights`.
    packed_t_i8: OnceLock<PackedBI8>,
    /// Calibrated input-activation scale as f32 bits; 0 (= 0.0) means
    /// uncalibrated (per-call max-abs fallback).
    act_scale: AtomicU32,
}

impl InnerProductLayer {
    /// Create a fully-connected layer; validates shapes.
    pub fn new(name: impl Into<String>, weights: Matrix, bias: Vec<f32>) -> TensorResult<Self> {
        let (out_features, in_features) = weights.shape();
        if bias.len() != out_features {
            return Err(ShapeError::new(format!(
                "fc layer: bias length {} != out_features {}",
                bias.len(),
                out_features
            )));
        }
        let packed_t = PackedB::pack_transposed(&weights);
        Ok(Self {
            name: name.into(),
            in_features,
            out_features,
            sparse: weights.sparsity(0.0) > FC_SPARSE_THRESHOLD,
            weights,
            packed_t,
            bias,
            csr: OnceLock::new(),
            packed_t_i8: OnceLock::new(),
            act_scale: AtomicU32::new(0),
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    fn csr(&self) -> &CsrMatrix {
        self.csr
            .get_or_init(|| CsrMatrix::from_dense(&self.weights, 0.0))
    }

    fn packed_t_i8(&self) -> &PackedBI8 {
        // Packed from W's rows directly: an f32 transpose of fc6 would
        // be 151 MB built only to be quantized and dropped.
        self.packed_t_i8.get_or_init(|| {
            PackedBI8::pack_transposed(&self.weights, symmetric_scale(self.weights.as_slice()))
        })
    }

    /// Calibrated activation scale, or a deterministic per-call max-abs
    /// estimate over the whole input when no calibration pass has run.
    fn act_scale_for(&self, input: &Tensor4) -> f32 {
        let s = f32::from_bits(self.act_scale.load(Ordering::Relaxed));
        if s > 0.0 {
            s
        } else {
            symmetric_scale(input.as_slice())
        }
    }

    /// The quantized activations' row stride must be the depth `Wᵀ` was
    /// packed for: `gemm_i8` checks each operand against the depth it is
    /// *given*, so a mismatch would read a `B` packed for another depth
    /// without tripping any of its checks.
    fn check_depth(&self, activations_kp: usize, weights_kp: usize) -> TensorResult<()> {
        if activations_kp != weights_kp {
            return Err(ShapeError::new(format!(
                "fc {}: activations quantized to depth {activations_kp}, \
                 int8 weights packed for depth {weights_kp}",
                self.name
            )));
        }
        Ok(())
    }

    /// Shared body of [`Layer::forward_into`] / [`Layer::forward_into_fused`]:
    /// the only difference is whether a ReLU rides the kernel epilogue.
    fn run(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
        relu: bool,
    ) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("fc: expected exactly one input"));
        };
        if input.image_len() != self.in_features {
            return Err(ShapeError::new(format!(
                "fc {}: input features {} != {}",
                self.name,
                input.image_len(),
                self.in_features
            )));
        }
        let batch = input.n();
        out.resize(batch, self.out_features, 1, 1);
        if self.sparse {
            if batch == 1 {
                // Batch-1 sparse path: the product is a matvec, so run
                // the CSR spmv kernel straight from the input slice into
                // the output slice — no Xᵀ/Y staging matrices, no
                // transposes, no allocation.
                return self.csr().matvec_into(
                    input.as_slice(),
                    out.as_mut_slice(),
                    Some(&self.bias),
                    relu,
                );
            }
            // Sparse path: CSR row-skipping needs W's rows, so compute
            // W (out×in, sparse) × Xᵀ (in×batch) and transpose back,
            // both staged in the workspace's f32 slots. Bias/ReLU ride
            // the SpMM row store (CSR rows are out features, so the
            // bias is per-row there).
            let (x_t, y) = (&mut ws.cols, &mut ws.packed);
            x_t.resize(self.in_features, batch);
            // `sparse` implies non-empty weights, so `in_features >= 1`.
            for (b, row) in input.as_slice().chunks_exact(self.in_features).enumerate() {
                for (f, &v) in row.iter().enumerate() {
                    x_t.set(f, b, v);
                }
            }
            y.resize(self.out_features, batch);
            self.csr().spmm_into(
                x_t.as_slice(),
                batch,
                y.as_mut_slice(),
                Some(&self.bias),
                relu,
            )?;
            let o = out.as_mut_slice();
            for b in 0..batch {
                for of in 0..self.out_features {
                    o[b * self.out_features + of] = y.get(of, b);
                }
            }
        } else if precision::selected() == Precision::Int8 {
            // Int8 dense path: quantize the flattened activations into
            // the workspace with the calibrated (or fallback) scale,
            // then run the integer GEMM against the pre-quantized Wᵀ,
            // dequantizing by the combined scale in the store epilogue.
            // The sparse branches above deliberately stay f32: CSR
            // row-skipping is bandwidth-bound, so int8 buys little
            // there, and SpMV keeps its scalar-by-contract guarantee.
            let qw = self.packed_t_i8();
            let act_scale = self.act_scale_for(input);
            let kp = quantize_rows_into(
                input.as_slice(),
                batch,
                self.in_features,
                1.0 / act_scale,
                &mut ws.qbuf,
            );
            self.check_depth(kp, qw.kp())?;
            let (a, scale) = (ws.qbuf.as_slice(), qw.scale() * act_scale);
            let epi = Epilogue {
                bias: Some(EpiBias::PerCol(&self.bias)),
                relu,
            };
            if batch == 1 {
                // A GEMV: cut by panel-aligned column ranges across the
                // workspace's team, when it has one and the layer is
                // big enough.
                team::split_columns(ws.team.as_mut(), kp, out.as_mut_slice(), &|cols, part| {
                    let b = &qw.data()[cols.start * kp..];
                    gemm_i8(
                        a,
                        1,
                        kp,
                        cols.len(),
                        b,
                        part,
                        scale,
                        epi.offset(0, cols.start),
                    )
                })?;
            } else {
                let (n, b) = (self.out_features, qw.data());
                gemm_i8(a, batch, kp, n, b, out.as_mut_slice(), scale, epi)?;
            }
        } else {
            // Dense path: Y = X · Wᵀ, vectorizable at any batch size. A
            // `(n, c, 1, 1)` tensor's flat data IS the `n × c` row-major
            // matrix, so both input and output go straight through with
            // no copies: the GEMM writes into `out`'s reused buffer
            // (routing through the dedicated gemv kernel when batch is
            // 1), and bias/ReLU ride its store as a per-column epilogue
            // (out features are GEMM columns here). At batch 1 the
            // GEMV is cut by column ranges, as in the int8 branch.
            let (x, k, b) = (input.as_slice(), self.in_features, self.packed_t.as_slice());
            let epi = Epilogue {
                bias: Some(EpiBias::PerCol(&self.bias)),
                relu,
            };
            if batch == 1 {
                team::split_columns(ws.team.as_mut(), k, out.as_mut_slice(), &|cols, part| {
                    let b = &b[cols.start * k..];
                    gemm_packed(x, 1, k, cols.len(), b, part, epi.offset(0, cols.start))
                })?;
            } else {
                gemm_packed(x, batch, k, self.out_features, b, out.as_mut_slice(), epi)?;
            }
        }
        Ok(())
    }
}

impl Layer for InnerProductLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::InnerProduct
    }

    fn forward_into(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        self.run(inputs, ws, out, false)
    }

    fn supports_relu_fusion(&self) -> bool {
        true
    }

    fn forward_into_fused(
        &self,
        inputs: &[&Tensor4],
        ws: &mut Workspace,
        out: &mut Tensor4,
    ) -> TensorResult<()> {
        self.run(inputs, ws, out, true)
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [(c, h, w)] = in_shapes else {
            return Err(ShapeError::new("fc: expected exactly one input shape"));
        };
        if c * h * w != self.in_features {
            return Err(ShapeError::new(format!(
                "fc {}: input features {} != {}",
                self.name,
                c * h * w,
                self.in_features
            )));
        }
        Ok((self.out_features, 1, 1))
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(self.in_features as u64 * self.out_features as u64)
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn weights(&self) -> Option<&Matrix> {
        Some(&self.weights)
    }

    fn set_weights(&mut self, weights: Matrix) -> TensorResult<()> {
        if weights.shape() != self.weights.shape() {
            return Err(ShapeError::new(format!(
                "fc {}: set_weights {:?}, expected {:?}",
                self.name,
                weights.shape(),
                self.weights.shape()
            )));
        }
        self.packed_t = PackedB::pack_transposed(&weights);
        self.sparse = weights.sparsity(0.0) > FC_SPARSE_THRESHOLD;
        self.weights = weights;
        self.csr = OnceLock::new();
        self.packed_t_i8 = OnceLock::new();
        Ok(())
    }

    fn observe_input(&self, inputs: &[&Tensor4], method: CalibrationMethod) {
        if let [input] = inputs {
            let s = method.scale_for(input.as_slice());
            self.act_scale.store(s.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_tensor::gemm;

    #[test]
    fn computes_wx_plus_b() {
        // W = [[1,0],[0,2],[1,1]], b = [0.5, -0.5, 0].
        let w = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 2.0, 1.0, 1.0]).unwrap();
        let fc = InnerProductLayer::new("fc_t", w, vec![0.5, -0.5, 0.0]).unwrap();
        let x = Tensor4::from_vec(2, 2, 1, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        // Exact-equality oracle: pin f32 so an int8 precision leg does
        // not route this forward through the quantized path.
        cap_tensor::precision::force(Some(cap_tensor::Precision::F32));
        let y = fc.forward(&[&x]).unwrap();
        cap_tensor::precision::force(None);
        assert_eq!(y.shape(), (2, 3, 1, 1));
        assert_eq!(y.image(0), &[1.5, 3.5, 3.0]);
        assert_eq!(y.image(1), &[3.5, 7.5, 7.0]);
    }

    #[test]
    fn flattens_spatial_input() {
        let w = Matrix::identity(8);
        let fc = InnerProductLayer::new("fc_t", w, vec![0.0; 8]).unwrap();
        let x = Tensor4::from_fn(1, 2, 2, 2, |_, c, h, ww| (c * 4 + h * 2 + ww) as f32);
        let y = fc.forward(&[&x]).unwrap();
        assert_eq!(y.shape(), (1, 8, 1, 1));
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn sparse_path_matches_dense() {
        let mut w = Matrix::from_fn(6, 10, |r, c| ((r + c) % 3) as f32 - 1.0);
        for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
            if i % 7 != 0 {
                *v = 0.0;
            }
        }
        let dense_result = {
            // Compute with dense gemm manually.
            let x = Matrix::from_fn(10, 3, |r, c| (r as f32 - c as f32) / 4.0);
            gemm(&w, &x).unwrap()
        };
        let fc = InnerProductLayer::new("fc_t", w, vec![0.0; 6]).unwrap();
        assert!(fc.weight_sparsity() > FC_SPARSE_THRESHOLD);
        let x_t = Matrix::from_fn(10, 3, |r, c| (r as f32 - c as f32) / 4.0).transpose();
        let x = Tensor4::from_matrix(&x_t, 10, 1, 1).unwrap();
        let y = fc.forward(&[&x]).unwrap();
        for b in 0..3 {
            for o in 0..6 {
                assert!((y.get(b, o, 0, 0) - dense_result.get(o, b)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn int8_depth_mismatch_is_a_shape_error_naming_the_layer() {
        let fc = InnerProductLayer::new("fc_t", Matrix::zeros(3, 10), vec![0.0; 3]).unwrap();
        assert!(fc.check_depth(12, 12).is_ok());
        let message = fc.check_depth(12, 10).unwrap_err().to_string();
        assert!(message.contains("fc fc_t"), "{message}");
        assert!(
            message.contains("12") && message.contains("10"),
            "{message}"
        );
    }

    #[test]
    fn shape_validation() {
        let fc = InnerProductLayer::new("fc_t", Matrix::zeros(3, 8), vec![0.0; 3]).unwrap();
        assert_eq!(fc.out_shape(&[(2, 2, 2)]).unwrap(), (3, 1, 1));
        assert!(fc.out_shape(&[(2, 2, 3)]).is_err());
        assert!(InnerProductLayer::new("bad", Matrix::zeros(3, 8), vec![0.0; 4]).is_err());
    }

    #[test]
    fn macs_is_in_times_out() {
        let fc = InnerProductLayer::new("fc_t", Matrix::zeros(3, 8), vec![0.0; 3]).unwrap();
        assert_eq!(fc.macs_per_image(&[(8, 1, 1)]).unwrap(), 24);
    }
}
