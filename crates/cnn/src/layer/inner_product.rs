//! Fully-connected (Caffe "InnerProduct") layer.

use super::{
    sparsity_counting_pruned, ActScale, ChannelUse, ChwShape, Layer, LayerKind, WeightScan,
};
use cap_tensor::{
    gemm_i8, gemm_packed, kernels, pack_transposed_into, precision, quantize_rows_into,
    symmetric_scale, team, CalibrationMethod, EpiBias, Epilogue, F32Tile, Matrix, PackedBI8,
    Precision, ShapeError, Tensor4, TensorResult, Workspace,
};
use std::sync::OnceLock;

/// Fully-connected layer: flattens each image to a vector and applies
/// `y = W x + b` with `W: out × in`.
///
/// One form per precision at every sparsity and batch. In f32 the layer
/// keeps one copy of its weights, the row-major `W`, and multiplies it
/// in place as `Yᵀ = W · Xᵀ`: at batch 1 the row GEMV
/// ([`cap_tensor::kernels::gemv_rows_with`]); at larger batches the
/// packed GEMM with `A = W` and the small `Xᵀ` packed into the
/// workspace, its `out × batch` result transposed into `Y` through the
/// workspace's stage buffer. Every output is the ascending-`kk` FMA
/// chain `Y = X · Wᵀ` computes, so the bits are [`cap_tensor::gemm()`]'s
/// of `X` and `Wᵀ`. In int8 it is the integer GEMM over the quantized
/// `Wᵀ`, packed from `W`'s rows. Zero weights are multiplied like any
/// other, so a fc with more than 80 % zeros reads NaN where a zero
/// weight meets a non-finite input (`0·inf`), as
/// [`cap_tensor::gemm()`] does, and under int8 quantizes like every
/// other fc.
///
/// A pruned filter of the layer before is gone from a narrowed network
/// ([`crate::Network::narrow`]): the layer drops the `h·w` columns of
/// each input channel that pruning left at `+0` — 36 per pool5 channel
/// for Caffenet's fc6 — compacting each row's kept columns leftward in
/// its one `W` and releasing the rest ([`Matrix::retain`]), so it never
/// holds a second copy. Every term it drops was a finite weight times
/// `+0`, which moves no sum that starts at `+0`, and the int8 form keeps
/// the weight scale `W` had before, so the output bits are those of the
/// full-width layer on the same input. A narrowed filter-pruned fc
/// drops its own zero rows the same way.
pub struct InnerProductLayer {
    name: String,
    in_features: usize,
    out_features: usize,
    weights: Matrix,
    bias: Vec<f32>,
    /// `WeightScan::of(&weights)`, as of the last `new`/`set_weights`/narrow.
    scan: WeightScan,
    /// The max-abs int8 scale of the weights as last set, worked out on
    /// first use and kept when narrowing drops columns (see
    /// [`ConvLayer`](super::ConvLayer)).
    weight_scale: OnceLock<f32>,
    /// Rows removed by narrowing, for the sparsity pruning gave the
    /// layer.
    pruned_rows: usize,
    /// `Wᵀ` quantized and panel-packed straight from `weights`' rows,
    /// built on the first int8 forward (lazy: `precision::force` can
    /// flip the precision at run time).
    packed_t_i8: OnceLock<PackedBI8>,
    /// The int8 path's input-activation scale.
    act_scale: ActScale,
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
        let scan = WeightScan::of(&weights);
        Ok(Self {
            name: name.into(),
            in_features,
            out_features,
            weight_scale: OnceLock::new(),
            scan,
            weights,
            bias,
            pruned_rows: 0,
            packed_t_i8: OnceLock::new(),
            act_scale: ActScale::default(),
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

    /// The int8 scale of the weights as last set ([`symmetric_scale`]).
    fn weight_scale(&self) -> f32 {
        *self
            .weight_scale
            .get_or_init(|| symmetric_scale(self.weights.as_slice()))
    }

    fn packed_t_i8(&self) -> &PackedBI8 {
        // Packed from W's rows directly: an f32 transpose of fc6 would
        // be 151 MB built only to be quantized and dropped.
        self.packed_t_i8
            .get_or_init(|| PackedBI8::pack_transposed(&self.weights, self.weight_scale()))
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
        if batch == 0 {
            return Ok(());
        }
        let Workspace {
            packed,
            padded: stage,
            qbuf,
            team,
            ..
        } = ws;
        let out = out.as_mut_slice();
        // A `(n, c, h, w)` tensor's flat data IS the `n × c·h·w` matrix.
        let (x, k) = (input.as_slice(), self.in_features);
        if precision::selected() == Precision::Int8 {
            // Int8: quantize the activations with the calibrated (or
            // fallback) scale, then the integer GEMM of `Y = X · Wᵀ`
            // against the pre-quantized `Wᵀ`, dequantizing by the
            // combined scale in the store epilogue (out features are
            // its columns), cut by column ranges across the team.
            let epi = Epilogue {
                bias: Some(EpiBias::PerCol(&self.bias)),
                relu,
            };
            let qw = self.packed_t_i8();
            let act_scale = self.act_scale.for_input(input);
            let kp = quantize_rows_into(x, batch, k, 1.0 / act_scale, qbuf);
            self.check_depth(kp, qw.kp())?;
            let (a, scale) = (qbuf.as_slice(), qw.scale() * act_scale);
            return team::split_columns(team.as_mut(), kp, batch, out, stage, &|cols, part| {
                let b = &qw.data()[cols.start * kp..];
                let epi = epi.offset(0, cols.start);
                gemm_i8(a, batch, kp, cols.len(), b, part, scale, epi)
            });
        }
        // F32: `Yᵀ = W · Xᵀ` on `W` in place, out features the rows of
        // `W`, so bias/ReLU ride the store as a per-row epilogue.
        let w = self.weights.as_slice();
        let epi = Epilogue {
            bias: Some(EpiBias::PerRow(&self.bias)),
            relu,
        };
        let tile = F32Tile::for_path(kernels::selected());
        if batch == 1 {
            // The row GEMV straight into `out`, cut by rows of `W`
            // across the team where that pays.
            return team::split_columns(team.as_mut(), k, 1, out, stage, &|rows, part| {
                let w = &w[rows.start * k..rows.end * k];
                kernels::gemv_rows_with(tile, w, x, part, epi.offset(rows.start, 0));
                Ok(())
            });
        }
        // The packed GEMM with `A = W` and `B = Xᵀ`, packed straight out
        // of the input, into the `out × batch` stage cut by rows of `W`;
        // then transposed into `Y`.
        pack_transposed_into(x, k, packed);
        let b = packed.as_slice();
        stage.resize(out.len(), 0.0);
        team::split_rows(team.as_mut(), k, batch, stage, &|rows, part| {
            let w = &w[rows.start * k..rows.end * k];
            gemm_packed(w, rows.len(), k, batch, b, part, epi.offset(rows.start, 0))
        })?;
        for (o, column) in stage.chunks_exact(batch).enumerate() {
            for (image, &v) in column.iter().enumerate() {
                out[image * self.out_features + o] = v;
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

    fn weights(&self) -> Option<&Matrix> {
        Some(&self.weights)
    }

    fn set_weights(&mut self, weights: Matrix) -> TensorResult<()> {
        self.scan = WeightScan::replacing(self, &self.weights, &weights)?;
        self.weight_scale = OnceLock::new();
        self.weights = weights;
        self.packed_t_i8 = OnceLock::new();
        Ok(())
    }

    fn weight_sparsity(&self) -> f64 {
        let pruned = self.pruned_rows * self.in_features;
        sparsity_counting_pruned(self.weights.nnz(0.0), self.weights.len(), pruned)
    }

    fn dead_outputs(&self) -> Vec<usize> {
        self.scan.dead_rows(&self.bias)
    }

    fn channel_use(&self, _input: usize, _channel: usize, _in_shapes: &[ChwShape]) -> ChannelUse {
        if self.scan.finite {
            ChannelUse::Drop
        } else {
            ChannelUse::Keep
        }
    }

    fn narrow(
        &mut self,
        in_shapes: &[ChwShape],
        gone_in: &[&[usize]],
        gone_out: &[usize],
    ) -> TensorResult<()> {
        let gone_in = gone_in.first().copied().unwrap_or_default();
        if gone_in.is_empty() && gone_out.is_empty() {
            return Ok(());
        }
        self.weight_scale();
        let plane = in_shapes.first().map_or(1, |&(_, h, w)| (h * w).max(1));
        let rows = self.out_features;
        self.weights.retain(
            |r| gone_out.binary_search(&r).is_err(),
            |c| gone_in.binary_search(&(c / plane)).is_err(),
        );
        let mut row = 0;
        self.bias.retain(|_| {
            row += 1;
            gone_out.binary_search(&(row - 1)).is_err()
        });
        (self.out_features, self.in_features) = self.weights.shape();
        self.pruned_rows += rows - self.out_features;
        self.scan = WeightScan::of(&self.weights);
        self.packed_t_i8 = OnceLock::new();
        Ok(())
    }

    fn observe_input(&self, inputs: &[&Tensor4], method: CalibrationMethod) {
        self.act_scale.observe(inputs, method);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Exact identity: pin f32, as `computes_wx_plus_b` does.
        cap_tensor::precision::force(Some(cap_tensor::Precision::F32));
        let y = fc.forward(&[&x]).unwrap();
        cap_tensor::precision::force(None);
        assert_eq!(y.shape(), (1, 8, 1, 1));
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn narrowed_layer_is_the_full_one_bit_for_bit_down_to_no_input() {
        // 2 channels of 2×2, zero where they go: channel 1 narrowed
        // away, then both (a depth-0 multiply: the output is the bias),
        // then rows 1 and 3 as well. Under the selected precision,
        // bitwise the full-width layer's kept outputs on the same input;
        // `W` holds no storage past its narrowed size.
        let w = Matrix::from_fn(5, 8, |r, c| ((r * 3 + c) % 7) as f32 / 4.0 - 0.75);
        let bias = vec![0.5, -0.5, 0.25, 0.0, 1.0];
        let full = InnerProductLayer::new("full", w.clone(), bias.clone()).unwrap();
        for (gone, rows) in [(&[1][..], &[][..]), (&[0, 1], &[]), (&[1], &[1, 3])] {
            let mut fc = InnerProductLayer::new("fc_t", w.clone(), bias.clone()).unwrap();
            fc.narrow(&[(2, 2, 2)], &[gone], rows).unwrap();
            assert_eq!(fc.weights.capacity(), fc.weights.len(), "storage released");
            assert_eq!(fc.in_features(), 4 * (2 - gone.len()));
            let x = Tensor4::from_fn(3, 2, 2, 2, |n, c, h, ww| {
                if gone.contains(&c) {
                    0.0
                } else {
                    (n + h * 2 + ww) as f32 / 3.0 - 0.5
                }
            });
            let kept: Vec<usize> = (0..2).filter(|c| !gone.contains(c)).collect();
            let narrowed =
                Tensor4::from_fn(3, kept.len(), 2, 2, |n, c, h, ww| x.get(n, kept[c], h, ww));
            let want = full.forward(&[&x]).unwrap();
            let got = fc.forward(&[&narrowed]).unwrap();
            let outputs: Vec<usize> = (0..5).filter(|r| !rows.contains(r)).collect();
            for n in 0..3 {
                let want: Vec<u32> = outputs
                    .iter()
                    .map(|&r| want.image(n)[r].to_bits())
                    .collect();
                let got: Vec<u32> = got.image(n).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "gone {gone:?} rows {rows:?}");
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
