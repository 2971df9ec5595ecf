//! Fully-connected (Caffe "InnerProduct") layer.

use super::{ActScale, ChwShape, Layer, LayerKind, WeightScan};
use cap_tensor::{
    gemm_i8, gemm_packed, kernels, pack_transposed_into, precision, quantize_rows_into,
    symmetric_scale, team, CalibrationMethod, EpiBias, Epilogue, F32Tile, Matrix, PackedBI8,
    Precision, ShapeError, Tensor4, TensorResult, Workspace,
};
use std::ops::Range;
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
/// other, so a fc with more than 80 % zeros (once run by a CSR form)
/// reads NaN where a zero weight meets a non-finite input (`0·inf`), as
/// [`cap_tensor::gemm()`] does, and under int8 quantizes like every
/// other fc.
///
/// A pruned filter of the layer before is skipped, under both
/// precisions. The [`crate::Network`] hands the layer the *dead*
/// channels of its input — `+0` whatever the input, such as a pruned
/// conv filter's map after ReLU and pooling — and the layer multiplies
/// only the live input features: in f32 a narrowed row-major copy of
/// `W`'s live columns, in int8 a `Wᵀ` packed from the live columns only,
/// each built on the first forward that needs it; each forward gathers
/// (or packs) the live activations before the GEMV or GEMM. Every term
/// left out is a finite weight times `+0`, so the output bits are those
/// of the full multiply; a dead channel with a non-finite weight in its
/// columns is kept. On Caffenet pruned at its all-conv knees, fc6's
/// narrowed copy is 75 MB beside the 151 MB `W`.
pub struct InnerProductLayer {
    name: String,
    in_features: usize,
    out_features: usize,
    weights: Matrix,
    bias: Vec<f32>,
    /// `WeightScan::of(&weights)`, as of the last `new`/`set_weights`.
    scan: WeightScan,
    /// The input's dead channels and the features per channel, as the
    /// network last set them ([`Layer::set_dead_inputs`]).
    dead_inputs: Vec<usize>,
    features_per_channel: usize,
    /// The live input features as ranges of `weights`' columns (`None`:
    /// all of them), from `dead_inputs`; built on the first forward.
    live: OnceLock<Option<Vec<Range<usize>>>>,
    /// `weights`' live columns side by side (`out × live`), what an f32
    /// forward multiplies when some inputs are dead; built on the first
    /// f32 forward that needs it. With every input live the f32 forward
    /// reads `weights` itself.
    live_weights: OnceLock<Matrix>,
    /// `Wᵀ` over the live columns, quantized and panel-packed straight
    /// from `weights`' rows, built on the first int8 forward (lazy:
    /// `precision::force` can flip the precision at run time).
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
        Ok(Self {
            name: name.into(),
            in_features,
            out_features,
            scan: WeightScan::of(&weights),
            weights,
            bias,
            dead_inputs: Vec::new(),
            features_per_channel: 1,
            live: OnceLock::new(),
            live_weights: OnceLock::new(),
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

    /// Drop every form derived from the weights or the dead inputs.
    fn drop_forms(&mut self) {
        self.live = OnceLock::new();
        self.live_weights = OnceLock::new();
        self.packed_t_i8 = OnceLock::new();
    }

    /// The live input features, merged into ranges; `None` when every
    /// feature is live. A dead channel's features stay live when a
    /// weight on them is not finite (`inf·0` is NaN).
    fn live(&self) -> Option<&[Range<usize>]> {
        let live = self.live.get_or_init(|| {
            if self.dead_inputs.is_empty() {
                return None;
            }
            let plane = self.features_per_channel;
            let non_finite = |c: usize| {
                !self.scan.finite
                    && (0..self.out_features).any(|r| {
                        let block = &self.weights.row(r)[c * plane..(c + 1) * plane];
                        block.iter().any(|v| !v.is_finite())
                    })
            };
            let mut dead = self.dead_inputs.iter().peekable();
            let mut runs: Vec<Range<usize>> = Vec::new();
            for c in 0..self.in_features / plane {
                let is_dead = dead.next_if_eq(&&c).is_some();
                if is_dead && !non_finite(c) {
                    continue;
                }
                match runs.last_mut() {
                    Some(run) if run.end == c * plane => run.end += plane,
                    _ => runs.push(c * plane..(c + 1) * plane),
                }
            }
            let every = runs.len() == 1 && runs[0] == (0..self.in_features);
            (!every).then_some(runs)
        });
        live.as_deref()
    }

    /// The f32 `W` and its depth: `weights`, or its live columns.
    fn f32_weights(&self) -> (&[f32], usize) {
        let Some(runs) = self.live() else {
            return (self.weights.as_slice(), self.in_features);
        };
        let narrowed = self.live_weights.get_or_init(|| {
            let depth = runs.iter().map(Range::len).sum();
            let mut data = Vec::with_capacity(self.out_features * depth);
            for r in 0..self.out_features {
                let row = self.weights.row(r);
                for run in runs {
                    data.extend_from_slice(&row[run.clone()]);
                }
            }
            Matrix::from_vec(self.out_features, depth, data).expect("out × live")
        });
        (narrowed.as_slice(), narrowed.cols())
    }

    fn packed_t_i8(&self) -> &PackedBI8 {
        // Packed from W's rows directly: an f32 transpose of fc6 would
        // be 151 MB built only to be quantized and dropped. The scale is
        // the whole matrix's, so a weight quantizes alike whichever
        // columns are live.
        self.packed_t_i8.get_or_init(|| {
            let scale = symmetric_scale(self.weights.as_slice());
            let all = 0..self.in_features;
            let cols = self.live().unwrap_or(std::slice::from_ref(&all));
            PackedBI8::pack_transposed(&self.weights, cols, scale)
        })
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
            cols: gathered,
            packed,
            padded: stage,
            qbuf,
            team,
            ..
        } = ws;
        let out = out.as_mut_slice();
        if precision::selected() == Precision::Int8 {
            // Int8: quantize the live activations with the calibrated
            // (or fallback) scale, then the integer GEMM of `Y = X · Wᵀ`
            // against the pre-quantized `Wᵀ`, dequantizing by the
            // combined scale in the store epilogue (out features are
            // its columns), cut by column ranges across the team.
            let x = self.live_inputs(input, gathered);
            let k = x.len() / batch;
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
        let (w, k) = self.f32_weights();
        let epi = Epilogue {
            bias: Some(EpiBias::PerRow(&self.bias)),
            relu,
        };
        let tile = F32Tile::for_path(kernels::selected());
        if batch == 1 {
            // The row GEMV straight into `out`, cut by rows of `W`
            // across the team where that pays.
            let x = self.live_inputs(input, gathered);
            return team::split_columns(team.as_mut(), k, 1, out, stage, &|rows, part| {
                let w = &w[rows.start * k..rows.end * k];
                kernels::gemv_rows_with(tile, w, x, part, epi.offset(rows.start, 0));
                Ok(())
            });
        }
        // The packed GEMM with `A = W` and `B = Xᵀ`, packed from the live
        // features straight out of the input, into the `out × batch`
        // stage cut by rows of `W`; then transposed into `Y`.
        let all = 0..self.in_features;
        let cols = self.live().unwrap_or(std::slice::from_ref(&all));
        pack_transposed_into(input.as_slice(), self.in_features, cols, packed);
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

    /// The input's live features as a row-major `n × live` matrix: the
    /// input's own data when every feature is live (a `(n, c, 1, 1)`
    /// tensor's flat data IS the `n × c` matrix), else gathered into
    /// `gathered`.
    fn live_inputs<'a>(&self, input: &'a Tensor4, gathered: &'a mut Matrix) -> &'a [f32] {
        let Some(runs) = self.live() else {
            return input.as_slice();
        };
        let depth = runs.iter().map(Range::len).sum();
        gathered.resize(input.n(), depth);
        let rows = gathered.as_mut_slice().chunks_exact_mut(depth.max(1));
        for (dst, src) in rows.zip(input.as_slice().chunks_exact(self.in_features)) {
            let mut at = 0;
            for run in runs {
                dst[at..at + run.len()].copy_from_slice(&src[run.clone()]);
                at += run.len();
            }
        }
        gathered.as_slice()
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
        self.weights = weights;
        self.drop_forms();
        Ok(())
    }

    fn dead_outputs(&self, _in_shapes: &[ChwShape], _dead: &[&[usize]]) -> Vec<usize> {
        self.scan.dead_rows(&self.bias)
    }

    fn set_dead_inputs(&mut self, in_shapes: &[ChwShape], dead: &[&[usize]]) {
        let (Some(&(_, h, w)), Some(dead)) = (in_shapes.first(), dead.first()) else {
            return;
        };
        if (*dead, h * w) != (self.dead_inputs.as_slice(), self.features_per_channel) {
            self.dead_inputs = dead.to_vec();
            self.features_per_channel = h * w;
            self.drop_forms();
        }
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
    fn dead_inputs_are_skipped_bit_for_bit_down_to_none_live() {
        // 2 channels of 2×2: channel 1 dead, then both (a depth-0
        // multiply: the output is the bias). Under the selected
        // precision, bitwise the full-width layer on the same input.
        let w = Matrix::from_fn(5, 8, |r, c| ((r * 3 + c) % 7) as f32 / 4.0 - 0.75);
        let bias = vec![0.5, -0.5, 0.25, 0.0, 1.0];
        let full = InnerProductLayer::new("full", w.clone(), bias.clone()).unwrap();
        for dead in [&[1][..], &[0, 1]] {
            let mut fc = InnerProductLayer::new("fc_t", w.clone(), bias.clone()).unwrap();
            fc.set_dead_inputs(&[(2, 2, 2)], &[dead]);
            let x = Tensor4::from_fn(3, 2, 2, 2, |n, c, h, ww| {
                if dead.contains(&c) {
                    0.0
                } else {
                    (n + h * 2 + ww) as f32 / 3.0 - 0.5
                }
            });
            let bits = |t: Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(fc.forward(&[&x]).unwrap()),
                bits(full.forward(&[&x]).unwrap())
            );
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
