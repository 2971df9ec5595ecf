//! # cap-tensor
//!
//! Dense and sparse linear-algebra substrate for the cost-accuracy
//! reproduction workspace.
//!
//! The paper's measurement substrate is a Caffe fork extended with sparse
//! matrix kernels so that pruned (sparsified) CNN layers actually run
//! faster. This crate is that substrate, built from scratch:
//!
//! * [`Matrix`] — row-major dense `f32` matrix, multiplied by the
//!   panel-packed, L2-strip-blocked driver the layers run on
//!   ([`gemm_packed`]; [`gemm()`] packs a plain `B` for it).
//! * [`Tensor4`] — NCHW activation tensor used by the CNN layers.
//! * [`CsrMatrix`] — compressed sparse row matrix with sparse×dense
//!   multiplication ([`CsrMatrix::matmul_dense`]), the kernel for
//!   weights with high unstructured sparsity.
//! * [`im2col()`] / [`col2im`] — the lowering that expresses convolution as
//!   GEMM, exactly as Caffe does; [`Lowering`] writes the layouts the
//!   multiplies read from an image padded once, the f32 panels split
//!   by panel ranges across a [`Team`].
//! * [`conv`] and [`pool`] — the one convolution driver ([`conv2d`]:
//!   im2col + GEMM over a [`ConvWeights`] form — dense, dense over the
//!   filters pruning kept, or CSR; f32 or int8 — or Winograd
//!   F(2×2, 3×3) over 16 GEMMs for dense 3×3s ([`mod@winograd`]), with
//!   bias/ReLU as a fused [`Epilogue`]), and the max/average pooling
//!   and local response normalization kernels ([`lrn_into`]).
//! * [`workspace`] — the reusable kernel scratch ([`Workspace`]) a
//!   caller lends by `&mut`, behind the zero-allocation steady state.
//! * [`team`] — the persistent worker [`Team`] a workspace may carry,
//!   and the splits that cut one multiply or one batch across it.
//! * [`mod@reference`] — naive oracles ([`reference::conv2d_direct`],
//!   the f64 [`reference::conv2d_f64`], [`reference::gemm_naive`]) that
//!   tests and benches import explicitly.
//!
//! All kernels are deterministic given deterministic inputs: every
//! output element is accumulated by one thread in one fixed order. A
//! convolution, fc multiply, pooling or LRN call whose workspace
//! carries a [`Team`] cuts its output into contiguous pieces across the
//! team's threads
//! ([`mod@team`]); a piece is the same kernel on a sub-range, so the
//! bits do not depend on the team size. Which passes get a team is
//! decided in `cap-cnn`.
//!
//! The hot inner loops run on runtime-dispatched SIMD microkernels
//! ([`kernels`]): AVX2 where the CPU has it, scalar everywhere else,
//! overridable via `CAP_TENSOR_KERNEL={auto,scalar,avx2}` (any other
//! value is fatal at first use — see [`knob`]). Every path is
//! bit-identical to scalar, so determinism holds across backends too.

#![warn(missing_docs)]

pub mod conv;
pub mod dense;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod init;
pub mod kernels;
pub mod knob;
pub mod ops;
pub mod pool;
pub mod precision;
pub mod quant;
pub mod reference;
pub mod sparse;
pub mod team;
pub mod tensor4;
pub mod winograd;
pub mod workspace;

pub use conv::{conv2d, Conv2dParams, ConvWeights, KeptRows};
pub use dense::Matrix;
pub use error::{ShapeError, TensorResult};
pub use gemm::{gemm, gemm_packed, gemm_packed_with, gemm_prepacked, PackedB};
pub use im2col::{col2im, im2col, im2col_packed_prealloc, Lowering};
pub use kernels::{EpiBias, Epilogue, F32Tile, KernelPath};
pub use pool::{
    avg_pool2d, avg_pool2d_into, lrn_into, max_pool2d, max_pool2d_indices, max_pool2d_into,
    LrnParams, Pool2dParams,
};
pub use precision::Precision;
pub use quant::{
    gemm_i8, pack_b_i8_into, percentile_scale, quantize_i8, quantize_rows_into, symmetric_scale,
    AlignedI8, CalibrationMethod, I8Storage, PackedBI8, QuantizedA,
};
pub use sparse::CsrMatrix;
pub use team::Team;
pub use tensor4::Tensor4;
pub use winograd::WinogradBand;
pub use workspace::Workspace;
