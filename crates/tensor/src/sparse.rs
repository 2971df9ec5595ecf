//! Compressed sparse row (CSR) matrices and sparse×dense kernels.
//!
//! Pruning in the paper turns CNN weight matrices sparse; the extended
//! Caffe framework the authors use [Wen et al., ICCV'17] exploits that
//! sparsity with dedicated kernels. `CsrMatrix` is that substrate: a
//! pruned weight matrix converted once to CSR then multiplied against
//! dense activation panels, skipping zero weights entirely.

use crate::dense::{counts_as_nonzero, Matrix};
use crate::error::{ShapeError, TensorResult};
use crate::kernels;
use serde::{Deserialize, Serialize};

/// Compressed sparse row matrix of `f32`.
///
/// Column indices are stored as `u32` (not `usize`): pruned CNN weight
/// matrices never approach 2³² columns, and halving the index width
/// halves the index bandwidth of the SpMM hot loop on 64-bit targets.
/// The serialized form is unchanged (plain JSON integers), so matrices
/// written before the narrowing deserialize identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array, `rows + 1` entries.
    row_ptr: Vec<usize>,
    /// Column index of each stored value.
    col_idx: Vec<u32>,
    /// Stored values, aligned with `col_idx`.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build a CSR matrix from a dense matrix, dropping every element with
    /// magnitude `<= eps` — the elements [`Matrix::nnz`] does not count,
    /// so a NaN is stored and reaches the output as it does on a dense
    /// multiply.
    ///
    /// A first counting pass sizes `col_idx`/`values` exactly, so
    /// converting a large pruned layer performs one allocation per
    /// array instead of reallocation churn proportional to `log(nnz)`.
    pub fn from_dense(dense: &Matrix, eps: f32) -> Self {
        let (rows, cols) = dense.shape();
        assert!(
            cols <= u32::MAX as usize,
            "csr: {cols} columns exceed u32 index range"
        );
        let nnz = dense.nnz(eps);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if counts_as_nonzero(v, eps) {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from raw CSR arrays, validating the invariants.
    ///
    /// Indices are taken as `usize` for caller convenience and narrowed
    /// to the internal `u32` storage after validation; an index above
    /// `u32::MAX` is a [`ShapeError`] like any other out-of-range column.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> TensorResult<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(ShapeError::new(format!(
                "csr: row_ptr length {} != rows+1 {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if col_idx.len() != values.len() {
            return Err(ShapeError::new("csr: col_idx/values length mismatch"));
        }
        if row_ptr.first() != Some(&0) || row_ptr.last() != Some(&values.len()) {
            return Err(ShapeError::new("csr: row_ptr endpoints invalid"));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(ShapeError::new("csr: row_ptr not monotone"));
        }
        if col_idx.iter().any(|&c| c >= cols) {
            return Err(ShapeError::new("csr: column index out of range"));
        }
        if col_idx.iter().any(|&c| c > u32::MAX as usize) {
            return Err(ShapeError::new("csr: column index exceeds u32 range"));
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx: col_idx.into_iter().map(|c| c as u32).collect(),
            values,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (non-zero) values.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored density `nnz / (rows*cols)`; 0 for an empty matrix.
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Fraction of zero elements, `1 - density`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Expand back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                m.set(r, self.col_idx[i] as usize, self.values[i]);
            }
        }
        m
    }

    /// Sparse × dense multiplication: `self (m×k) * b (k×n) -> m×n`.
    ///
    /// Each output row walks only the stored values of the
    /// corresponding CSR row — cost is `O(nnz_row * n)` instead of
    /// `O(k * n)`.
    pub fn matmul_dense(&self, b: &Matrix) -> TensorResult<Matrix> {
        let mut c = Matrix::zeros(self.rows, b.cols());
        self.matmul_dense_into(b, &mut c)?;
        Ok(c)
    }

    /// Sparse × dense multiplication into a preallocated output.
    ///
    /// `c` must already have shape `(self.rows, b.cols)`; prior contents
    /// are overwritten. [`CsrMatrix::spmm_into`] over `Matrix` operands
    /// with no epilogue.
    pub fn matmul_dense_into(&self, b: &Matrix, c: &mut Matrix) -> TensorResult<()> {
        if self.cols != b.rows() || c.shape() != (self.rows, b.cols()) {
            return Err(ShapeError::new(format!(
                "csr matmul: {}x{} * {:?} -> {:?}",
                self.rows,
                self.cols,
                b.shape(),
                c.shape()
            )));
        }
        self.spmm_into(b.as_slice(), b.cols(), c.as_mut_slice(), None, false)
    }

    /// The SpMM driver: `C = epi(self · B)` over raw row-major slices,
    /// `b_data` being `self.cols × n` and `c_data` `self.rows × n`
    /// (overwritten). Zero-allocation, for steady-state inference loops.
    ///
    /// `row_bias`, when present, adds `row_bias[r]` to every element of
    /// output row `r` (CSR rows are conv output channels / FC output
    /// features), then `relu` applies the `forward_into`-flavor ReLU —
    /// both in the same pass that stores the row, saving two full
    /// round-trips of the output through memory. Bitwise identical to
    /// the plain multiply + bias pass + ReLU pass on every kernel path.
    pub fn spmm_into(
        &self,
        b_data: &[f32],
        n: usize,
        c_data: &mut [f32],
        row_bias: Option<&[f32]>,
        relu: bool,
    ) -> TensorResult<()> {
        if b_data.len() != self.cols * n || c_data.len() != self.rows * n {
            return Err(ShapeError::new(format!(
                "csr spmm: {}x{} * len {} -> len {} at n = {n}",
                self.rows,
                self.cols,
                b_data.len(),
                c_data.len()
            )));
        }
        if let Some(bias) = row_bias {
            if bias.len() < self.rows {
                return Err(ShapeError::new(format!(
                    "csr spmm: row bias has {} entries, need {}",
                    bias.len(),
                    self.rows
                )));
            }
        }
        let path = kernels::selected();
        for (r, c_row) in c_data.chunks_mut(n.max(1)).enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            kernels::spmm_row_with(
                path,
                &self.values[lo..hi],
                &self.col_idx[lo..hi],
                b_data,
                n,
                c_row,
                row_bias.map(|bias| bias[r]),
                relu,
            );
        }
        Ok(())
    }

    /// Split into consecutive row bands of `band_rows` each, without
    /// densifying. Used to pre-split grouped-convolution weights once at
    /// layer construction instead of rebuilding per call.
    ///
    /// `self.rows` must be a multiple of `band_rows`.
    pub fn split_rows(&self, band_rows: usize) -> TensorResult<Vec<CsrMatrix>> {
        if band_rows == 0 || !self.rows.is_multiple_of(band_rows) {
            return Err(ShapeError::new(format!(
                "csr split: {} rows not divisible into bands of {}",
                self.rows, band_rows
            )));
        }
        let bands = self.rows / band_rows;
        let mut out = Vec::with_capacity(bands);
        for band in 0..bands {
            let r0 = band * band_rows;
            let lo = self.row_ptr[r0];
            let hi = self.row_ptr[r0 + band_rows];
            let row_ptr = self.row_ptr[r0..=r0 + band_rows]
                .iter()
                .map(|p| p - lo)
                .collect();
            out.push(CsrMatrix {
                rows: band_rows,
                cols: self.cols,
                row_ptr,
                col_idx: self.col_idx[lo..hi].to_vec(),
                values: self.values[lo..hi].to_vec(),
            });
        }
        Ok(out)
    }

    /// Sparse matrix–vector product.
    pub fn matvec(&self, x: &[f32]) -> TensorResult<Vec<f32>> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y, None, false)?;
        Ok(y)
    }

    /// Sparse matrix–vector product into a caller-provided slice, with
    /// a bias/ReLU epilogue: `y[r] = relu(Σ row_r · x + bias[r])`, each
    /// part optional and skipped (not zero-filled) when absent. `y`
    /// must have exactly `rows` entries and is overwritten.
    /// Zero-allocation: the batch-1 path of a pruned fully-connected
    /// layer.
    pub fn matvec_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        bias: Option<&[f32]>,
        relu: bool,
    ) -> TensorResult<()> {
        if x.len() != self.cols {
            return Err(ShapeError::new(format!(
                "csr matvec: {}x{} * len {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        if y.len() != self.rows {
            return Err(ShapeError::new(format!(
                "csr matvec: output len {}, expected {}",
                y.len(),
                self.rows
            )));
        }
        if let Some(b) = bias {
            if b.len() < self.rows {
                return Err(ShapeError::new(format!(
                    "csr matvec: bias has {} entries, need {}",
                    b.len(),
                    self.rows
                )));
            }
        }
        for (r, yr) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            *yr = kernels::spmv(
                &self.values[lo..hi],
                &self.col_idx[lo..hi],
                x,
                bias.map(|b| b[r]),
                relu,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use proptest::prelude::*;

    fn sparse_dense_pair(rows: usize, cols: usize, keep_every: usize) -> (Matrix, CsrMatrix) {
        let dense = Matrix::from_fn(rows, cols, |r, c| {
            if (r * cols + c).is_multiple_of(keep_every) {
                (r as f32 - c as f32) / 3.0 + 0.25
            } else {
                0.0
            }
        });
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        (dense, csr)
    }

    #[test]
    fn dense_roundtrip() {
        let (dense, csr) = sparse_dense_pair(7, 11, 3);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn nnz_matches_dense_count() {
        let (dense, csr) = sparse_dense_pair(9, 9, 4);
        assert_eq!(csr.nnz(), dense.nnz(0.0));
    }

    #[test]
    fn matmul_matches_dense_gemm() {
        let (dense, csr) = sparse_dense_pair(13, 17, 2);
        let b = Matrix::from_fn(17, 5, |r, c| ((r + 2 * c) % 7) as f32 - 3.0);
        let sparse_out = csr.matmul_dense(&b).unwrap();
        let dense_out = gemm(&dense, &b).unwrap();
        assert!(sparse_out.max_abs_diff(&dense_out).unwrap() < 1e-4);
    }

    #[test]
    fn matvec_matches_dense() {
        let (dense, csr) = sparse_dense_pair(6, 8, 3);
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.5 - 2.0).collect();
        let ys = csr.matvec(&x).unwrap();
        let yd = dense.matvec(&x).unwrap();
        for (a, b) in ys.iter().zip(yd.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn shape_mismatch_errors() {
        let (_, csr) = sparse_dense_pair(3, 4, 2);
        assert!(csr.matmul_dense(&Matrix::zeros(5, 2)).is_err());
        assert!(csr.matvec(&[0.0; 3]).is_err());
    }

    #[test]
    fn from_raw_validates() {
        // Good.
        assert!(CsrMatrix::from_raw(2, 3, vec![0, 1, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
        // Bad row_ptr length.
        assert!(CsrMatrix::from_raw(2, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_err());
        // Non-monotone row_ptr.
        assert!(CsrMatrix::from_raw(2, 3, vec![0, 2, 1], vec![0, 2], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::from_raw(2, 3, vec![0, 1, 2], vec![0, 3], vec![1.0, 2.0]).is_err());
        // Endpoint mismatch.
        assert!(CsrMatrix::from_raw(2, 3, vec![1, 1, 2], vec![0, 2], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn eps_threshold_drops_small_values() {
        let dense = Matrix::from_vec(1, 4, vec![0.05, -0.5, 0.0, f32::NAN]).unwrap();
        let csr = CsrMatrix::from_dense(&dense, 0.1);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.nnz(), dense.nnz(0.1));
        assert_eq!(csr.to_dense().get(0, 1), -0.5);
        assert!(csr.to_dense().get(0, 3).is_nan());
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_dense(&Matrix::zeros(0, 0), 0.0);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.density(), 0.0);
    }

    #[test]
    fn dense_stored_matmul_matches_gemm_on_every_arm() {
        // A fully dense matrix stored as CSR (density 1.0) and a sparse
        // one both agree with the dense GEMM oracle.
        for keep_every in [1usize, 3] {
            let (dense, csr) = sparse_dense_pair(9, 14, keep_every);
            let b = Matrix::from_fn(14, 6, |r, c| ((r * 2 + c) % 9) as f32 - 4.0);
            let s = csr.matmul_dense(&b).unwrap();
            let d = gemm(&dense, &b).unwrap();
            assert!(s.max_abs_diff(&d).unwrap() < 1e-4);
        }
    }

    #[test]
    fn matmul_fused_matches_unfused_plus_epilogue_bitwise() {
        let (_, csr) = sparse_dense_pair(8, 12, 2);
        let b = Matrix::from_fn(12, 7, |r, c| ((r + 3 * c) % 5) as f32 - 2.0);
        let bias: Vec<f32> = (0..8).map(|r| r as f32 * 0.75 - 3.0).collect();

        let mut expect = csr.matmul_dense(&b).unwrap();
        for (r, &bv) in bias.iter().enumerate() {
            for v in expect.row_mut(r) {
                let y = *v + bv;
                *v = if y > 0.0 { y } else { 0.0 };
            }
        }

        let mut fused = Matrix::zeros(8, 7);
        csr.spmm_into(b.as_slice(), 7, fused.as_mut_slice(), Some(&bias), true)
            .unwrap();
        for (e, f) in expect.as_slice().iter().zip(fused.as_slice()) {
            assert_eq!(e.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn matvec_into_matches_matvec_bitwise() {
        let (_, csr) = sparse_dense_pair(6, 8, 3);
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.5 - 2.0).collect();
        let alloc = csr.matvec(&x).unwrap();
        let mut into = vec![f32::NAN; 6];
        csr.matvec_into(&x, &mut into, None, false).unwrap();
        for (a, b) in alloc.iter().zip(&into) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Shape errors on the output side too.
        assert!(csr.matvec_into(&x, &mut [0.0; 5], None, false).is_err());
    }

    #[test]
    fn matvec_fused_matches_manual_epilogue_bitwise() {
        let (_, csr) = sparse_dense_pair(6, 8, 2);
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.25 - 1.0).collect();
        let bias: Vec<f32> = (0..6).map(|r| 1.5 - r as f32).collect();
        let plain = csr.matvec(&x).unwrap();
        let mut fused = vec![0.0; 6];
        csr.matvec_into(&x, &mut fused, Some(&bias), true).unwrap();
        for r in 0..6 {
            let y = plain[r] + bias[r];
            let y = if y > 0.0 { y } else { 0.0 };
            assert_eq!(y.to_bits(), fused[r].to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(rows in 1usize..12, cols in 1usize..12, keep in 1usize..5) {
            let (dense, csr) = sparse_dense_pair(rows, cols, keep);
            prop_assert_eq!(csr.to_dense(), dense);
        }

        #[test]
        fn prop_matmul_matches_gemm(rows in 1usize..10, k in 1usize..10, n in 1usize..10, keep in 1usize..4) {
            let (dense, csr) = sparse_dense_pair(rows, k, keep);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 3 + c) % 5) as f32 - 2.0);
            let s = csr.matmul_dense(&b).unwrap();
            let d = gemm(&dense, &b).unwrap();
            prop_assert!(s.max_abs_diff(&d).unwrap() < 1e-4);
        }

        #[test]
        fn prop_sparsity_in_unit_interval(rows in 1usize..10, cols in 1usize..10, keep in 1usize..6) {
            let (_, csr) = sparse_dense_pair(rows, cols, keep);
            prop_assert!(csr.sparsity() >= 0.0 && csr.sparsity() <= 1.0);
        }
    }
}
