//! Row-major dense `f32` matrix.

use crate::error::{ShapeError, TensorResult};
use serde::{Deserialize, Serialize};

/// Whether `v` is a stored value at threshold `eps`: anything whose
/// magnitude is not `<= eps`, a NaN included.
#[inline]
pub(crate) fn counts_as_nonzero(v: f32, eps: f32) -> bool {
    v.abs() > eps || v.is_nan()
}

/// A row-major dense matrix of `f32`.
///
/// The storage layout is `data[r * cols + c]`. All CNN weights and im2col
/// buffers in the workspace use this type; it is deliberately minimal and
/// allocation-transparent so kernels can reuse buffers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows × cols` matrix where every element is `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> TensorResult<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(format!(
                "from_vec: data length {} != {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation.
    ///
    /// All elements are reset to zero. The backing `Vec` only reallocates
    /// when the new size exceeds every size seen before, which is what
    /// makes a `Matrix` a reusable scratch slot in steady-state inference:
    /// after the first pass over each layer shape, no allocator calls
    /// remain.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// [`Matrix::resize`] for a caller that writes every element next
    /// (the lowerings): stale contents stay and only growth is zeroed,
    /// so the reshape is not a pass over the buffer.
    pub(crate) fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Create a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Elements the backing buffer can hold without reallocating: the
    /// high-water mark of a matrix reused through [`Matrix::resize`].
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor (debug-checked).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter (debug-checked).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Keep the rows `keep_row` accepts and, of each, the columns
    /// `keep_col` accepts, in order, compacted leftward in place — no
    /// second matrix is built — then release the storage past the
    /// narrowed size (`shrink_to_fit`; for a large buffer the allocator
    /// can shrink it where it lies). This is how a narrowed layer drops
    /// its pruned filters and the columns of its inputs' pruned
    /// channels while holding one copy of its weights.
    pub fn retain(&mut self, keep_row: impl Fn(usize) -> bool, keep_col: impl Fn(usize) -> bool) {
        // Runs of kept columns, each moved with one `copy_within`.
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for c in (0..self.cols).filter(|&c| keep_col(c)) {
            match runs.last_mut() {
                Some(run) if run.end == c => run.end += 1,
                _ => runs.push(c..c + 1),
            }
        }
        let (mut at, mut rows) = (0, 0);
        for r in (0..self.rows).filter(|&r| keep_row(r)) {
            // `at` never passes the element it copies from: it counts
            // only kept elements before it.
            for run in &runs {
                let from = r * self.cols + run.start;
                self.data.copy_within(from..from + run.len(), at);
                at += run.len();
            }
            rows += 1;
        }
        self.cols = runs.iter().map(|run| run.len()).sum();
        self.rows = rows;
        self.data.truncate(at);
        self.data.shrink_to_fit();
    }

    /// Count of elements whose magnitude is not `<= eps`: those above
    /// it, and NaNs (a NaN weight is not a pruned one).
    pub fn nnz(&self, eps: f32) -> usize {
        self.data
            .iter()
            .filter(|&&v| counts_as_nonzero(v, eps))
            .count()
    }

    /// Fraction of elements that are (near-)zero: `1 - nnz/len`.
    pub fn sparsity(&self, eps: f32) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz(eps) as f64 / self.data.len() as f64
    }

    /// Sum of absolute values (L1 norm over all elements).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Elementwise in-place scale.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// `self += alpha * other`, shape-checked. A multiply then an add,
    /// not the kernels' fused step: training and test helpers, held to
    /// a tolerance, never to [`crate::kernels`] bits.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) -> TensorResult<()> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(format!(
                "axpy: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> TensorResult<f32> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(format!(
                "max_abs_diff: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max))
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f32]) -> TensorResult<Vec<f32>> {
        let mut y = vec![0.0_f32; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Matrix–vector product into a caller-provided slice.
    ///
    /// The zero-allocation variant of [`Matrix::matvec`] for
    /// steady-state inference loops; `y` must have exactly `rows`
    /// entries and is overwritten. Each step is a multiply then an add,
    /// not the kernels' fused step ([`crate::kernels`]): a tolerance
    /// oracle, never compared bit for bit.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) -> TensorResult<()> {
        if x.len() != self.cols {
            return Err(ShapeError::new(format!(
                "matvec: {}x{} * len {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        if y.len() != self.rows {
            return Err(ShapeError::new(format!(
                "matvec: output len {}, expected {}",
                y.len(),
                self.rows
            )));
        }
        for (r, yr) in y.iter_mut().enumerate() {
            let row = self.row(r);
            let mut acc = 0.0_f32;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yr = acc;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_keeps_the_chosen_rows_and_columns_in_place() {
        let full = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f32);
        let rows = |r: usize| r != 1 && r != 4;
        let cols = |c: usize| ![0, 3, 4].contains(&c);
        let mut m = full.clone();
        m.retain(rows, cols);
        let want = Matrix::from_fn(3, 4, |r, c| full.get([0, 2, 3][r], [1, 2, 5, 6][c]));
        assert_eq!(m, want);
        assert_eq!(m.capacity(), 12);
        // Everything, then nothing.
        let mut same = full.clone();
        same.retain(|_| true, |_| true);
        assert_eq!(same, full);
        m.retain(|_| false, |_| true);
        assert_eq!((m.shape(), m.len()), ((0, 4), 0));
    }

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 7.5);
        assert_eq!(m.get(1, 2), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 10 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.matvec(&x).unwrap(), x);
    }

    #[test]
    fn nnz_and_sparsity() {
        let m = Matrix::from_vec(1, 4, vec![0.0, 1.0, 0.0, -2.0]).unwrap();
        assert_eq!(m.nnz(0.0), 2);
        assert!((m.sparsity(0.0) - 0.5).abs() < 1e-9);
        let m = Matrix::from_vec(1, 4, vec![0.0, f32::NAN, 0.0, -2.0]).unwrap();
        assert_eq!(m.nnz(0.0), 2);
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.axpy(0.5, &b).unwrap();
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn axpy_shape_mismatch_errors() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.axpy(1.0, &b).is_err());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -4.0]).unwrap();
        assert!((m.l1_norm() - 7.0).abs() < 1e-6);
        assert!((m.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn matvec_rejects_bad_len() {
        let m = Matrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matvec_into_matches_matvec_bitwise() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.3 - 1.0);
        let x = [0.5, -1.5, 2.0, 0.25];
        let alloc = m.matvec(&x).unwrap();
        let mut into = [f32::NAN; 3];
        m.matvec_into(&x, &mut into).unwrap();
        for (a, b) in alloc.iter().zip(&into) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(m.matvec_into(&x, &mut [0.0; 2]).is_err());
        assert!(m.matvec_into(&[0.0; 3], &mut [0.0; 3]).is_err());
    }
}
