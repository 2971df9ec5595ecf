//! NCHW 4-dimensional activation tensor.

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use serde::{Deserialize, Serialize};

/// A 4-D tensor with Caffe's canonical NCHW layout:
/// `data[((n * C + c) * H + h) * W + w]`.
///
/// `n` indexes the image in the batch, `c` the channel, `h`/`w` the spatial
/// position. Activations flowing between CNN layers are `Tensor4`s.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tensor4 {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Create an all-zero tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Create a tensor from an NCHW-ordered vector.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> TensorResult<Self> {
        if data.len() != n * c * h * w {
            return Err(ShapeError::new(format!(
                "Tensor4::from_vec: data length {} != {}x{}x{}x{}",
                data.len(),
                n,
                c,
                h,
                w
            )));
        }
        Ok(Self { n, c, h, w, data })
    }

    /// Reshape in place to `n × c × h × w`, reusing the existing allocation.
    ///
    /// All elements are reset to zero. Like [`Matrix::resize`], the backing
    /// `Vec` only grows when the new size exceeds the high-water mark, so a
    /// `Tensor4` used as an activation slot stops allocating once it has
    /// seen the largest shape that flows through it — and grows to exactly
    /// that shape, not to the next doubling, so its capacity is its
    /// largest shape.
    pub fn resize(&mut self, n: usize, c: usize, h: usize, w: usize) {
        self.n = n;
        self.c = c;
        self.h = h;
        self.w = w;
        self.data.clear();
        self.data.reserve_exact(n * c * h * w);
        self.data.resize(n * c * h * w, 0.0);
    }

    /// Elements the backing buffer holds room for: the largest shape
    /// [`Tensor4::resize`] has given it (or its construction size).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Create a tensor by evaluating `f(n, c, h, w)` for every element.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(n * c * h * w);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..h {
                    for wi in 0..w {
                        data.push(f(ni, ci, hi, wi));
                    }
                }
            }
        }
        Self { n, c, h, w, data }
    }

    /// Batch size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channel count.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Spatial height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Spatial width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(n, c, h, w)` shape tuple.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Elements per image (`c * h * w`).
    #[inline]
    pub fn image_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Immutable NCHW data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable NCHW data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor (debug-checked).
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        self.data[((n * self.c + c) * self.h + h) * self.w + w]
    }

    /// Element setter (debug-checked).
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        self.data[((n * self.c + c) * self.h + h) * self.w + w] = v;
    }

    /// Immutable slice covering image `n` (all channels).
    #[inline]
    pub fn image(&self, n: usize) -> &[f32] {
        let len = self.image_len();
        &self.data[n * len..(n + 1) * len]
    }

    /// Mutable slice covering image `n` (all channels).
    #[inline]
    pub fn image_mut(&mut self, n: usize) -> &mut [f32] {
        let len = self.image_len();
        &mut self.data[n * len..(n + 1) * len]
    }

    /// Flatten to an `n × (c*h*w)` matrix (used by fully-connected layers).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.n, self.image_len(), self.data.clone())
            .expect("Tensor4 data length always matches n * image_len")
    }

    /// Rebuild a tensor from an `n × (c*h*w)` matrix.
    pub fn from_matrix(m: &Matrix, c: usize, h: usize, w: usize) -> TensorResult<Self> {
        if m.cols() != c * h * w {
            return Err(ShapeError::new(format!(
                "Tensor4::from_matrix: cols {} != {}x{}x{}",
                m.cols(),
                c,
                h,
                w
            )));
        }
        Self::from_vec(m.rows(), c, h, w, m.as_slice().to_vec())
    }

    /// Maximum absolute difference to a same-shaped tensor.
    pub fn max_abs_diff(&self, other: &Tensor4) -> TensorResult<f32> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_nchw() {
        let t = Tensor4::from_fn(2, 3, 4, 5, |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as f32
        });
        // Stride checks: w fastest, then h, then c, then n.
        assert_eq!(t.as_slice()[0], 0.0);
        assert_eq!(t.as_slice()[1], 1.0); // w+1
        assert_eq!(t.as_slice()[5], 10.0); // h+1
        assert_eq!(t.as_slice()[20], 100.0); // c+1
        assert_eq!(t.as_slice()[60], 1000.0); // n+1
        assert_eq!(t.get(1, 2, 3, 4), 1234.0);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(Tensor4::from_vec(1, 2, 3, 4, vec![0.0; 23]).is_err());
        assert!(Tensor4::from_vec(1, 2, 3, 4, vec![0.0; 24]).is_ok());
    }

    #[test]
    fn matrix_roundtrip() {
        let t = Tensor4::from_fn(3, 2, 2, 2, |n, c, h, w| (n + c + h + w) as f32);
        let m = t.to_matrix();
        assert_eq!(m.shape(), (3, 8));
        let back = Tensor4::from_matrix(&m, 2, 2, 2).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_matrix_rejects_bad_cols() {
        let m = Matrix::zeros(2, 7);
        assert!(Tensor4::from_matrix(&m, 2, 2, 2).is_err());
    }

    #[test]
    fn image_slices_partition_data() {
        let t = Tensor4::from_fn(2, 1, 2, 2, |n, _, _, _| n as f32);
        assert!(t.image(0).iter().all(|&v| v == 0.0));
        assert!(t.image(1).iter().all(|&v| v == 1.0));
        assert_eq!(t.image(0).len() + t.image(1).len(), t.len());
    }
}
