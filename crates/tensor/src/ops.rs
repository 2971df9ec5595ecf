//! Elementwise and rowwise operations: ReLU, softmax, LRN helpers.

use crate::dense::Matrix;
use crate::kernels;

/// In-place ReLU over a slice: `v = if v < 0.0 { 0.0 } else { v }`
/// (NaN and `-0.0` pass through unchanged, on every kernel path).
pub fn relu_inplace(data: &mut [f32]) {
    kernels::relu_inplace_with(kernels::selected(), data);
}

/// Out-of-place ReLU: `dst[i] = if src[i] > 0.0 { src[i] } else { 0.0 }`
/// over `min(src.len(), dst.len())` elements (NaN and `-0.0` flush to
/// `+0.0`, on every kernel path).
pub fn relu_into(src: &[f32], dst: &mut [f32]) {
    kernels::relu_into_with(kernels::selected(), src, dst);
}

/// ReLU derivative mask: 1.0 where the forward input was positive.
pub fn relu_mask(forward_input: &[f32]) -> Vec<f32> {
    forward_input
        .iter()
        .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
        .collect()
}

/// Numerically stable softmax over one logit slice, in place.
pub fn softmax_inplace(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in logits.iter_mut() {
            *v /= sum;
        }
    }
}

/// Rowwise softmax over a matrix (one row per sample).
pub fn softmax_rows(m: &mut Matrix) {
    let rows = m.rows();
    for r in 0..rows {
        softmax_inplace(m.row_mut(r));
    }
}

/// Indices of the `k` largest values in `row`, descending.
/// Ties break toward the lower index, matching `argsort` stability.
pub fn top_k_indices(row: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..row.len()).collect();
    idx.sort_by(|&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
    idx
}

/// Cross-entropy loss of a softmax probability row against a class label.
/// Probabilities are clamped away from zero for numerical robustness.
pub fn cross_entropy(probs: &[f32], label: usize) -> f32 {
    -probs[label].max(1e-12).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut v = vec![-1.0, 0.0, 2.5];
        relu_inplace(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 2.5]);
    }

    #[test]
    fn relu_mask_matches() {
        assert_eq!(relu_mask(&[-1.0, 0.0, 3.0]), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut v);
        let s: f32 = v.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut v = vec![1000.0, 1001.0];
        softmax_inplace(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_inplace(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn top_k_orders_descending() {
        let row = vec![0.1, 0.7, 0.05, 0.15];
        assert_eq!(top_k_indices(&row, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&row, 10), vec![1, 3, 0, 2]);
    }

    #[test]
    fn cross_entropy_low_for_confident_correct() {
        assert!(cross_entropy(&[0.01, 0.99], 1) < 0.1);
        assert!(cross_entropy(&[0.99, 0.01], 1) > 1.0);
        // Zero probability doesn't produce inf.
        assert!(cross_entropy(&[1.0, 0.0], 1).is_finite());
    }

    proptest! {
        #[test]
        fn prop_softmax_is_distribution(v in proptest::collection::vec(-50.0f32..50.0, 1..20)) {
            let mut s = v.clone();
            softmax_inplace(&mut s);
            let total: f32 = s.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        #[test]
        fn prop_softmax_shift_invariant(v in proptest::collection::vec(-10.0f32..10.0, 1..10), shift in -5.0f32..5.0) {
            let mut a = v.clone();
            let mut b: Vec<f32> = v.iter().map(|x| x + shift).collect();
            softmax_inplace(&mut a);
            softmax_inplace(&mut b);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
