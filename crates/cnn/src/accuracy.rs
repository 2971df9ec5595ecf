//! Top-1 / Top-5 accuracy metrics (paper §3.2.2).

use cap_tensor::ops::top_k_indices;
use cap_tensor::{Matrix, ShapeError, TensorResult};
use serde::{Deserialize, Serialize};

/// Accuracy over an evaluated batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Fraction of samples whose highest-probability class is the label.
    pub top1: f64,
    /// Fraction of samples whose label is among the 5 highest classes.
    pub top5: f64,
    /// Number of samples evaluated.
    pub n: usize,
}

/// Compute top-1/top-5 accuracy from a `batch × classes` score matrix
/// (probabilities or logits — only the ordering matters) and labels.
pub fn evaluate_topk(scores: &Matrix, labels: &[usize]) -> TensorResult<AccuracyReport> {
    if scores.rows() != labels.len() {
        return Err(ShapeError::new(format!(
            "evaluate_topk: {} rows vs {} labels",
            scores.rows(),
            labels.len()
        )));
    }
    let classes = scores.cols();
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(ShapeError::new(format!(
            "evaluate_topk: label {bad} out of range for {classes} classes"
        )));
    }
    let mut top1_hits = 0usize;
    let mut top5_hits = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let top = top_k_indices(scores.row(r), 5);
        if top.first() == Some(&label) {
            top1_hits += 1;
        }
        if top.contains(&label) {
            top5_hits += 1;
        }
    }
    let n = labels.len();
    Ok(AccuracyReport {
        top1: top1_hits as f64 / n.max(1) as f64,
        top5: top5_hits as f64 / n.max(1) as f64,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores() -> Matrix {
        // 3 samples, 6 classes.
        Matrix::from_vec(
            3,
            6,
            vec![
                0.1, 0.5, 0.2, 0.1, 0.05, 0.05, // argmax 1
                0.3, 0.1, 0.1, 0.1, 0.2, 0.2, // argmax 0
                0.0, 0.1, 0.2, 0.3, 0.25, 0.15, // argmax 3
            ],
        )
        .unwrap()
    }

    #[test]
    fn top1_counts_exact_hits() {
        let r = evaluate_topk(&scores(), &[1, 0, 3]).unwrap();
        assert_eq!(r.top1, 1.0);
        assert_eq!(r.top5, 1.0);
        assert_eq!(r.n, 3);
    }

    #[test]
    fn top5_more_lenient_than_top1() {
        // Label 5 for sample 0 is rank 5 (last of top-5? values 0.5,0.2,0.1,0.1,0.05,0.05
        // -> top5 indices are 1,2,0,3,4; label 5 excluded).
        let r = evaluate_topk(&scores(), &[2, 4, 4]).unwrap();
        assert_eq!(r.top1, 0.0);
        assert_eq!(r.top5, 1.0);
        assert!(r.top5 >= r.top1);
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(evaluate_topk(&scores(), &[1, 0]).is_err());
        assert!(evaluate_topk(&scores(), &[1, 0, 6]).is_err());
    }
}
