//! Masked softmax cross-entropy for semi-supervised node classification.

use tcg_tensor::{ops, DenseMatrix};

/// Result of a loss evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean negative log-likelihood over masked nodes.
    pub loss: f64,
    /// Gradient w.r.t. the logits (zero outside the mask).
    pub dlogits: DenseMatrix,
    /// Accuracy over masked nodes.
    pub accuracy: f64,
}

/// Computes masked cross-entropy loss, logits gradient, and accuracy.
///
/// `mask[v]` selects the nodes contributing to the loss (the training
/// split); gradient rows of unmasked nodes are zero. Returns zero loss and
/// accuracy for an empty mask.
pub fn masked_cross_entropy(logits: &DenseMatrix, labels: &[u32], mask: &[bool]) -> LossOutput {
    assert_eq!(logits.rows(), labels.len());
    assert_eq!(logits.rows(), mask.len());
    let k = logits.cols();
    let count = mask.iter().filter(|&&m| m).count();
    let mut dlogits = DenseMatrix::zeros(logits.rows(), k);
    if count == 0 {
        return LossOutput {
            loss: 0.0,
            dlogits,
            accuracy: 0.0,
        };
    }
    let probs = ops::softmax_rows(logits);
    let preds = ops::argmax_rows(logits);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    let inv = 1.0 / count as f32;
    for v in 0..logits.rows() {
        if !mask[v] {
            continue;
        }
        let label = labels[v] as usize;
        debug_assert!(label < k);
        let p = probs.get(v, label).max(1e-12);
        loss -= (p as f64).ln();
        if preds[v] == label {
            correct += 1;
        }
        let drow = dlogits.row_mut(v);
        for (j, d) in drow.iter_mut().enumerate() {
            let indicator = if j == label { 1.0 } else { 0.0 };
            *d = (probs.get(v, j) - indicator) * inv;
        }
    }
    LossOutput {
        loss: loss / count as f64,
        dlogits,
        accuracy: correct as f64 / count as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_tensor::init;

    #[test]
    fn perfect_logits_give_low_loss_and_full_accuracy() {
        let mut logits = DenseMatrix::zeros(4, 3);
        let labels = [0u32, 1, 2, 1];
        for (v, &l) in labels.iter().enumerate() {
            logits.set(v, l as usize, 20.0);
        }
        let out = masked_cross_entropy(&logits, &labels, &[true; 4]);
        assert!(out.loss < 1e-3);
        assert_eq!(out.accuracy, 1.0);
    }

    #[test]
    fn uniform_logits_loss_is_log_k() {
        let logits = DenseMatrix::zeros(10, 4);
        let labels = vec![0u32; 10];
        let out = masked_cross_entropy(&logits, &labels, &[true; 10]);
        assert!((out.loss - (4.0f64).ln()).abs() < 1e-5);
    }

    #[test]
    fn mask_zeroes_gradient_outside() {
        let logits = init::uniform(6, 3, -1.0, 1.0, 1);
        let labels = vec![1u32; 6];
        let mask = vec![true, false, true, false, false, true];
        let out = masked_cross_entropy(&logits, &labels, &mask);
        for (v, &m) in mask.iter().enumerate() {
            let row_norm: f32 = out.dlogits.row(v).iter().map(|x| x.abs()).sum();
            if m {
                assert!(row_norm > 0.0);
            } else {
                assert_eq!(row_norm, 0.0);
            }
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = init::uniform(5, 4, -1.0, 1.0, 2);
        let labels = vec![2u32, 0, 3, 1, 2];
        let mask = vec![true, true, false, true, true];
        let out = masked_cross_entropy(&logits, &labels, &mask);
        let eps = 1e-3f32;
        for &(v, j) in &[(0usize, 2usize), (1, 0), (4, 3), (3, 1)] {
            let mut lp = logits.clone();
            lp.set(v, j, lp.get(v, j) + eps);
            let mut lm = logits.clone();
            lm.set(v, j, lm.get(v, j) - eps);
            let fp = masked_cross_entropy(&lp, &labels, &mask).loss;
            let fm = masked_cross_entropy(&lm, &labels, &mask).loss;
            let fd = (fp - fm) / (2.0 * eps as f64);
            let an = out.dlogits.get(v, j) as f64;
            assert!((fd - an).abs() < 1e-3, "({v},{j}): fd {fd} vs {an}");
        }
    }

    #[test]
    fn empty_mask_is_safe() {
        let logits = DenseMatrix::zeros(3, 2);
        let out = masked_cross_entropy(&logits, &[0, 1, 0], &[false; 3]);
        assert_eq!(out.loss, 0.0);
        assert_eq!(out.accuracy, 0.0);
    }
}
