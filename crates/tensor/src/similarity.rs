//! Similarity measures and pointwise nonlinearities used by the prototype
//! classifier and the losses.

use crate::{Result, Tensor, TensorError};

/// L2 (Euclidean) norm of a slice.
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Cosine similarity between two equal-length vectors.
///
/// Returns `0.0` when either vector has (near-)zero norm, which matches the
/// behaviour expected by the explicit-memory classifier: an all-zero
/// prototype can never win a query.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when the lengths differ.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> Result<f32> {
    if a.len() != b.len() {
        return Err(TensorError::LengthMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na < 1e-12 || nb < 1e-12 {
        return Ok(0.0);
    }
    Ok(dot / (na * nb))
}

/// Numerically stable softmax over a single vector.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&x| x / sum.max(1e-20)).collect()
}

/// Numerically stable log-softmax over a single vector.
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
    logits.iter().map(|&x| x - max - log_sum).collect()
}

impl Tensor {
    /// Cosine similarity between this tensor and `other`, both flattened.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when the lengths differ.
    pub fn cosine(&self, other: &Tensor) -> Result<f32> {
        cosine_similarity(self.as_slice(), other.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_bounds_and_identity() {
        let a = [1.0, 2.0, 3.0];
        assert!((cosine_similarity(&a, &a).unwrap() - 1.0).abs() < 1e-6);
        let b = [-1.0, -2.0, -3.0];
        assert!((cosine_similarity(&a, &b).unwrap() + 1.0).abs() < 1e-6);
        let orth = [0.0, 0.0, 0.0];
        assert_eq!(cosine_similarity(&a, &orth).unwrap(), 0.0);
        assert!(cosine_similarity(&a, &[1.0]).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let probs = softmax(&[1.0, 2.0, 3.0]);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(probs[2] > probs[1] && probs[1] > probs[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let logits = [0.5, -1.0, 2.0, 0.0];
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-5);
        }
    }
}
