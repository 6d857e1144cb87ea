//! The losses used by O-FSCIL: cross entropy with soft labels (for Mixup /
//! CutMix), the feature-orthogonality regulariser (paper Eq. 1–2) and the
//! multi-margin loss on cosine logits (paper Eq. 4).
//!
//! Every loss returns `(scalar_loss, gradient_wrt_input)` so the training
//! loops can feed the gradient straight into [`crate::Layer::backward`].

use crate::{NnError, Result};
use ofscil_tensor::{log_softmax, softmax, Tensor};

/// Converts hard class labels into one-hot target rows.
///
/// # Errors
///
/// Returns an error when any label is `>= num_classes`.
pub fn one_hot(labels: &[usize], num_classes: usize) -> Result<Tensor> {
    let mut out = Tensor::zeros(&[labels.len(), num_classes]);
    for (i, &label) in labels.iter().enumerate() {
        if label >= num_classes {
            return Err(NnError::InvalidConfig(format!(
                "label {label} out of range for {num_classes} classes"
            )));
        }
        out.set(&[i, label], 1.0)?;
    }
    Ok(out)
}

/// Classification accuracy of `logits` (`[batch, classes]`) against hard
/// labels, in `[0, 1]`.
///
/// # Errors
///
/// Returns an error when shapes disagree.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    if logits.dims().len() != 2 || logits.dims()[0] != labels.len() {
        return Err(NnError::BadInput {
            layer: "accuracy".into(),
            expected: format!("[{}, classes]", labels.len()),
            actual: logits.dims().to_vec(),
        });
    }
    if labels.is_empty() {
        return Ok(0.0);
    }
    let predictions = logits.argmax_rows()?;
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f32 / labels.len() as f32)
}

/// Cross-entropy loss with *soft* targets (rows of `targets` are probability
/// distributions), averaged over the batch. Returns the loss and the gradient
/// with respect to the logits.
///
/// With one-hot targets this reduces to standard cross entropy; soft targets
/// are produced by Mixup and CutMix during pretraining.
///
/// # Errors
///
/// Returns an error when the shapes of `logits` and `targets` disagree.
pub fn cross_entropy_soft(logits: &Tensor, targets: &Tensor) -> Result<(f32, Tensor)> {
    if logits.dims() != targets.dims() || logits.dims().len() != 2 {
        return Err(NnError::BadInput {
            layer: "cross_entropy".into(),
            expected: format!("targets with shape {:?}", logits.dims()),
            actual: targets.dims().to_vec(),
        });
    }
    let batch = logits.dims()[0];
    let classes = logits.dims()[1];
    if batch == 0 {
        return Err(NnError::InvalidConfig("empty batch".into()));
    }
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(logits.dims());
    for b in 0..batch {
        let row = logits.row(b)?;
        let target = targets.row(b)?;
        let logp = log_softmax(row);
        let p = softmax(row);
        for c in 0..classes {
            loss -= target[c] * logp[c];
        }
        let grad_row: Vec<f32> = (0..classes)
            .map(|c| (p[c] - target[c]) / batch as f32)
            .collect();
        grad.set_row(b, &grad_row)?;
    }
    Ok((loss / batch as f32, grad))
}

/// Cross-entropy loss with hard labels; convenience wrapper over
/// [`cross_entropy_soft`].
///
/// # Errors
///
/// Returns an error when labels are out of range or shapes disagree.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let targets = one_hot(labels, logits.dims().get(1).copied().unwrap_or(0))?;
    cross_entropy_soft(logits, &targets)
}

/// Feature-orthogonality regularisation (paper Eq. 1).
///
/// Given a batch of projected features `F` (`[batch, d_p]`), the rows are
/// L2-normalised to `G` and the loss is `‖G·Gᵀ − I‖² / B²`: off-diagonal
/// entries push different samples' features towards orthogonality. Operating
/// on normalised features keeps the loss and its gradient bounded regardless
/// of the feature scale, which is what makes the regulariser safe to apply
/// from the very first (untrained) epoch. Returns the loss and the gradient
/// with respect to the *unnormalised* features.
///
/// # Errors
///
/// Returns an error when `features` is not a matrix.
pub fn orthogonality_loss(features: &Tensor) -> Result<(f32, Tensor)> {
    if features.dims().len() != 2 {
        return Err(NnError::BadInput {
            layer: "orthogonality_loss".into(),
            expected: "[batch, d_p]".into(),
            actual: features.dims().to_vec(),
        });
    }
    let batch = features.dims()[0];
    let dim = features.dims()[1];
    if batch == 0 {
        return Err(NnError::InvalidConfig("empty batch".into()));
    }
    // Row norms and normalised features g_i = f_i / ||f_i||.
    let norms: Vec<f32> = (0..batch)
        .map(|i| {
            let row = &features.as_slice()[i * dim..(i + 1) * dim];
            row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-8)
        })
        .collect();
    let mut normalized = features.clone();
    for (i, norm) in norms.iter().enumerate() {
        for x in &mut normalized.as_mut_slice()[i * dim..(i + 1) * dim] {
            *x /= norm;
        }
    }
    let gram = normalized.matmul(&normalized.transpose()?)?;
    let diff = gram.sub(&Tensor::eye(batch))?;
    let denom = (batch * batch) as f32;
    let loss = diff.norm_sq() / denom;
    // dL/dG = (4 / B²) (G·Gᵀ − I) G, then project through the row
    // normalisation: dL/df_i = (dL/dg_i − (dL/dg_i · g_i) g_i) / ||f_i||.
    let grad_normalized = diff.matmul(&normalized)?.scale(4.0 / denom);
    let mut grad = grad_normalized.clone();
    for (i, &norm) in norms.iter().enumerate() {
        let g = &normalized.as_slice()[i * dim..(i + 1) * dim];
        let dg = &grad_normalized.as_slice()[i * dim..(i + 1) * dim];
        let dot: f32 = g.iter().zip(dg).map(|(a, b)| a * b).sum();
        let out = &mut grad.as_mut_slice()[i * dim..(i + 1) * dim];
        for (k, o) in out.iter_mut().enumerate() {
            *o = (dg[k] - dot * g[k]) / norm;
        }
    }
    Ok((loss, grad))
}

/// Multi-margin loss on cosine-similarity logits (paper Eq. 4).
///
/// For each sample with ground-truth logit `l_gt`, every other class logit
/// `l_i` contributes `max(0, m − l_gt + l_i)²`; the sum is normalised by the
/// number of classes and averaged over the batch. Returns the loss and the
/// gradient with respect to the logits.
///
/// # Errors
///
/// Returns an error when shapes disagree or labels are out of range.
pub fn multi_margin_loss(logits: &Tensor, labels: &[usize], margin: f32) -> Result<(f32, Tensor)> {
    if logits.dims().len() != 2 || logits.dims()[0] != labels.len() {
        return Err(NnError::BadInput {
            layer: "multi_margin_loss".into(),
            expected: format!("[{}, classes]", labels.len()),
            actual: logits.dims().to_vec(),
        });
    }
    let batch = labels.len();
    let classes = logits.dims()[1];
    if batch == 0 || classes == 0 {
        return Err(NnError::InvalidConfig("empty batch or class set".into()));
    }
    let mut loss = 0.0f32;
    let mut grad = Tensor::zeros(logits.dims());
    for (b, &gt) in labels.iter().enumerate() {
        if gt >= classes {
            return Err(NnError::InvalidConfig(format!(
                "label {gt} out of range for {classes} classes"
            )));
        }
        let row = logits.row(b)?;
        let l_gt = row[gt];
        let mut grad_row = vec![0.0f32; classes];
        for (i, &li) in row.iter().enumerate() {
            if i == gt {
                continue;
            }
            let violation = (margin - l_gt + li).max(0.0);
            loss += violation * violation / classes as f32;
            if violation > 0.0 {
                let g = 2.0 * violation / (classes as f32 * batch as f32);
                grad_row[i] += g;
                grad_row[gt] -= g;
            }
        }
        grad.set_row(b, &grad_row)?;
    }
    Ok((loss / batch as f32, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    #[test]
    fn one_hot_rows() {
        let t = one_hot(&[1, 0, 2], 3).unwrap();
        assert_eq!(t.row(0).unwrap(), &[0.0, 1.0, 0.0]);
        assert_eq!(t.row(1).unwrap(), &[1.0, 0.0, 0.0]);
        assert_eq!(t.row(2).unwrap(), &[0.0, 0.0, 1.0]);
        assert!(one_hot(&[3], 3).is_err());
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits =
            Tensor::from_vec(vec![2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 5.0, 0.0, 0.0], &[3, 3]).unwrap();
        assert!((accuracy(&logits, &[0, 2, 1]).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert!(accuracy(&logits, &[0, 2]).is_err());
        assert_eq!(accuracy(&Tensor::zeros(&[0, 3]), &[]).unwrap(), 0.0);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let confident =
            Tensor::from_vec(vec![10.0, -10.0, -10.0, -10.0, 10.0, -10.0], &[2, 3]).unwrap();
        let (loss, _) = cross_entropy(&confident, &[0, 1]).unwrap();
        assert!(loss < 1e-3, "loss {loss}");
        let uniform = Tensor::zeros(&[2, 3]);
        let (loss_u, _) = cross_entropy(&uniform, &[0, 1]).unwrap();
        assert!((loss_u - (3.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let mut rng = SeedRng::new(0);
        let logits = Tensor::from_vec((0..6).map(|_| rng.normal()).collect(), &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = cross_entropy(&lp, &labels).unwrap().0;
            let fm = cross_entropy(&lm, &labels).unwrap().0;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - grad.as_slice()[idx]).abs() < 1e-3);
        }
    }

    #[test]
    fn soft_targets_interpolate() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5, 0.1, 0.2, 0.3], &[2, 3]).unwrap();
        let mut soft = one_hot(&[0, 1], 3).unwrap();
        // Mixup-style 0.6/0.4 blend for the first sample.
        soft.set_row(0, &[0.6, 0.0, 0.4]).unwrap();
        let (loss, grad) = cross_entropy_soft(&logits, &soft).unwrap();
        assert!(loss.is_finite());
        assert_eq!(grad.dims(), logits.dims());
        assert!(cross_entropy_soft(&logits, &Tensor::zeros(&[3, 3])).is_err());
    }

    #[test]
    fn orthogonality_loss_zero_for_orthonormal_rows() {
        let f = Tensor::eye(4);
        let (loss, grad) = orthogonality_loss(&f).unwrap();
        assert!(loss < 1e-10);
        assert!(grad.max_abs() < 1e-6);
    }

    #[test]
    fn orthogonality_loss_penalises_identical_rows() {
        let f = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]).unwrap();
        let (loss, _) = orthogonality_loss(&f).unwrap();
        assert!(loss > 0.1);
        assert!(orthogonality_loss(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn orthogonality_gradient_matches_finite_differences() {
        let mut rng = SeedRng::new(1);
        let f = Tensor::from_vec((0..3 * 4).map(|_| rng.normal()).collect(), &[3, 4]).unwrap();
        let (_, grad) = orthogonality_loss(&f).unwrap();
        let eps = 1e-3;
        for idx in 0..f.len() {
            let mut fp = f.clone();
            fp.as_mut_slice()[idx] += eps;
            let mut fm = f.clone();
            fm.as_mut_slice()[idx] -= eps;
            let lp = orthogonality_loss(&fp).unwrap().0;
            let lm = orthogonality_loss(&fm).unwrap().0;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.as_slice()[idx]).abs() < 1e-2,
                "idx {idx}: {numeric} vs {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn multi_margin_zero_when_separated() {
        // Ground-truth logit exceeds every other logit by more than the margin.
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2], &[1, 3]).unwrap();
        let (loss, grad) = multi_margin_loss(&logits, &[0], 0.1).unwrap();
        assert_eq!(loss, 0.0);
        assert_eq!(grad.max_abs(), 0.0);
    }

    #[test]
    fn multi_margin_penalises_violations() {
        let logits = Tensor::from_vec(vec![0.3, 0.35, 0.0], &[1, 3]).unwrap();
        let (loss, grad) = multi_margin_loss(&logits, &[0], 0.1).unwrap();
        assert!(loss > 0.0);
        // Gradient pushes the ground-truth logit up and the violator down.
        assert!(grad.as_slice()[0] < 0.0);
        assert!(grad.as_slice()[1] > 0.0);
        assert_eq!(grad.as_slice()[2], 0.0);
    }

    #[test]
    fn multi_margin_gradient_matches_finite_differences() {
        let mut rng = SeedRng::new(2);
        let logits = Tensor::from_vec(
            (0..2 * 5).map(|_| rng.uniform_range(-0.5, 0.9)).collect(),
            &[2, 5],
        )
        .unwrap();
        let labels = [3usize, 1];
        let (_, grad) = multi_margin_loss(&logits, &labels, 0.1).unwrap();
        let eps = 1e-3;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fp = multi_margin_loss(&lp, &labels, 0.1).unwrap().0;
            let fm = multi_margin_loss(&lm, &labels, 0.1).unwrap().0;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad.as_slice()[idx]).abs() < 1e-2,
                "idx {idx}: {numeric} vs {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn multi_margin_rejects_bad_labels() {
        let logits = Tensor::zeros(&[1, 3]);
        assert!(multi_margin_loss(&logits, &[5], 0.1).is_err());
        assert!(multi_margin_loss(&logits, &[0, 1], 0.1).is_err());
    }
}
