//! Cosine-similarity logits with an explicit backward pass.
//!
//! During metalearning the prototypes are treated as constants within an
//! iteration (they are re-generated from meta-samples every iteration, as in
//! MANN-style explicit memories); gradients flow through the query features
//! only.

use crate::{CoreError, Result};
use ofscil_tensor::{l2_norm, Tensor};

/// Cosine-similarity logits between the rows of `features` (`[batch, d]`) and
/// the rows of `prototypes` (`[classes, d]`), producing `[batch, classes]`.
///
/// # Errors
///
/// Returns an error when the dimensionalities disagree.
pub(crate) fn cosine_logits(features: &Tensor, prototypes: &Tensor) -> Result<Tensor> {
    check_dims(features, prototypes)?;
    let (batch, dim) = (features.dims()[0], features.dims()[1]);
    let classes = prototypes.dims()[0];
    let mut logits = Tensor::zeros(&[batch, classes]);
    for b in 0..batch {
        let f = &features.as_slice()[b * dim..(b + 1) * dim];
        let nf = l2_norm(f).max(1e-12);
        for c in 0..classes {
            let p = &prototypes.as_slice()[c * dim..(c + 1) * dim];
            let np = l2_norm(p).max(1e-12);
            let dot: f32 = f.iter().zip(p).map(|(a, b)| a * b).sum();
            logits.set(&[b, c], dot / (nf * np))?;
        }
    }
    Ok(logits)
}

/// Gradient of a scalar loss with respect to the query features, given the
/// loss gradient with respect to the cosine logits. Prototypes are constants.
///
/// For one feature `f` and prototype `p` with `l = f·p / (|f||p|)`:
/// `∂l/∂f = p / (|f||p|) − l · f / |f|²`.
///
/// # Errors
///
/// Returns an error when shapes disagree.
pub(crate) fn cosine_logits_backward(
    features: &Tensor,
    prototypes: &Tensor,
    grad_logits: &Tensor,
) -> Result<Tensor> {
    check_dims(features, prototypes)?;
    let (batch, dim) = (features.dims()[0], features.dims()[1]);
    let classes = prototypes.dims()[0];
    if grad_logits.dims() != [batch, classes] {
        return Err(CoreError::InvalidConfig(format!(
            "grad_logits shape {:?} does not match [{batch}, {classes}]",
            grad_logits.dims()
        )));
    }
    let mut grad_features = Tensor::zeros(features.dims());
    for b in 0..batch {
        let f = &features.as_slice()[b * dim..(b + 1) * dim];
        let nf = l2_norm(f).max(1e-12);
        for c in 0..classes {
            let g = grad_logits.as_slice()[b * classes + c];
            if g == 0.0 {
                continue;
            }
            let p = &prototypes.as_slice()[c * dim..(c + 1) * dim];
            let np = l2_norm(p).max(1e-12);
            let dot: f32 = f.iter().zip(p).map(|(a, b)| a * b).sum();
            let logit = dot / (nf * np);
            for d in 0..dim {
                let dl_df = p[d] / (nf * np) - logit * f[d] / (nf * nf);
                grad_features.as_mut_slice()[b * dim + d] += g * dl_df;
            }
        }
    }
    Ok(grad_features)
}

fn check_dims(features: &Tensor, prototypes: &Tensor) -> Result<()> {
    if features.dims().len() != 2
        || prototypes.dims().len() != 2
        || features.dims()[1] != prototypes.dims()[1]
    {
        return Err(CoreError::InvalidConfig(format!(
            "cosine logits need [batch, d] features and [classes, d] prototypes, got {:?} and {:?}",
            features.dims(),
            prototypes.dims()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    #[test]
    fn logits_are_cosines() {
        let features = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let prototypes = Tensor::from_vec(vec![2.0, 0.0, 1.0, 1.0], &[2, 2]).unwrap();
        let logits = cosine_logits(&features, &prototypes).unwrap();
        assert!((logits.at(&[0, 0]).unwrap() - 1.0).abs() < 1e-6);
        assert!((logits.at(&[0, 1]).unwrap() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((logits.at(&[1, 0]).unwrap()).abs() < 1e-6);
        assert!(cosine_logits(&features, &Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = SeedRng::new(5);
        let features =
            Tensor::from_vec((0..3 * 4).map(|_| rng.normal()).collect(), &[3, 4]).unwrap();
        let prototypes =
            Tensor::from_vec((0..2 * 4).map(|_| rng.normal()).collect(), &[2, 4]).unwrap();
        let upstream = Tensor::from_vec(
            (0..3 * 2).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
            &[3, 2],
        )
        .unwrap();
        let grad = cosine_logits_backward(&features, &prototypes, &upstream).unwrap();

        let loss = |f: &Tensor| -> f32 {
            cosine_logits(f, &prototypes)
                .unwrap()
                .zip_with(&upstream, "mul", |a, b| a * b)
                .unwrap()
                .sum()
        };
        let eps = 1e-3;
        for idx in 0..features.len() {
            let mut fp = features.clone();
            fp.as_mut_slice()[idx] += eps;
            let mut fm = features.clone();
            fm.as_mut_slice()[idx] -= eps;
            let numeric = (loss(&fp) - loss(&fm)) / (2.0 * eps);
            assert!(
                (numeric - grad.as_slice()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} analytic {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn backward_rejects_bad_upstream_shape() {
        let features = Tensor::ones(&[2, 3]);
        let prototypes = Tensor::ones(&[4, 3]);
        let bad = Tensor::ones(&[2, 3]);
        assert!(cosine_logits_backward(&features, &prototypes, &bad).is_err());
    }
}
