//! Small dense ridge-regression solver used by the ETF head.

use crate::Result;
use ofscil_core::CoreError;
use ofscil_tensor::Tensor;

/// Solves the ridge regression `W = argmin ||X·W − Y||² + λ||W||²` for dense
/// matrices `X` (`[n, d]`) and `Y` (`[n, k]`), returning `W` (`[d, k]`).
///
/// The normal equations `(XᵀX + λI) W = Xᵀ Y` are solved by Gaussian
/// elimination with partial pivoting; the feature dimension `d` is small
/// (tens to a few hundred) in every use inside this workspace.
///
/// # Errors
///
/// Returns an error when the shapes disagree or the system is singular even
/// after regularisation.
pub(crate) fn ridge_regression(x: &Tensor, y: &Tensor, lambda: f32) -> Result<Tensor> {
    if x.dims().len() != 2 || y.dims().len() != 2 || x.dims()[0] != y.dims()[0] {
        return Err(CoreError::InvalidConfig(format!(
            "ridge regression needs aligned [n, d] and [n, k] matrices, got {:?} and {:?}",
            x.dims(),
            y.dims()
        )));
    }
    if lambda < 0.0 {
        return Err(CoreError::InvalidConfig(
            "lambda must be non-negative".into(),
        ));
    }
    let d = x.dims()[1];
    let k = y.dims()[1];
    let xt = x.transpose().map_err(CoreError::Tensor)?;
    let mut gram = xt.matmul(x).map_err(CoreError::Tensor)?;
    for i in 0..d {
        let idx = i * d + i;
        gram.as_mut_slice()[idx] += lambda.max(1e-8);
    }
    let rhs = xt.matmul(y).map_err(CoreError::Tensor)?;

    // Gaussian elimination with partial pivoting on the augmented system.
    let mut a = gram.as_slice().to_vec();
    let mut b = rhs.as_slice().to_vec();
    for col in 0..d {
        // Pivot selection.
        let mut pivot = col;
        for row in col + 1..d {
            if a[row * d + col].abs() > a[pivot * d + col].abs() {
                pivot = row;
            }
        }
        if a[pivot * d + col].abs() < 1e-12 {
            return Err(CoreError::InvalidConfig(
                "ridge regression system is singular".into(),
            ));
        }
        if pivot != col {
            for j in 0..d {
                a.swap(col * d + j, pivot * d + j);
            }
            for j in 0..k {
                b.swap(col * k + j, pivot * k + j);
            }
        }
        // Eliminate below.
        let pivot_value = a[col * d + col];
        for row in col + 1..d {
            let factor = a[row * d + col] / pivot_value;
            if factor == 0.0 {
                continue;
            }
            for j in col..d {
                a[row * d + j] -= factor * a[col * d + j];
            }
            for j in 0..k {
                b[row * k + j] -= factor * b[col * k + j];
            }
        }
    }
    // Back substitution.
    let mut w = vec![0.0f32; d * k];
    for col in (0..d).rev() {
        for j in 0..k {
            let mut acc = b[col * k + j];
            for other in col + 1..d {
                acc -= a[col * d + other] * w[other * k + j];
            }
            w[col * k + j] = acc / a[col * d + col];
        }
    }
    Tensor::from_vec(w, &[d, k]).map_err(CoreError::Tensor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    #[test]
    fn recovers_exact_linear_map_without_regularisation() {
        let mut rng = SeedRng::new(0);
        let x = Tensor::from_vec((0..20 * 4).map(|_| rng.normal()).collect(), &[20, 4]).unwrap();
        let w_true = Tensor::from_vec((0..4 * 3).map(|_| rng.normal()).collect(), &[4, 3]).unwrap();
        let y = x.matmul(&w_true).unwrap();
        let w = ridge_regression(&x, &y, 0.0).unwrap();
        assert!(w.max_abs_diff(&w_true).unwrap() < 1e-2);
    }

    #[test]
    fn regularisation_shrinks_weights() {
        let mut rng = SeedRng::new(1);
        let x = Tensor::from_vec((0..30 * 5).map(|_| rng.normal()).collect(), &[30, 5]).unwrap();
        let y = Tensor::from_vec((0..30 * 2).map(|_| rng.normal()).collect(), &[30, 2]).unwrap();
        let w0 = ridge_regression(&x, &y, 1e-6).unwrap();
        let w1 = ridge_regression(&x, &y, 100.0).unwrap();
        assert!(w1.norm() < w0.norm());
    }

    #[test]
    fn shape_and_lambda_validation() {
        let x = Tensor::ones(&[4, 2]);
        let y = Tensor::ones(&[3, 2]);
        assert!(ridge_regression(&x, &y, 0.1).is_err());
        let y = Tensor::ones(&[4, 2]);
        assert!(ridge_regression(&x, &y, -1.0).is_err());
    }

    #[test]
    fn handles_rank_deficient_inputs_with_regularisation() {
        // Duplicate column makes XᵀX singular; ridge must still solve.
        let x = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0], &[3, 2]).unwrap();
        let y = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]).unwrap();
        let w = ridge_regression(&x, &y, 0.1).unwrap();
        assert!(w.as_slice().iter().all(|x| x.is_finite()));
    }
}
