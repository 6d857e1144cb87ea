//! Flatten layer: collapses everything after the batch dimension.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::Tensor;

/// Flattens `[batch, d1, d2, …]` into `[batch, d1*d2*…]`.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let dims = input.dims();
        if dims.is_empty() {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: "at least rank 1".into(),
                actual: dims.to_vec(),
            });
        }
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product::<usize>().max(1);
        self.cached_dims = mode.is_train().then(|| dims.to_vec());
        Ok(input.reshape(&[batch, rest])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        Ok(grad_output.reshape(&dims)?)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        if input.is_empty() {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: "at least rank 1".into(),
                actual: input.to_vec(),
            });
        }
        Ok(vec![input[0], input[1..].iter().product::<usize>().max(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let x = Tensor::ones(&[2, 3, 4, 5]);
        let y = f.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 60]);
        let g = f.backward(&Tensor::ones(&[2, 60])).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4, 5]);
        assert_eq!(f.output_dims(&[7, 8]).unwrap(), vec![7, 8]);
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        crate::layer::assert_eval_drops_train_cache(&mut Flatten::new(), &Tensor::ones(&[2, 3, 4]));
    }

    #[test]
    fn rejects_rank_zero() {
        let mut f = Flatten::new();
        assert!(f
            .forward(&Tensor::from_vec(vec![1.0], &[]).unwrap(), Mode::Eval)
            .is_err());
        assert!(f.output_dims(&[]).is_err());
    }
}
