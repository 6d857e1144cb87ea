//! Pointwise activations: ReLU and ReLU6.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::Tensor;

/// Rectified linear unit: `max(x, 0)`.
#[derive(Debug, Default)]
pub(crate) struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub(crate) fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.mask = mode
            .is_train()
            .then(|| input.as_slice().iter().map(|&x| x > 0.0).collect());
        Ok(input.map(|x| x.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        if mask.len() != grad_output.len() {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("{} elements", mask.len()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let data: Vec<f32> = grad_output
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_output.dims()).map_err(NnError::from)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        Ok(input.to_vec())
    }
}

/// ReLU6: `min(max(x, 0), 6)`, the activation used throughout MobileNetV2.
#[derive(Debug, Default)]
pub(crate) struct Relu6 {
    mask: Option<Vec<bool>>,
}

impl Relu6 {
    /// Creates a ReLU6 activation.
    pub(crate) fn new() -> Self {
        Relu6 { mask: None }
    }
}

impl Layer for Relu6 {
    fn name(&self) -> String {
        "relu6".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.mask = mode.is_train().then(|| {
            input
                .as_slice()
                .iter()
                .map(|&x| x > 0.0 && x < 6.0)
                .collect()
        });
        Ok(input.map(|x| x.clamp(0.0, 6.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        if mask.len() != grad_output.len() {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("{} elements", mask.len()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let data: Vec<f32> = grad_output
            .as_slice()
            .iter()
            .zip(&mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_output.dims()).map_err(NnError::from)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        Ok(input.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_slice(&[-2.0, 0.0, 3.0]);
        let y = relu.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
        let g = relu
            .backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]))
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
        assert!(relu.backward(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn relu6_clamps_both_sides() {
        let mut relu6 = Relu6::new();
        let x = Tensor::from_slice(&[-1.0, 3.0, 7.0]);
        let y = relu6.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 3.0, 6.0]);
        let g = relu6
            .backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]))
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn no_params_and_shape_preserved() {
        let mut relu = Relu::new();
        assert_eq!(relu.param_count(), 0);
        assert_eq!(relu.output_dims(&[4, 7]).unwrap(), vec![4, 7]);
        let mut relu6 = Relu6::new();
        assert_eq!(relu6.param_count(), 0);
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let x = Tensor::from_slice(&[-1.0, 3.0, 7.0]);
        crate::layer::assert_eval_drops_train_cache(&mut Relu::new(), &x);
        crate::layer::assert_eval_drops_train_cache(&mut Relu6::new(), &x);
    }

    #[test]
    fn backward_rejects_wrong_length() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::ones(&[4]), Mode::Train).unwrap();
        assert!(relu.backward(&Tensor::ones(&[5])).is_err());
    }
}
