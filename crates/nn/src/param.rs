//! Trainable parameters: a value tensor paired with its gradient accumulator.

use ofscil_tensor::Tensor;

/// A trainable parameter: the value tensor plus an accumulated gradient of the
/// same shape.
///
/// Layers own their `Parameter`s; optimizers visit them through
/// [`crate::Layer::visit_params`] in a deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// Human-readable name, unique within its owning layer.
    name: String,
    /// The parameter value.
    pub value: Tensor,
    /// The accumulated gradient (same shape as `value`).
    pub(crate) grad: Tensor,
    /// Whether the optimizer should update this parameter.
    pub trainable: bool,
}

impl Parameter {
    /// Creates a trainable parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Parameter {
            name: name.into(),
            value,
            grad,
            trainable: true,
        }
    }

    /// Creates a non-trainable (frozen) parameter, e.g. running statistics.
    pub fn frozen(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Parameter {
            name: name.into(),
            value,
            grad,
            trainable: false,
        }
    }

    /// Returns the parameter name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the accumulated gradient.
    pub(crate) fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Accumulates `delta` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `delta` has a different shape from the parameter — that is
    /// always a programming error inside a layer's backward pass.
    pub(crate) fn accumulate_grad(&mut self, delta: &Tensor) {
        self.grad
            .axpy(1.0, delta)
            .expect("gradient shape must match parameter shape");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_parameter_has_zero_grad() {
        let p = Parameter::new("w", Tensor::ones(&[2, 3]));
        assert_eq!(p.grad, Tensor::zeros(&[2, 3]));
        assert!(p.trainable);
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
    }

    #[test]
    fn frozen_parameter_is_not_trainable() {
        let p = Parameter::frozen("running_mean", Tensor::zeros(&[4]));
        assert!(!p.trainable);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Parameter::new("b", Tensor::zeros(&[3]));
        p.accumulate_grad(&Tensor::ones(&[3]));
        p.accumulate_grad(&Tensor::ones(&[3]));
        assert_eq!(p.grad.as_slice(), &[2.0, 2.0, 2.0]);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn mismatched_grad_panics() {
        let mut p = Parameter::new("b", Tensor::zeros(&[3]));
        p.accumulate_grad(&Tensor::ones(&[4]));
    }
}
