//! The `Layer` trait: explicit forward/backward with parameter visitation.

use crate::{Parameter, Result};
use ofscil_tensor::Tensor;

/// Execution mode of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: activations are cached for the backward pass and
    /// batch-normalisation uses batch statistics.
    Train,
    /// Inference: running statistics are used, and every layer drops the
    /// cache an earlier training-mode forward left, so a `backward` after it
    /// fails with [`crate::NnError::NoForwardCache`].
    Eval,
}

impl Mode {
    /// Returns `true` in training mode.
    pub(crate) fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A differentiable network component.
///
/// Layers are stateful: `forward(Mode::Train)` caches whatever the layer
/// needs, and the next `backward` consumes that cache, accumulates parameter
/// gradients and returns the gradient with respect to the layer input.
///
/// Containers ([`crate::layers::Sequential`], the residual blocks) implement
/// the same trait, so whole backbones are just `Layer`s.
///
/// Every layer of a backbone takes and returns feature maps channels-last,
/// `[batch, h, w, channels]`, and flat activations as `[batch, features]`;
/// the same holds for the gradients of `backward`. Only
/// [`crate::models::Backbone`] sees NCHW images, and changes their layout
/// once on entry.
pub trait Layer: Send {
    /// Human-readable layer name (used in error messages and profiling).
    fn name(&self) -> String;

    /// Runs the layer on `input`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Propagates `grad_output` back through the layer, accumulating parameter
    /// gradients and returning the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::NoForwardCache`] when called before a
    /// training-mode forward pass.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Visits every parameter of the layer (and sub-layers) in a fixed,
    /// deterministic order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter));

    /// Computes the output dimensions for a given input shape without running
    /// the layer.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>>;

    /// Number of multiply-accumulate operations for one sample with the given
    /// batch-less input dimensions, `[h, w, channels]` for a feature map.
    /// Defaults to zero for parameter-free layers.
    fn macs(&self, _input: &[usize]) -> u64 {
        0
    }

    /// Number of weight parameters that must be resident on a device to run
    /// this layer (excludes optimizer state); zero for parameter-free layers.
    /// Unlike [`Layer::param_count`] this is callable without mutable access,
    /// which the deployment cost models rely on.
    fn weight_count(&self) -> u64 {
        0
    }

    /// Zeroes every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalar parameters.
    fn param_count(&mut self) -> u64 {
        let mut count = 0u64;
        self.visit_params(&mut |p| {
            if p.trainable {
                count += p.len() as u64;
            }
        });
        count
    }

    /// Freezes (or unfreezes) every parameter of the layer.
    fn set_trainable(&mut self, trainable: bool) {
        self.visit_params(&mut |p| p.trainable = trainable);
    }
}

/// Asserts the [`Mode::Eval`] rule: after `forward(Train)` then
/// `forward(Eval)` on `input`, `backward` finds no cache.
#[cfg(test)]
pub(crate) fn assert_eval_drops_train_cache(layer: &mut dyn Layer, input: &Tensor) {
    layer.forward(input, Mode::Train).unwrap();
    let y = layer.forward(input, Mode::Eval).unwrap();
    let err = layer.backward(&Tensor::ones(y.dims()));
    assert!(
        matches!(err, Err(crate::NnError::NoForwardCache(_))),
        "{}: {err:?}",
        layer.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_is_train() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }

    #[test]
    fn layer_trait_is_object_safe() {
        fn _takes_dyn(_l: &mut dyn Layer) {}
    }
}
