//! Optimizers: SGD with momentum and weight decay.
//!
//! Optimizers keep per-parameter state indexed by the deterministic
//! [`crate::Layer::visit_params`] visitation order, so they work with any
//! layer or container without the parameters having globally unique names.

use crate::Layer;
use ofscil_tensor::Tensor;

/// Clips the global L2 norm of all trainable-parameter gradients of `layer`
/// to at most `max_norm`, returning the norm before clipping.
///
/// Gradient clipping keeps the short, high-learning-rate schedules used by
/// the micro experiment profile numerically stable.
pub fn clip_gradient_norm(layer: &mut dyn Layer, max_norm: f32) -> f32 {
    let mut norm_sq = 0.0f32;
    layer.visit_params(&mut |param| {
        if param.trainable {
            norm_sq += param.grad.norm_sq();
        }
    });
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        layer.visit_params(&mut |param| {
            if param.trainable {
                param.grad.map_in_place(|g| g * scale);
            }
        });
    }
    norm
}

/// Stochastic gradient descent with classical momentum and decoupled L2
/// weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub(crate) learning_rate: f32,
    /// Momentum coefficient (0 disables momentum).
    pub(crate) momentum: f32,
    /// L2 weight decay applied to the parameter values.
    pub(crate) weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(learning_rate: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            learning_rate,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step to every trainable parameter of `layer` and
    /// zeroes the gradients afterwards.
    pub fn step(&mut self, layer: &mut dyn Layer) {
        let mut index = 0usize;
        let lr = self.learning_rate;
        let momentum = self.momentum;
        let weight_decay = self.weight_decay;
        let velocity = &mut self.velocity;
        layer.visit_params(&mut |param| {
            if velocity.len() <= index {
                velocity.push(Tensor::zeros(param.value.dims()));
            }
            if param.trainable {
                let v = &mut velocity[index];
                if v.dims() != param.value.dims() {
                    *v = Tensor::zeros(param.value.dims());
                }
                for ((vel, g), w) in v
                    .as_mut_slice()
                    .iter_mut()
                    .zip(param.grad.as_slice())
                    .zip(param.value.as_slice())
                {
                    *vel = momentum * *vel + g + weight_decay * w;
                }
                param
                    .value
                    .axpy(-lr, v)
                    .expect("velocity shape matches parameter");
            }
            param.zero_grad();
            index += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::loss::cross_entropy;
    use crate::{Layer, Mode};
    use ofscil_tensor::{SeedRng, Tensor};

    /// Trains a tiny linear classifier on a separable two-class problem and
    /// returns the final loss.
    fn train_linear(optimizer: &mut dyn FnMut(&mut Linear), steps: usize) -> f32 {
        let mut rng = SeedRng::new(42);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9], &[4, 2]).unwrap();
        let labels = [0usize, 0, 1, 1];
        let mut final_loss = f32::INFINITY;
        for _ in 0..steps {
            let logits = layer.forward(&x, Mode::Train).unwrap();
            let (loss, grad) = cross_entropy(&logits, &labels).unwrap();
            layer.backward(&grad).unwrap();
            optimizer(&mut layer);
            final_loss = loss;
        }
        final_loss
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut sgd = Sgd::new(0.5, 0.9, 0.0);
        let loss = train_linear(&mut |l| sgd.step(l), 60);
        assert!(loss < 0.1, "final loss {loss}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = SeedRng::new(0);
        let mut layer = Linear::new(4, 4, &mut rng);
        let before = layer.weight().norm();
        let mut sgd = Sgd::new(0.1, 0.0, 0.5);
        // No data gradient: only the decay term acts.
        for _ in 0..10 {
            layer.forward(&Tensor::ones(&[1, 4]), Mode::Train).unwrap();
            layer.zero_grads();
            sgd.step(&mut layer);
        }
        assert!(layer.weight().norm() < before);
    }

    #[test]
    fn frozen_parameters_are_untouched() {
        let mut rng = SeedRng::new(1);
        let mut layer = Linear::new(3, 3, &mut rng);
        layer.set_trainable(false);
        let before = layer.weight().clone();
        let x = Tensor::ones(&[2, 3]);
        let y = layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones(y.dims())).unwrap();
        let mut sgd = Sgd::new(1.0, 0.9, 0.0);
        sgd.step(&mut layer);
        assert_eq!(layer.weight(), &before);
        // Gradients are still cleared for frozen parameters.
        layer.visit_params(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }

    #[test]
    fn clip_gradient_norm_bounds_large_gradients() {
        let mut rng = SeedRng::new(3);
        let mut layer = Linear::new(8, 8, &mut rng);
        let x = Tensor::full(&[4, 8], 100.0);
        let y = layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::full(y.dims(), 50.0)).unwrap();
        let before = clip_gradient_norm(&mut layer, 1.0);
        assert!(before > 1.0);
        // After clipping, the global norm is at most the limit.
        let mut after_sq = 0.0;
        layer.visit_params(&mut |p| {
            if p.trainable {
                after_sq += p.grad.norm_sq();
            }
        });
        assert!(after_sq.sqrt() <= 1.0 + 1e-3);
        // Small gradients are untouched.
        layer.zero_grads();
        let untouched = clip_gradient_norm(&mut layer, 1.0);
        assert_eq!(untouched, 0.0);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut rng = SeedRng::new(2);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let y = layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones(y.dims())).unwrap();
        let mut sgd = Sgd::new(0.01, 0.9, 1e-4);
        sgd.step(&mut layer);
        layer.visit_params(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }
}
