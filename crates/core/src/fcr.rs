//! The Fully Connected Reductor (FCR).

use crate::Result;
use ofscil_nn::layers::Linear;
use ofscil_nn::{Layer, Mode};
use ofscil_tensor::{SeedRng, Tensor};

/// The Fully Connected Reductor: a single linear projection from backbone
/// features θ_a ∈ R^{d_a} to prototypical features θ_p ∈ R^{d_p} with
/// d_p < d_a (paper §IV).
///
/// The FCR is trained during pretraining and metalearning, frozen during
/// online class learning, and optionally fine-tuned on device against
/// bipolarised prototypes (§V-B).
#[derive(Debug)]
pub(crate) struct Fcr {
    linear: Linear,
}

impl Fcr {
    /// Creates an FCR projecting `feature_dim` (d_a) to `projection_dim` (d_p).
    pub(crate) fn new(feature_dim: usize, projection_dim: usize, rng: &mut SeedRng) -> Self {
        Fcr {
            linear: Linear::new(feature_dim, projection_dim, rng),
        }
    }

    /// Input dimensionality d_a.
    pub(crate) fn feature_dim(&self) -> usize {
        self.linear.in_features()
    }

    /// Output dimensionality d_p.
    pub(crate) fn projection_dim(&self) -> usize {
        self.linear.out_features()
    }

    /// Projects a batch of backbone features `[batch, d_a]` to `[batch, d_p]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input width is not d_a.
    pub(crate) fn forward(&mut self, features: &Tensor, mode: Mode) -> Result<Tensor> {
        Ok(self.linear.forward(features, mode)?)
    }

    /// Backpropagates through the projection (training-mode forward required).
    ///
    /// # Errors
    ///
    /// Returns an error when no forward pass was cached.
    pub(crate) fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        Ok(self.linear.backward(grad)?)
    }

    /// Access to the underlying layer (for optimizers and quantization).
    pub(crate) fn layer_mut(&mut self) -> &mut dyn Layer {
        &mut self.linear
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projects_to_lower_dimension() {
        let mut rng = SeedRng::new(0);
        let mut fcr = Fcr::new(64, 16, &mut rng);
        assert_eq!(fcr.feature_dim(), 64);
        assert_eq!(fcr.projection_dim(), 16);
        let x = Tensor::ones(&[3, 64]);
        let y = fcr.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[3, 16]);
        assert!(fcr.forward(&Tensor::ones(&[3, 32]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_needs_training_forward() {
        let mut rng = SeedRng::new(1);
        let mut fcr = Fcr::new(8, 4, &mut rng);
        assert!(fcr.backward(&Tensor::ones(&[1, 4])).is_err());
        let x = Tensor::ones(&[2, 8]);
        fcr.forward(&x, Mode::Train).unwrap();
        let g = fcr.backward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(g.dims(), &[2, 8]);
    }

    #[test]
    fn freezing_stops_updates() {
        let mut rng = SeedRng::new(2);
        let mut fcr = Fcr::new(8, 4, &mut rng);
        fcr.linear.set_trainable(false);
        let mut trainable = 0;
        fcr.layer_mut().visit_params(&mut |p| {
            if p.trainable {
                trainable += 1;
            }
        });
        assert_eq!(trainable, 0);
    }
}
