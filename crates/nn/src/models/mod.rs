//! Backbone model builders: MobileNetV2 (Table I stride profiles), ResNet-12
//! and a fast "micro" profile used for laptop-scale training experiments.

mod mobilenetv2;
mod resnet;

pub use mobilenetv2::{mobilenet_v2, MobileNetVariant};
pub use resnet::resnet12;

use crate::layers::{to_channels_last, to_nchw, Sequential};
use crate::{Layer, Mode, NnError, Result};
use ofscil_tensor::{SeedRng, Tensor};

/// A feature-extraction backbone: a [`Sequential`] network mapping images
/// `[batch, channels, h, w]` to flat features `[batch, feature_dim]` (the
/// paper's θ_a of dimension d_a).
///
/// NCHW is the layout at the edge only. [`Backbone::forward`] changes the
/// images to channels-last `[batch, h, w, channels]` once on entry, and
/// every layer of `net` takes and returns channels-last activations, so
/// `net` itself (and its shape walks) reads `[batch, h, w, channels]`.
/// [`Backbone::backward`] changes the input gradient back to NCHW once on
/// exit.
#[derive(Debug)]
pub struct Backbone {
    /// Display name (matches the paper's Table I rows).
    pub name: String,
    /// The underlying network.
    pub net: Sequential,
    /// Output feature dimensionality d_a.
    pub feature_dim: usize,
    /// Expected number of input channels.
    pub in_channels: usize,
}

impl Backbone {
    /// Runs the backbone on a batch of NCHW images `[batch, channels, h, w]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible.
    pub fn forward(&mut self, images: &Tensor, mode: Mode) -> Result<Tensor> {
        match *images.dims() {
            [_, c, _, _] if c == self.in_channels => {
                self.net.forward(&to_channels_last(images), mode)
            }
            _ => Err(NnError::BadInput {
                layer: self.name.clone(),
                expected: format!("[batch, {}, h, w]", self.in_channels),
                actual: images.dims().to_vec(),
            }),
        }
    }

    /// Propagates gradients back through the backbone, returning the
    /// gradient with respect to the NCHW images.
    ///
    /// # Errors
    ///
    /// Returns an error when no forward pass was cached.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        Ok(to_nchw(&self.net.backward(grad)?))
    }

    /// Total number of trainable parameters.
    pub(crate) fn param_count(&mut self) -> u64 {
        self.net.param_count()
    }

    /// MACs for one sample of the given spatial size.
    pub fn macs(&self, height: usize, width: usize) -> u64 {
        self.net.macs(&[height, width, self.in_channels])
    }
}

/// The backbone family used by an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackboneKind {
    /// MobileNetV2 with the paper's baseline stride profile (Table I, "x1").
    MobileNetV2,
    /// MobileNetV2 x2 stride profile.
    MobileNetV2X2,
    /// MobileNetV2 x4 stride profile.
    MobileNetV2X4,
    /// ResNet-12 (the large baseline backbone).
    ResNet12,
    /// A small convolutional backbone for fast laptop-scale experiments.
    Micro,
}

impl BackboneKind {
    /// Human-readable name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            BackboneKind::MobileNetV2 => "MobileNetV2",
            BackboneKind::MobileNetV2X2 => "MobileNetV2 x2",
            BackboneKind::MobileNetV2X4 => "MobileNetV2 x4",
            BackboneKind::ResNet12 => "ResNet12",
            BackboneKind::Micro => "Micro",
        }
    }

    /// Builds the backbone.
    pub fn build(self, rng: &mut SeedRng) -> Backbone {
        match self {
            BackboneKind::MobileNetV2 => mobilenet_v2(MobileNetVariant::X1, rng),
            BackboneKind::MobileNetV2X2 => mobilenet_v2(MobileNetVariant::X2, rng),
            BackboneKind::MobileNetV2X4 => mobilenet_v2(MobileNetVariant::X4, rng),
            BackboneKind::ResNet12 => resnet12(rng),
            BackboneKind::Micro => micro_backbone(rng),
        }
    }
}

/// Builds the small convolutional backbone used for fast, laptop-scale runs
/// of the accuracy experiments (the "micro training profile" in DESIGN.md).
///
/// Three conv–BN–ReLU stages (16, 32, 64 channels, stride 2 each) followed by
/// global average pooling; d_a = 64.
pub(crate) fn micro_backbone(rng: &mut SeedRng) -> Backbone {
    use crate::layers::{BatchNorm, Conv2d, GlobalAvgPool, Relu};
    let mut net = Sequential::new("micro");
    let channels = [16usize, 32, 64];
    let mut c_in = 3usize;
    for &c_out in &channels {
        net.push(Box::new(Conv2d::new(c_in, c_out, 3, 2, 1, rng)));
        net.push(Box::new(BatchNorm::new(c_out)));
        net.push(Box::new(Relu::new()));
        c_in = c_out;
    }
    net.push(Box::new(GlobalAvgPool::new()));
    Backbone {
        name: "Micro".into(),
        net,
        feature_dim: 64,
        in_channels: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_backbone_forward_shape() {
        let mut rng = SeedRng::new(0);
        let mut bb = micro_backbone(&mut rng);
        let x = Tensor::ones(&[2, 3, 16, 16]);
        let y = bb.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 64]);
        // The edge takes NCHW images only: channels-last ones are rejected.
        assert!(bb
            .forward(&Tensor::ones(&[2, 16, 16, 3]), Mode::Eval)
            .is_err());
        assert!(bb.param_count() > 0);
        assert!(bb.macs(16, 16) > 0);
    }

    #[test]
    fn kind_labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            BackboneKind::MobileNetV2,
            BackboneKind::MobileNetV2X2,
            BackboneKind::MobileNetV2X4,
            BackboneKind::ResNet12,
            BackboneKind::Micro,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn micro_backbone_trains_end_to_end() {
        let mut rng = SeedRng::new(1);
        let mut bb = micro_backbone(&mut rng);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = bb.forward(&x, Mode::Train).unwrap();
        let g = bb.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
    }
}
