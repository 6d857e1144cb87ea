//! ResNet-12, the large backbone used by the paper (and most FSCIL work) as
//! the accuracy-oriented reference point.

use super::Backbone;
use crate::blocks::ResNetBlock;
use crate::layers::{GlobalAvgPool, MaxPool2d, Sequential};
use ofscil_tensor::SeedRng;

/// Per-stage output channels of ResNet-12 as used in the few-shot literature.
const STAGE_CHANNELS: [usize; 4] = [64, 160, 320, 640];

/// Builds the ResNet-12 backbone: four residual stages of three stride-1 3×3
/// convolutions each (64, 160, 320, 640 channels), a 2×2 max-pool after every
/// stage, and global average pooling. Output features have d_a = 640.
///
/// This is the variant used throughout the few-shot literature (and by
/// C-FSCIL / the paper): the convolutions run at full stage resolution and the
/// pooling performs the downsampling, which is what makes the backbone cost
/// ~525 M MACs at 32×32 despite its moderate depth.
pub fn resnet12(rng: &mut SeedRng) -> Backbone {
    let mut net = Sequential::new("ResNet12");
    let mut c_in = 3usize;
    for &c_out in &STAGE_CHANNELS {
        net.push(Box::new(ResNetBlock::new(c_in, c_out, 1, 3, rng)));
        net.push(Box::new(MaxPool2d::new()));
        c_in = c_out;
    }
    net.push(Box::new(GlobalAvgPool::new()));
    Backbone {
        name: "ResNet12".into(),
        net,
        feature_dim: 640,
        in_channels: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    #[test]
    fn parameter_count_near_12_9m() {
        let mut rng = SeedRng::new(0);
        let mut bb = resnet12(&mut rng);
        let params = bb.param_count();
        // Paper Table I: 12.9 M parameters.
        assert!((11_000_000..14_500_000).contains(&params), "got {params}");
    }

    #[test]
    fn macs_are_much_larger_than_mobilenet() {
        let mut rng = SeedRng::new(0);
        let res = resnet12(&mut rng);
        let macs = res.macs(32, 32);
        // Paper Table I: 525.3 M MACs; require the right order of magnitude.
        assert!((300_000_000..800_000_000).contains(&macs), "got {macs}");
    }

    #[test]
    fn feature_dim_is_640() {
        let mut rng = SeedRng::new(0);
        let bb = resnet12(&mut rng);
        assert_eq!(bb.feature_dim, 640);
        assert_eq!(bb.net.output_dims(&[1, 32, 32, 3]).unwrap(), vec![1, 640]);
    }
}
