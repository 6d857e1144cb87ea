//! MobileNetV2 backbone with the paper's stride profiles (Table I).

use super::Backbone;
use crate::blocks::InvertedResidual;
use crate::layers::{BatchNorm, Conv2d, GlobalAvgPool, PointwiseConv2d, Relu6, Sequential};
use ofscil_tensor::SeedRng;

/// The three MobileNetV2 stride profiles evaluated in the paper (Table I).
///
/// All variants share the same parameters (the stride profile only changes
/// spatial resolutions); the MAC count grows as strides are removed because
/// later stages operate on larger feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MobileNetVariant {
    /// Baseline profile: strides 1,2,2,2,1,2,1 → 25.9 M MACs in the paper.
    X1,
    /// "x2" profile: strides 1,2,2,2,1,1,1 → 45.4 M MACs in the paper.
    X2,
    /// "x4" profile: strides 1,2,2,1,1,1,1 → 149.2 M MACs in the paper.
    X4,
}

impl MobileNetVariant {
    /// The per-stage convolutional strides of the seven inverted-residual
    /// stages, exactly as listed in Table I of the paper.
    pub fn stride_profile(self) -> [usize; 7] {
        match self {
            MobileNetVariant::X1 => [1, 2, 2, 2, 1, 2, 1],
            MobileNetVariant::X2 => [1, 2, 2, 2, 1, 1, 1],
            MobileNetVariant::X4 => [1, 2, 2, 1, 1, 1, 1],
        }
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            MobileNetVariant::X1 => "MobileNetV2",
            MobileNetVariant::X2 => "MobileNetV2 x2",
            MobileNetVariant::X4 => "MobileNetV2 x4",
        }
    }
}

/// Per-stage configuration of MobileNetV2: (expansion t, channels c, repeats n).
/// The stride comes from the [`MobileNetVariant`] profile. These are the
/// standard MobileNetV2 settings from Sandler et al. (2018).
const STAGES: [(usize, usize, usize); 7] = [
    (1, 16, 1),
    (6, 24, 2),
    (6, 32, 3),
    (6, 64, 4),
    (6, 96, 3),
    (6, 160, 3),
    (6, 320, 1),
];

/// Width of the stem convolution.
const STEM_CHANNELS: usize = 32;
/// Width of the final 1×1 convolution; this is the paper's d_a = 1280.
const LAST_CHANNELS: usize = 1280;

/// Builds the MobileNetV2 backbone for the given stride profile.
///
/// The stem convolution uses stride 1 (CIFAR-style low-resolution inputs, as
/// in the paper) and the backbone ends with global average pooling producing
/// `[batch, 1280]` features.
pub fn mobilenet_v2(variant: MobileNetVariant, rng: &mut SeedRng) -> Backbone {
    let strides = variant.stride_profile();
    let mut net = Sequential::new(variant.label());

    // Stem: 3x3 conv, stride 1 for 32x32 inputs.
    net.push(Box::new(Conv2d::new(3, STEM_CHANNELS, 3, 1, 1, rng)));
    net.push(Box::new(BatchNorm::new(STEM_CHANNELS)));
    net.push(Box::new(Relu6::new()));

    let mut c_in = STEM_CHANNELS;
    for (stage, &(t, c_out, n)) in STAGES.iter().enumerate() {
        for rep in 0..n {
            // Only the first block of a stage applies the profile stride.
            let stride = if rep == 0 { strides[stage] } else { 1 };
            net.push(Box::new(InvertedResidual::new(c_in, c_out, stride, t, rng)));
            c_in = c_out;
        }
    }

    // Head: 1x1 conv to d_a = 1280, then global pooling.
    net.push(Box::new(PointwiseConv2d::new(c_in, LAST_CHANNELS, rng)));
    net.push(Box::new(BatchNorm::new(LAST_CHANNELS)));
    net.push(Box::new(Relu6::new()));
    net.push(Box::new(GlobalAvgPool::new()));

    Backbone {
        name: variant.label().to_string(),
        net,
        feature_dim: LAST_CHANNELS,
        in_channels: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Mode};
    use ofscil_tensor::Tensor;

    #[test]
    fn stride_profiles_match_table1() {
        assert_eq!(MobileNetVariant::X1.stride_profile(), [1, 2, 2, 2, 1, 2, 1]);
        assert_eq!(MobileNetVariant::X2.stride_profile(), [1, 2, 2, 2, 1, 1, 1]);
        assert_eq!(MobileNetVariant::X4.stride_profile(), [1, 2, 2, 1, 1, 1, 1]);
    }

    #[test]
    fn parameter_count_is_variant_independent_and_near_2_5m() {
        let mut rng = SeedRng::new(0);
        let mut x1 = mobilenet_v2(MobileNetVariant::X1, &mut rng);
        let mut x4 = mobilenet_v2(MobileNetVariant::X4, &mut rng);
        let p1 = x1.param_count();
        let p4 = x4.param_count();
        assert_eq!(p1, p4, "stride profile must not change parameter count");
        // The paper reports 2.5 M parameters (backbone + FCR). The backbone
        // alone is the standard MobileNetV2 feature extractor at ~2.2 M.
        assert!((2_000_000..2_400_000).contains(&p1), "got {p1}");
    }

    #[test]
    fn mac_counts_are_ordered_x1_x2_x4() {
        let mut rng = SeedRng::new(0);
        let x1 = mobilenet_v2(MobileNetVariant::X1, &mut rng);
        let x2 = mobilenet_v2(MobileNetVariant::X2, &mut rng);
        let x4 = mobilenet_v2(MobileNetVariant::X4, &mut rng);
        let (m1, m2, m4) = (x1.macs(32, 32), x2.macs(32, 32), x4.macs(32, 32));
        assert!(m1 < m2 && m2 < m4, "{m1} {m2} {m4}");
        // Paper: 25.9 M / 45.4 M / 149.2 M. Allow a generous tolerance — the
        // exact number depends on details such as the stem stride — but the
        // order of magnitude and the ratios must hold.
        assert!((15_000_000..60_000_000).contains(&m1), "x1 {m1}");
        assert!((25_000_000..90_000_000).contains(&m2), "x2 {m2}");
        assert!((90_000_000..260_000_000).contains(&m4), "x4 {m4}");
        let ratio = m4 as f64 / m1 as f64;
        assert!(ratio > 3.0 && ratio < 8.0, "x4/x1 ratio {ratio}");
    }

    #[test]
    fn feature_dim_is_1280() {
        let mut rng = SeedRng::new(0);
        let bb = mobilenet_v2(MobileNetVariant::X1, &mut rng);
        assert_eq!(bb.feature_dim, 1280);
        assert_eq!(bb.net.output_dims(&[1, 32, 32, 3]).unwrap(), vec![1, 1280]);
    }

    #[test]
    fn full_forward_pass_runs() {
        // A batch of two is the two images forwarded one at a time, bit for
        // bit: every stride, the pointwise path and the depthwise stencil run.
        let mut rng = SeedRng::new(0);
        let mut bb = mobilenet_v2(MobileNetVariant::X1, &mut rng);
        let data = (0..2 * 3 * 32 * 32).map(|_| rng.normal()).collect();
        let x = Tensor::from_vec(data, &[2, 3, 32, 32]).unwrap();
        let y = bb.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 1280]);
        assert!(y.as_slice().iter().all(|x| x.is_finite()));
        for (image, row) in x
            .as_slice()
            .chunks(3 * 32 * 32)
            .zip(y.as_slice().chunks(1280))
        {
            let single = Tensor::from_vec(image.to_vec(), &[1, 3, 32, 32]).unwrap();
            let single = bb.forward(&single, Mode::Eval).unwrap();
            assert!(single
                .as_slice()
                .iter()
                .zip(row)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
