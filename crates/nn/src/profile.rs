//! Model profiling: parameter and MAC counting for Table I.

use crate::models::Backbone;

/// A cost summary of a backbone (one row of the paper's Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Backbone name.
    pub name: String,
    /// Total trainable parameters.
    pub params: u64,
    /// Multiply-accumulate operations for one forward pass at the profiled
    /// input resolution.
    pub macs: u64,
    /// Backbone feature dimensionality d_a.
    pub feature_dim: usize,
    /// Input resolution used for the MAC count.
    pub(crate) input_hw: (usize, usize),
}

impl ModelProfile {
    /// Parameters in millions.
    pub fn params_millions(&self) -> f64 {
        self.params as f64 / 1e6
    }

    /// MACs in millions.
    pub fn macs_millions(&self) -> f64 {
        self.macs as f64 / 1e6
    }
}

/// Profiles a backbone at the given input resolution.
pub(crate) fn profile_backbone(
    backbone: &mut Backbone,
    height: usize,
    width: usize,
) -> ModelProfile {
    ModelProfile {
        name: backbone.name.clone(),
        params: backbone.param_count(),
        macs: backbone.macs(height, width),
        feature_dim: backbone.feature_dim,
        input_hw: (height, width),
    }
}

/// Profiles a backbone together with an attached FCR projection layer (adds
/// `d_a * d_p` parameters and MACs), matching how the paper reports model
/// cost.
pub fn profile_with_fcr(
    backbone: &mut Backbone,
    projection_dim: usize,
    height: usize,
    width: usize,
) -> ModelProfile {
    let mut profile = profile_backbone(backbone, height, width);
    let fcr = (backbone.feature_dim * projection_dim) as u64;
    profile.params += fcr;
    profile.macs += fcr;
    profile
}

/// Deployment-oriented description of one top-level layer (or block) of a
/// backbone: its cost and the activation shapes it consumes and produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSummary {
    /// Layer display name.
    pub name: String,
    /// MACs for one sample.
    pub macs: u64,
    /// Weight parameters that must be resident to execute the layer.
    pub weight_params: u64,
    /// Batch-less input dims, channels-last for a feature map
    /// (`[h, w, channels]`) and `[features]` for a flat activation.
    pub(crate) input_dims: Vec<usize>,
    /// Batch-less output dims, in the same layout as `input_dims`.
    pub(crate) output_dims: Vec<usize>,
}

impl LayerSummary {
    /// Number of input activation elements.
    pub fn input_elements(&self) -> u64 {
        self.input_dims.iter().product::<usize>() as u64
    }

    /// Number of output activation elements.
    pub fn output_elements(&self) -> u64 {
        self.output_dims.iter().product::<usize>() as u64
    }

    /// Spatial extent of the output (`h * w` of a `[h, w, channels]` feature
    /// map, 1 for a flat activation); the unit of spatial parallelisation on
    /// a multi-core cluster.
    pub fn output_spatial(&self) -> u64 {
        match self.output_dims[..] {
            [h, w, _] => (h * w) as u64,
            _ => 1,
        }
    }
}

/// Summarises every top-level layer of a backbone at the given input
/// resolution — the input to the GAP9 tiling and latency model. The shapes
/// are those `Backbone::net` walks, channels-last.
pub fn layer_summaries(backbone: &Backbone, height: usize, width: usize) -> Vec<LayerSummary> {
    let mut summaries = Vec::new();
    let mut shape = vec![1usize, height, width, backbone.in_channels];
    for layer in backbone.net.iter() {
        let macs = layer.macs(&shape[1..]);
        let weight_params = layer.weight_count();
        let input_dims = shape[1..].to_vec();
        match layer.output_dims(&shape) {
            Ok(next) => shape = next,
            Err(_) => break,
        }
        summaries.push(LayerSummary {
            name: layer.name(),
            macs,
            weight_params,
            input_dims,
            output_dims: shape[1..].to_vec(),
        });
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::micro_backbone;
    use ofscil_tensor::SeedRng;

    #[test]
    fn profile_micro_backbone() {
        let mut rng = SeedRng::new(0);
        let mut bb = micro_backbone(&mut rng);
        let p = profile_backbone(&mut bb, 32, 32);
        assert_eq!(p.name, "Micro");
        assert!(p.params > 0);
        assert!(p.macs > 0);
        assert_eq!(p.feature_dim, 64);
        assert!(p.params_millions() < 1.0);
    }

    #[test]
    fn fcr_adds_parameters_and_macs() {
        let mut rng = SeedRng::new(0);
        let mut bb = micro_backbone(&mut rng);
        let base = profile_backbone(&mut bb, 32, 32);
        let with_fcr = profile_with_fcr(&mut bb, 32, 32, 32);
        assert_eq!(with_fcr.params, base.params + 64 * 32);
        assert_eq!(with_fcr.macs, base.macs + 64 * 32);
    }

    #[test]
    fn per_layer_macs_sum_to_total() {
        let mut rng = SeedRng::new(0);
        let bb = micro_backbone(&mut rng);
        let layers = layer_summaries(&bb, 16, 16);
        let total: u64 = layers.iter().map(|l| l.macs).sum();
        assert_eq!(total, bb.macs(16, 16));
        assert!(!layers.is_empty());
    }

    #[test]
    fn layer_summaries_chain_shapes() {
        let mut rng = SeedRng::new(0);
        let bb = micro_backbone(&mut rng);
        let summaries = layer_summaries(&bb, 16, 16);
        assert!(!summaries.is_empty());
        // Shapes chain: output of layer i equals input of layer i+1.
        for window in summaries.windows(2) {
            assert_eq!(window[0].output_dims, window[1].input_dims);
        }
        // First layer consumes the image.
        assert_eq!(summaries[0].input_dims, vec![16, 16, 3]);
        assert_eq!(summaries[0].output_dims, vec![8, 8, 16]);
        assert_eq!(summaries[0].output_spatial(), 64);
        // Final layer produces the flat feature vector.
        assert_eq!(summaries.last().unwrap().output_dims, vec![64]);
        assert_eq!(summaries.last().unwrap().output_spatial(), 1);
        // MAC totals agree with the direct count.
        let total: u64 = summaries.iter().map(|s| s.macs).sum();
        assert_eq!(total, bb.macs(16, 16));
        // Conv layers report resident weights.
        assert!(summaries[0].weight_params > 0);
        assert!(summaries[0].input_elements() > 0);
        assert!(summaries[0].output_elements() > 0);
    }
}
