//! Converts trained networks into deployment workloads (the DORY role in the
//! paper's flow).

use crate::workload::{KernelClass, LayerWorkload, NetworkWorkload};
use ofscil_nn::models::Backbone;
use ofscil_nn::profile::layer_summaries;

/// Deploys a backbone for int8 execution at the given input resolution: every
/// top-level layer (or block) becomes one [`LayerWorkload`] with int8 weight
/// and activation byte counts.
pub fn deploy_backbone(backbone: &Backbone, height: usize, width: usize) -> NetworkWorkload {
    let summaries = layer_summaries(backbone, height, width);
    let layers = summaries
        .into_iter()
        .map(|summary| {
            let kernel = classify(&summary.name, summary.macs);
            let parallel_units = match kernel {
                KernelClass::Linear => summary.output_elements().max(1),
                _ => summary.output_spatial().max(1),
            };
            LayerWorkload {
                kernel,
                macs: summary.macs,
                weight_bytes: summary.weight_params,
                input_bytes: summary.input_elements(),
                output_bytes: summary.output_elements(),
                parallel_units,
                name: summary.name,
            }
        })
        .collect();
    NetworkWorkload {
        name: backbone.name.clone(),
        layers,
        force_l3_weights: false,
    }
}

/// Deploys the FCR projection (a single `d_a × d_p` fully connected layer)
/// for int8 execution.
///
/// The FCR shares the on-chip L2 with the backbone weights, which already
/// overflow it, so its weights are streamed from L3 — this is the ~3 ms /
/// 328 kB transfer the paper highlights as the FCR bottleneck.
pub fn deploy_fcr(feature_dim: usize, projection_dim: usize) -> NetworkWorkload {
    let macs = (feature_dim * projection_dim) as u64;
    NetworkWorkload {
        name: format!("FCR {feature_dim}x{projection_dim}"),
        force_l3_weights: true,
        layers: vec![LayerWorkload {
            name: "fcr".into(),
            kernel: KernelClass::Linear,
            macs,
            weight_bytes: macs + projection_dim as u64,
            input_bytes: feature_dim as u64,
            output_bytes: projection_dim as u64,
            parallel_units: projection_dim as u64,
        }],
    }
}

fn classify(name: &str, macs: u64) -> KernelClass {
    if name.starts_with("dwconv") {
        KernelClass::Depthwise
    } else if name.starts_with("conv2d")
        || name.starts_with("inverted_residual")
        || name.starts_with("resnet_block")
    {
        KernelClass::Convolution
    } else if name.starts_with("linear") || name.starts_with("fcr") {
        KernelClass::Linear
    } else if macs == 0 {
        KernelClass::MemoryBound
    } else {
        KernelClass::Convolution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_nn::models::{mobilenet_v2, resnet12, BackboneKind, MobileNetVariant};
    use ofscil_tensor::SeedRng;

    #[test]
    fn micro_backbone_deploys() {
        let mut rng = SeedRng::new(0);
        let backbone = BackboneKind::Micro.build(&mut rng);
        let workload = deploy_backbone(&backbone, 16, 16);
        assert!(!workload.is_empty());
        assert_eq!(workload.total_macs(), backbone.macs(16, 16));
        assert!(workload.total_weight_bytes() > 0);
        // Kernel classes are sensible: convs plus memory-bound layers.
        assert!(workload
            .layers
            .iter()
            .any(|l| l.kernel == KernelClass::Convolution));
        assert!(workload
            .layers
            .iter()
            .any(|l| l.kernel == KernelClass::MemoryBound));
    }

    #[test]
    fn mobilenet_deployment_matches_paper_scale() {
        let mut rng = SeedRng::new(0);
        let backbone = mobilenet_v2(MobileNetVariant::X4, &mut rng);
        let workload = deploy_backbone(&backbone, 32, 32);
        // ~2.2 M int8 weight bytes and ~149 M MACs (Table I).
        let weights_mb = workload.total_weight_bytes() as f64 / 1e6;
        assert!((1.8..3.0).contains(&weights_mb), "weights {weights_mb} MB");
        let macs_m = workload.total_macs() as f64 / 1e6;
        assert!((90.0..260.0).contains(&macs_m), "macs {macs_m} M");
    }

    #[test]
    fn resnet12_deploys_with_larger_weights() {
        let mut rng = SeedRng::new(0);
        let mobilenet = deploy_backbone(&mobilenet_v2(MobileNetVariant::X1, &mut rng), 32, 32);
        let resnet = deploy_backbone(&resnet12(&mut rng), 32, 32);
        assert!(resnet.total_weight_bytes() > 4 * mobilenet.total_weight_bytes());
        assert!(resnet.total_macs() > mobilenet.total_macs());
    }

    #[test]
    fn fcr_workload_is_a_single_linear_layer() {
        let fcr = deploy_fcr(1280, 256);
        assert_eq!(fcr.num_layers(), 1);
        assert_eq!(fcr.total_macs(), 1280 * 256);
        // 328 kB of int8 weights — the L3 transfer the paper highlights.
        let kb = fcr.total_weight_bytes() as f64 / 1000.0;
        assert!((327.0..329.0).contains(&kb), "fcr weights {kb} kB");
        assert_eq!(fcr.layers[0].kernel, KernelClass::Linear);
        assert_eq!(fcr.layers[0].parallel_units, 256);
    }
}
