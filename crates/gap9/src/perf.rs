//! Latency model: per-layer compute, DMA and overhead cycles.

use crate::{workload::KernelClass, Gap9Config, Gap9Error, NetworkWorkload, Result};

/// Cycle breakdown of one deployed layer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LayerCost {
    /// Layer name.
    pub name: String,
    /// Compute cycles on the active cores.
    pub(crate) compute_cycles: f64,
    /// DMA cycles (weights + activations).
    pub(crate) dma_cycles: f64,
    /// Fixed per-layer overhead cycles.
    pub(crate) overhead_cycles: f64,
}

impl LayerCost {
    /// Total cycles of the layer (compute and DMA are modelled as
    /// non-overlapping, which matches the paper's observation that the FCR
    /// layer is dominated by its weight transfer).
    pub(crate) fn total_cycles(&self) -> f64 {
        self.compute_cycles + self.dma_cycles + self.overhead_cycles
    }
}

/// The execution estimate of one network on the modelled device.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionEstimate {
    /// Per-layer breakdown.
    pub(crate) layers: Vec<LayerCost>,
    /// Number of active cluster cores.
    pub cores: usize,
    /// Total MACs of the estimated pass.
    pub macs: u64,
    /// Whether the pass included training (backward) kernels.
    pub(crate) training: bool,
}

impl ExecutionEstimate {
    /// Total cycles of the pass.
    pub(crate) fn total_cycles(&self) -> f64 {
        self.layers.iter().map(LayerCost::total_cycles).sum()
    }

    /// Total DMA cycles of the pass.
    pub(crate) fn dma_cycles(&self) -> f64 {
        self.layers.iter().map(|l| l.dma_cycles).sum()
    }

    /// Fraction of the total time spent in DMA transfers.
    pub(crate) fn dma_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total <= 0.0 {
            0.0
        } else {
            self.dma_cycles() / total
        }
    }

    /// Wall-clock latency in milliseconds at the configured frequency.
    pub fn time_ms(&self, config: &Gap9Config) -> f64 {
        config.cycles_to_ms(self.total_cycles())
    }

    /// Overall MACs per cycle, the metric of the paper's Fig. 2.
    pub(crate) fn macs_per_cycle(&self) -> f64 {
        let total = self.total_cycles();
        if total <= 0.0 {
            0.0
        } else {
            self.macs as f64 / total
        }
    }
}

/// Estimates the execution of a deployed network on `cores` cluster cores.
///
/// The model:
/// * compute cycles = MACs / (cores × per-kernel sustained throughput ×
///   parallel efficiency), where the efficiency follows
///   `units / (units + overhead · (cores − 1))` — small output tiles
///   parallelise poorly, which is what separates the three stride profiles in
///   Fig. 2,
/// * DMA cycles move weights from L3 when the whole network does not fit in
///   L2 (true for every backbone here) and activations from L2, at the
///   configured bandwidths; tiles larger than L1 pay a re-fetch surcharge,
/// * every layer adds a fixed overhead (kernel launch + DMA programming).
///
/// # Errors
///
/// Returns an error when `cores` is zero or exceeds the cluster size, or the
/// configuration is invalid.
pub fn estimate_execution(
    network: &NetworkWorkload,
    config: &Gap9Config,
    cores: usize,
    training: bool,
) -> Result<ExecutionEstimate> {
    config.validate()?;
    if cores == 0 || cores > config.cluster_cores {
        return Err(Gap9Error::InvalidCoreCount {
            requested: cores,
            available: config.cluster_cores,
        });
    }
    let weights_fit_l2 =
        !network.force_l3_weights && network.total_weight_bytes() <= config.l2_bytes as u64;
    let mut layers = Vec::with_capacity(network.num_layers());
    for layer in &network.layers {
        let throughput = match (training, layer.kernel) {
            (true, _) => config.training_macs_per_core_cycle,
            (false, KernelClass::Linear) => config.linear_macs_per_core_cycle,
            (false, KernelClass::MemoryBound) => config.linear_macs_per_core_cycle,
            (false, _) => config.conv_macs_per_core_cycle,
        };
        let units = layer.parallel_units.max(1) as f64;
        let efficiency = units / (units + config.parallel_overhead_units * (cores as f64 - 1.0));
        let compute_cycles = if layer.macs == 0 {
            // Memory-bound layers: one pass over the activations.
            layer.output_bytes as f64 / (cores as f64)
        } else {
            layer.macs as f64 / (cores as f64 * throughput * efficiency)
        };

        // Weights stream from L3 when the network spills out of L2;
        // activations always move over the L2 DMA.
        let weight_bw = if weights_fit_l2 {
            config.dma_l2_bytes_per_cycle
        } else {
            config.dma_l3_bytes_per_cycle
        };
        let mut dma_cycles = layer.weight_bytes as f64 / weight_bw
            + (layer.input_bytes + layer.output_bytes) as f64 / config.dma_l2_bytes_per_cycle;
        // L1 tiling surcharge: every extra tile re-programs the DMA and
        // re-fetches a share of the weights.
        let tiles = (layer.working_set_bytes() as f64 / config.l1_bytes as f64)
            .ceil()
            .max(1.0);
        if tiles > 1.0 {
            dma_cycles *= 1.0 + 0.15 * (tiles - 1.0).min(8.0);
        }
        // Training passes move weights in and gradients out.
        if training {
            dma_cycles += layer.weight_bytes as f64 / weight_bw;
        }

        layers.push(LayerCost {
            name: layer.name.clone(),
            compute_cycles,
            dma_cycles,
            overhead_cycles: config.layer_overhead_cycles as f64 * tiles,
        });
    }
    let mut macs = network.total_macs();
    if training {
        // Forward + backward (input and weight gradients) ≈ 3× forward MACs.
        macs *= 3;
        for layer in &mut layers {
            layer.compute_cycles *= 3.0;
        }
    }
    Ok(ExecutionEstimate {
        layers,
        cores,
        macs,
        training,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{deploy_backbone, deploy_fcr};
    use ofscil_nn::models::{mobilenet_v2, MobileNetVariant};
    use ofscil_tensor::SeedRng;

    fn x4_workload() -> NetworkWorkload {
        let mut rng = SeedRng::new(0);
        deploy_backbone(&mobilenet_v2(MobileNetVariant::X4, &mut rng), 32, 32)
    }

    #[test]
    fn invalid_core_counts_are_rejected() {
        let config = Gap9Config::default();
        let fcr = deploy_fcr(64, 16);
        assert!(estimate_execution(&fcr, &config, 0, false).is_err());
        assert!(estimate_execution(&fcr, &config, 9, false).is_err());
    }

    #[test]
    fn more_cores_reduce_latency() {
        let config = Gap9Config::default();
        let network = x4_workload();
        let one = estimate_execution(&network, &config, 1, false).unwrap();
        let four = estimate_execution(&network, &config, 4, false).unwrap();
        let eight = estimate_execution(&network, &config, 8, false).unwrap();
        assert!(one.total_cycles() > four.total_cycles());
        assert!(four.total_cycles() > eight.total_cycles());
        // MACs per cycle increase with core count but saturate below the
        // theoretical peak.
        assert!(one.macs_per_cycle() < four.macs_per_cycle());
        assert!(four.macs_per_cycle() < eight.macs_per_cycle());
        assert!(eight.macs_per_cycle() < 8.0 * config.conv_macs_per_core_cycle);
    }

    #[test]
    fn stride_profiles_order_macs_per_cycle() {
        // The paper's Fig. 2: the x4 profile (large feature maps) reaches the
        // highest MACs/cycle, the baseline profile the lowest.
        let config = Gap9Config::default();
        let mut rng = SeedRng::new(0);
        let x1 = deploy_backbone(&mobilenet_v2(MobileNetVariant::X1, &mut rng), 32, 32);
        let x2 = deploy_backbone(&mobilenet_v2(MobileNetVariant::X2, &mut rng), 32, 32);
        let x4 = deploy_backbone(&mobilenet_v2(MobileNetVariant::X4, &mut rng), 32, 32);
        let m1 = estimate_execution(&x1, &config, 8, false)
            .unwrap()
            .macs_per_cycle();
        let m2 = estimate_execution(&x2, &config, 8, false)
            .unwrap()
            .macs_per_cycle();
        let m4 = estimate_execution(&x4, &config, 8, false)
            .unwrap()
            .macs_per_cycle();
        assert!(m1 < m2 && m2 < m4, "{m1} {m2} {m4}");
        // Paper reports ~6.5 MACs/cycle for the x4 profile at 8 cores.
        assert!((3.5..8.0).contains(&m4), "x4 macs/cycle {m4}");
    }

    #[test]
    fn backbone_latency_matches_table4_order_of_magnitude() {
        let config = Gap9Config::default();
        let network = x4_workload();
        let estimate = estimate_execution(&network, &config, 8, false).unwrap();
        let ms = estimate.time_ms(&config);
        // Paper Table IV: 99.5 ms for MobileNetV2 x4 inference.
        assert!((40.0..250.0).contains(&ms), "x4 inference {ms} ms");
    }

    #[test]
    fn fcr_is_dma_dominated() {
        let config = Gap9Config::default();
        let fcr = deploy_fcr(1280, 256);
        let estimate = estimate_execution(&fcr, &config, 8, false).unwrap();
        // The 328 kB weight transfer dominates the 0.33 M MAC compute (paper
        // §VI-C): well over half the time is DMA.
        assert!(
            estimate.dma_fraction() > 0.5,
            "dma fraction {}",
            estimate.dma_fraction()
        );
        let ms = estimate.time_ms(&config);
        // Paper: 3.23 ms.
        assert!((1.0..8.0).contains(&ms), "fcr {ms} ms");
    }

    #[test]
    fn training_pass_is_more_expensive() {
        let config = Gap9Config::default();
        let fcr = deploy_fcr(1280, 256);
        let forward = estimate_execution(&fcr, &config, 8, false).unwrap();
        let training = estimate_execution(&fcr, &config, 8, true).unwrap();
        // A training pass triples the compute and doubles the weight traffic;
        // on the DMA-dominated FCR that lands at roughly twice the forward
        // cost.
        assert!(training.total_cycles() > 1.7 * forward.total_cycles());
        assert!(training.training);
    }
}
