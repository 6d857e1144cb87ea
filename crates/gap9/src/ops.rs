//! The high-level operations of the paper's Table IV and the Fig. 2 core
//! sweep.

use crate::{deploy_fcr, estimate_execution, Gap9Config, NetworkWorkload, PowerModel, Result};

/// Latency / power / energy of one deployed operation (one Table IV cell
/// group).
#[derive(Debug, Clone, PartialEq)]
pub struct OperationCost {
    /// Operation name (e.g. "EM update").
    pub operation: String,
    /// Network the operation ran on.
    pub(crate) network: String,
    /// Wall-clock time in milliseconds.
    pub time_ms: f64,
    /// Average power in milliwatts.
    pub power_mw: f64,
    /// Energy in millijoules.
    pub energy_mj: f64,
}

impl OperationCost {
    fn from_parts(operation: &str, network: &str, time_ms: f64, power_mw: f64) -> Self {
        OperationCost {
            operation: operation.to_string(),
            network: network.to_string(),
            time_ms,
            power_mw,
            energy_mj: power_mw * time_ms / 1e3,
        }
    }
}

/// Executes the paper's deployment operations on the modelled GAP9 device.
#[derive(Debug, Clone)]
pub struct Gap9Executor {
    config: Gap9Config,
    power: PowerModel,
}

impl Default for Gap9Executor {
    fn default() -> Self {
        Gap9Executor::new(Gap9Config::default())
    }
}

impl Gap9Executor {
    /// Creates an executor for the given device configuration.
    pub fn new(config: Gap9Config) -> Self {
        let power = PowerModel::new(config.clone());
        Gap9Executor { config, power }
    }

    /// The device configuration.
    pub fn config(&self) -> &Gap9Config {
        &self.config
    }

    /// FCR inference for one sample (Table IV, "FCR" row).
    ///
    /// # Errors
    ///
    /// Returns an error when `cores` is invalid.
    pub fn fcr_inference(
        &self,
        feature_dim: usize,
        projection_dim: usize,
        cores: usize,
    ) -> Result<OperationCost> {
        let fcr = deploy_fcr(feature_dim, projection_dim);
        let estimate = estimate_execution(&fcr, &self.config, cores, false)?;
        Ok(OperationCost::from_parts(
            "FCR inference",
            &fcr.name,
            estimate.time_ms(&self.config),
            self.power.power_mw(&estimate),
        ))
    }

    /// Backbone inference for one sample (Table IV, "BB inference" rows).
    ///
    /// # Errors
    ///
    /// Returns an error when `cores` is invalid.
    pub fn backbone_inference(
        &self,
        backbone: &NetworkWorkload,
        cores: usize,
    ) -> Result<OperationCost> {
        let estimate = estimate_execution(backbone, &self.config, cores, false)?;
        Ok(OperationCost::from_parts(
            "BB inference",
            &backbone.name,
            estimate.time_ms(&self.config),
            self.power.power_mw(&estimate),
        ))
    }

    /// Online EM update for one new class learned from `shots` samples
    /// (Table IV, "EM update" rows): `shots` backbone + FCR passes plus the
    /// prototype accumulation, which is negligible next to the inference.
    ///
    /// # Errors
    ///
    /// Returns an error when `cores` is invalid.
    pub fn em_update(
        &self,
        backbone: &NetworkWorkload,
        feature_dim: usize,
        projection_dim: usize,
        shots: usize,
        cores: usize,
    ) -> Result<OperationCost> {
        let backbone_cost = self.backbone_inference(backbone, cores)?;
        let fcr_cost = self.fcr_inference(feature_dim, projection_dim, cores)?;
        // Prototype accumulation: one pass over d_p values per shot plus the
        // bit-shift normalisation — microseconds, modelled as d_p cycles/shot.
        let accumulate_ms = self
            .config
            .cycles_to_ms(projection_dim as f64 * shots as f64 + 1_000.0);
        let time_ms = shots as f64 * (backbone_cost.time_ms + fcr_cost.time_ms) + accumulate_ms;
        // Power is dominated by the repeated inference passes.
        let power_mw = (backbone_cost.power_mw * backbone_cost.time_ms
            + fcr_cost.power_mw * fcr_cost.time_ms)
            / (backbone_cost.time_ms + fcr_cost.time_ms);
        Ok(OperationCost::from_parts(
            "EM update",
            &backbone.name,
            time_ms,
            power_mw,
        ))
    }

    /// FCR fine-tuning (Table IV, "FCR finetune" rows): `epochs` passes over
    /// the activation memory of `classes` classes, each pass being a
    /// forward + backward of the FCR per class plus the weight / gradient
    /// transfers.
    ///
    /// # Errors
    ///
    /// Returns an error when `cores` is invalid.
    pub fn fcr_finetune(
        &self,
        backbone_name: &str,
        feature_dim: usize,
        projection_dim: usize,
        classes: usize,
        epochs: usize,
        cores: usize,
    ) -> Result<OperationCost> {
        let fcr = deploy_fcr(feature_dim, projection_dim);
        // One training pass of the FCR over a single class activation.
        let per_class = estimate_execution(&fcr, &self.config, cores, true)?;
        // The weight / gradient DMA happens once per epoch (sub-batching keeps
        // the weights resident while the class activations stream through),
        // while the compute repeats per class.
        let compute_ms_per_class = self.config.cycles_to_ms(
            per_class
                .layers
                .iter()
                .map(|l| l.compute_cycles)
                .sum::<f64>(),
        );
        let dma_ms_per_epoch = self.config.cycles_to_ms(
            per_class
                .layers
                .iter()
                .map(|l| l.dma_cycles + l.overhead_cycles)
                .sum::<f64>(),
        );
        let activation_dma_ms = self
            .config
            .cycles_to_ms(classes as f64 * feature_dim as f64 / self.config.dma_l3_bytes_per_cycle);
        let time_ms = epochs as f64
            * (classes as f64 * compute_ms_per_class + dma_ms_per_epoch + activation_dma_ms);
        let power_mw = self.power.power_mw(&per_class);
        Ok(OperationCost::from_parts(
            "FCR finetune",
            backbone_name,
            time_ms,
            power_mw,
        ))
    }

    /// MACs-per-cycle of a workload across a sweep of active core counts (the
    /// paper's Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns an error when any core count is invalid.
    pub fn macs_per_cycle_sweep(
        &self,
        network: &NetworkWorkload,
        cores: &[usize],
        training: bool,
    ) -> Result<Vec<(usize, f64)>> {
        cores
            .iter()
            .map(|&c| {
                estimate_execution(network, &self.config, c, training)
                    .map(|e| (c, e.macs_per_cycle()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy_backbone;
    use ofscil_nn::models::{mobilenet_v2, MobileNetVariant};
    use ofscil_tensor::SeedRng;

    fn executor_and_x4() -> (Gap9Executor, NetworkWorkload) {
        let mut rng = SeedRng::new(0);
        let backbone = deploy_backbone(&mobilenet_v2(MobileNetVariant::X4, &mut rng), 32, 32);
        (Gap9Executor::default(), backbone)
    }

    #[test]
    fn fcr_inference_matches_table4_range() {
        let executor = Gap9Executor::default();
        let cost = executor.fcr_inference(1280, 256, 8).unwrap();
        // Paper: 3.23 ms, 47.75 mW, 0.15 mJ.
        assert!(
            (1.0..8.0).contains(&cost.time_ms),
            "time {} ms",
            cost.time_ms
        );
        assert!(
            (40.0..50.0).contains(&cost.power_mw),
            "power {} mW",
            cost.power_mw
        );
        assert!(
            (0.05..0.5).contains(&cost.energy_mj),
            "energy {} mJ",
            cost.energy_mj
        );
    }

    #[test]
    fn em_update_is_roughly_shots_times_inference() {
        let (executor, backbone) = executor_and_x4();
        let inference = executor.backbone_inference(&backbone, 8).unwrap();
        let update = executor.em_update(&backbone, 1280, 256, 5, 8).unwrap();
        let ratio = update.time_ms / inference.time_ms;
        assert!((4.5..6.5).contains(&ratio), "ratio {ratio}");
        // Paper: 22.75 mJ for MobileNetV2 x4; assert the order of magnitude.
        assert!(
            (5.0..60.0).contains(&update.energy_mj),
            "energy {} mJ",
            update.energy_mj
        );
    }

    #[test]
    fn finetune_dominates_em_update() {
        let (executor, backbone) = executor_and_x4();
        let update = executor.em_update(&backbone, 1280, 256, 5, 8).unwrap();
        let finetune = executor
            .fcr_finetune(&backbone.name, 1280, 256, 60, 100, 8)
            .unwrap();
        // Paper: ~6.4 s and ~322 mJ vs ~0.51 s and ~23 mJ.
        assert!(finetune.time_ms > 5.0 * update.time_ms);
        assert!(finetune.energy_mj > 5.0 * update.energy_mj);
        assert!(
            (2_000.0..20_000.0).contains(&finetune.time_ms),
            "{} ms",
            finetune.time_ms
        );
        assert!(
            (100.0..900.0).contains(&finetune.energy_mj),
            "{} mJ",
            finetune.energy_mj
        );
        assert!(finetune.power_mw > update.power_mw);
    }

    #[test]
    fn twelve_millijoule_claim_holds_for_baseline_backbone() {
        // The headline claim: learning a new class (EM update, 5-shot) on the
        // baseline MobileNetV2 profile costs on the order of 12 mJ.
        let mut rng = SeedRng::new(0);
        let backbone = deploy_backbone(&mobilenet_v2(MobileNetVariant::X1, &mut rng), 32, 32);
        let executor = Gap9Executor::default();
        let update = executor.em_update(&backbone, 1280, 256, 5, 8).unwrap();
        assert!(
            (5.0..30.0).contains(&update.energy_mj),
            "per-class energy {} mJ",
            update.energy_mj
        );
    }

    #[test]
    fn sweep_is_monotone_in_cores() {
        let (executor, backbone) = executor_and_x4();
        let sweep = executor
            .macs_per_cycle_sweep(&backbone, &[1, 2, 4, 8], false)
            .unwrap();
        assert_eq!(sweep.len(), 4);
        for window in sweep.windows(2) {
            assert!(window[1].1 > window[0].1);
        }
        assert!(executor
            .macs_per_cycle_sweep(&backbone, &[0], false)
            .is_err());
    }
}
