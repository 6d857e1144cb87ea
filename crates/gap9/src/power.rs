//! Power and energy model at the 650 mV / 240 MHz operating point.

use crate::{ExecutionEstimate, Gap9Config};

/// Converts execution estimates into power and energy figures.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    config: Gap9Config,
}

impl PowerModel {
    /// Creates a power model for the given device configuration.
    pub fn new(config: Gap9Config) -> Self {
        PowerModel { config }
    }

    /// The underlying device configuration.
    pub fn config(&self) -> &Gap9Config {
        &self.config
    }

    /// Average power in milliwatts while running `estimate`.
    ///
    /// Static leakage plus per-active-core dynamic power, plus DMA power
    /// weighted by the fraction of time the transfers dominate, plus a
    /// training surcharge for backward passes.
    pub(crate) fn power_mw(&self, estimate: &ExecutionEstimate) -> f64 {
        let mut power = self.config.leakage_mw
            + estimate.cores as f64 * self.config.core_dynamic_mw
            + self.config.dma_mw * estimate.dma_fraction();
        if estimate.training {
            power += self.config.training_extra_mw;
        }
        power
    }

    /// Energy in millijoules for running `estimate` once.
    pub fn energy_mj(&self, estimate: &ExecutionEstimate) -> f64 {
        self.power_mw(estimate) * estimate.time_ms(&self.config) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::deploy_fcr;
    use crate::estimate_execution;

    #[test]
    fn power_is_within_the_50mw_envelope() {
        let config = Gap9Config::default();
        let model = PowerModel::new(config.clone());
        let fcr = deploy_fcr(1280, 256);
        let inference = estimate_execution(&fcr, &config, 8, false).unwrap();
        let p = model.power_mw(&inference);
        assert!((40.0..50.0).contains(&p), "inference power {p} mW");
        let training = estimate_execution(&fcr, &config, 8, true).unwrap();
        let pt = model.power_mw(&training);
        assert!(pt > p);
        assert!(pt <= 55.0, "training power {pt} mW");
    }

    #[test]
    fn energy_scales_with_time_and_power() {
        let config = Gap9Config::default();
        let model = PowerModel::new(config.clone());
        let fcr = deploy_fcr(1280, 256);
        let one_core = estimate_execution(&fcr, &config, 1, false).unwrap();
        let eight_cores = estimate_execution(&fcr, &config, 8, false).unwrap();
        let e1 = model.energy_mj(&one_core);
        let e8 = model.energy_mj(&eight_cores);
        assert!(e1 > 0.0 && e8 > 0.0);
        // Energy = power × time; both estimates must be self-consistent.
        assert!(
            (e8 - model.power_mw(&eight_cores) * eight_cores.time_ms(&config) / 1e3).abs() < 1e-9
        );
        // Fewer cores means lower power; the DMA-bound FCR barely speeds up
        // with more cores, so the single-core run is the more efficient one
        // here (power drops faster than latency grows is false — check the
        // actual relation instead of assuming it).
        assert!(model.power_mw(&one_core) < model.power_mw(&eight_cores));
    }
}
