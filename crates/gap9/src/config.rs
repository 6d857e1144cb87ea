//! GAP9 hardware description and calibrated model constants.

/// Hardware parameters and cost-model constants of a GAP9-class device at its
/// most energy-efficient operating point (650 mV / 240 MHz, paper §VI-C).
///
/// The structural values (core count, memory sizes, frequency) come from the
/// GAP9 product brief; the throughput, bandwidth and power constants are
/// calibrated once so the modelled MobileNetV2 row of Table IV lands near the
/// paper's measurement, and are then held fixed for every other experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Gap9Config {
    /// Cluster compute cores available for parallel kernels (GAP9: 8 worker
    /// cores + 1 cluster controller; the controller is not counted here).
    pub cluster_cores: usize,
    /// Cluster clock frequency in hertz.
    pub frequency_hz: f64,
    /// Core supply voltage in volts (reported for context; the power model
    /// is calibrated at this operating point).
    pub voltage_v: f64,
    /// Shared cluster L1 size in bytes.
    pub l1_bytes: usize,
    /// On-chip L2 size in bytes.
    pub l2_bytes: usize,
    /// External L3 size in bytes.
    pub l3_bytes: usize,
    /// DMA bandwidth between L2 and L1 in bytes per cluster cycle.
    pub(crate) dma_l2_bytes_per_cycle: f64,
    /// Effective DMA bandwidth between L3 and L1 in bytes per cluster cycle.
    pub(crate) dma_l3_bytes_per_cycle: f64,
    /// Sustained int8 MACs per core per cycle for convolutional kernels.
    pub(crate) conv_macs_per_core_cycle: f64,
    /// Sustained int8 MACs per core per cycle for fully connected kernels.
    pub(crate) linear_macs_per_core_cycle: f64,
    /// Sustained MACs per core per cycle for training (backward) kernels,
    /// which run without the int8 SIMD path.
    pub(crate) training_macs_per_core_cycle: f64,
    /// Parallelisation overhead: equivalent work units consumed per extra
    /// active core (models fork/join and load imbalance on small tiles).
    pub(crate) parallel_overhead_units: f64,
    /// Fixed per-layer overhead cycles (kernel launch, DMA programming).
    pub(crate) layer_overhead_cycles: u64,
    /// Static (leakage + fabric controller) power in milliwatts.
    pub(crate) leakage_mw: f64,
    /// Dynamic power per active cluster core in milliwatts.
    pub(crate) core_dynamic_mw: f64,
    /// Additional power while DMA transfers dominate, in milliwatts.
    pub(crate) dma_mw: f64,
    /// Additional power during training (gradient computation and weight
    /// write-back), in milliwatts.
    pub(crate) training_extra_mw: f64,
}

impl Default for Gap9Config {
    fn default() -> Self {
        Gap9Config {
            cluster_cores: 8,
            frequency_hz: 240e6,
            voltage_v: 0.65,
            l1_bytes: 128 * 1024,
            l2_bytes: 1_500 * 1024,
            l3_bytes: 8 * 1024 * 1024,
            dma_l2_bytes_per_cycle: 8.0,
            dma_l3_bytes_per_cycle: 0.5,
            conv_macs_per_core_cycle: 0.95,
            linear_macs_per_core_cycle: 0.55,
            training_macs_per_core_cycle: 0.40,
            parallel_overhead_units: 2.0,
            layer_overhead_cycles: 5_000,
            leakage_mw: 10.0,
            core_dynamic_mw: 4.3,
            dma_mw: 3.0,
            training_extra_mw: 5.5,
        }
    }
}

impl Gap9Config {
    /// Converts a cycle count into milliseconds at the configured frequency.
    pub(crate) fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / self.frequency_hz * 1e3
    }

    /// Validates structural consistency.
    ///
    /// # Errors
    ///
    /// Returns an error when any capacity, bandwidth or throughput is zero.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        if self.cluster_cores == 0 {
            return Err(crate::Gap9Error::InvalidConfig(
                "cluster_cores must be nonzero".into(),
            ));
        }
        if self.frequency_hz <= 0.0 {
            return Err(crate::Gap9Error::InvalidConfig(
                "frequency must be positive".into(),
            ));
        }
        if self.l1_bytes == 0 || self.l2_bytes == 0 || self.l3_bytes == 0 {
            return Err(crate::Gap9Error::InvalidConfig(
                "memory sizes must be nonzero".into(),
            ));
        }
        if self.dma_l2_bytes_per_cycle <= 0.0
            || self.dma_l3_bytes_per_cycle <= 0.0
            || self.conv_macs_per_core_cycle <= 0.0
            || self.linear_macs_per_core_cycle <= 0.0
            || self.training_macs_per_core_cycle <= 0.0
        {
            return Err(crate::Gap9Error::InvalidConfig(
                "bandwidths and throughputs must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_gap9_product_brief_structure() {
        let config = Gap9Config::default();
        config.validate().unwrap();
        assert_eq!(config.cluster_cores, 8);
        assert_eq!(config.l1_bytes, 131_072);
        assert_eq!(config.l3_bytes, 8 * 1024 * 1024);
        assert!((config.frequency_hz - 240e6).abs() < 1.0);
        assert!((config.voltage_v - 0.65).abs() < 1e-9);
    }

    #[test]
    fn cycle_conversion() {
        let config = Gap9Config::default();
        // 240k cycles at 240 MHz = 1 ms.
        assert!((config.cycles_to_ms(240_000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let config = Gap9Config {
            cluster_cores: 0,
            ..Gap9Config::default()
        };
        assert!(config.validate().is_err());
        let config = Gap9Config {
            dma_l3_bytes_per_cycle: 0.0,
            ..Gap9Config::default()
        };
        assert!(config.validate().is_err());
        let config = Gap9Config {
            l1_bytes: 0,
            ..Gap9Config::default()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn idle_plus_cores_is_within_power_envelope() {
        // The calibrated power constants keep an 8-core inference run within
        // the paper's ~50 mW envelope.
        let config = Gap9Config::default();
        let inference = config.leakage_mw + 8.0 * config.core_dynamic_mw + config.dma_mw;
        assert!(inference < 50.0, "inference power {inference} mW");
        let training = inference + config.training_extra_mw;
        assert!(training < 55.0, "training power {training} mW");
    }
}
