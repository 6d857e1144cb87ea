//! Experiment configuration: profiles, precisions and component toggles.

use crate::{FinetuneConfig, MetalearnConfig, PretrainConfig};
use ofscil_data::FscilConfig;
use ofscil_nn::models::BackboneKind;

/// Numerical precision of the evaluated (deployed) model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalPrecision {
    /// Floating-point evaluation (the paper's FP32 rows, run on a GPU).
    Fp32,
    /// Simulated int8 evaluation: weights and prototype features pass through
    /// a TQT-style quantize–dequantize step (the paper's INT8 rows on GAP9).
    Int8,
}

/// The loss used during metalearning (Table III compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaLoss {
    /// The paper's multi-margin loss on ReLU-sharpened cosine logits (Eq. 4).
    MultiMargin,
    /// Plain cross entropy on the cosine logits (the ablation baseline that
    /// the paper shows *degrades* generalisation).
    CrossEntropy,
}

/// Complete configuration of one O-FSCIL experiment (pretraining,
/// metalearning, incremental protocol and deployment precision).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Backbone family.
    pub backbone: BackboneKind,
    /// FCR output dimensionality d_p.
    pub projection_dim: usize,
    /// The FSCIL data protocol.
    pub fscil: FscilConfig,
    /// Pretraining options (paper §IV-B).
    pub pretrain: PretrainConfig,
    /// Metalearning options (paper §IV-C); `None` skips metalearning.
    pub metalearn: Option<MetalearnConfig>,
    /// Deployed precision for evaluation.
    pub(crate) eval_precision: EvalPrecision,
    /// Storage precision of the explicit memory (bits per element; 32 = FP).
    pub(crate) prototype_bits: u8,
    /// Optional on-device FCR fine-tuning (paper §V-B, the "+FT" rows).
    pub(crate) finetune: Option<FinetuneConfig>,
}

impl ExperimentConfig {
    /// The laptop-scale configuration used by tests, examples and the default
    /// benchmark profile: micro backbone, micro FSCIL protocol, short
    /// pretraining and metalearning schedules.
    pub fn micro(seed: u64) -> Self {
        ExperimentConfig {
            seed,
            backbone: BackboneKind::Micro,
            projection_dim: 32,
            fscil: FscilConfig::micro(),
            pretrain: PretrainConfig::micro(),
            metalearn: Some(MetalearnConfig::micro()),
            eval_precision: EvalPrecision::Fp32,
            prototype_bits: 32,
            finetune: None,
        }
    }

    /// The paper-scale configuration (MobileNetV2 x4, 60 base classes, eight
    /// 5-way 5-shot sessions). Provided for completeness; running it with the
    /// pure-Rust engine takes hours.
    pub fn full(seed: u64, backbone: BackboneKind) -> Self {
        ExperimentConfig {
            seed,
            backbone,
            projection_dim: match backbone {
                BackboneKind::ResNet12 => 512,
                _ => 256,
            },
            fscil: FscilConfig::cifar100(),
            pretrain: PretrainConfig::full(),
            metalearn: Some(MetalearnConfig::full()),
            eval_precision: EvalPrecision::Fp32,
            prototype_bits: 32,
            finetune: None,
        }
    }

    /// Switches the evaluated precision (builder style).
    #[must_use]
    pub fn with_precision(mut self, precision: EvalPrecision) -> Self {
        self.eval_precision = precision;
        self
    }

    /// Enables FCR fine-tuning (builder style).
    #[must_use]
    pub fn with_finetune(mut self, finetune: FinetuneConfig) -> Self {
        self.finetune = Some(finetune);
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration cannot be run.
    pub fn validate(&self) -> crate::Result<()> {
        if self.projection_dim == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "projection_dim must be nonzero".into(),
            ));
        }
        if self.prototype_bits != 32 && !(1..=8).contains(&self.prototype_bits) {
            return Err(crate::CoreError::InvalidConfig(format!(
                "prototype_bits must be 1..=8 or 32, got {}",
                self.prototype_bits
            )));
        }
        self.fscil.validate().map_err(crate::CoreError::Data)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_config_is_valid() {
        let config = ExperimentConfig::micro(0);
        config.validate().unwrap();
        assert_eq!(config.backbone, BackboneKind::Micro);
        assert!(config.metalearn.is_some());
    }

    #[test]
    fn full_config_matches_paper_dimensions() {
        let config = ExperimentConfig::full(0, BackboneKind::MobileNetV2X4);
        assert_eq!(config.projection_dim, 256);
        assert_eq!(config.fscil.num_base_classes, 60);
        assert_eq!(config.fscil.num_sessions, 8);
        let resnet = ExperimentConfig::full(0, BackboneKind::ResNet12);
        assert_eq!(resnet.projection_dim, 512);
    }

    #[test]
    fn builders_and_validation() {
        let mut config = ExperimentConfig::micro(1).with_precision(EvalPrecision::Int8);
        config.prototype_bits = 3;
        assert_eq!(config.eval_precision, EvalPrecision::Int8);
        config.validate().unwrap();

        let mut bad = ExperimentConfig::micro(1);
        bad.prototype_bits = 12;
        assert!(bad.validate().is_err());
        let mut bad = ExperimentConfig::micro(1);
        bad.projection_dim = 0;
        assert!(bad.validate().is_err());
    }
}
