//! End-to-end experiment driver: pretrain → metalearn → (quantize) →
//! incremental protocol.

use crate::{
    metalearn, pretrain, run_fscil_protocol, EvalPrecision, ExperimentConfig, MetalearnReport,
    OFscilModel, PretrainReport, Result, SessionResults,
};
use ofscil_data::FscilBenchmark;
use ofscil_quant::PrototypePrecision;
use ofscil_tensor::SeedRng;

/// Everything produced by one experiment run. The trained model and the
/// generated benchmark are returned so downstream sweeps (e.g. the Fig. 3
/// prototype-precision sweep) can reuse them without retraining.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// The trained (and possibly quantized) model with its populated memory.
    pub model: OFscilModel,
    /// The benchmark the model was trained and evaluated on.
    pub benchmark: FscilBenchmark,
    /// Pretraining summary.
    pub pretrain: PretrainReport,
    /// Metalearning summary (when metalearning was enabled).
    pub metalearn: Option<MetalearnReport>,
    /// Per-session accuracies of the incremental protocol.
    pub sessions: SessionResults,
}

impl ExperimentOutcome {
    /// Size of the populated explicit memory in kilobytes.
    pub fn em_kilobytes(&self) -> f64 {
        self.model.em().footprint().kilobytes()
    }
}

/// Runs a complete O-FSCIL experiment from a configuration.
///
/// # Errors
///
/// Returns an error when the configuration is invalid or any stage fails.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentOutcome> {
    config.validate()?;
    let benchmark = FscilBenchmark::generate(&config.fscil, config.seed)?;
    let mut rng = SeedRng::new(config.seed ^ 0x0F5C_11AA);
    let mut model = OFscilModel::new(config.backbone, config.projection_dim, &mut rng);

    let pretrain_report = pretrain(
        &mut model,
        benchmark.base_train(),
        config.fscil.num_base_classes,
        &config.pretrain,
        &mut rng,
    )?;

    let metalearn_report = match &config.metalearn {
        Some(meta_config) => Some(metalearn(
            &mut model,
            benchmark.base_train(),
            meta_config,
            &mut rng,
        )?),
        None => None,
    };

    if config.eval_precision == EvalPrecision::Int8 {
        model.convert_to_int8()?;
    }
    if config.prototype_bits != 32 {
        model.set_prototype_precision(PrototypePrecision::new(config.prototype_bits)?);
    }

    let sessions = run_fscil_protocol(&mut model, &benchmark, 64, config.finetune.as_ref())?;

    Ok(ExperimentOutcome {
        model,
        benchmark,
        pretrain: pretrain_report,
        metalearn: metalearn_report,
        sessions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FinetuneConfig, MetalearnConfig, PretrainConfig};
    use ofscil_data::FscilConfig;
    use ofscil_nn::models::BackboneKind;

    /// A very small experiment configuration shared by the tests.
    fn tiny_config(seed: u64) -> ExperimentConfig {
        let mut fscil = FscilConfig::micro();
        fscil.synthetic.num_classes = 12;
        fscil.synthetic.image_size = 12;
        fscil.num_base_classes = 6;
        fscil.num_sessions = 3;
        fscil.ways = 2;
        fscil.base_train_per_class = 10;
        fscil.test_per_class = 4;
        ExperimentConfig {
            seed,
            backbone: BackboneKind::Micro,
            projection_dim: 16,
            fscil,
            pretrain: PretrainConfig {
                epochs: 2,
                batch_size: 16,
                ..PretrainConfig::micro()
            },
            metalearn: Some(MetalearnConfig {
                iterations: 5,
                ..MetalearnConfig::micro()
            }),
            eval_precision: EvalPrecision::Fp32,
            prototype_bits: 32,
            finetune: None,
        }
    }

    #[test]
    fn full_pipeline_runs_and_learns() {
        let outcome = run_experiment(&tiny_config(3)).unwrap();
        assert_eq!(outcome.sessions.accuracies.len(), 4);
        assert_eq!(outcome.model.em().num_classes(), 12);
        assert!(outcome.metalearn.is_some());
        assert!(outcome.em_kilobytes() > 0.0);
        // A pretrained model must beat random guessing on the base session.
        assert!(
            outcome.sessions.session0() > 1.0 / 6.0,
            "base-session accuracy {}",
            outcome.sessions.session0()
        );
    }

    #[test]
    fn int8_and_low_precision_prototypes_run() {
        let mut config = tiny_config(4).with_precision(EvalPrecision::Int8);
        config.prototype_bits = 3;
        let outcome = run_experiment(&config).unwrap();
        assert!(outcome.model.is_int8());
        assert_eq!(outcome.model.em().precision().bits(), 3);
        assert!(outcome.sessions.average() > 0.0);
    }

    #[test]
    fn finetune_variant_runs() {
        let config = tiny_config(5).with_finetune(FinetuneConfig {
            epochs: 2,
            ..FinetuneConfig::micro()
        });
        let outcome = run_experiment(&config).unwrap();
        assert_eq!(outcome.sessions.accuracies.len(), 4);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_experiment(&tiny_config(7)).unwrap();
        let b = run_experiment(&tiny_config(7)).unwrap();
        assert_eq!(a.sessions.accuracies, b.sessions.accuracies);
    }
}
