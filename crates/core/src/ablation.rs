//! The component ablation of Table III: augmentation (AG), orthogonality
//! regularisation (OR), multi-margin metalearning (MM), cross-entropy
//! metalearning (CE) and incremental fine-tuning (FT).

use crate::{run_experiment, ExperimentConfig, FinetuneConfig, MetaLoss, MetalearnConfig, Result};

/// One row of the ablation table: which components are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationVariant {
    /// AG: traditional augmentation + Mixup/CutMix feature interpolation.
    pub augmentation: bool,
    /// OR: feature-orthogonality regularisation during pretraining.
    pub orthogonality: bool,
    /// MM: multi-margin metalearning.
    pub multi_margin: bool,
    /// CE: cross-entropy metalearning.
    pub cross_entropy: bool,
    /// FT: incremental FCR fine-tuning.
    pub finetune: bool,
}

impl AblationVariant {
    /// The seven rows of the paper's Table III, in order.
    pub fn table3_rows() -> Vec<AblationVariant> {
        let base = AblationVariant {
            augmentation: false,
            orthogonality: false,
            multi_margin: false,
            cross_entropy: false,
            finetune: false,
        };
        vec![
            base,
            AblationVariant {
                augmentation: true,
                ..base
            },
            AblationVariant {
                augmentation: true,
                orthogonality: true,
                ..base
            },
            AblationVariant {
                augmentation: true,
                multi_margin: true,
                ..base
            },
            AblationVariant {
                augmentation: true,
                orthogonality: true,
                multi_margin: true,
                ..base
            },
            AblationVariant {
                augmentation: true,
                orthogonality: true,
                cross_entropy: true,
                ..base
            },
            AblationVariant {
                augmentation: true,
                orthogonality: true,
                multi_margin: true,
                finetune: true,
                ..base
            },
        ]
    }

    /// A compact label such as `"AG+OR+MM"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.augmentation {
            parts.push("AG");
        }
        if self.orthogonality {
            parts.push("OR");
        }
        if self.multi_margin {
            parts.push("MM");
        }
        if self.cross_entropy {
            parts.push("CE");
        }
        if self.finetune {
            parts.push("FT");
        }
        if parts.is_empty() {
            "baseline".to_string()
        } else {
            parts.join("+")
        }
    }

    /// Applies the variant's toggles to an experiment configuration.
    pub fn apply(&self, mut config: ExperimentConfig) -> ExperimentConfig {
        config.pretrain.augment = self.augmentation;
        config.pretrain.feature_interpolation = self.augmentation;
        config.pretrain.lambda_ortho = if self.orthogonality {
            config.pretrain.lambda_ortho.max(0.05)
        } else {
            0.0
        };
        config.metalearn = if self.multi_margin {
            Some(
                config
                    .metalearn
                    .clone()
                    .unwrap_or_else(MetalearnConfig::micro)
                    .with_loss(MetaLoss::MultiMargin),
            )
        } else if self.cross_entropy {
            Some(
                config
                    .metalearn
                    .clone()
                    .unwrap_or_else(MetalearnConfig::micro)
                    .with_loss(MetaLoss::CrossEntropy),
            )
        } else {
            None
        };
        config.finetune = self.finetune.then(FinetuneConfig::micro);
        config
    }
}

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Which components were enabled.
    pub variant: AblationVariant,
    /// Compact component label.
    pub label: String,
    /// Base-session accuracy.
    pub session0: f32,
    /// Accuracy after the final session.
    pub last_session: f32,
    /// Average accuracy over all sessions.
    pub average: f32,
}

/// Runs every listed ablation variant on top of the given base configuration.
///
/// # Errors
///
/// Returns an error when any underlying experiment fails.
pub fn run_ablation(
    base_config: &ExperimentConfig,
    variants: &[AblationVariant],
) -> Result<Vec<AblationResult>> {
    let mut results = Vec::with_capacity(variants.len());
    for variant in variants {
        let config = variant.apply(base_config.clone());
        let outcome = run_experiment(&config)?;
        results.push(AblationResult {
            variant: *variant,
            label: variant.label(),
            session0: outcome.sessions.session0(),
            last_session: outcome.sessions.last_session(),
            average: outcome.sessions.average(),
        });
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalPrecision, PretrainConfig};
    use ofscil_data::FscilConfig;
    use ofscil_nn::models::BackboneKind;

    #[test]
    fn table3_has_seven_distinct_rows() {
        let rows = AblationVariant::table3_rows();
        assert_eq!(rows.len(), 7);
        let labels: std::collections::HashSet<String> =
            rows.iter().map(AblationVariant::label).collect();
        assert_eq!(labels.len(), 7);
        assert_eq!(rows[0].label(), "baseline");
        assert_eq!(rows[4].label(), "AG+OR+MM");
        assert_eq!(rows[6].label(), "AG+OR+MM+FT");
    }

    #[test]
    fn apply_toggles_components() {
        let config = ExperimentConfig::micro(0);
        let bare = AblationVariant::table3_rows()[0].apply(config.clone());
        assert!(!bare.pretrain.augment);
        assert_eq!(bare.pretrain.lambda_ortho, 0.0);
        assert!(bare.metalearn.is_none());
        assert!(bare.finetune.is_none());

        let full = AblationVariant::table3_rows()[6].apply(config.clone());
        assert!(full.pretrain.augment);
        assert!(full.pretrain.lambda_ortho > 0.0);
        assert_eq!(full.metalearn.as_ref().unwrap().loss, MetaLoss::MultiMargin);
        assert!(full.finetune.is_some());

        let ce = AblationVariant::table3_rows()[5].apply(config);
        assert_eq!(ce.metalearn.as_ref().unwrap().loss, MetaLoss::CrossEntropy);
    }

    #[test]
    fn ablation_runner_produces_results() {
        // Use an extremely small setup: two variants only, tiny data.
        let mut fscil = FscilConfig::micro();
        fscil.synthetic.num_classes = 10;
        fscil.synthetic.image_size = 12;
        fscil.num_base_classes = 6;
        fscil.num_sessions = 2;
        fscil.ways = 2;
        fscil.base_train_per_class = 8;
        fscil.test_per_class = 3;
        let base = ExperimentConfig {
            seed: 1,
            backbone: BackboneKind::Micro,
            projection_dim: 16,
            fscil,
            pretrain: PretrainConfig {
                epochs: 1,
                batch_size: 16,
                ..PretrainConfig::micro()
            },
            metalearn: Some(MetalearnConfig {
                iterations: 2,
                ..MetalearnConfig::micro()
            }),
            eval_precision: EvalPrecision::Fp32,
            prototype_bits: 32,
            finetune: None,
        };
        let variants = [
            AblationVariant::table3_rows()[0],
            AblationVariant::table3_rows()[4],
        ];
        let results = run_ablation(&base, &variants).unwrap();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| (0.0..=1.0).contains(&r.average)));
        assert_eq!(results[0].label, "baseline");
    }
}
