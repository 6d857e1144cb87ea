//! Supervised pretraining on the base session (paper §IV-B).
//!
//! The explicit memory is replaced by a Fully Connected Classifier (FCC) and
//! backbone + FCR + FCC are trained jointly with cross entropy, Mixup/CutMix
//! feature interpolation and the feature-orthogonality regulariser
//! `L_pre = L_ce + λ_ortho · L_ortho` (Eq. 2).

use crate::{CoreError, OFscilModel, Result};
use ofscil_data::{Augmenter, AugmenterConfig, CutMix, Dataset, Mixup};
use ofscil_nn::layers::Linear;
use ofscil_nn::loss::{accuracy, cross_entropy_soft, one_hot, orthogonality_loss};
use ofscil_nn::optim::{clip_gradient_norm, Sgd};
use ofscil_nn::{Layer, Mode};
use ofscil_tensor::SeedRng;

/// Pretraining hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainConfig {
    /// Number of passes over the base session.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub(crate) learning_rate: f32,
    /// SGD momentum.
    pub(crate) momentum: f32,
    /// L2 weight decay.
    pub(crate) weight_decay: f32,
    /// Orthogonality regularisation strength λ_ortho (Eq. 2); 0 disables it.
    pub(crate) lambda_ortho: f32,
    /// Enables the traditional augmentations (flip / crop / blur).
    pub(crate) augment: bool,
    /// Enables Mixup / CutMix feature interpolation.
    pub(crate) feature_interpolation: bool,
    /// Probability of applying Mixup or CutMix to a batch (paper: 0.4).
    pub(crate) interpolation_probability: f32,
    /// Maximum global gradient norm per component per step (keeps short,
    /// aggressive schedules stable).
    pub(crate) gradient_clip: f32,
}

impl PretrainConfig {
    /// Short schedule for the laptop-scale profile.
    pub fn micro() -> Self {
        PretrainConfig {
            epochs: 4,
            batch_size: 32,
            learning_rate: 0.03,
            momentum: 0.9,
            weight_decay: 5e-4,
            lambda_ortho: 0.1,
            augment: true,
            feature_interpolation: true,
            interpolation_probability: 0.4,
            gradient_clip: 5.0,
        }
    }

    /// The paper-scale schedule.
    pub fn full() -> Self {
        PretrainConfig {
            epochs: 100,
            batch_size: 128,
            ..PretrainConfig::micro()
        }
    }

    /// Disables every optional component (the ablation baseline row).
    #[must_use]
    pub fn bare(mut self) -> Self {
        self.augment = false;
        self.feature_interpolation = false;
        self.lambda_ortho = 0.0;
        self
    }
}

/// Summary of a pretraining run.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean orthogonality loss per epoch (zero when disabled).
    pub(crate) epoch_ortho_losses: Vec<f32>,
    /// Training accuracy of the final epoch (on clean, non-interpolated
    /// batches only).
    pub final_train_accuracy: f32,
}

/// Pretrains the model's backbone and FCR (together with a temporary FCC) on
/// the base-session data.
///
/// # Errors
///
/// Returns an error when the dataset is empty, labels exceed
/// `num_base_classes`, or a forward/backward pass fails.
pub fn pretrain(
    model: &mut OFscilModel,
    base_train: &Dataset,
    num_base_classes: usize,
    config: &PretrainConfig,
    rng: &mut SeedRng,
) -> Result<PretrainReport> {
    if base_train.is_empty() {
        return Err(CoreError::InvalidConfig(
            "pretraining dataset is empty".into(),
        ));
    }
    if config.epochs == 0 {
        return Ok(PretrainReport {
            epoch_losses: vec![],
            epoch_ortho_losses: vec![],
            final_train_accuracy: 0.0,
        });
    }
    let projection_dim = model.projection_dim();
    let mut fcc = Linear::new(projection_dim, num_base_classes, rng);
    let mut backbone_opt = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);
    let mut fcr_opt = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);
    let mut fcc_opt = Sgd::new(config.learning_rate, config.momentum, config.weight_decay);
    let augmenter = Augmenter::new(AugmenterConfig::default());
    let mixup = Mixup::default();
    let cutmix = CutMix;

    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut epoch_ortho = Vec::with_capacity(config.epochs);
    let mut final_accuracy = 0.0f32;

    for _epoch in 0..config.epochs {
        let mut loss_sum = 0.0f32;
        let mut ortho_sum = 0.0f32;
        let mut batch_count = 0usize;
        let mut accuracy_sum = 0.0f32;
        let mut accuracy_batches = 0usize;

        let batches = base_train.shuffled_batches(config.batch_size, rng)?;
        for mut batch in batches {
            if config.augment {
                augmenter.augment(&mut batch, rng)?;
            }
            // Feature interpolation: Mixup and CutMix are used exclusively of
            // each other, with the configured probability (paper §IV-B).
            let interpolate =
                config.feature_interpolation && rng.chance(config.interpolation_probability);
            let (images, targets, hard_labels) = if interpolate {
                let (images, soft) = if rng.chance(0.5) {
                    mixup.apply(&batch, num_base_classes, rng)?
                } else {
                    cutmix.apply(&batch, num_base_classes, rng)?
                };
                (images, soft, None)
            } else {
                let targets = one_hot(&batch.labels, num_base_classes)?;
                (batch.images.clone(), targets, Some(batch.labels.clone()))
            };

            let (backbone, fcr, _quant) = model.training_parts();
            let theta_a = backbone.forward(&images, Mode::Train)?;
            let theta_p = fcr.forward(&theta_a, Mode::Train)?;
            let logits = fcc.forward(&theta_p, Mode::Train)?;

            let (ce_loss, grad_logits) = cross_entropy_soft(&logits, &targets)?;
            let mut grad_theta_p = fcc.backward(&grad_logits)?;
            let mut ortho_value = 0.0f32;
            if config.lambda_ortho > 0.0 {
                let (ortho, ortho_grad) = orthogonality_loss(&theta_p)?;
                ortho_value = ortho;
                grad_theta_p.axpy(config.lambda_ortho, &ortho_grad)?;
            }
            let grad_theta_a = fcr.backward(&grad_theta_p)?;
            backbone.backward(&grad_theta_a)?;

            if config.gradient_clip > 0.0 {
                clip_gradient_norm(&mut backbone.net, config.gradient_clip);
                clip_gradient_norm(fcr.layer_mut(), config.gradient_clip);
                clip_gradient_norm(&mut fcc, config.gradient_clip);
            }
            backbone_opt.step(&mut backbone.net);
            fcr_opt.step(fcr.layer_mut());
            fcc_opt.step(&mut fcc);

            loss_sum += ce_loss + config.lambda_ortho * ortho_value;
            ortho_sum += ortho_value;
            batch_count += 1;
            if let Some(labels) = hard_labels {
                accuracy_sum += accuracy(&logits, &labels)?;
                accuracy_batches += 1;
            }
        }
        epoch_losses.push(loss_sum / batch_count.max(1) as f32);
        epoch_ortho.push(ortho_sum / batch_count.max(1) as f32);
        if accuracy_batches > 0 {
            final_accuracy = accuracy_sum / accuracy_batches as f32;
        }
    }

    Ok(PretrainReport {
        epoch_losses,
        epoch_ortho_losses: epoch_ortho,
        final_train_accuracy: final_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_data::{FscilBenchmark, FscilConfig};
    use ofscil_nn::models::BackboneKind;

    fn tiny_benchmark() -> FscilBenchmark {
        let mut config = FscilConfig::micro();
        config.synthetic.num_classes = 12;
        config.synthetic.image_size = 12;
        config.num_base_classes = 6;
        config.num_sessions = 3;
        config.base_train_per_class = 10;
        config.test_per_class = 4;
        FscilBenchmark::generate(&config, 3).unwrap()
    }

    #[test]
    fn pretraining_reduces_loss() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(0);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let config = PretrainConfig {
            epochs: 5,
            batch_size: 16,
            ..PretrainConfig::micro()
        };
        let report = pretrain(&mut model, bench.base_train(), 6, &config, &mut rng).unwrap();
        assert_eq!(report.epoch_losses.len(), 5);
        let first = report.epoch_losses.first().copied().unwrap();
        let last = report.epoch_losses.last().copied().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(report.final_train_accuracy > 1.0 / 6.0);
    }

    #[test]
    fn orthogonality_term_is_reported() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(1);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let with_ortho = PretrainConfig {
            epochs: 1,
            batch_size: 16,
            ..PretrainConfig::micro()
        };
        let report = pretrain(&mut model, bench.base_train(), 6, &with_ortho, &mut rng).unwrap();
        assert!(report.epoch_ortho_losses[0] > 0.0);

        let mut rng = SeedRng::new(1);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let without = PretrainConfig {
            epochs: 1,
            batch_size: 16,
            lambda_ortho: 0.0,
            ..PretrainConfig::micro()
        };
        let report = pretrain(&mut model, bench.base_train(), 6, &without, &mut rng).unwrap();
        assert_eq!(report.epoch_ortho_losses[0], 0.0);
    }

    #[test]
    fn empty_dataset_and_zero_epochs() {
        let mut rng = SeedRng::new(2);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let empty = Dataset::new(&[3, 12, 12]);
        assert!(pretrain(&mut model, &empty, 4, &PretrainConfig::micro(), &mut rng).is_err());

        let bench = tiny_benchmark();
        let zero = PretrainConfig {
            epochs: 0,
            ..PretrainConfig::micro()
        };
        let report = pretrain(&mut model, bench.base_train(), 6, &zero, &mut rng).unwrap();
        assert!(report.epoch_losses.is_empty());
    }

    #[test]
    fn bare_config_disables_components() {
        let config = PretrainConfig::micro().bare();
        assert!(!config.augment);
        assert!(!config.feature_interpolation);
        assert_eq!(config.lambda_ortho, 0.0);
    }
}
