//! Episodic metalearning on the base session (paper §IV-C).
//!
//! Every iteration re-generates the class prototypes from `N` freshly sampled
//! meta-samples per class, computes ReLU-sharpened cosine logits for a query
//! batch (Eq. 3) and updates the backbone and FCR with the multi-margin loss
//! (Eq. 4) — or cross entropy, for the Table III ablation that shows CE
//! metalearning hurts generalisation.

use crate::cosine::{cosine_logits, cosine_logits_backward};
use crate::{CoreError, MetaLoss, OFscilModel, Result};
use ofscil_data::Dataset;
use ofscil_nn::loss::{accuracy, cross_entropy, multi_margin_loss};
use ofscil_nn::optim::{clip_gradient_norm, Sgd};
use ofscil_nn::Mode;
use ofscil_tensor::{SeedRng, Tensor};

/// Metalearning hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetalearnConfig {
    /// Number of metalearning iterations.
    pub iterations: usize,
    /// Meta-samples per class used to build the episode prototypes (N).
    pub(crate) meta_samples_per_class: usize,
    /// Query samples per class per iteration.
    pub(crate) queries_per_class: usize,
    /// Multi-margin margin value m (paper: 0.1 after grid search).
    pub(crate) margin: f32,
    /// SGD learning rate.
    pub(crate) learning_rate: f32,
    /// SGD momentum.
    pub(crate) momentum: f32,
    /// The metalearning loss.
    pub(crate) loss: crate::MetaLoss,
}

impl MetalearnConfig {
    /// Short schedule for the laptop-scale profile.
    pub fn micro() -> Self {
        MetalearnConfig {
            iterations: 30,
            meta_samples_per_class: 5,
            queries_per_class: 2,
            margin: 0.1,
            learning_rate: 0.01,
            momentum: 0.9,
            loss: MetaLoss::MultiMargin,
        }
    }

    /// The paper-scale schedule.
    pub fn full() -> Self {
        MetalearnConfig {
            iterations: 2000,
            ..MetalearnConfig::micro()
        }
    }

    /// Switches the metalearning loss (builder style).
    #[must_use]
    pub(crate) fn with_loss(mut self, loss: MetaLoss) -> Self {
        self.loss = loss;
        self
    }
}

/// Summary of a metalearning run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetalearnReport {
    /// Loss value per iteration.
    pub iteration_losses: Vec<f32>,
    /// Query accuracy per iteration.
    pub(crate) iteration_accuracies: Vec<f32>,
}

impl MetalearnReport {
    /// Mean query accuracy over the last quarter of the iterations.
    pub fn late_accuracy(&self) -> f32 {
        if self.iteration_accuracies.is_empty() {
            return 0.0;
        }
        let tail = (self.iteration_accuracies.len() / 4).max(1);
        let start = self.iteration_accuracies.len() - tail;
        self.iteration_accuracies[start..].iter().sum::<f32>() / tail as f32
    }
}

/// Runs episodic metalearning on the base-session data, updating the model's
/// backbone and FCR in place.
///
/// # Errors
///
/// Returns an error when the dataset cannot provide the requested number of
/// meta-samples or queries per class, or a forward/backward pass fails.
pub fn metalearn(
    model: &mut OFscilModel,
    base_train: &Dataset,
    config: &MetalearnConfig,
    rng: &mut SeedRng,
) -> Result<MetalearnReport> {
    if base_train.is_empty() {
        return Err(CoreError::InvalidConfig(
            "metalearning dataset is empty".into(),
        ));
    }
    if config.meta_samples_per_class == 0 || config.queries_per_class == 0 {
        return Err(CoreError::InvalidConfig(
            "meta_samples_per_class and queries_per_class must be nonzero".into(),
        ));
    }
    let classes = base_train.classes();
    let d_p = model.projection_dim();
    let mut backbone_opt = Sgd::new(config.learning_rate, config.momentum, 0.0);
    let mut fcr_opt = Sgd::new(config.learning_rate, config.momentum, 0.0);

    let mut iteration_losses = Vec::with_capacity(config.iterations);
    let mut iteration_accuracies = Vec::with_capacity(config.iterations);

    for _ in 0..config.iterations {
        // 1. Build episode prototypes from meta-samples (no gradient).
        let support = base_train.sample_support(&classes, config.meta_samples_per_class, rng)?;
        let support_features = model.extract_features(&support.images, Mode::Eval)?;
        let mut prototypes = Tensor::zeros(&[classes.len(), d_p]);
        for (class_idx, class) in classes.iter().enumerate() {
            let rows: Vec<usize> = support
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == *class)
                .map(|(i, _)| i)
                .collect();
            let mut mean = vec![0.0f32; d_p];
            for &r in &rows {
                for (m, &v) in mean
                    .iter_mut()
                    .zip(&support_features.as_slice()[r * d_p..(r + 1) * d_p])
                {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= rows.len().max(1) as f32;
            }
            prototypes.set_row(class_idx, &mean)?;
        }

        // 2. Query batch with gradient tracking through backbone and FCR.
        let queries = base_train.sample_support(&classes, config.queries_per_class, rng)?;
        let query_labels: Vec<usize> = queries
            .labels
            .iter()
            .map(|l| {
                classes
                    .iter()
                    .position(|c| c == l)
                    .expect("label comes from classes")
            })
            .collect();

        let (backbone, fcr, quant) = model.training_parts();
        let theta_a = backbone.forward(&queries.images, Mode::Train)?;
        let theta_a = match &quant {
            Some(q) => q.apply(&theta_a),
            None => theta_a,
        };
        let theta_p = fcr.forward(&theta_a, Mode::Train)?;

        // 3. ReLU-sharpened cosine logits (Eq. 3).
        let raw_logits = cosine_logits(&theta_p, &prototypes)?;
        let sharpened = raw_logits.map(|v| v.max(0.0));

        // 4. Loss and gradient with respect to the sharpened logits.
        let (loss, grad_sharpened) = match config.loss {
            MetaLoss::MultiMargin => multi_margin_loss(&sharpened, &query_labels, config.margin)?,
            MetaLoss::CrossEntropy => cross_entropy(&sharpened, &query_labels)?,
        };
        let query_accuracy = accuracy(&sharpened, &query_labels)?;

        // 5. Backward: through the ReLU sharpening, the cosine similarity and
        //    then the FCR / backbone.
        let grad_raw =
            grad_sharpened.zip_with(
                &raw_logits,
                "relu_mask",
                |g, raw| {
                    if raw > 0.0 {
                        g
                    } else {
                        0.0
                    }
                },
            )?;
        let grad_theta_p = cosine_logits_backward(&theta_p, &prototypes, &grad_raw)?;
        let grad_theta_a = fcr.backward(&grad_theta_p)?;
        backbone.backward(&grad_theta_a)?;
        clip_gradient_norm(&mut backbone.net, 5.0);
        clip_gradient_norm(fcr.layer_mut(), 5.0);
        backbone_opt.step(&mut backbone.net);
        fcr_opt.step(fcr.layer_mut());

        iteration_losses.push(loss);
        iteration_accuracies.push(query_accuracy);
    }

    Ok(MetalearnReport {
        iteration_losses,
        iteration_accuracies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_data::{FscilBenchmark, FscilConfig};
    use ofscil_nn::models::BackboneKind;

    fn tiny_benchmark() -> FscilBenchmark {
        let mut config = FscilConfig::micro();
        config.synthetic.num_classes = 10;
        config.synthetic.image_size = 12;
        config.num_base_classes = 5;
        config.num_sessions = 2;
        config.base_train_per_class = 12;
        config.test_per_class = 4;
        FscilBenchmark::generate(&config, 1).unwrap()
    }

    #[test]
    fn metalearning_runs_and_reports() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(0);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let config = MetalearnConfig {
            iterations: 8,
            ..MetalearnConfig::micro()
        };
        let report = metalearn(&mut model, bench.base_train(), &config, &mut rng).unwrap();
        assert_eq!(report.iteration_losses.len(), 8);
        assert_eq!(report.iteration_accuracies.len(), 8);
        assert!(report.iteration_losses.iter().all(|l| l.is_finite()));
        assert!(report.late_accuracy() >= 0.0);
    }

    #[test]
    fn cross_entropy_variant_runs() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(1);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let config = MetalearnConfig {
            iterations: 3,
            ..MetalearnConfig::micro().with_loss(MetaLoss::CrossEntropy)
        };
        let report = metalearn(&mut model, bench.base_train(), &config, &mut rng).unwrap();
        assert_eq!(report.iteration_losses.len(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(2);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let mut config = MetalearnConfig::micro();
        config.meta_samples_per_class = 0;
        assert!(metalearn(&mut model, bench.base_train(), &config, &mut rng).is_err());
        let empty = Dataset::new(&[3, 12, 12]);
        assert!(metalearn(&mut model, &empty, &MetalearnConfig::micro(), &mut rng).is_err());
        // Requesting more meta-samples than available fails inside sampling.
        let mut config = MetalearnConfig::micro();
        config.meta_samples_per_class = 1000;
        config.iterations = 1;
        assert!(metalearn(&mut model, bench.base_train(), &config, &mut rng).is_err());
    }

    #[test]
    fn empty_report_late_accuracy_is_zero() {
        let report = MetalearnReport {
            iteration_losses: vec![],
            iteration_accuracies: vec![],
        };
        assert_eq!(report.late_accuracy(), 0.0);
    }
}
