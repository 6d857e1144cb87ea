//! Optional on-device FCR fine-tuning (paper §V-B, the "+FT" rows).
//!
//! The backbone stays frozen. For every known class the activation memory
//! holds the mean backbone feature θ_a,i; the FCR is updated by gradient
//! descent to maximise the cosine similarity between `FCR(θ_a,i)` and the
//! *bipolarised* class prototype. Work proceeds in sub-batches of classes so
//! the accumulated gradient of `N` classes is applied at once, reducing
//! memory traffic on the device (the paper's sub-batching scheme). After
//! fine-tuning the explicit memory stores the bipolarised prototypes, which
//! the re-trained FCR now maps queries towards.

use crate::cosine::{cosine_logits, cosine_logits_backward};
use crate::{CoreError, OFscilModel, Result};
use ofscil_nn::optim::Sgd;
use ofscil_nn::Mode;
use ofscil_tensor::Tensor;

/// FCR fine-tuning hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FinetuneConfig {
    /// Number of passes over the stored class activations (paper: 100).
    pub(crate) epochs: usize,
    /// SGD learning rate.
    pub(crate) learning_rate: f32,
    /// Classes per accumulated gradient step (the sub-batch size N).
    pub(crate) sub_batch: usize,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            epochs: 100,
            learning_rate: 0.01,
            sub_batch: 8,
        }
    }
}

impl FinetuneConfig {
    /// A short schedule for tests and the micro profile.
    pub fn micro() -> Self {
        FinetuneConfig {
            epochs: 20,
            learning_rate: 0.02,
            sub_batch: 8,
        }
    }
}

/// Summary of a fine-tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FinetuneReport {
    /// Mean cosine alignment between `FCR(θ_a,i)` and the bipolarised
    /// prototypes before fine-tuning.
    pub(crate) initial_alignment: f32,
    /// Mean cosine alignment after fine-tuning.
    pub(crate) final_alignment: f32,
    /// Number of epochs executed.
    pub(crate) epochs_run: usize,
    /// Number of classes fine-tuned against.
    pub classes: usize,
}

/// Fine-tunes the FCR of `model` against its stored class prototypes.
///
/// # Errors
///
/// Returns an error when the model has no stored prototypes / activations or
/// a forward/backward pass fails.
pub(crate) fn finetune_fcr(
    model: &mut OFscilModel,
    config: &FinetuneConfig,
) -> Result<FinetuneReport> {
    if config.sub_batch == 0 {
        return Err(CoreError::InvalidConfig("sub_batch must be nonzero".into()));
    }
    let d_p = model.projection_dim();
    let (fcr, em, activation_means) = model.finetune_parts();
    let classes: Vec<usize> = em.classes();
    if classes.is_empty() {
        return Err(CoreError::InvalidConfig(
            "fine-tuning requires at least one learned class".into(),
        ));
    }
    let d_a = fcr.feature_dim();

    // Assemble the activation matrix [C, d_a] and bipolarised targets [C, d_p].
    let mut activations = Tensor::zeros(&[classes.len(), d_a]);
    let mut targets = Tensor::zeros(&[classes.len(), d_p]);
    for (row, class) in classes.iter().enumerate() {
        let theta_a = activation_means
            .get(class)
            .ok_or(CoreError::UnknownClass(*class))?;
        if theta_a.len() != d_a {
            return Err(CoreError::InvalidConfig(format!(
                "stored activation of class {class} has dimension {}, expected {d_a}",
                theta_a.len()
            )));
        }
        activations.set_row(row, theta_a)?;
        targets.set_row(row, &em.bipolarized(*class)?)?;
    }

    let alignment = |fcr: &mut crate::Fcr, activations: &Tensor| -> Result<f32> {
        let projected = fcr.forward(activations, Mode::Eval)?;
        let mut total = 0.0f32;
        for row in 0..classes.len() {
            let p = Tensor::from_slice(&projected.as_slice()[row * d_p..(row + 1) * d_p]);
            let t = Tensor::from_slice(&targets.as_slice()[row * d_p..(row + 1) * d_p]);
            total += p.cosine(&t)?;
        }
        Ok(total / classes.len() as f32)
    };

    let initial_alignment = alignment(fcr, &activations)?;
    let mut optimizer = Sgd::new(config.learning_rate, 0.9, 0.0);

    for _ in 0..config.epochs {
        let order: Vec<usize> = (0..classes.len()).collect();
        for chunk in order.chunks(config.sub_batch) {
            // Sub-batch of class activations and their targets.
            let mut theta_a = Tensor::zeros(&[chunk.len(), d_a]);
            let mut chunk_targets = Tensor::zeros(&[chunk.len(), d_p]);
            for (i, &row) in chunk.iter().enumerate() {
                theta_a.set_row(i, &activations.as_slice()[row * d_a..(row + 1) * d_a])?;
                chunk_targets.set_row(i, &targets.as_slice()[row * d_p..(row + 1) * d_p])?;
            }
            let projected = fcr.forward(&theta_a, Mode::Train)?;
            // Maximise the diagonal of the cosine matrix between projections
            // and their own bipolarised targets: L = 1 − mean(cos_ii).
            let logits = cosine_logits(&projected, &chunk_targets)?;
            let mut grad_logits = Tensor::zeros(logits.dims());
            for i in 0..chunk.len() {
                grad_logits.set(&[i, i], -1.0 / chunk.len() as f32)?;
            }
            let grad_projected = cosine_logits_backward(&projected, &chunk_targets, &grad_logits)?;
            fcr.backward(&grad_projected)?;
            optimizer.step(fcr.layer_mut());
        }
    }

    let final_alignment = alignment(fcr, &activations)?;

    // The explicit memory now stores the bipolarised prototypes the FCR was
    // aligned to (C-FSCIL "mode 2" behaviour).
    for (row, class) in classes.iter().enumerate() {
        em.set_prototype(*class, &targets.as_slice()[row * d_p..(row + 1) * d_p])?;
    }

    Ok(FinetuneReport {
        initial_alignment,
        final_alignment,
        epochs_run: config.epochs,
        classes: classes.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_data::{Dataset, Sample};
    use ofscil_nn::models::BackboneKind;
    use ofscil_tensor::SeedRng;

    fn learned_model() -> OFscilModel {
        let mut rng = SeedRng::new(0);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let mut ds = Dataset::new(&[3, 8, 8]);
        let mut data_rng = SeedRng::new(5);
        for class in 0..4usize {
            for _ in 0..5 {
                let mut img = Tensor::full(&[3, 8, 8], 0.2);
                for y in 0..8 {
                    for x in 0..8 {
                        img.set(&[class % 3, y, x], 0.8 + 0.1 * data_rng.normal())
                            .unwrap();
                    }
                }
                ds.push(Sample {
                    image: img,
                    label: class,
                })
                .unwrap();
            }
        }
        model
            .learn_classes_online(&ds.full_batch().unwrap())
            .unwrap();
        model
    }

    #[test]
    fn finetuning_improves_alignment() {
        let mut model = learned_model();
        let report = finetune_fcr(&mut model, &FinetuneConfig::micro()).unwrap();
        assert_eq!(report.classes, 4);
        assert_eq!(report.epochs_run, FinetuneConfig::micro().epochs);
        assert!(
            report.final_alignment > report.initial_alignment,
            "alignment did not improve: {} -> {}",
            report.initial_alignment,
            report.final_alignment
        );
        // Prototypes are now bipolar (±1 entries only).
        let proto = model.em().prototype(0).unwrap();
        assert!(proto.iter().all(|v| (v.abs() - 1.0).abs() < 1e-6));
    }

    #[test]
    fn requires_learned_classes() {
        let mut rng = SeedRng::new(1);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        assert!(finetune_fcr(&mut model, &FinetuneConfig::micro()).is_err());
        let mut model = learned_model();
        let bad = FinetuneConfig {
            sub_batch: 0,
            ..FinetuneConfig::micro()
        };
        assert!(finetune_fcr(&mut model, &bad).is_err());
    }

    #[test]
    fn zero_epochs_only_bipolarises() {
        let mut model = learned_model();
        let config = FinetuneConfig {
            epochs: 0,
            ..FinetuneConfig::micro()
        };
        let report = finetune_fcr(&mut model, &config).unwrap();
        assert_eq!(report.epochs_run, 0);
        assert!((report.final_alignment - report.initial_alignment).abs() < 1e-6);
    }
}
