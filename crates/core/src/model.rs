//! The assembled O-FSCIL model: backbone + FCR + explicit memory.

use crate::{CoreError, ExplicitMemory, Fcr, Result};
use ofscil_data::{Batch, Dataset};
use ofscil_nn::models::{Backbone, BackboneKind};
use ofscil_nn::Mode;
use ofscil_quant::{quantize_layer_weights, FakeQuant, PrototypePrecision};
use ofscil_tensor::{SeedRng, Tensor};
use std::collections::BTreeMap;

/// The deployable O-FSCIL model (paper Fig. 1).
///
/// * inference: image → backbone → θ_a → FCR → θ_p → cosine similarity
///   against the explicit memory → predicted class,
/// * online learning: the θ_p features of the S support samples of a new
///   class are averaged into a prototype in a single pass; the backbone and
///   FCR stay frozen,
/// * the per-class mean θ_a activations are cached in an *activation memory*
///   so the optional FCR fine-tuning (§V-B) never needs the raw samples.
#[derive(Debug)]
pub struct OFscilModel {
    backbone: Backbone,
    fcr: Fcr,
    em: ExplicitMemory,
    activation_means: BTreeMap<usize, Vec<f32>>,
    activation_quant: Option<FakeQuant>,
}

impl OFscilModel {
    /// Builds a model with a freshly initialised backbone and FCR.
    pub fn new(kind: BackboneKind, projection_dim: usize, rng: &mut SeedRng) -> Self {
        let backbone = kind.build(rng);
        let fcr = Fcr::new(backbone.feature_dim, projection_dim, rng);
        let em = ExplicitMemory::new(projection_dim);
        OFscilModel {
            backbone,
            fcr,
            em,
            activation_means: BTreeMap::new(),
            activation_quant: None,
        }
    }

    /// The backbone (read access; deployment cost models need the layer
    /// structure without mutating the model).
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// The backbone.
    pub fn backbone_mut(&mut self) -> &mut Backbone {
        &mut self.backbone
    }

    /// The explicit memory (read access).
    pub fn em(&self) -> &ExplicitMemory {
        &self.em
    }

    /// The explicit memory (mutable access).
    pub fn em_mut(&mut self) -> &mut ExplicitMemory {
        &mut self.em
    }

    /// The cached per-class mean backbone activations θ_a.
    pub fn activation_means(&self) -> &BTreeMap<usize, Vec<f32>> {
        &self.activation_means
    }

    /// The FCR projection dimensionality d_p.
    pub fn projection_dim(&self) -> usize {
        self.fcr.projection_dim()
    }

    /// Splits the model into the parts the training loops need to borrow
    /// simultaneously (backbone, FCR and the optional activation quantizer).
    pub(crate) fn training_parts(&mut self) -> (&mut Backbone, &mut Fcr, Option<FakeQuant>) {
        (&mut self.backbone, &mut self.fcr, self.activation_quant)
    }

    /// Splits the model into the parts the FCR fine-tuning loop needs: the
    /// FCR, the explicit memory and the cached per-class activations.
    pub(crate) fn finetune_parts(
        &mut self,
    ) -> (&mut Fcr, &mut ExplicitMemory, &BTreeMap<usize, Vec<f32>>) {
        (&mut self.fcr, &mut self.em, &self.activation_means)
    }

    /// Switches the explicit memory to a reduced storage precision,
    /// re-quantizing existing prototypes.
    pub fn set_prototype_precision(&mut self, precision: PrototypePrecision) {
        self.em.requantize(precision);
    }

    /// Converts the model to simulated int8 execution: all backbone and FCR
    /// weights are passed through a TQT-style quantize–dequantize step and
    /// prototype features are quantized at extraction time.
    ///
    /// # Errors
    ///
    /// Returns an error when weight calibration fails.
    pub fn convert_to_int8(&mut self) -> Result<()> {
        quantize_layer_weights(&mut self.backbone.net, 8)?;
        quantize_layer_weights(self.fcr.layer_mut(), 8)?;
        self.activation_quant = Some(FakeQuant::new(8)?);
        Ok(())
    }

    /// Returns `true` when the model simulates int8 execution.
    pub fn is_int8(&self) -> bool {
        self.activation_quant.is_some()
    }

    /// Runs the backbone, returning θ_a of shape `[batch, d_a]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the image batch is incompatible with the
    /// backbone.
    pub fn extract_backbone_features(&mut self, images: &Tensor, mode: Mode) -> Result<Tensor> {
        let theta_a = self.backbone.forward(images, mode)?;
        Ok(match &self.activation_quant {
            Some(q) => q.apply(&theta_a),
            None => theta_a,
        })
    }

    /// Runs backbone + FCR, returning θ_p of shape `[batch, d_p]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the image batch is incompatible.
    pub fn extract_features(&mut self, images: &Tensor, mode: Mode) -> Result<Tensor> {
        let theta_a = self.extract_backbone_features(images, mode)?;
        let theta_p = self.fcr.forward(&theta_a, mode)?;
        Ok(match &self.activation_quant {
            Some(q) => q.apply(&theta_p),
            None => theta_p,
        })
    }

    /// Learns the classes present in `batch` with a single pass (paper
    /// Fig. 1b): features are grouped by label, averaged into prototypes and
    /// written into the explicit memory. Also updates the activation memory
    /// with the per-class mean θ_a.
    ///
    /// Classes already known are overwritten — the caller controls whether a
    /// batch refines or replaces previous knowledge.
    ///
    /// # Errors
    ///
    /// Returns an error when the batch is empty or incompatible.
    pub fn learn_classes_online(&mut self, batch: &Batch) -> Result<()> {
        if batch.is_empty() {
            return Err(CoreError::InvalidConfig(
                "cannot learn from an empty batch".into(),
            ));
        }
        let theta_a = self.extract_backbone_features(&batch.images, Mode::Eval)?;
        let theta_p = {
            let projected = self.fcr.forward(&theta_a, Mode::Eval)?;
            match &self.activation_quant {
                Some(q) => q.apply(&projected),
                None => projected,
            }
        };
        let d_a = theta_a.dims()[1];
        let d_p = theta_p.dims()[1];

        let mut classes: Vec<usize> = batch.labels.clone();
        classes.sort_unstable();
        classes.dedup();
        for class in classes {
            let rows: Vec<usize> = batch
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == class)
                .map(|(i, _)| i)
                .collect();
            let features: Vec<&[f32]> = rows
                .iter()
                .map(|&r| &theta_p.as_slice()[r * d_p..(r + 1) * d_p])
                .collect();
            self.em.update_class(class, &features)?;

            let mut mean_a = vec![0.0f32; d_a];
            for &r in &rows {
                for (m, &v) in mean_a
                    .iter_mut()
                    .zip(&theta_a.as_slice()[r * d_a..(r + 1) * d_a])
                {
                    *m += v;
                }
            }
            for m in &mut mean_a {
                *m /= rows.len() as f32;
            }
            self.activation_means.insert(class, mean_a);
        }
        Ok(())
    }

    /// Predicts the class of every image in the batch.
    ///
    /// # Errors
    ///
    /// Returns an error when the explicit memory is empty or shapes are
    /// incompatible.
    pub fn predict(&mut self, images: &Tensor) -> Result<Vec<usize>> {
        let theta_p = self.extract_features(images, Mode::Eval)?;
        let d_p = theta_p.dims()[1];
        let mut predictions = Vec::with_capacity(theta_p.dims()[0]);
        for row in 0..theta_p.dims()[0] {
            let query = &theta_p.as_slice()[row * d_p..(row + 1) * d_p];
            let (class, _) = self.em.classify(query)?;
            predictions.push(class);
        }
        Ok(predictions)
    }

    /// Evaluates classification accuracy on a dataset, processing
    /// `batch_size` images at a time.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty or incompatible.
    pub fn evaluate(&mut self, dataset: &Dataset, batch_size: usize) -> Result<f32> {
        if dataset.is_empty() {
            return Err(CoreError::InvalidConfig(
                "cannot evaluate on an empty dataset".into(),
            ));
        }
        let indices: Vec<usize> = (0..dataset.len()).collect();
        let mut correct = 0usize;
        for chunk in indices.chunks(batch_size.max(1)) {
            let batch = dataset.batch(chunk)?;
            let predictions = self.predict(&batch.images)?;
            correct += predictions
                .iter()
                .zip(&batch.labels)
                .filter(|(p, l)| p == l)
                .count();
        }
        Ok(correct as f32 / dataset.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_data::{Dataset, Sample};

    /// A dataset of three linearly separable "colour" classes: each class has
    /// one dominant channel, so even an untrained backbone separates them.
    fn colour_dataset(per_class: usize, size: usize) -> Dataset {
        let mut ds = Dataset::new(&[3, size, size]);
        let mut rng = SeedRng::new(9);
        for class in 0..3usize {
            for _ in 0..per_class {
                let mut img = Tensor::full(&[3, size, size], 0.1);
                for y in 0..size {
                    for x in 0..size {
                        img.set(&[class, y, x], 0.9 + 0.05 * rng.normal()).unwrap();
                    }
                }
                ds.push(Sample {
                    image: img,
                    label: class,
                })
                .unwrap();
            }
        }
        ds
    }

    #[test]
    fn online_learning_and_prediction() {
        let mut rng = SeedRng::new(0);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let train = colour_dataset(5, 8);
        model
            .learn_classes_online(&train.full_batch().unwrap())
            .unwrap();
        assert_eq!(model.em().num_classes(), 3);
        assert_eq!(model.activation_means().len(), 3);

        let test = colour_dataset(4, 8);
        let accuracy = model.evaluate(&test, 6).unwrap();
        // Colour classes are separable even through a random backbone.
        assert!(accuracy > 0.5, "accuracy {accuracy}");
    }

    #[test]
    fn non_finite_images_through_mobilenet_predict_do_not_panic() {
        // A NaN or infinite pixel may poison the features (a non-finite
        // activation times an exactly-zero weight is NaN), but predict must
        // return, with one answer per image or an error.
        let mut rng = SeedRng::new(2);
        let mut model = OFscilModel::new(BackboneKind::MobileNetV2, 16, &mut rng);
        let train = colour_dataset(1, 32);
        model
            .learn_classes_online(&train.full_batch().unwrap())
            .unwrap();
        let mut images = Tensor::full(&[4, 3, 32, 32], 0.5);
        let plane = 3 * 32 * 32;
        images.as_mut_slice()[..plane].fill(f32::NAN);
        images.as_mut_slice()[plane + 17] = f32::INFINITY;
        images.as_mut_slice()[2 * plane + 600] = f32::NEG_INFINITY;
        if let Ok(predictions) = model.predict(&images) {
            assert_eq!(predictions.len(), 4);
        }
    }

    #[test]
    fn empty_batch_and_dataset_are_rejected() {
        let mut rng = SeedRng::new(1);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let empty = Batch {
            images: Tensor::zeros(&[0, 3, 8, 8]),
            labels: vec![],
        };
        assert!(model.learn_classes_online(&empty).is_err());
        assert!(model.evaluate(&Dataset::new(&[3, 8, 8]), 4).is_err());
        // Prediction before any class is learned fails.
        assert!(model.predict(&Tensor::ones(&[1, 3, 8, 8])).is_err());
    }

    #[test]
    fn int8_conversion_keeps_predictions_reasonable() {
        let mut rng = SeedRng::new(2);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let train = colour_dataset(5, 8);
        let test = colour_dataset(4, 8);
        model
            .learn_classes_online(&train.full_batch().unwrap())
            .unwrap();
        let fp32_accuracy = model.evaluate(&test, 6).unwrap();
        assert!(!model.is_int8());
        model.convert_to_int8().unwrap();
        assert!(model.is_int8());
        // Re-learn with quantized features (as the deployed device would).
        model
            .learn_classes_online(&train.full_batch().unwrap())
            .unwrap();
        let int8_accuracy = model.evaluate(&test, 6).unwrap();
        assert!(
            int8_accuracy >= fp32_accuracy - 0.25,
            "fp32 {fp32_accuracy} int8 {int8_accuracy}"
        );
    }

    #[test]
    fn prototype_precision_reduction_is_applied() {
        let mut rng = SeedRng::new(3);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let train = colour_dataset(3, 8);
        model
            .learn_classes_online(&train.full_batch().unwrap())
            .unwrap();
        model.set_prototype_precision(PrototypePrecision::new(3).unwrap());
        assert_eq!(model.em().precision().bits(), 3);
        let test = colour_dataset(2, 8);
        let accuracy = model.evaluate(&test, 4).unwrap();
        assert!(accuracy > 0.4, "accuracy {accuracy}");
    }
}
