//! In-memory labeled image dataset and batch assembly.

use crate::{DataError, Result};
use ofscil_tensor::{SeedRng, Tensor};

/// One labeled image: a `[channels, h, w]` tensor plus its class id.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Image tensor of shape `[channels, h, w]`.
    pub image: Tensor,
    /// Class identifier.
    pub label: usize,
}

/// A mini-batch assembled from a dataset: stacked images and aligned labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Images of shape `[batch, channels, h, w]`.
    pub images: Tensor,
    /// Labels aligned with the batch dimension.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the batch has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// An in-memory labeled image dataset.
///
/// All images share the same `[channels, h, w]` shape. The dataset exposes
/// class-indexed access (needed by the episodic samplers of the FSCIL
/// protocol) and batch assembly.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    samples: Vec<Sample>,
    image_dims: Vec<usize>,
}

impl Dataset {
    /// Creates an empty dataset expecting images with the given dims.
    pub fn new(image_dims: &[usize]) -> Self {
        Dataset {
            samples: Vec::new(),
            image_dims: image_dims.to_vec(),
        }
    }

    /// Adds a sample.
    ///
    /// # Errors
    ///
    /// Returns an error when the image shape differs from the dataset's shape.
    pub fn push(&mut self, sample: Sample) -> Result<()> {
        if sample.image.dims() != self.image_dims.as_slice() {
            return Err(DataError::InvalidConfig(format!(
                "sample shape {:?} does not match dataset shape {:?}",
                sample.image.dims(),
                self.image_dims
            )));
        }
        self.samples.push(sample);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the sample at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::OutOfRange`] when `index >= len()`.
    pub fn get(&self, index: usize) -> Result<&Sample> {
        self.samples.get(index).ok_or(DataError::OutOfRange {
            what: "sample index".into(),
            value: index,
            bound: self.samples.len(),
        })
    }

    /// Iterates over all samples.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// The sorted list of distinct class ids present in the dataset.
    pub fn classes(&self) -> Vec<usize> {
        let mut classes: Vec<usize> = self.samples.iter().map(|s| s.label).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// Indices of all samples belonging to `class`.
    pub fn indices_of_class(&self, class: usize) -> Vec<usize> {
        self.samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.label == class)
            .map(|(i, _)| i)
            .collect()
    }

    /// Returns a new dataset containing only samples of the given classes.
    pub(crate) fn filter_classes(&self, classes: &[usize]) -> Dataset {
        let mut out = Dataset::new(&self.image_dims);
        for sample in &self.samples {
            if classes.contains(&sample.label) {
                out.samples.push(sample.clone());
            }
        }
        out
    }

    /// Assembles a batch from explicit sample indices.
    ///
    /// # Errors
    ///
    /// Returns an error when `indices` is empty or contains an invalid index.
    pub fn batch(&self, indices: &[usize]) -> Result<Batch> {
        if indices.is_empty() {
            return Err(DataError::Empty("batch"));
        }
        let plane: usize = self.image_dims.iter().product();
        let mut data = Vec::with_capacity(indices.len() * plane);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let sample = self.get(i)?;
            data.extend_from_slice(sample.image.as_slice());
            labels.push(sample.label);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.image_dims);
        Ok(Batch {
            images: Tensor::from_vec(data, &dims)?,
            labels,
        })
    }

    /// Assembles the entire dataset as a single batch.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset is empty.
    pub fn full_batch(&self) -> Result<Batch> {
        let indices: Vec<usize> = (0..self.len()).collect();
        self.batch(&indices)
    }

    /// Splits the dataset into shuffled mini-batches of at most `batch_size`
    /// samples.
    ///
    /// # Errors
    ///
    /// Returns an error when `batch_size` is zero or the dataset is empty.
    pub fn shuffled_batches(&self, batch_size: usize, rng: &mut SeedRng) -> Result<Vec<Batch>> {
        if batch_size == 0 {
            return Err(DataError::InvalidConfig(
                "batch_size must be nonzero".into(),
            ));
        }
        if self.is_empty() {
            return Err(DataError::Empty("shuffled_batches"));
        }
        let order = rng.permutation(self.len());
        order
            .chunks(batch_size)
            .map(|chunk| self.batch(chunk))
            .collect()
    }

    /// Samples `shots` random samples per listed class and assembles them as a
    /// batch (support set of an episode).
    ///
    /// # Errors
    ///
    /// Returns an error when a class has fewer than `shots` samples.
    pub fn sample_support(
        &self,
        classes: &[usize],
        shots: usize,
        rng: &mut SeedRng,
    ) -> Result<Batch> {
        let mut indices = Vec::with_capacity(classes.len() * shots);
        for &class in classes {
            let of_class = self.indices_of_class(class);
            if of_class.len() < shots {
                return Err(DataError::InvalidConfig(format!(
                    "class {class} has only {} samples, need {shots}",
                    of_class.len()
                )));
            }
            for pick in rng.choose_distinct(of_class.len(), shots) {
                indices.push(of_class[pick]);
            }
        }
        self.batch(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset() -> Dataset {
        let mut ds = Dataset::new(&[1, 2, 2]);
        for label in 0..3usize {
            for k in 0..4usize {
                ds.push(Sample {
                    image: Tensor::full(&[1, 2, 2], (label * 10 + k) as f32),
                    label,
                })
                .unwrap();
            }
        }
        ds
    }

    #[test]
    fn push_rejects_wrong_shape() {
        let mut ds = Dataset::new(&[3, 4, 4]);
        assert!(ds
            .push(Sample {
                image: Tensor::zeros(&[3, 5, 5]),
                label: 0
            })
            .is_err());
        assert!(ds.is_empty());
    }

    #[test]
    fn classes_and_filtering() {
        let ds = toy_dataset();
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.classes(), vec![0, 1, 2]);
        assert_eq!(ds.indices_of_class(1).len(), 4);
        let filtered = ds.filter_classes(&[0, 2]);
        assert_eq!(filtered.classes(), vec![0, 2]);
        assert_eq!(filtered.len(), 8);
    }

    #[test]
    fn batch_assembly() {
        let ds = toy_dataset();
        let batch = ds.batch(&[0, 5, 11]).unwrap();
        assert_eq!(batch.images.dims(), &[3, 1, 2, 2]);
        assert_eq!(batch.labels, vec![0, 1, 2]);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert!(ds.batch(&[]).is_err());
        assert!(ds.batch(&[99]).is_err());
        assert_eq!(ds.full_batch().unwrap().len(), 12);
    }

    #[test]
    fn shuffled_batches_cover_everything() {
        let ds = toy_dataset();
        let mut rng = SeedRng::new(0);
        let batches = ds.shuffled_batches(5, &mut rng).unwrap();
        let total: usize = batches.iter().map(Batch::len).sum();
        assert_eq!(total, 12);
        assert_eq!(batches.len(), 3);
        assert!(ds.shuffled_batches(0, &mut rng).is_err());
    }

    #[test]
    fn support_sampling_is_balanced() {
        let ds = toy_dataset();
        let mut rng = SeedRng::new(1);
        let support = ds.sample_support(&[0, 2], 3, &mut rng).unwrap();
        assert_eq!(support.len(), 6);
        assert_eq!(support.labels.iter().filter(|&&l| l == 0).count(), 3);
        assert_eq!(support.labels.iter().filter(|&&l| l == 2).count(), 3);
        assert!(ds.sample_support(&[0], 9, &mut rng).is_err());
    }
}
