//! The Explicit Memory (EM): an expandable store of class prototypes queried
//! by cosine similarity.

use crate::{CoreError, Result};
use ofscil_quant::{ExplicitMemoryFootprint, PrototypePrecision};
use ofscil_tensor::cosine_similarity;
use std::collections::BTreeMap;

/// The Explicit Memory.
///
/// Each known class owns one prototype vector of dimension d_p, computed as
/// the mean of the FCR features of its support samples (a single pass — no
/// sample is ever stored). Queries are classified by the prototype with the
/// highest cosine similarity (paper Fig. 1a).
///
/// Prototypes may be stored at reduced precision (Fig. 3); the reduction is
/// applied when the prototype is written, matching the on-device bit-shift
/// division.
#[derive(Debug, Clone)]
pub struct ExplicitMemory {
    dim: usize,
    precision: PrototypePrecision,
    prototypes: BTreeMap<usize, Vec<f32>>,
}

impl ExplicitMemory {
    /// Creates an empty explicit memory for prototypes of dimension `dim`
    /// stored at full (32-bit) precision.
    pub fn new(dim: usize) -> Self {
        ExplicitMemory {
            dim,
            precision: PrototypePrecision::new(32).expect("32 bits is always valid"),
            prototypes: BTreeMap::new(),
        }
    }

    /// Creates an empty explicit memory with reduced-precision storage.
    pub fn with_precision(dim: usize, precision: PrototypePrecision) -> Self {
        ExplicitMemory {
            dim,
            precision,
            prototypes: BTreeMap::new(),
        }
    }

    /// Prototype dimensionality d_p.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The storage precision.
    pub fn precision(&self) -> PrototypePrecision {
        self.precision
    }

    /// Number of stored class prototypes.
    pub fn num_classes(&self) -> usize {
        self.prototypes.len()
    }

    /// Returns `true` when no prototype is stored.
    pub fn is_empty(&self) -> bool {
        self.prototypes.is_empty()
    }

    /// The sorted list of classes with a stored prototype.
    pub fn classes(&self) -> Vec<usize> {
        self.prototypes.keys().copied().collect()
    }

    /// Returns the stored prototype of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClass`] when the class has no prototype.
    pub fn prototype(&self, class: usize) -> Result<&[f32]> {
        self.prototypes
            .get(&class)
            .map(Vec::as_slice)
            .ok_or(CoreError::UnknownClass(class))
    }

    /// Writes (or overwrites) the prototype of `class` as the mean of the
    /// given feature vectors — the paper's single-pass EM update (Fig. 1b).
    ///
    /// # Errors
    ///
    /// Returns an error when `features` is empty or any vector has the wrong
    /// dimension.
    pub fn update_class(&mut self, class: usize, features: &[&[f32]]) -> Result<()> {
        if features.is_empty() {
            return Err(CoreError::InvalidConfig(format!(
                "class {class} update requires at least one feature vector"
            )));
        }
        let mut mean = vec![0.0f32; self.dim];
        for feature in features {
            if feature.len() != self.dim {
                return Err(CoreError::InvalidConfig(format!(
                    "feature dimension {} does not match EM dimension {}",
                    feature.len(),
                    self.dim
                )));
            }
            for (m, &v) in mean.iter_mut().zip(*feature) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= features.len() as f32;
        }
        self.prototypes
            .insert(class, self.precision.quantize(&mean));
        Ok(())
    }

    /// Stores an externally computed prototype (used by the FCR fine-tuning
    /// path and by baseline heads).
    ///
    /// # Errors
    ///
    /// Returns an error when the dimension is wrong.
    pub fn set_prototype(&mut self, class: usize, prototype: &[f32]) -> Result<()> {
        if prototype.len() != self.dim {
            return Err(CoreError::InvalidConfig(format!(
                "prototype dimension {} does not match EM dimension {}",
                prototype.len(),
                self.dim
            )));
        }
        self.prototypes
            .insert(class, self.precision.quantize(prototype));
        Ok(())
    }

    /// Stores a prototype exactly as given, bypassing the storage-precision
    /// quantizer. This is the deserialization path of snapshot codecs: the
    /// values are assumed to already be at the memory's storage precision
    /// (they were quantized when first written), and re-quantizing them would
    /// not be bit-exact because the quantizer's clip search depends on the
    /// input distribution.
    ///
    /// # Errors
    ///
    /// Returns an error when the dimension is wrong.
    pub fn restore_prototype(&mut self, class: usize, prototype: &[f32]) -> Result<()> {
        if prototype.len() != self.dim {
            return Err(CoreError::InvalidConfig(format!(
                "prototype dimension {} does not match EM dimension {}",
                prototype.len(),
                self.dim
            )));
        }
        self.prototypes.insert(class, prototype.to_vec());
        Ok(())
    }

    /// Iterates over `(class, prototype)` pairs in ascending class order —
    /// the serialization path of snapshot codecs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.prototypes.iter().map(|(&c, p)| (c, p.as_slice()))
    }

    /// Removes every stored prototype.
    pub fn clear(&mut self) {
        self.prototypes.clear();
    }

    /// Re-quantizes every stored prototype at a new precision (the Fig. 3
    /// sweep re-uses one trained memory across precisions).
    pub(crate) fn requantize(&mut self, precision: PrototypePrecision) {
        self.precision = precision;
        let classes: Vec<usize> = self.classes();
        for class in classes {
            let proto = self.prototypes.remove(&class).expect("class listed");
            self.prototypes.insert(class, precision.quantize(&proto));
        }
    }

    /// Cosine-similarity logits of a query feature against every stored
    /// prototype, in ascending class order. Returns `(classes, similarities)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the query dimension is wrong or the memory is
    /// empty.
    pub(crate) fn similarities(&self, query: &[f32]) -> Result<(Vec<usize>, Vec<f32>)> {
        if query.len() != self.dim {
            return Err(CoreError::InvalidConfig(format!(
                "query dimension {} does not match EM dimension {}",
                query.len(),
                self.dim
            )));
        }
        if self.prototypes.is_empty() {
            return Err(CoreError::InvalidConfig("explicit memory is empty".into()));
        }
        let mut classes = Vec::with_capacity(self.prototypes.len());
        let mut sims = Vec::with_capacity(self.prototypes.len());
        for (&class, proto) in &self.prototypes {
            classes.push(class);
            sims.push(cosine_similarity(query, proto).map_err(CoreError::Tensor)?);
        }
        Ok((classes, sims))
    }

    /// Classifies a query feature: returns the class of the most similar
    /// prototype and the similarity value.
    ///
    /// # Errors
    ///
    /// Returns an error when the query dimension is wrong or the memory is
    /// empty.
    pub fn classify(&self, query: &[f32]) -> Result<(usize, f32)> {
        let (classes, sims) = self.similarities(query)?;
        let mut best = 0usize;
        for (i, &s) in sims.iter().enumerate() {
            if s > sims[best] {
                best = i;
            }
        }
        Ok((classes[best], sims[best]))
    }

    /// Returns the bipolarised (+1 / −1) version of a class prototype, the
    /// fine-tuning target of the paper's Mode-2 FCR update.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownClass`] when the class has no prototype.
    pub(crate) fn bipolarized(&self, class: usize) -> Result<Vec<f32>> {
        let proto = self.prototype(class)?;
        Ok(proto
            .iter()
            .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
            .collect())
    }

    /// Storage footprint of the memory at its current precision.
    pub fn footprint(&self) -> ExplicitMemoryFootprint {
        ExplicitMemoryFootprint::new(self.num_classes(), self.dim, self.precision.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_and_classify() {
        let mut em = ExplicitMemory::new(4);
        em.update_class(0, &[&[1.0, 0.0, 0.0, 0.0], &[0.8, 0.2, 0.0, 0.0]])
            .unwrap();
        em.update_class(5, &[&[0.0, 1.0, 0.0, 0.0]]).unwrap();
        assert_eq!(em.num_classes(), 2);
        assert_eq!(em.classes(), vec![0, 5]);
        let (class, sim) = em.classify(&[1.0, 0.1, 0.0, 0.0]).unwrap();
        assert_eq!(class, 0);
        assert!(sim > 0.9);
        let (class, _) = em.classify(&[0.0, 2.0, 0.0, 0.0]).unwrap();
        assert_eq!(class, 5);
    }

    #[test]
    fn prototype_is_mean_of_features() {
        let mut em = ExplicitMemory::new(2);
        em.update_class(3, &[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert_eq!(em.prototype(3).unwrap(), &[0.5, 0.5]);
        assert!(em.prototype(1).is_err());
    }

    #[test]
    fn dimension_checks() {
        let mut em = ExplicitMemory::new(3);
        assert!(em.update_class(0, &[&[1.0, 2.0]]).is_err());
        assert!(em.update_class(0, &[]).is_err());
        assert!(em.set_prototype(0, &[1.0]).is_err());
        em.set_prototype(0, &[1.0, 0.0, 0.0]).unwrap();
        assert!(em.similarities(&[1.0]).is_err());
        assert!(ExplicitMemory::new(3).classify(&[1.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn low_precision_storage_preserves_classification() {
        let p3 = PrototypePrecision::new(3).unwrap();
        let mut em = ExplicitMemory::with_precision(8, p3);
        em.update_class(0, &[&[1.0, 0.8, -0.2, 0.1, 0.0, 0.3, -0.1, 0.5]])
            .unwrap();
        em.update_class(1, &[&[-0.9, 0.1, 0.7, -0.4, 0.2, -0.6, 0.3, -0.2]])
            .unwrap();
        let (class, _) = em
            .classify(&[0.9, 0.7, -0.1, 0.2, 0.1, 0.2, 0.0, 0.4])
            .unwrap();
        assert_eq!(class, 0);
        assert_eq!(em.precision().bits(), 3);
    }

    #[test]
    fn requantize_and_footprint() {
        let mut em = ExplicitMemory::new(256);
        for class in 0..100usize {
            let proto: Vec<f32> = (0..256).map(|i| ((i + class) % 7) as f32 - 3.0).collect();
            em.set_prototype(class, &proto).unwrap();
        }
        assert!((em.footprint().kilobytes() - 102.4).abs() < 1e-6);
        em.requantize(PrototypePrecision::new(3).unwrap());
        assert!((em.footprint().kilobytes() - 9.6).abs() < 1e-6);
        assert_eq!(em.num_classes(), 100);
    }

    #[test]
    fn bipolarized_prototype() {
        let mut em = ExplicitMemory::new(4);
        em.set_prototype(2, &[0.5, -0.1, 0.0, -2.0]).unwrap();
        assert_eq!(em.bipolarized(2).unwrap(), vec![1.0, -1.0, 1.0, -1.0]);
        assert!(em.bipolarized(9).is_err());
    }

    #[test]
    fn restore_bypasses_quantization() {
        let p3 = PrototypePrecision::new(3).unwrap();
        let mut em = ExplicitMemory::with_precision(4, p3);
        // set_prototype quantizes; restore_prototype must not.
        let raw = [0.123, -0.456, 0.789, -0.012];
        em.restore_prototype(7, &raw).unwrap();
        assert_eq!(em.prototype(7).unwrap(), &raw);
        assert!(em.restore_prototype(7, &[1.0]).is_err());
        let pairs: Vec<(usize, &[f32])> = em.iter().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 7);
    }

    #[test]
    fn clear_empties_memory() {
        let mut em = ExplicitMemory::new(2);
        em.set_prototype(0, &[1.0, 0.0]).unwrap();
        em.clear();
        assert!(em.is_empty());
    }
}
