//! Nearest-class-mean prototype head.

use crate::{BaselineHead, Result, SimilarityMetric};
use ofscil_core::CoreError;
use ofscil_tensor::{cosine_similarity, Tensor};
use std::collections::BTreeMap;

/// Nearest-class-mean classifier: one mean feature vector per class, queries
/// matched by cosine similarity or (negative) Euclidean distance.
///
/// Run on backbone features this is the classical NCM/ProtoNet baseline; run
/// on FCR features with cosine matching it reproduces the behaviour of
/// C-FSCIL mode 1 (frozen backbone, averaged prototypes, no extra training).
#[derive(Debug, Clone)]
pub struct NearestClassMean {
    metric: SimilarityMetric,
    prototypes: BTreeMap<usize, Vec<f32>>,
}

impl NearestClassMean {
    /// Creates an empty head with the given similarity metric.
    pub fn new(metric: SimilarityMetric) -> Self {
        NearestClassMean {
            metric,
            prototypes: BTreeMap::new(),
        }
    }

    /// The similarity metric in use.
    pub fn metric(&self) -> SimilarityMetric {
        self.metric
    }

    fn score(&self, query: &[f32], prototype: &[f32]) -> Result<f32> {
        match self.metric {
            SimilarityMetric::Cosine => {
                cosine_similarity(query, prototype).map_err(CoreError::Tensor)
            }
            SimilarityMetric::Euclidean => Ok(-query
                .iter()
                .zip(prototype)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()),
        }
    }
}

impl BaselineHead for NearestClassMean {
    fn name(&self) -> String {
        match self.metric {
            SimilarityMetric::Cosine => "NCM (cosine)".into(),
            SimilarityMetric::Euclidean => "NCM (euclidean)".into(),
        }
    }

    fn learn_classes(&mut self, features: &Tensor, labels: &[usize]) -> Result<()> {
        if features.dims().len() != 2 || features.dims()[0] != labels.len() {
            return Err(CoreError::InvalidConfig(format!(
                "features {:?} incompatible with {} labels",
                features.dims(),
                labels.len()
            )));
        }
        let dim = features.dims()[1];
        let mut classes: Vec<usize> = labels.to_vec();
        classes.sort_unstable();
        classes.dedup();
        for class in classes {
            let rows: Vec<usize> = labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == class)
                .map(|(i, _)| i)
                .collect();
            let mut mean = vec![0.0f32; dim];
            for &r in &rows {
                for (m, &v) in mean
                    .iter_mut()
                    .zip(&features.as_slice()[r * dim..(r + 1) * dim])
                {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= rows.len() as f32;
            }
            self.prototypes.insert(class, mean);
        }
        Ok(())
    }

    fn predict(&self, features: &Tensor) -> Result<Vec<usize>> {
        if self.prototypes.is_empty() {
            return Err(CoreError::InvalidConfig("no classes learned yet".into()));
        }
        let dim = features.dims()[1];
        let mut predictions = Vec::with_capacity(features.dims()[0]);
        for row in 0..features.dims()[0] {
            let query = &features.as_slice()[row * dim..(row + 1) * dim];
            let mut best_class = 0usize;
            let mut best_score = f32::NEG_INFINITY;
            for (&class, prototype) in &self.prototypes {
                let score = self.score(query, prototype)?;
                if score > best_score {
                    best_score = score;
                    best_class = class;
                }
            }
            predictions.push(best_class);
        }
        Ok(predictions)
    }

    fn num_classes(&self) -> usize {
        self.prototypes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_features() -> (Tensor, Vec<usize>) {
        let features = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, //
                0.9, 0.1, 0.0, //
                0.0, 1.0, 0.0, //
                0.1, 0.9, 0.0, //
            ],
            &[4, 3],
        )
        .unwrap();
        (features, vec![0, 0, 7, 7])
    }

    #[test]
    fn learns_means_and_classifies() {
        for metric in [SimilarityMetric::Cosine, SimilarityMetric::Euclidean] {
            let (features, labels) = toy_features();
            let mut head = NearestClassMean::new(metric);
            head.learn_classes(&features, &labels).unwrap();
            assert_eq!(head.num_classes(), 2);
            let queries = Tensor::from_vec(vec![0.95, 0.05, 0.0, 0.0, 0.8, 0.1], &[2, 3]).unwrap();
            assert_eq!(head.predict(&queries).unwrap(), vec![0, 7]);
        }
    }

    #[test]
    fn incremental_classes_extend_the_head() {
        let (features, labels) = toy_features();
        let mut head = NearestClassMean::new(SimilarityMetric::Cosine);
        head.learn_classes(&features, &labels).unwrap();
        let new = Tensor::from_vec(vec![0.0, 0.0, 1.0], &[1, 3]).unwrap();
        head.learn_classes(&new, &[3]).unwrap();
        assert_eq!(head.num_classes(), 3);
        let query = Tensor::from_vec(vec![0.0, 0.1, 0.9], &[1, 3]).unwrap();
        assert_eq!(head.predict(&query).unwrap(), vec![3]);
    }

    #[test]
    fn errors_on_mismatch_and_empty() {
        let mut head = NearestClassMean::new(SimilarityMetric::Cosine);
        assert!(head.learn_classes(&Tensor::ones(&[2, 3]), &[0]).is_err());
        assert!(head.predict(&Tensor::ones(&[1, 3])).is_err());
        assert!(head.name().contains("NCM"));
    }
}
