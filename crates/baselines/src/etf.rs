//! NC-FSCIL-style head: fixed equiangular class targets plus a ridge-learned
//! feature alignment.

use crate::{ridge_regression, BaselineHead, Result};
use ofscil_core::CoreError;
use ofscil_tensor::{cosine_similarity, l2_norm, SeedRng, Tensor};
use std::collections::BTreeMap;

/// An NC-FSCIL-inspired head.
///
/// Every class (base or incremental) is pre-assigned a fixed target direction
/// drawn from a near-equiangular frame, mirroring NC-FSCIL's neural-collapse
/// placeholder prototypes. The base session fits a linear alignment from
/// features to their class targets by ridge regression; incremental sessions
/// only *assign* the next free target — no parameter changes — so adding
/// classes never perturbs previously learned ones.
#[derive(Debug, Clone)]
pub struct EtfHead {
    feature_dim: usize,
    targets: Vec<Vec<f32>>,
    assigned: BTreeMap<usize, usize>,
    alignment: Option<Tensor>,
    ridge_lambda: f32,
}

impl EtfHead {
    /// Creates a head for features of `feature_dim` dimensions with capacity
    /// for `max_classes` classes.
    pub fn new(feature_dim: usize, max_classes: usize, seed: u64) -> Self {
        EtfHead {
            feature_dim,
            targets: equiangular_targets(max_classes, feature_dim, seed),
            assigned: BTreeMap::new(),
            alignment: None,
            ridge_lambda: 1.0,
        }
    }

    /// Fits the base-session alignment: ridge regression from the given
    /// features to the targets of their (newly assigned) classes.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes disagree or the capacity is exceeded.
    pub(crate) fn fit_base(&mut self, features: &Tensor, labels: &[usize]) -> Result<()> {
        self.assign_classes(labels)?;
        let dim = self.check_features(features, labels)?;
        let mut target_matrix = Tensor::zeros(&[labels.len(), self.feature_dim_targets()]);
        for (row, label) in labels.iter().enumerate() {
            let slot = self.assigned[label];
            target_matrix
                .set_row(row, &self.targets[slot])
                .map_err(CoreError::Tensor)?;
        }
        debug_assert_eq!(dim, self.feature_dim);
        self.alignment = Some(ridge_regression(
            features,
            &target_matrix,
            self.ridge_lambda,
        )?);
        Ok(())
    }

    fn feature_dim_targets(&self) -> usize {
        self.targets.first().map_or(0, Vec::len)
    }

    fn assign_classes(&mut self, labels: &[usize]) -> Result<()> {
        let mut classes: Vec<usize> = labels.to_vec();
        classes.sort_unstable();
        classes.dedup();
        for class in classes {
            if self.assigned.contains_key(&class) {
                continue;
            }
            let next = self.assigned.len();
            if next >= self.targets.len() {
                return Err(CoreError::InvalidConfig(format!(
                    "ETF head capacity {} exceeded",
                    self.targets.len()
                )));
            }
            self.assigned.insert(class, next);
        }
        Ok(())
    }

    fn check_features(&self, features: &Tensor, labels: &[usize]) -> Result<usize> {
        if features.dims().len() != 2
            || features.dims()[0] != labels.len()
            || features.dims()[1] != self.feature_dim
        {
            return Err(CoreError::InvalidConfig(format!(
                "expected [{}, {}] features, got {:?}",
                labels.len(),
                self.feature_dim,
                features.dims()
            )));
        }
        Ok(features.dims()[1])
    }

    fn align(&self, features: &Tensor) -> Result<Tensor> {
        match &self.alignment {
            Some(w) => features.matmul(w).map_err(CoreError::Tensor),
            None => Ok(features.clone()),
        }
    }
}

impl BaselineHead for EtfHead {
    fn name(&self) -> String {
        "ETF head (NC-FSCIL-style)".into()
    }

    fn learn_classes(&mut self, features: &Tensor, labels: &[usize]) -> Result<()> {
        self.check_features(features, labels)?;
        if self.alignment.is_none() {
            // First call defines the base session: fit the alignment.
            return self.fit_base(features, labels);
        }
        // Incremental sessions only assign targets to the new classes.
        self.assign_classes(labels)
    }

    fn predict(&self, features: &Tensor) -> Result<Vec<usize>> {
        if self.assigned.is_empty() {
            return Err(CoreError::InvalidConfig("no classes learned yet".into()));
        }
        let aligned = self.align(features)?;
        let dim = aligned.dims()[1];
        let mut predictions = Vec::with_capacity(aligned.dims()[0]);
        for row in 0..aligned.dims()[0] {
            let query = &aligned.as_slice()[row * dim..(row + 1) * dim];
            let mut best_class = 0usize;
            let mut best_score = f32::NEG_INFINITY;
            for (&class, &slot) in &self.assigned {
                let score =
                    cosine_similarity(query, &self.targets[slot]).map_err(CoreError::Tensor)?;
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
        self.assigned.len()
    }
}

/// Generates `count` unit-norm target directions in `dim` dimensions that are
/// as mutually equiangular as cheaply possible: random Gaussian directions
/// followed by a few rounds of pairwise repulsion. For `count <= dim` the
/// result is close to orthonormal, mirroring the neural-collapse simplex ETF.
fn equiangular_targets(count: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SeedRng::new(seed ^ 0xE7F0);
    let mut targets: Vec<Vec<f32>> = (0..count)
        .map(|_| {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
            let n = l2_norm(&v).max(1e-12);
            v.iter_mut().for_each(|x| *x /= n);
            v
        })
        .collect();
    // Repulsion rounds: push each vector away from its most-aligned peer.
    for _ in 0..20 {
        for i in 0..count {
            let mut worst = None;
            let mut worst_cos = -1.0f32;
            for j in 0..count {
                if i == j {
                    continue;
                }
                let cos: f32 = targets[i].iter().zip(&targets[j]).map(|(a, b)| a * b).sum();
                if cos > worst_cos {
                    worst_cos = cos;
                    worst = Some(j);
                }
            }
            if let Some(j) = worst {
                let other = targets[j].clone();
                let step = 0.1;
                for (a, b) in targets[i].iter_mut().zip(&other) {
                    *a -= step * worst_cos.max(0.0) * b;
                }
                let n = l2_norm(&targets[i]).max(1e-12);
                targets[i].iter_mut().for_each(|x| *x /= n);
            }
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    #[test]
    fn targets_are_unit_norm_and_spread() {
        let targets = equiangular_targets(10, 16, 3);
        assert_eq!(targets.len(), 10);
        for t in &targets {
            assert!((l2_norm(t) - 1.0).abs() < 1e-4);
        }
        // Average pairwise |cos| stays small when count <= dim.
        let mut total = 0.0f32;
        let mut pairs = 0;
        for i in 0..10 {
            for j in i + 1..10 {
                total += targets[i]
                    .iter()
                    .zip(&targets[j])
                    .map(|(a, b)| a * b)
                    .sum::<f32>()
                    .abs();
                pairs += 1;
            }
        }
        assert!((total / pairs as f32) < 0.35);
    }

    #[test]
    fn base_fit_plus_incremental_assignment() {
        let mut rng = SeedRng::new(0);
        // Three Gaussian clusters in 8 dimensions.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        let centres = [
            [2.0f32, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        for (class, centre) in centres.iter().enumerate() {
            for _ in 0..10 {
                for &c in centre {
                    features.push(c + 0.2 * rng.normal());
                }
                labels.push(class);
            }
        }
        let features = Tensor::from_vec(features, &[30, 8]).unwrap();
        let mut head = EtfHead::new(8, 10, 1);
        head.learn_classes(&features, &labels).unwrap();
        assert_eq!(head.num_classes(), 3);

        // Queries from the known classes are classified correctly.
        let queries = Tensor::from_vec(
            vec![
                2.1, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, //
                0.0, 0.0, 1.9, 0.1, 0.0, 0.0, 0.0, 0.0,
            ],
            &[2, 8],
        )
        .unwrap();
        assert_eq!(head.predict(&queries).unwrap(), vec![0, 2]);

        // An incremental class is assigned a fresh target without refitting.
        let novel =
            Tensor::from_vec(vec![0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0], &[1, 8]).unwrap();
        head.learn_classes(&novel, &[7]).unwrap();
        assert_eq!(head.num_classes(), 4);
    }

    #[test]
    fn capacity_and_shape_errors() {
        let mut head = EtfHead::new(4, 2, 0);
        assert_eq!(head.targets.len(), 2);
        // Prediction before any class is learned fails.
        assert!(head.predict(&Tensor::ones(&[1, 4])).is_err());
        let features = Tensor::ones(&[3, 4]);
        // More classes than the pre-assigned frame supports.
        assert!(head.learn_classes(&features, &[0, 1, 2]).is_err());
        // Wrong feature dimensionality.
        assert!(head.learn_classes(&Tensor::ones(&[2, 5]), &[0, 1]).is_err());
    }
}
