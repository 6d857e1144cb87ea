//! The FSCIL benchmark protocol (paper §III and §VI-A).
//!
//! A benchmark consists of a *base session* (many labeled samples for the
//! base classes, used for pretraining and metalearning), a sequence of
//! *incremental sessions* (each introducing `ways` new classes with only
//! `shots` labeled samples per class), and a held-out test set covering all
//! classes. After session `t`, the model is evaluated on the test samples of
//! every class seen so far.

use crate::{DataError, Dataset, Result, SyntheticCifar, SyntheticConfig};

/// Configuration of an FSCIL benchmark instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FscilConfig {
    /// Generator configuration for the synthetic imagery.
    pub synthetic: SyntheticConfig,
    /// Number of base classes (session 0).
    pub num_base_classes: usize,
    /// Number of incremental sessions.
    pub num_sessions: usize,
    /// New classes per incremental session (N-way).
    pub ways: usize,
    /// Labeled samples per new class (S-shot).
    pub shots: usize,
    /// Training samples per base class.
    pub base_train_per_class: usize,
    /// Held-out test samples per class (all classes).
    pub test_per_class: usize,
}

impl FscilConfig {
    /// The paper's CIFAR100 protocol: 60 base classes, eight 5-way 5-shot
    /// sessions, 100 test images per class, 32×32 images.
    pub fn cifar100() -> Self {
        FscilConfig {
            synthetic: SyntheticConfig::default(),
            num_base_classes: 60,
            num_sessions: 8,
            ways: 5,
            shots: 5,
            base_train_per_class: 50,
            test_per_class: 100,
        }
    }

    /// A laptop-scale profile with the same *shape* as the CIFAR100 protocol
    /// (8 incremental sessions, 5-shot) but fewer/smaller classes, so the full
    /// pretrain → metalearn → incremental pipeline runs in seconds.
    pub fn micro() -> Self {
        FscilConfig {
            synthetic: SyntheticConfig {
                num_classes: 36,
                image_size: 16,
                components_per_class: 5,
                ..SyntheticConfig::default()
            },
            num_base_classes: 20,
            num_sessions: 8,
            ways: 2,
            shots: 5,
            base_train_per_class: 20,
            test_per_class: 10,
        }
    }

    /// Total number of classes after the last session.
    pub fn total_classes(&self) -> usize {
        self.num_base_classes + self.num_sessions * self.ways
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error when the class budget exceeds the generator's classes
    /// or any count is zero.
    pub fn validate(&self) -> Result<()> {
        if self.num_base_classes == 0 || self.ways == 0 || self.shots == 0 {
            return Err(DataError::InvalidConfig(
                "base classes, ways and shots must be nonzero".into(),
            ));
        }
        if self.total_classes() > self.synthetic.num_classes {
            return Err(DataError::InvalidConfig(format!(
                "protocol needs {} classes but the generator only provides {}",
                self.total_classes(),
                self.synthetic.num_classes
            )));
        }
        if self.test_per_class == 0 || self.base_train_per_class == 0 {
            return Err(DataError::InvalidConfig(
                "train and test samples per class must be nonzero".into(),
            ));
        }
        Ok(())
    }
}

/// One incremental session: the new class ids and their few-shot support set.
#[derive(Debug, Clone)]
pub struct Session {
    /// 1-based session index (session 0 is the base session).
    pub index: usize,
    /// The new classes introduced by this session.
    pub classes: Vec<usize>,
    /// Support samples (`ways * shots` images).
    pub support: Dataset,
}

/// A fully materialised FSCIL benchmark: base data, incremental sessions and
/// the complete test set.
#[derive(Debug, Clone)]
pub struct FscilBenchmark {
    config: FscilConfig,
    base_train: Dataset,
    sessions: Vec<Session>,
    test: Dataset,
}

impl FscilBenchmark {
    /// Generates a benchmark from the synthetic generator with the given seed.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is inconsistent.
    pub fn generate(config: &FscilConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let generator = SyntheticCifar::new(config.synthetic.clone(), seed);
        const TRAIN_STREAM: u64 = 0;
        const TEST_STREAM: u64 = 1;

        let base_classes: Vec<usize> = (0..config.num_base_classes).collect();
        let base_train =
            generator.generate_split(&base_classes, config.base_train_per_class, TRAIN_STREAM)?;

        let mut sessions = Vec::with_capacity(config.num_sessions);
        for s in 0..config.num_sessions {
            let start = config.num_base_classes + s * config.ways;
            let classes: Vec<usize> = (start..start + config.ways).collect();
            let support = generator.generate_split(&classes, config.shots, TRAIN_STREAM)?;
            sessions.push(Session {
                index: s + 1,
                classes,
                support,
            });
        }

        let all_classes: Vec<usize> = (0..config.total_classes()).collect();
        let test = generator.generate_split(&all_classes, config.test_per_class, TEST_STREAM)?;

        Ok(FscilBenchmark {
            config: config.clone(),
            base_train,
            sessions,
            test,
        })
    }

    /// The benchmark configuration.
    pub fn config(&self) -> &FscilConfig {
        &self.config
    }

    /// Training data of the base session (session 0).
    pub fn base_train(&self) -> &Dataset {
        &self.base_train
    }

    /// The incremental sessions in order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// The full test set over every class of the protocol.
    pub fn test(&self) -> &Dataset {
        &self.test
    }

    /// Class ids known after `session` (0 = base only).
    ///
    /// # Errors
    ///
    /// Returns an error when `session` exceeds the number of sessions.
    pub(crate) fn classes_after_session(&self, session: usize) -> Result<Vec<usize>> {
        if session > self.config.num_sessions {
            return Err(DataError::OutOfRange {
                what: "session".into(),
                value: session,
                bound: self.config.num_sessions + 1,
            });
        }
        Ok((0..self.config.num_base_classes + session * self.config.ways).collect())
    }

    /// Test samples restricted to the classes known after `session`; this is
    /// the evaluation set used for the per-session accuracy columns of
    /// Table II.
    ///
    /// # Errors
    ///
    /// Returns an error when `session` exceeds the number of sessions.
    pub fn test_after_session(&self, session: usize) -> Result<Dataset> {
        let classes = self.classes_after_session(session)?;
        Ok(self.test.filter_classes(&classes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cifar100_protocol_shape() {
        let config = FscilConfig::cifar100();
        assert_eq!(config.total_classes(), 100);
        config.validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = FscilConfig::micro();
        config.ways = 0;
        assert!(config.validate().is_err());
        let mut config = FscilConfig::micro();
        config.num_base_classes = 1000;
        assert!(config.validate().is_err());
        let mut config = FscilConfig::micro();
        config.test_per_class = 0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn generated_benchmark_is_consistent() {
        let config = FscilConfig::micro();
        let bench = FscilBenchmark::generate(&config, 11).unwrap();
        // Base training data covers exactly the base classes.
        assert_eq!(bench.base_train().classes().len(), config.num_base_classes);
        assert_eq!(
            bench.base_train().len(),
            config.num_base_classes * config.base_train_per_class
        );
        // Sessions introduce disjoint, consecutive classes.
        assert_eq!(bench.sessions().len(), config.num_sessions);
        let mut seen = bench.base_train().classes();
        for session in bench.sessions() {
            assert_eq!(session.classes.len(), config.ways);
            assert_eq!(session.support.len(), config.ways * config.shots);
            for class in &session.classes {
                assert!(!seen.contains(class), "class {class} reappears");
                seen.push(*class);
            }
        }
        assert_eq!(seen.len(), config.total_classes());
        // Test set covers every class with the configured count.
        assert_eq!(
            bench.test().len(),
            config.total_classes() * config.test_per_class
        );
    }

    #[test]
    fn session_filtered_test_sets_grow() {
        let config = FscilConfig::micro();
        let bench = FscilBenchmark::generate(&config, 3).unwrap();
        let t0 = bench.test_after_session(0).unwrap();
        let t4 = bench.test_after_session(4).unwrap();
        let t8 = bench.test_after_session(8).unwrap();
        assert!(t0.len() < t4.len() && t4.len() < t8.len());
        assert_eq!(t8.len(), config.total_classes() * config.test_per_class);
        assert!(bench.test_after_session(9).is_err());
        assert_eq!(
            bench.classes_after_session(1).unwrap().len(),
            config.num_base_classes + config.ways
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let config = FscilConfig::micro();
        let a = FscilBenchmark::generate(&config, 5).unwrap();
        let b = FscilBenchmark::generate(&config, 5).unwrap();
        assert_eq!(
            a.base_train().get(0).unwrap().image,
            b.base_train().get(0).unwrap().image
        );
        let c = FscilBenchmark::generate(&config, 6).unwrap();
        assert!(
            a.base_train()
                .get(0)
                .unwrap()
                .image
                .max_abs_diff(&c.base_train().get(0).unwrap().image)
                .unwrap()
                > 1e-4
        );
    }
}
