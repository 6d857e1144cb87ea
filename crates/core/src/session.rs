//! The FSCIL session evaluator: runs the full incremental protocol and
//! reports per-session accuracies (the columns of Table II).

use crate::{FinetuneConfig, OFscilModel, Result};
use ofscil_data::FscilBenchmark;

/// Per-session accuracies of one FSCIL run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResults {
    /// Accuracy after each session, starting with the base session (index 0).
    pub accuracies: Vec<f32>,
}

impl SessionResults {
    /// Accuracy on the base session (session 0).
    pub fn session0(&self) -> f32 {
        self.accuracies.first().copied().unwrap_or(0.0)
    }

    /// Accuracy after the last incremental session.
    pub fn last_session(&self) -> f32 {
        self.accuracies.last().copied().unwrap_or(0.0)
    }

    /// Average accuracy over all sessions (the paper's "Avg." column).
    pub fn average(&self) -> f32 {
        if self.accuracies.is_empty() {
            return 0.0;
        }
        self.accuracies.iter().sum::<f32>() / self.accuracies.len() as f32
    }

    /// Formats the results as a table row: one value per session plus the
    /// average, in percent.
    pub fn to_row(&self) -> String {
        let mut cells: Vec<String> = self
            .accuracies
            .iter()
            .map(|a| format!("{:5.2}", 100.0 * a))
            .collect();
        cells.push(format!("{:5.2}", 100.0 * self.average()));
        cells.join("  ")
    }
}

/// Runs the complete FSCIL protocol with an already pretrained / metalearned
/// model:
///
/// 1. the base classes are written into the explicit memory (one single pass
///    per class over the base training data),
/// 2. the model is evaluated on the test samples of the known classes,
/// 3. every incremental session learns its `ways × shots` support set online
///    (optionally followed by FCR fine-tuning) and is evaluated on all classes
///    seen so far.
///
/// # Errors
///
/// Returns an error when the benchmark and model are incompatible or any
/// evaluation fails.
pub fn run_fscil_protocol(
    model: &mut OFscilModel,
    benchmark: &FscilBenchmark,
    eval_batch_size: usize,
    finetune: Option<&FinetuneConfig>,
) -> Result<SessionResults> {
    let mut accuracies = Vec::with_capacity(benchmark.config().num_sessions + 1);

    // Session 0: populate the explicit memory with the base classes.
    let base_train = benchmark.base_train();
    for class in base_train.classes() {
        let indices = base_train.indices_of_class(class);
        let batch = base_train.batch(&indices)?;
        model.learn_classes_online(&batch)?;
    }
    if let Some(config) = finetune {
        crate::finetune_fcr(model, config)?;
    }
    let test0 = benchmark.test_after_session(0)?;
    accuracies.push(model.evaluate(&test0, eval_batch_size)?);

    // Incremental sessions.
    for session in benchmark.sessions() {
        let support = session.support.full_batch()?;
        model.learn_classes_online(&support)?;
        if let Some(config) = finetune {
            crate::finetune_fcr(model, config)?;
        }
        let test = benchmark.test_after_session(session.index)?;
        accuracies.push(model.evaluate(&test, eval_batch_size)?);
    }

    Ok(SessionResults { accuracies })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_data::FscilConfig;
    use ofscil_nn::models::BackboneKind;
    use ofscil_tensor::SeedRng;

    fn tiny_benchmark() -> FscilBenchmark {
        let mut config = FscilConfig::micro();
        config.synthetic.num_classes = 12;
        config.synthetic.image_size = 12;
        config.num_base_classes = 6;
        config.num_sessions = 3;
        config.ways = 2;
        config.base_train_per_class = 8;
        config.test_per_class = 4;
        FscilBenchmark::generate(&config, 2).unwrap()
    }

    #[test]
    fn protocol_produces_one_accuracy_per_session() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(0);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let results = run_fscil_protocol(&mut model, &bench, 16, None).unwrap();
        assert_eq!(results.accuracies.len(), 4);
        assert!(results.accuracies.iter().all(|a| (0.0..=1.0).contains(a)));
        // After the protocol every class has a prototype.
        assert_eq!(model.em().num_classes(), bench.config().total_classes());
        // Accuracy must beat random guessing over 12 classes even without any
        // pretraining, because the synthetic classes are colour/texture coded.
        assert!(results.last_session() > 1.0 / 12.0);
        assert!(results.average() > 0.0);
        let row = results.to_row();
        assert_eq!(row.split_whitespace().count(), 5);
    }

    #[test]
    fn finetuning_variant_runs() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(1);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let ft = FinetuneConfig {
            epochs: 2,
            ..FinetuneConfig::micro()
        };
        let results = run_fscil_protocol(&mut model, &bench, 16, Some(&ft)).unwrap();
        assert_eq!(results.accuracies.len(), 4);
    }

    #[test]
    fn empty_results_are_safe() {
        let results = SessionResults { accuracies: vec![] };
        assert_eq!(results.average(), 0.0);
        assert_eq!(results.session0(), 0.0);
        assert_eq!(results.last_session(), 0.0);
    }
}
