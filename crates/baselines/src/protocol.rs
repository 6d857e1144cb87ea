//! Runs a baseline head through the same FSCIL session schedule as the core
//! evaluator.

use crate::{BaselineHead, FeatureSpace, Result};
use ofscil_core::{OFscilModel, SessionResults};
use ofscil_data::{Dataset, FscilBenchmark};
use ofscil_nn::Mode;
use ofscil_tensor::Tensor;

/// Runs the FSCIL protocol with a baseline head on top of the shared
/// backbone / FCR feature extractor of `model`.
///
/// The schedule is identical to [`ofscil_core::run_fscil_protocol`]: the base
/// classes are learned from the full base-session data, each incremental
/// session provides only its few-shot support set, and after every session
/// the head is evaluated on the test samples of all classes seen so far.
///
/// # Errors
///
/// Returns an error when feature extraction or the head fails.
pub fn run_baseline_protocol(
    model: &mut OFscilModel,
    benchmark: &FscilBenchmark,
    head: &mut dyn BaselineHead,
    space: FeatureSpace,
    eval_batch_size: usize,
) -> Result<SessionResults> {
    let mut accuracies = Vec::with_capacity(benchmark.config().num_sessions + 1);

    // Base session: presented to the head as a single labeled batch, so heads
    // that fit a joint alignment over all base classes (e.g. the ETF head's
    // ridge regression) see the whole session at once. Features are extracted
    // in chunks to bound peak memory.
    let base_train = benchmark.base_train();
    {
        let indices: Vec<usize> = (0..base_train.len()).collect();
        let dim = match space {
            FeatureSpace::Backbone => {
                // Probe the backbone feature dimensionality from one sample.
                let probe = base_train.batch(&indices[..1])?;
                extract(model, &probe.images, space)?.dims()[1]
            }
            FeatureSpace::Projected => model.projection_dim(),
        };
        let mut features = Tensor::zeros(&[base_train.len(), dim]);
        let mut labels = Vec::with_capacity(base_train.len());
        for chunk in indices.chunks(eval_batch_size.max(1)) {
            let batch = base_train.batch(chunk)?;
            let chunk_features = extract(model, &batch.images, space)?;
            for (offset, row) in chunk.iter().enumerate() {
                features.set_row(*row, chunk_features.row(offset)?)?;
            }
            labels.extend(batch.labels);
        }
        // Rows were written by index, so labels must follow the same order.
        let mut ordered_labels = vec![0usize; base_train.len()];
        for (position, &index) in indices.iter().enumerate() {
            ordered_labels[index] = labels[position];
        }
        head.learn_classes(&features, &ordered_labels)?;
    }
    accuracies.push(evaluate(
        model,
        &benchmark.test_after_session(0)?,
        head,
        space,
        eval_batch_size,
    )?);

    // Incremental sessions.
    for session in benchmark.sessions() {
        let support = session.support.full_batch()?;
        let features = extract(model, &support.images, space)?;
        head.learn_classes(&features, &support.labels)?;
        let test = benchmark.test_after_session(session.index)?;
        accuracies.push(evaluate(model, &test, head, space, eval_batch_size)?);
    }

    Ok(SessionResults { accuracies })
}

fn extract(model: &mut OFscilModel, images: &Tensor, space: FeatureSpace) -> Result<Tensor> {
    match space {
        FeatureSpace::Backbone => model.extract_backbone_features(images, Mode::Eval),
        FeatureSpace::Projected => model.extract_features(images, Mode::Eval),
    }
}

fn evaluate(
    model: &mut OFscilModel,
    dataset: &Dataset,
    head: &dyn BaselineHead,
    space: FeatureSpace,
    batch_size: usize,
) -> Result<f32> {
    let indices: Vec<usize> = (0..dataset.len()).collect();
    let mut correct = 0usize;
    for chunk in indices.chunks(batch_size.max(1)) {
        let batch = dataset.batch(chunk)?;
        let features = extract(model, &batch.images, space)?;
        let predictions = head.predict(&features)?;
        correct += predictions
            .iter()
            .zip(&batch.labels)
            .filter(|(p, l)| p == l)
            .count();
    }
    Ok(correct as f32 / dataset.len().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EtfHead, NearestClassMean, SimilarityMetric};
    use ofscil_data::FscilConfig;
    use ofscil_nn::models::BackboneKind;
    use ofscil_tensor::SeedRng;

    fn tiny_benchmark() -> FscilBenchmark {
        let mut config = FscilConfig::micro();
        config.synthetic.num_classes = 10;
        config.synthetic.image_size = 12;
        config.num_base_classes = 6;
        config.num_sessions = 2;
        config.ways = 2;
        config.base_train_per_class = 8;
        config.test_per_class = 4;
        FscilBenchmark::generate(&config, 5).unwrap()
    }

    #[test]
    fn ncm_baseline_runs_full_protocol() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(0);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let mut head = NearestClassMean::new(SimilarityMetric::Cosine);
        let results =
            run_baseline_protocol(&mut model, &bench, &mut head, FeatureSpace::Backbone, 16)
                .unwrap();
        assert_eq!(results.accuracies.len(), 3);
        assert_eq!(head.num_classes(), 10);
        assert!(results.last_session() > 1.0 / 10.0);
    }

    #[test]
    fn etf_baseline_runs_on_projected_features() {
        let bench = tiny_benchmark();
        let mut rng = SeedRng::new(1);
        let mut model = OFscilModel::new(BackboneKind::Micro, 16, &mut rng);
        let mut head = EtfHead::new(16, 10, 3);
        let results =
            run_baseline_protocol(&mut model, &bench, &mut head, FeatureSpace::Projected, 16)
                .unwrap();
        assert_eq!(results.accuracies.len(), 3);
        assert_eq!(head.num_classes(), 10);
        assert!(results.accuracies.iter().all(|a| (0.0..=1.0).contains(a)));
    }
}
