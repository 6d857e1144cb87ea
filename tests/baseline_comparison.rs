//! Integration test comparing O-FSCIL against the baseline heads on the same
//! backbone, FCR and data — the qualitative content of Table II.

use ofscil::prelude::*;

fn fast_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::micro(seed);
    config.fscil.synthetic.num_classes = 18;
    config.fscil.synthetic.image_size = 14;
    config.fscil.num_base_classes = 10;
    config.fscil.num_sessions = 4;
    config.fscil.ways = 2;
    config.fscil.base_train_per_class = 14;
    config.fscil.test_per_class = 6;
    config.pretrain.epochs = 3;
    config.pretrain.batch_size = 20;
    if let Some(meta) = &mut config.metalearn {
        meta.iterations = 10;
    }
    config
}

#[test]
fn ofscil_is_competitive_with_every_baseline_head() {
    let outcome = run_experiment(&fast_config(31)).unwrap();
    let ofscil_avg = outcome.sessions.average();
    let mut model = outcome.model;
    let benchmark = outcome.benchmark;

    let mut results = Vec::new();

    let mut ncm = NearestClassMean::new(SimilarityMetric::Cosine);
    results.push((
        "ncm-backbone",
        run_baseline_protocol(&mut model, &benchmark, &mut ncm, FeatureSpace::Backbone, 64)
            .unwrap()
            .average(),
    ));

    let mut euclid = NearestClassMean::new(SimilarityMetric::Euclidean);
    results.push((
        "ncm-euclid-projected",
        run_baseline_protocol(
            &mut model,
            &benchmark,
            &mut euclid,
            FeatureSpace::Projected,
            64,
        )
        .unwrap()
        .average(),
    ));

    let mut etf = EtfHead::new(
        model.projection_dim(),
        benchmark.config().total_classes(),
        31,
    );
    results.push((
        "etf-projected",
        run_baseline_protocol(
            &mut model,
            &benchmark,
            &mut etf,
            FeatureSpace::Projected,
            64,
        )
        .unwrap()
        .average(),
    ));

    for (name, avg) in &results {
        // Every baseline produces a sane accuracy…
        assert!(
            (0.0..=1.0).contains(avg) && *avg > 1.0 / 18.0,
            "{name} collapsed to {avg}"
        );
        // …and O-FSCIL's explicit-memory classifier is at least competitive
        // with it (small tolerance: on the micro profile the gaps are small).
        assert!(
            ofscil_avg + 0.08 >= *avg,
            "O-FSCIL ({ofscil_avg}) clearly below {name} ({avg})"
        );
    }
}

#[test]
fn baseline_heads_share_the_forgetting_trend() {
    let outcome = run_experiment(&fast_config(32)).unwrap();
    let mut model = outcome.model;
    let benchmark = outcome.benchmark;
    let mut ncm = NearestClassMean::new(SimilarityMetric::Cosine);
    let results = run_baseline_protocol(
        &mut model,
        &benchmark,
        &mut ncm,
        FeatureSpace::Projected,
        64,
    )
    .unwrap();
    // Accuracy over a growing class set does not increase overall.
    assert!(results.last_session() <= results.session0() + 0.05);
    assert_eq!(
        results.accuracies.len(),
        benchmark.config().num_sessions + 1
    );
}
