//! End-to-end integration test: the complete O-FSCIL pipeline on the
//! laptop-scale profile, checking the qualitative properties the paper
//! reports (learning works, forgetting is graceful, the components help).

use ofscil::prelude::*;

/// A reduced micro configuration so the integration suite stays fast.
fn fast_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::micro(seed);
    config.fscil.synthetic.num_classes = 20;
    config.fscil.synthetic.image_size = 14;
    config.fscil.num_base_classes = 10;
    config.fscil.num_sessions = 5;
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
fn ofscil_learns_incrementally_without_collapse() {
    let outcome = run_experiment(&fast_config(3)).unwrap();
    let sessions = &outcome.sessions;
    let num_sessions = outcome.benchmark.config().num_sessions;
    assert_eq!(sessions.accuracies.len(), num_sessions + 1);

    // Base-session accuracy clearly above chance (10 base classes).
    assert!(
        sessions.session0() > 0.3,
        "base session accuracy {} too close to chance",
        sessions.session0()
    );
    // After all sessions the model still beats chance over all 20 classes.
    assert!(
        sessions.last_session() > 0.15,
        "final accuracy {} collapsed",
        sessions.last_session()
    );
    // Accuracy decreases as classes are added (the FSCIL forgetting trend) —
    // allow small non-monotonic wiggles but require an overall decline.
    assert!(
        sessions.last_session() <= sessions.session0() + 0.05,
        "accuracy unexpectedly increased from {} to {}",
        sessions.session0(),
        sessions.last_session()
    );
    // Every learned class has a prototype and an activation-memory entry.
    assert_eq!(
        outcome.model.em().num_classes(),
        outcome.benchmark.config().total_classes()
    );
    assert_eq!(
        outcome.model.activation_means().len(),
        outcome.benchmark.config().total_classes()
    );
}

#[test]
fn pretraining_and_metalearning_improve_over_random_backbone() {
    let config = fast_config(5);
    // Trained pipeline.
    let trained = run_experiment(&config).unwrap();

    // Untrained control: same data and protocol, but no pretraining epochs
    // and no metalearning.
    let mut control_config = config.clone();
    control_config.pretrain.epochs = 0;
    control_config.metalearn = None;
    let control = run_experiment(&control_config).unwrap();

    assert!(
        trained.sessions.average() > control.sessions.average(),
        "training did not help: trained {} vs random {}",
        trained.sessions.average(),
        control.sessions.average()
    );
}

#[test]
fn online_learning_is_single_pass_and_expands_the_memory() {
    let config = fast_config(7);
    let outcome = run_experiment(&config).unwrap();
    let mut model = outcome.model;
    let benchmark = outcome.benchmark;

    // Learn a brand-new synthetic class (one not in the protocol) online from
    // five samples only, in a single call.
    let generator = SyntheticCifar::new(benchmark.config().synthetic.clone(), 99);
    let novel_class = 19usize;
    let before = model.em().num_classes();
    let support = generator.generate_split(&[novel_class], 5, 0).unwrap();
    model
        .learn_classes_online(&support.full_batch().unwrap())
        .unwrap();
    assert_eq!(
        model.em().num_classes(),
        before.max(novel_class + 1).max(before)
    );
    assert!(model.em().prototype(novel_class).is_ok());
}

#[test]
fn experiments_are_deterministic_across_runs() {
    let a = run_experiment(&fast_config(11)).unwrap();
    let b = run_experiment(&fast_config(11)).unwrap();
    assert_eq!(a.sessions.accuracies, b.sessions.accuracies);
    assert_eq!(a.pretrain.epoch_losses, b.pretrain.epoch_losses);
}
