//! Smoke test: the whole pipeline — pretraining, metalearning, the FSCIL
//! session protocol and evaluation — must run end-to-end from the facade
//! crate's prelude on the micro configuration.

use ofscil::prelude::*;

#[test]
fn micro_experiment_runs_and_reports_finite_accuracies() {
    let outcome = run_experiment(&ExperimentConfig::micro(42)).expect("micro experiment must run");
    let accuracies = &outcome.sessions.accuracies;
    assert!(
        !accuracies.is_empty(),
        "protocol must produce at least one session"
    );
    for (session, &acc) in accuracies.iter().enumerate() {
        assert!(
            acc.is_finite(),
            "session {session} accuracy is not finite: {acc}"
        );
        assert!(
            (0.0..=1.0).contains(&acc),
            "session {session} accuracy out of range: {acc}"
        );
    }
}

#[test]
fn micro_experiment_is_deterministic_across_runs() {
    let a = run_experiment(&ExperimentConfig::micro(42)).expect("first run");
    let b = run_experiment(&ExperimentConfig::micro(42)).expect("second run");
    assert_eq!(a.sessions.accuracies, b.sessions.accuracies);
}
