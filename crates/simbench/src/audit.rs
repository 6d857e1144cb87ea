//! The per-tenant learning-quality audit: the full FSCIL protocol driven
//! **through the serving API** (register → `LearnOnline` per session →
//! `Infer` per test sample), with session-accuracy and forgetting curves
//! compared against the classical baseline heads from `crates/baselines`
//! (nearest-class-mean in backbone space — the iCaRL-style exemplar-mean
//! classifier — and the fixed ETF head).
//!
//! This is the scenario that keeps scale work honest: a serving-stack
//! change that silently degrades the *learning* shows up here as a dropped
//! `serve_avg` or a grown `forgetting`, and the trajectory gate refuses it.

use ofscil::data::Dataset;
use ofscil::prelude::*;

use crate::record::{Gate, Json};
use crate::scenario::{sim_err, Ctx, ScenarioCtx, ScenarioReport, SimResult};

/// The audit's experiment profile: a scaled-down FSCIL benchmark (like the
/// tier-1 baseline-comparison test uses) that pretrains + metalearns a real
/// backbone in seconds while keeping the session structure of the paper.
fn audit_config(seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::micro(seed);
    config.fscil.synthetic.num_classes = 15;
    config.fscil.synthetic.image_size = 12;
    config.fscil.num_base_classes = 9;
    config.fscil.num_sessions = 3;
    config.fscil.ways = 2;
    config.fscil.base_train_per_class = 10;
    config.fscil.test_per_class = 5;
    config.pretrain.epochs = 2;
    config.pretrain.batch_size = 20;
    if let Some(meta) = &mut config.metalearn {
        meta.iterations = 8;
    }
    config
}

/// Accuracy of the serve path on a dataset: one `Infer` per test sample.
fn serve_accuracy(client: &ServeClient, dataset: &Dataset) -> SimResult<f64> {
    let mut correct = 0u64;
    for sample in dataset.iter() {
        let response = client
            .call(ServeRequest::Infer {
                deployment: "audit".into(),
                image: sample.image.clone(),
            })
            .ctx("audit infer")?;
        match response {
            ServeResponse::Prediction { class, .. } => {
                if class == sample.label {
                    correct += 1;
                }
            }
            other => return Err(sim_err(format!("expected a prediction, got {other:?}"))),
        }
    }
    Ok(correct as f64 / dataset.len() as f64)
}

/// Runs the learning-quality audit. Fails (rather than records) when the
/// serve path stops beating the NCM baseline — a bench line claiming
/// quality must demonstrate it.
pub(crate) fn audit(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    let outcome = run_experiment(&audit_config(ctx.seed)).ctx("audit experiment")?;
    let benchmark = outcome.benchmark;
    let mut model = outcome.model;
    let reference_avg = outcome.sessions.average();

    // Baseline heads on the *same* trained backbone and data — the only
    // honest comparison. NCM over backbone features is the iCaRL-style
    // exemplar-mean classifier; the ETF head is the fixed-simplex variant.
    let mut ncm = NearestClassMean::new(SimilarityMetric::Cosine);
    let ncm_results =
        run_baseline_protocol(&mut model, &benchmark, &mut ncm, FeatureSpace::Backbone, 32)
            .ctx("ncm baseline")?;
    let mut etf = EtfHead::new(
        model.projection_dim(),
        benchmark.config().total_classes(),
        ctx.seed,
    );
    let etf_results = run_baseline_protocol(
        &mut model,
        &benchmark,
        &mut etf,
        FeatureSpace::Projected,
        32,
    )
    .ctx("etf baseline")?;

    // Now the same protocol through the serving stack: clear the explicit
    // memory and deploy the trained model behind the serve API.
    model.em_mut().clear();
    let side = benchmark.config().synthetic.image_size;
    let registry = LearnerRegistry::new();
    registry
        .register(DeploymentSpec::new("audit", (side, side)), model)
        .ctx("register audit deployment")?;
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };

    let (serve_sessions, base_track) = ServeRuntime::run(
        &registry,
        &config,
        |client| -> SimResult<(Vec<f64>, Vec<f64>)> {
            let mut sessions = Vec::new();
            let mut base_track = Vec::new();
            let test0 = benchmark.test_after_session(0).ctx("base test split")?;

            // Session 0: base classes, learned per class exactly like
            // `run_fscil_protocol` does.
            let base = benchmark.base_train();
            for class in base.classes() {
                let batch = base
                    .batch(&base.indices_of_class(class))
                    .ctx("base batch")?;
                client
                    .call(ServeRequest::LearnOnline {
                        deployment: "audit".into(),
                        batch,
                    })
                    .ctx("base learn")?;
            }
            sessions.push(serve_accuracy(client, &test0)?);
            base_track.push(sessions[0]);

            // Incremental sessions: one online support-batch learn each,
            // then evaluation over every class seen so far — plus the
            // base-classes-only evaluation that feeds the forgetting curve.
            for session in benchmark.sessions() {
                let support = session.support.full_batch().ctx("support batch")?;
                client
                    .call(ServeRequest::LearnOnline {
                        deployment: "audit".into(),
                        batch: support,
                    })
                    .ctx("session learn")?;
                let test = benchmark
                    .test_after_session(session.index)
                    .ctx("test split")?;
                sessions.push(serve_accuracy(client, &test)?);
                base_track.push(serve_accuracy(client, &test0)?);
            }
            Ok((sessions, base_track))
        },
    )
    .ctx("serve runtime")??;

    let serve_avg = serve_sessions.iter().sum::<f64>() / serve_sessions.len() as f64;
    let forgetting = base_track[0] - base_track[base_track.len() - 1];
    let ncm_avg = f64::from(ncm_results.average());
    let etf_avg = f64::from(etf_results.average());

    // The acceptance bar: scale plumbing must not cost learning quality.
    // The serve path *is* the O-FSCIL method, so it must beat the classical
    // exemplar-mean baseline on the same backbone.
    if serve_avg <= ncm_avg {
        return Err(sim_err(format!(
            "serve-path FSCIL average {serve_avg:.4} does not beat the NCM baseline \
             {ncm_avg:.4}"
        )));
    }

    let mut report = ScenarioReport::new("audit");
    report.int("sessions", serve_sessions.len() as i64, Gate::Exact);
    report.value(
        "serve_sessions",
        Json::Arr(serve_sessions.iter().map(|&a| Json::Float(a)).collect()),
        Gate::None,
    );
    report.float("serve_avg", serve_avg, Gate::AtLeast { slack: 0.02 });
    report.float("serve_session0", serve_sessions[0], Gate::None);
    report.float(
        "serve_last_session",
        serve_sessions[serve_sessions.len() - 1],
        Gate::AtLeast { slack: 0.03 },
    );
    report.value(
        "base_class_track",
        Json::Arr(base_track.iter().map(|&a| Json::Float(a)).collect()),
        Gate::None,
    );
    report.float("forgetting", forgetting, Gate::AtMost { slack: 0.03 });
    report.float("ncm_avg", ncm_avg, Gate::None);
    report.float("etf_avg", etf_avg, Gate::None);
    report.float("margin_vs_ncm", serve_avg - ncm_avg, Gate::None);
    report.int("beats_ncm", 1, Gate::Exact);
    report.float("reference_avg", f64::from(reference_avg), Gate::None);
    Ok(report)
}
