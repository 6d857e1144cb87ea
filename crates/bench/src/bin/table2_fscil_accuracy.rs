//! Regenerates **Table II**: per-session FSCIL accuracy for O-FSCIL (FP32,
//! INT8, and with optional FCR fine-tuning) and for the baseline classifier
//! heads, on the shared synthetic protocol.
//!
//! Absolute accuracies are not comparable to the paper (synthetic data, micro
//! training profile), but the *structure* is: per-session degradation, the
//! FP32/INT8 parity, the small effect of fine-tuning and the ordering against
//! the baseline heads. Set `OFSCIL_PROFILE=full` for the paper-scale
//! configuration (hours of runtime with the pure-Rust engine).
//!
//! ```text
//! cargo run --release -p ofscil_bench --bin table2_fscil_accuracy
//! ```

use ofscil::prelude::*;
use ofscil_bench::{benchmark_config, rule, seed_from_env};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let seed = seed_from_env();
    let config = benchmark_config(seed);
    println!(
        "Table II — FSCIL accuracy per session (seed {seed}, {} base classes, {} x {}-way {}-shot)",
        config.fscil.num_base_classes,
        config.fscil.num_sessions,
        config.fscil.ways,
        config.fscil.shots
    );
    println!(
        "paper reference (CIFAR100, MobileNetV2 x4): FP32 avg 66.54%, INT8 avg 66.51%, +FT 66.75%"
    );
    rule(118);
    let header: Vec<String> = (0..=config.fscil.num_sessions)
        .map(|s| format!("s{s}"))
        .collect();
    println!(
        "{:<34} {}   avg",
        "method / precision",
        header.join("     ")
    );
    rule(118);

    // O-FSCIL FP32.
    let fp32 = run_experiment(&config)?;
    print_row("O-FSCIL (FP32)", &fp32.sessions);

    // O-FSCIL INT8 (simulated deployment).
    let int8 = run_experiment(&config.clone().with_precision(EvalPrecision::Int8))?;
    print_row("O-FSCIL (INT8)", &int8.sessions);

    // O-FSCIL + FCR fine-tuning.
    let ft = run_experiment(&config.clone().with_finetune(FinetuneConfig::micro()))?;
    print_row("O-FSCIL + FT (FP32)", &ft.sessions);

    // Baselines on the shared pretrained model (from the FP32 run).
    let mut model = fp32.model;
    let benchmark = fp32.benchmark;

    let mut ncm = NearestClassMean::new(SimilarityMetric::Cosine);
    let ncm_results =
        run_baseline_protocol(&mut model, &benchmark, &mut ncm, FeatureSpace::Backbone, 64)?;
    print_row("NCM on backbone features", &ncm_results);

    let mut cfscil = NearestClassMean::new(SimilarityMetric::Euclidean);
    let cfscil_results = run_baseline_protocol(
        &mut model,
        &benchmark,
        &mut cfscil,
        FeatureSpace::Projected,
        64,
    )?;
    print_row("C-FSCIL-style (euclidean, FCR)", &cfscil_results);

    let mut etf = EtfHead::new(
        model.projection_dim(),
        benchmark.config().total_classes(),
        seed,
    );
    let etf_results = run_baseline_protocol(
        &mut model,
        &benchmark,
        &mut etf,
        FeatureSpace::Projected,
        64,
    )?;
    print_row("NC-FSCIL-style ETF head", &etf_results);

    rule(118);
    println!(
        "explicit memory after the last session: {:.1} kB at {} prototypes",
        model.em().footprint().kilobytes(),
        model.em().num_classes()
    );
    Ok(())
}

fn print_row(label: &str, results: &SessionResults) {
    println!("{:<34} {}", label, results.to_row());
}
