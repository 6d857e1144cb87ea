//! Regenerates **Table IV**: execution time, power and energy on the GAP9
//! model for FCR inference, backbone inference, the EM update (5-shot, one
//! new class) and FCR fine-tuning (100 epochs), per backbone.
//!
//! ```text
//! cargo run --release -p ofscil_bench --bin table4_energy
//! ```

use ofscil::nn::models::{mobilenet_v2, MobileNetVariant};
use ofscil::prelude::*;
use ofscil_bench::rule;

/// Paper-reported (time ms, power mW, energy mJ) for annotation.
const PAPER_ROWS: &[(&str, &str, f64, f64, f64)] = &[
    ("FCR", "any", 3.23, 47.75, 0.15),
    ("BB inference", "M", 48.10, 43.96, 2.12),
    ("BB inference", "M2", 52.51, 45.12, 2.40),
    ("BB inference", "M4", 99.50, 44.19, 4.40),
    ("EM update", "M", 256.65, 44.22, 11.35),
    ("EM update", "M2", 278.70, 45.75, 12.75),
    ("EM update", "M4", 513.65, 44.29, 22.75),
    ("FCR finetune", "M", 6171.7, 50.29, 310.35),
    ("FCR finetune", "M2", 6193.7, 50.33, 311.75),
    ("FCR finetune", "M4", 6428.7, 50.05, 321.75),
];

fn main() {
    let executor = Gap9Executor::default();
    println!(
        "Table IV — execution time, power and energy on the GAP9 model (8 cores, {:.0} MHz, {:.2} V)",
        executor.config().frequency_hz / 1e6,
        executor.config().voltage_v
    );
    rule(110);
    println!(
        "{:<14} {:>4} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "operation",
        "BB",
        "time [ms]",
        "power [mW]",
        "energy [mJ]",
        "paper [ms]",
        "paper [mW]",
        "paper [mJ]"
    );
    rule(110);

    let mut rng = SeedRng::new(0);
    let variants = [
        ("M", MobileNetVariant::X1),
        ("M2", MobileNetVariant::X2),
        ("M4", MobileNetVariant::X4),
    ];
    let shots = 5;
    let d_p = 256;

    // FCR row (backbone independent).
    let fcr = executor
        .fcr_inference(1280, d_p, 8)
        .expect("valid core count");
    print_row("FCR", "any", &fcr);

    let mut deployed = Vec::new();
    for (label, variant) in variants {
        let backbone = mobilenet_v2(variant, &mut rng);
        deployed.push((label, deploy_backbone(&backbone, 32, 32)));
    }
    for (label, workload) in &deployed {
        let cost = executor
            .backbone_inference(workload, 8)
            .expect("valid core count");
        print_row("BB inference", label, &cost);
    }
    for (label, workload) in &deployed {
        let cost = executor
            .em_update(workload, 1280, d_p, shots, 8)
            .expect("valid core count");
        print_row("EM update", label, &cost);
    }
    for (label, workload) in &deployed {
        let cost = executor
            .fcr_finetune(&workload.name, 1280, d_p, 60, 100, 8)
            .expect("valid core count");
        print_row("FCR finetune", label, &cost);
    }
    rule(110);
    println!("headline: the EM update on the baseline MobileNetV2 profile is the paper's \"12 mJ per class\".");
}

fn print_row(operation: &str, backbone: &str, cost: &OperationCost) {
    let paper = PAPER_ROWS
        .iter()
        .find(|(op, bb, ..)| *op == operation && *bb == backbone);
    match paper {
        Some((_, _, t, p, e)) => println!(
            "{:<14} {:>4} {:>12.2} {:>12.2} {:>12.2}   {:>12.2} {:>12.2} {:>12.2}",
            operation, backbone, cost.time_ms, cost.power_mw, cost.energy_mj, t, p, e
        ),
        None => println!(
            "{:<14} {:>4} {:>12.2} {:>12.2} {:>12.2}",
            operation, backbone, cost.time_ms, cost.power_mw, cost.energy_mj
        ),
    }
}
