//! Regenerates **Fig. 2**: average MACs per cycle as a function of the number
//! of active cluster cores, for backbone inference (left panel), FCR
//! inference (centre panel) and FCR fine-tuning (right panel).
//!
//! ```text
//! cargo run --release -p ofscil_bench --bin fig2_parallel_scaling
//! ```

use ofscil::nn::models::{mobilenet_v2, MobileNetVariant};
use ofscil::prelude::*;
use ofscil_bench::rule;

fn main() {
    let executor = Gap9Executor::default();
    let cores = [1usize, 2, 4, 8];
    let mut rng = SeedRng::new(0);

    println!("Fig. 2 — MACs/cycle vs number of active cores (GAP9 model)");
    rule(72);

    // Left panel: backbone inference for the three stride profiles.
    println!("backbone inference:");
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "backbone", "1 core", "2 cores", "4 cores", "8 cores"
    );
    for variant in [
        MobileNetVariant::X1,
        MobileNetVariant::X2,
        MobileNetVariant::X4,
    ] {
        let workload = deploy_backbone(&mobilenet_v2(variant, &mut rng), 32, 32);
        let sweep = executor
            .macs_per_cycle_sweep(&workload, &cores, false)
            .expect("valid core counts");
        print_sweep(variant.label(), &sweep);
    }
    println!(
        "(paper: MobileNetV2x4 reaches ~6.5 MACs/cycle at 8 cores; strided profiles scale worse)"
    );
    rule(72);

    // Centre panel: FCR inference.
    println!("FCR inference (1280 -> 256):");
    let fcr = deploy_fcr(1280, 256);
    let sweep = executor
        .macs_per_cycle_sweep(&fcr, &cores, false)
        .expect("valid core counts");
    print_sweep("FCR", &sweep);
    println!("(paper: ~0.65 MACs/cycle at 8 cores — the 328 kB L3 weight transfer dominates)");
    rule(72);

    // Right panel: FCR fine-tuning (training kernels).
    println!("FCR fine-tuning (forward + backward):");
    let sweep = executor
        .macs_per_cycle_sweep(&fcr, &cores, true)
        .expect("valid core counts");
    print_sweep("FCR finetune", &sweep);
    println!("(paper: ~1.2-1.4 MACs/cycle at 8 cores)");
}

fn print_sweep(label: &str, sweep: &[(usize, f64)]) {
    let cells: Vec<String> = sweep.iter().map(|(_, m)| format!("{m:>10.2}")).collect();
    println!("{:<18} {}", label, cells.join(" "));
}
