//! Regenerates **Table I**: the proposed backbones with their stride
//! profiles, feature dimensionalities, parameter counts and MAC counts.
//!
//! ```text
//! cargo run --release -p ofscil_bench --bin table1_backbones
//! ```

use ofscil::nn::models::{mobilenet_v2, resnet12, MobileNetVariant};
use ofscil::prelude::*;
use ofscil_bench::rule;

fn main() {
    println!("Table I — proposed backbones (reproduced at 32x32 input)");
    rule(100);
    println!(
        "{:<18} {:<22} {:>6} {:>6} {:>12} {:>12} {:>22}",
        "backbone",
        "CNN stride profile",
        "d_a",
        "d_p",
        "params [M]",
        "MACs [M]",
        "paper params/MACs [M]"
    );
    rule(100);

    let mut rng = SeedRng::new(0);
    let rows: Vec<(String, String, usize, usize, f64, f64, &str)> = vec![
        table_row(
            mobilenet_v2(MobileNetVariant::X1, &mut rng),
            MobileNetVariant::X1.stride_profile().to_vec(),
            256,
            "2.5 / 25.9",
        ),
        table_row(
            mobilenet_v2(MobileNetVariant::X2, &mut rng),
            MobileNetVariant::X2.stride_profile().to_vec(),
            256,
            "2.5 / 45.4",
        ),
        table_row(
            mobilenet_v2(MobileNetVariant::X4, &mut rng),
            MobileNetVariant::X4.stride_profile().to_vec(),
            256,
            "2.5 / 149.2",
        ),
        table_row(resnet12(&mut rng), vec![], 512, "12.9 / 525.3"),
    ];

    for (name, strides, d_a, d_p, params_m, macs_m, paper) in rows {
        println!(
            "{:<18} {:<22} {:>6} {:>6} {:>12.2} {:>12.1} {:>22}",
            name, strides, d_a, d_p, params_m, macs_m, paper
        );
    }
    rule(100);
    println!(
        "note: reproduced parameter counts are backbone + FCR, matching how the paper reports model cost;"
    );
    println!("      the stride profile changes MACs only, never parameters.");
}

fn table_row(
    mut backbone: ofscil::nn::models::Backbone,
    strides: Vec<usize>,
    projection_dim: usize,
    paper: &str,
) -> (String, String, usize, usize, f64, f64, &str) {
    let profile = profile_with_fcr(&mut backbone, projection_dim, 32, 32);
    let stride_label = if strides.is_empty() {
        "-".to_string()
    } else {
        strides
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    (
        profile.name.clone(),
        stride_label,
        profile.feature_dim,
        projection_dim,
        profile.params_millions(),
        profile.macs_millions(),
        paper,
    )
}
