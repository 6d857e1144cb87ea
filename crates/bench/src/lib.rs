//! Shared helpers for the benchmark harness that regenerates every table and
//! figure of the paper.
//!
//! Each table/figure has a dedicated binary (`table1_backbones`,
//! `table2_fscil_accuracy`, `table3_ablation`, `table4_energy`,
//! `fig2_parallel_scaling`, `fig3_precision_sweep`) that prints the
//! reproduced rows next to the paper's reference values. Kernel and
//! end-to-end timing is the perf ledger's job (`BENCHMARK.json`), not this
//! crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ofscil::prelude::*;

/// Returns the experiment seed, overridable with the `OFSCIL_SEED`
/// environment variable. An unset variable silently uses the default seed
/// 42; a *set but unparsable* value falls back too, but warns on stderr
/// naming the bad value so a typoed override is never mistaken for a real
/// one.
pub fn seed_from_env() -> u64 {
    match std::env::var("OFSCIL_SEED") {
        Ok(raw) => match raw.parse() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!("warning: OFSCIL_SEED={raw:?} is not a valid u64 seed; using default 42");
                42
            }
        },
        Err(_) => 42,
    }
}

/// Returns `true` when the `OFSCIL_PROFILE=full` environment variable asks
/// for the paper-scale configuration instead of the laptop-scale default.
pub(crate) fn full_profile_requested() -> bool {
    std::env::var("OFSCIL_PROFILE")
        .map(|v| v.eq_ignore_ascii_case("full"))
        .unwrap_or(false)
}

/// Builds the experiment configuration used by the accuracy benchmarks:
/// the micro profile by default, the paper-scale profile when
/// `OFSCIL_PROFILE=full`.
pub fn benchmark_config(seed: u64) -> ExperimentConfig {
    if full_profile_requested() {
        ExperimentConfig::full(seed, BackboneKind::MobileNetV2X4)
    } else {
        ExperimentConfig::micro(seed)
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(value: f32) -> String {
    format!("{:6.2}", 100.0 * value)
}

/// Prints a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_and_fallback() {
        // All OFSCIL_SEED handling lives in one test: the variable is
        // process-global, so splitting these cases across tests would race
        // under the parallel test harness.
        let previous = std::env::var("OFSCIL_SEED").ok();
        if previous.is_none() {
            assert_eq!(seed_from_env(), 42);
        }
        std::env::set_var("OFSCIL_SEED", "not-a-number");
        assert_eq!(seed_from_env(), 42);
        std::env::set_var("OFSCIL_SEED", "7");
        assert_eq!(seed_from_env(), 7);
        match previous {
            Some(value) => std::env::set_var("OFSCIL_SEED", value),
            None => std::env::remove_var("OFSCIL_SEED"),
        }
    }

    #[test]
    fn benchmark_config_is_valid() {
        let config = benchmark_config(1);
        config.validate().unwrap();
    }

    #[test]
    fn pct_formats_two_decimals() {
        assert_eq!(pct(0.5), " 50.00");
        assert_eq!(pct(1.0), "100.00");
    }
}
