//! The `simbench` CLI: runs adversarial workload scenarios and the
//! learning-quality audit, appends one trajectory line to
//! `BENCH_simbench.json`, and (with `--check`) gates the fresh run against
//! the last committed line.
//!
//! ```text
//! simbench [--scenario all|smoke|<name>] [--seed N] [--out PATH] [--check] [--list]
//! ```
//!
//! The appended line is byte-identical across runs at the same seed
//! (`--scenario all --seed 7` twice → identical lines), so the trajectory
//! file stays diffable. It records counts and quality, never wall-clock
//! time: timing lives in the perf ledger (`BENCHMARK.json`).

use std::path::PathBuf;
use std::process::ExitCode;

use ofscil_simbench::record::{append_line, compare_runs, read_last_line};
use ofscil_simbench::scenario::{run, scenarios, select};

struct Args {
    selector: String,
    seed: u64,
    out: PathBuf,
    check: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        selector: "all".to_string(),
        seed: ofscil_bench::seed_from_env(),
        out: PathBuf::from("BENCH_simbench.json"),
        check: false,
        list: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--scenario" => args.selector = value_of("--scenario")?,
            "--seed" => {
                args.seed = value_of("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value_of("--out")?),
            "--check" => args.check = true,
            "--list" => args.list = true,
            "--help" | "-h" => {
                println!(
                    "simbench [--scenario all|smoke|<name>] [--seed N] [--out PATH] \
                     [--check] [--list]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for scenario in scenarios() {
            let tag = if scenario.smoke { " [smoke]" } else { "" };
            println!("{:18} {}{tag}", scenario.name, scenario.summary);
        }
        return ExitCode::SUCCESS;
    }

    let selected = match select(&args.selector) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "simbench: {} scenario(s), seed {}",
        selected.len(),
        args.seed
    );

    // The committed baseline must be read *before* appending the fresh line.
    let baseline = match read_last_line(&args.out) {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let outcome = match run(&selected, args.seed, |name| {
        eprintln!("simbench: running {name}");
    }) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("simbench: scenario failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", outcome.line.render());
    if let Err(e) = append_line(&args.out, &outcome.line) {
        eprintln!("simbench: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "simbench: appended trajectory line to {}",
        args.out.display()
    );

    if args.check {
        let Some(baseline) = baseline else {
            eprintln!(
                "simbench: --check: no committed baseline in {}; recorded this run as \
                 the first line",
                args.out.display()
            );
            return ExitCode::SUCCESS;
        };
        let regressions = compare_runs(&baseline, &outcome.line, &outcome.gates);
        if regressions.is_empty() {
            eprintln!("simbench: --check: no regressions vs committed baseline");
        } else {
            for regression in &regressions {
                eprintln!(
                    "simbench: REGRESSION {}: {}",
                    regression.path, regression.detail
                );
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
