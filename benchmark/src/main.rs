//! The perf ledger's harness. See README.md for what every name means.
//!
//! ```text
//! ofscil_perf --workload NAME --seed N --seconds S --trace 0|1   one run, result object last
//! ofscil_perf [--seed N] [--seconds S]                           all workloads, plain then traced
//! ofscil_perf --repeat [--seed N] [--seconds S]                  two interleaved sets, compared with the bounds
//! ```
//!
//! `--scale F` shrinks every request count in the sizing table for a smoke
//! run; numbers count only at scale 1.

mod drive;
mod fixture;
mod gen;
mod kernels;
mod plain;
mod report;
mod spans;
mod stats;
mod trace;
mod workloads;

use ofscil_simbench::record::{parse, Json};
use report::{provenance, repo_root, result_line};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{by_name, Path as EntryPath, Sizing, WORKLOADS};

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    repeat: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        scale: 1.0,
        repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--scale" => parsed.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--repeat" => parsed.repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if !(parsed.scale > 0.0 && parsed.scale.is_finite()) {
        return Err("--scale must be positive".into());
    }
    if let Some(name) = &parsed.workload {
        if by_name(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
        if parsed.repeat {
            return Err("--repeat runs every workload; drop --workload".into());
        }
    }
    Ok(parsed)
}

/// Build products, span files and the durable path's store all live here,
/// inside the checkout and git-ignored.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload, one mode, in this process: an information line, then the
/// result object.
fn run_one(sizing: &Sizing, args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let out = out_dir();
    // A directory of this process's own, so concurrent runs cannot share a store.
    let scratch = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut info = vec![
        ("workload".to_string(), Json::Str(sizing.name.into())),
        (
            "mode".into(),
            Json::Str(if args.trace { "trace" } else { "plain" }.into()),
        ),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("scale".into(), Json::Float(args.scale)),
    ];
    info.extend(provenance());
    let outcome = if args.trace {
        trace::run(sizing, args.seed, args.seconds, args.scale, &out, &scratch).map(|o| {
            info.push(("rounds".into(), Json::Int(o.rounds as i64)));
            info.push(("spans".into(), Json::Int(o.spans as i64)));
            info.push((
                "tracing_overhead_us_per_request".into(),
                Json::Float(o.harness_self_us),
            ));
            (o.attempted, o.failed, o.metrics)
        })
    } else {
        plain::run(sizing, args.seed, args.seconds, args.scale, &scratch).map(|o| {
            info.push(("segments".into(), Json::Int(o.segments as i64)));
            info.push(("window_s".into(), Json::Float(o.window_s)));
            info.push((
                "input_hash".into(),
                Json::Str(format!("{:016x}", o.input_hash)),
            ));
            info.push((
                "infer_tail_percentile".into(),
                Json::Float(sizing.infer_tail),
            ));
            info.push((
                "learn_tail_percentile".into(),
                Json::Float(sizing.learn_tail),
            ));
            let spread = o
                .segment_spread
                .iter()
                .map(|(n, s)| (n.to_string(), Json::Float(*s)))
                .collect();
            info.push(("segment_quartile_spread".into(), Json::Obj(spread)));
            (o.attempted, o.failed, o.metrics)
        })
    };
    // Best effort: the directory is git-ignored either way.
    let _ = std::fs::remove_dir_all(&scratch);
    let (attempted, failed, metrics) = outcome?;
    if failed > 0 {
        return Err(format!(
            "{failed} of {attempted} requests failed or were answered wrongly"
        ));
    }
    info.push((
        "wall_s".into(),
        Json::Float(started.elapsed().as_secs_f64()),
    ));
    println!("{}", Json::Obj(info).render());
    println!("{}", result_line(attempted, failed, &metrics).render());
    Ok(())
}

/// Runs one workload in a child process (so `peak_rss_mb` is that workload's
/// alone), passes its lines through and returns its metrics.
fn run_child(sizing: &Sizing, args: &Args, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", sizing.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) failed: {}",
            sizing.name,
            u8::from(trace),
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    match parse(last)?.get("metrics") {
        Some(Json::Obj(metrics)) => metrics
            .iter()
            .map(|(name, body)| {
                let value = body.get("value").and_then(Json::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric {name} has no value"))
            })
            .collect(),
        _ => Err("child result has no metrics".into()),
    }
}

fn lookup(metrics: &[(String, f64)], name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .ok_or(format!("no metric {name}"))
}

/// Every workload, plain then traced; prints how the traced path compares
/// with the plain run.
fn run_all(args: &Args) -> Result<(), String> {
    for sizing in &WORKLOADS {
        let plain = run_child(sizing, args, false)?;
        let traced = run_child(sizing, args, true)?;
        let rung = match sizing.path {
            EntryPath::Direct => "core.predict_us",
            EntryPath::Serve => "serve.call_us",
            EntryPath::Wire => "wire.call_us",
            EntryPath::Routed => "router.call_us",
        };
        let line = Json::Obj(vec![
            ("workload".into(), Json::Str(sizing.name.into())),
            (
                "plain_infer_p50_us".into(),
                Json::Float(lookup(&plain, "infer_p50_us")?),
            ),
            ("traced_rung".into(), Json::Str(rung.into())),
            ("traced_rung_us".into(), Json::Float(lookup(&traced, rung)?)),
        ]);
        println!("{}", line.render());
    }
    Ok(())
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn end_to_end_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let Some(Json::Arr(rows)) = parse(&text)?.get("end_to_end").cloned() else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    rows.iter()
        .map(|row| {
            match (
                row.get("name"),
                row.get("better"),
                row.get("bound").and_then(Json::as_f64),
            ) {
                (Some(Json::Str(name)), Some(Json::Str(better)), Some(bound)) => {
                    Ok((name.clone(), better == "higher", bound))
                }
                _ => Err(format!("malformed end_to_end row {}", row.render())),
            }
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Two sets of plain runs of the same code, interleaved A B C D A B C D:
/// every end-to-end metric of the second set must be within its bound of
/// the first, in either direction.
fn run_repeat(args: &Args) -> Result<(), String> {
    let bounds = end_to_end_bounds()?;
    let mut sets = Vec::with_capacity(2);
    for _ in 0..2 {
        let set: Vec<_> = WORKLOADS
            .iter()
            .map(|w| run_child(w, args, false))
            .collect::<Result<_, _>>()?;
        sets.push(set);
    }
    let mut outside = 0;
    for (i, sizing) in WORKLOADS.iter().enumerate() {
        for (name, higher_is_better, bound) in &bounds {
            let (first, second) = (lookup(&sets[0][i], name)?, lookup(&sets[1][i], name)?);
            let difference = worse_by(first, second, *higher_is_better);
            let within = difference.abs() <= *bound;
            outside += usize::from(!within);
            let line = Json::Obj(vec![
                ("workload".into(), Json::Str(sizing.name.into())),
                ("metric".into(), Json::Str(name.clone())),
                ("first".into(), Json::Float(first)),
                ("second".into(), Json::Float(second)),
                ("worse_by".into(), Json::Float(difference)),
                ("bound".into(), Json::Float(*bound)),
                ("within".into(), Json::Bool(within)),
            ]);
            println!("{}", line.render());
        }
    }
    if outside > 0 {
        return Err(format!(
            "{outside} metric(s) moved by more than their bound between two runs of the same code"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ofscil_perf: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.workload, args.repeat) {
        (Some(name), _) => run_one(by_name(name).expect("validated by parse_args"), &args),
        (None, true) => run_repeat(&args),
        (None, false) => run_all(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ofscil_perf: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let parsed = args(&[
            "--workload",
            "serve_saturate",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("serve_saturate"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 20.0, true));
        assert_eq!((parsed.scale, parsed.repeat), (1.0, false));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--scale", "-1"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--repeat", "--workload", "serve_saturate"]).is_err());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn smoke_run_emits_parseable_lines_with_every_declared_metric() {
        // A seconds-long pass over the cheapest workload, both modes, through
        // the same functions `main` calls; checks the declared metric names
        // against BENCHMARK.json so the two cannot drift apart.
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let declared = parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            match declared.get(key) {
                Some(Json::Arr(rows)) => rows
                    .iter()
                    .map(|r| match r.get("name") {
                        Some(Json::Str(n)) => n.clone(),
                        other => panic!("row without name: {other:?}"),
                    })
                    .collect(),
                other => panic!("{key} missing: {other:?}"),
            }
        };
        let sizing = by_name("serve_saturate").unwrap();
        let scratch = out_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();

        let plain = plain::run(sizing, 3, 0.5, 0.05, &scratch).unwrap();
        assert_eq!(plain.failed, 0);
        let mut got: Vec<String> = plain.metrics.iter().map(|m| m.name.to_string()).collect();
        let mut want = names("end_to_end");
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert!(
            plain.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            plain.metrics
        );
        let line = result_line(plain.attempted, plain.failed, &plain.metrics).render();
        assert!(parse(&line).is_ok());

        let traced = trace::run(sizing, 3, 1.0, 0.05, &scratch, &scratch).unwrap();
        assert_eq!(traced.failed, 0);
        let mut got: Vec<String> = traced.metrics.iter().map(|m| m.name.to_string()).collect();
        let mut want = names("per_layer");
        got.sort();
        want.sort();
        assert_eq!(got, want);
        let span_file = scratch.join("serve_saturate.trace.json");
        assert!(parse(&std::fs::read_to_string(span_file).unwrap()).is_ok());
        std::fs::remove_dir_all(&scratch).unwrap();

        let workloads = names("workloads");
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
    }
}
