//! `--trace 0`: the end-to-end run. No tracing, no spans — only the
//! generator's own clock around each request.
//!
//! The fixture is built `setups` times (`setup_s` is the median of those);
//! the last one stays up and is fed whole segments until `--seconds` is
//! used. Every end-to-end value is the median of the per-segment values.

use crate::drive::Samples;
use crate::fixture::{with_fixture, Prep};
use crate::gen::{stream_hash, Lane, World};
use crate::report::Metric;
use crate::stats::{median, median_of_segments, percentile, sorted};
use crate::workloads::{scaled, Sizing};
use std::path::Path;
use std::time::{Duration, Instant};

/// What the run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every end-to-end metric.
    pub metrics: Vec<Metric>,
    /// Quartile spread of the per-segment values behind each metric that
    /// has them, as a share of the median (needs two segments).
    pub segment_spread: Vec<(&'static str, f64)>,
    /// Requests sent, set-up included.
    pub attempted: u64,
    /// Requests that failed or were answered wrongly.
    pub failed: u64,
    /// Timed segments completed.
    pub segments: usize,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Hash of the set-up traffic (base learns + warm-up): equal between two
    /// runs exactly when they were fed the same inputs.
    pub input_hash: u64,
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn segment_traffic(lanes: &mut [Lane<'_>], cycles: usize) -> Vec<Vec<crate::gen::Request>> {
    let per_lane = cycles / lanes.len();
    lanes
        .iter_mut()
        .map(|lane| lane.take_cycles(per_lane))
        .collect()
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Returns a description of whatever could not be built, and of any
/// correctness gate the run violated.
pub fn run(
    sizing: &Sizing,
    seed: u64,
    seconds: f64,
    scale: f64,
    scratch: &Path,
) -> Result<Outcome, String> {
    let world = World::new(sizing, seed);
    let mut lanes: Vec<Lane<'_>> = (0..sizing.connections).map(|l| world.lane(l)).collect();
    let prep = Prep {
        base: world.base_learns(),
        warmup: segment_traffic(
            &mut lanes,
            scaled(sizing.warmup_cycles, scale, sizing.connections),
        ),
    };
    let input_hash = stream_hash(&prep.base)
        ^ prep
            .warmup
            .iter()
            .fold(0u64, |h, lane| h.rotate_left(1) ^ stream_hash(lane));
    let segment_cycles = scaled(sizing.segment_cycles, scale, sizing.connections);

    let mut setup_s = Vec::with_capacity(sizing.setups);
    let mut attempted = 0;
    let mut failed = 0;
    for _ in 1..sizing.setups {
        let built = with_fixture(&world, prep.clone(), scratch, |_| ())?;
        setup_s.push(built.setup_s);
        attempted += built.setup_attempted;
        failed += built.setup_failed;
    }

    let budget = Duration::from_secs_f64(seconds);
    let built = with_fixture(&world, prep, scratch, |endpoint| {
        let window = Instant::now();
        let mut segments: Vec<Samples> = Vec::new();
        loop {
            // Generation is untimed: it happens between segments.
            let segment_started = Instant::now();
            let traffic = segment_traffic(&mut lanes, segment_cycles);
            segments.push(endpoint.run(traffic));
            if window.elapsed() + segment_started.elapsed() > budget {
                break;
            }
        }
        (segments, window.elapsed().as_secs_f64())
    })?;
    setup_s.push(built.setup_s);
    let (segments, window_s) = built.value;
    attempted += built.setup_attempted + segments.iter().map(Samples::attempted).sum::<u64>();
    failed += built.setup_failed + segments.iter().map(|s| s.failed).sum::<u64>();

    // Sort each segment's samples once; every percentile reads from these.
    let segments: Vec<Samples> = segments
        .into_iter()
        .map(|s| Samples {
            infer_us: sorted(s.infer_us),
            learn_us: sorted(s.learn_us),
            ..s
        })
        .collect();
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: median(&setup_s),
        unit: "s",
    }];
    let mut segment_spread = Vec::new();
    let mut per_segment = |name, unit, f: &dyn Fn(&Samples) -> f64| {
        let (value, spread) = median_of_segments(&segments, f);
        metrics.push(Metric { name, value, unit });
        if let Some(spread) = spread {
            segment_spread.push((name, spread));
        }
    };
    per_segment("infer_rps", "1/s", &|s| s.infer_us.len() as f64 / s.wall_s);
    per_segment("learn_rps", "1/s", &|s| s.learn_us.len() as f64 / s.wall_s);
    per_segment("infer_p50_us", "us", &|s| percentile(&s.infer_us, 0.50));
    per_segment("infer_tail_us", "us", &|s| {
        percentile(&s.infer_us, sizing.infer_tail)
    });
    per_segment("learn_p50_us", "us", &|s| percentile(&s.learn_us, 0.50));
    per_segment("learn_tail_us", "us", &|s| {
        percentile(&s.learn_us, sizing.learn_tail)
    });
    metrics.push(Metric {
        name: "peak_rss_mb",
        value: peak_rss_mb()?,
        unit: "MB",
    });

    Ok(Outcome {
        metrics,
        segment_spread,
        attempted,
        failed,
        segments: segments.len(),
        window_s,
        input_hash,
    })
}
