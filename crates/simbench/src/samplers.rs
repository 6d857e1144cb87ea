//! Deterministic workload-shape samplers: Zipfian popularity, diurnal load
//! curves, and class-distribution drift schedules.
//!
//! Everything here is pure arithmetic over a [`SeedRng`] stream, so two runs
//! with the same seed replay the exact same request trace — the property the
//! trajectory recorder's byte-identical-output guarantee rests on.

use ofscil::prelude::SeedRng;

/// A Zipfian (power-law) categorical distribution over `n` ranks: rank `r`
/// (0-based) carries weight `1 / (r + 1)^exponent`. Rank 0 is the most
/// popular — the "hot tenant" in a multi-tenant workload.
#[derive(Debug, Clone)]
pub struct Zipfian {
    /// Cumulative distribution over ranks; last entry is exactly `1.0`.
    cdf: Vec<f64>,
    exponent: f64,
}

impl Zipfian {
    /// Builds the distribution over `n >= 1` ranks with the given exponent
    /// (`1.0` is the classic Zipf law; larger values concentrate more mass
    /// on the head).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` — an empty popularity distribution is a
    /// programming error, not a workload.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n >= 1, "a Zipfian needs at least one rank");
        let weights: Vec<f64> = (0..n)
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Guard the tail against float round-off so `sample` can never fall
        // off the end of the table.
        *cdf.last_mut().expect("n >= 1") = 1.0;
        Zipfian { cdf, exponent }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when the distribution has exactly one rank (it never has zero).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The exponent the distribution was built with.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The probability mass of rank `rank` — the analytic share an infinite
    /// sample converges to.
    pub(crate) fn expected_share(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Draws one rank by inverse-CDF lookup.
    pub fn sample(&self, rng: &mut SeedRng) -> usize {
        let u = rng.uniform() as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A diurnal (daily) load curve: a raised cosine oscillating between `floor`
/// requests per tick at the trough and `peak` at the crest, with the given
/// period in ticks.
///
/// `level(t) = floor + (peak - floor) * (1 - cos(2πt / period)) / 2`
///
/// The curve starts at the trough (`level(0) == floor`), crests at
/// `t = period / 2`, and its mean over one full period is exactly
/// `(floor + peak) / 2` — the closed form [`Diurnal::mean_level`] returns
/// and the property tests pin against a numeric integral.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Diurnal {
    /// Trough load in requests per tick.
    pub(crate) floor: f64,
    /// Crest load in requests per tick.
    pub(crate) peak: f64,
    /// Period of one simulated "day", in ticks.
    pub(crate) period: f64,
}

impl Diurnal {
    /// Instantaneous load at tick `t` (continuous; callers round).
    pub(crate) fn level(&self, t: f64) -> f64 {
        let phase = std::f64::consts::TAU * t / self.period;
        self.floor + (self.peak - self.floor) * (1.0 - phase.cos()) / 2.0
    }

    /// Requests to issue on integer tick `t`: the level rounded to nearest.
    pub(crate) fn requests_at(&self, t: u64) -> u64 {
        self.level(t as f64).round() as u64
    }

    /// The exact mean of `level` over one period: `(floor + peak) / 2`.
    pub(crate) fn mean_level(&self) -> f64 {
        (self.floor + self.peak) / 2.0
    }
}

/// A class-distribution drift schedule: the class population is revealed in
/// phases, and within a phase the *newest* classes receive the bulk of the
/// traffic (freshly onboarded classes are the ones users actually query).
#[derive(Debug, Clone)]
pub(crate) struct DriftSchedule {
    phases: Vec<Vec<usize>>,
    /// Probability that a draw lands in the newest phase's classes instead
    /// of the uniform backlog.
    hot_share: f64,
}

impl DriftSchedule {
    /// Builds a schedule from explicit per-phase class groups.
    ///
    /// # Panics
    ///
    /// Panics when `phases` is empty or any phase introduces no classes.
    pub(crate) fn new(phases: Vec<Vec<usize>>, hot_share: f64) -> Self {
        assert!(
            !phases.is_empty(),
            "a drift schedule needs at least one phase"
        );
        assert!(
            phases.iter().all(|p| !p.is_empty()),
            "every drift phase must introduce at least one class"
        );
        DriftSchedule { phases, hot_share }
    }

    /// Number of phases.
    pub(crate) fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Classes introduced by phase `phase`.
    pub(crate) fn introduced(&self, phase: usize) -> &[usize] {
        &self.phases[phase]
    }

    /// All classes visible at the end of phase `phase` (inclusive).
    pub(crate) fn seen(&self, phase: usize) -> Vec<usize> {
        self.phases[..=phase].iter().flatten().copied().collect()
    }

    /// Draws a class to query during `phase`: with probability `hot_share`
    /// from the newest classes, otherwise uniformly from everything seen.
    pub(crate) fn sample_class(&self, phase: usize, rng: &mut SeedRng) -> usize {
        if rng.chance(self.hot_share as f32) {
            let hot = &self.phases[phase];
            hot[rng.below(hot.len())]
        } else {
            let seen = self.seen(phase);
            seen[rng.below(seen.len())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite property test: the empirical rank-frequency curve of a
    /// seeded Zipfian sample follows the configured power law — the log-log
    /// regression slope over the ranks recovers `-exponent`.
    #[test]
    fn zipf_rank_frequency_slope_matches_exponent() {
        for &exponent in &[0.8, 1.0, 1.3] {
            let zipf = Zipfian::new(8, exponent);
            let mut rng = SeedRng::new(20_240_807);
            let draws = 60_000;
            let mut counts = vec![0u64; zipf.len()];
            for _ in 0..draws {
                counts[zipf.sample(&mut rng)] += 1;
            }
            // Every rank must be hit, in strictly head-heavy order overall.
            assert!(counts.iter().all(|&c| c > 0), "rank starved: {counts:?}");
            assert!(counts[0] > counts[zipf.len() - 1]);

            // Least-squares slope of ln(freq) against ln(rank+1).
            let points: Vec<(f64, f64)> = counts
                .iter()
                .enumerate()
                .map(|(rank, &c)| (((rank + 1) as f64).ln(), (c as f64 / draws as f64).ln()))
                .collect();
            let n = points.len() as f64;
            let sx: f64 = points.iter().map(|p| p.0).sum();
            let sy: f64 = points.iter().map(|p| p.1).sum();
            let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
            let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
            let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
            assert!(
                (slope + exponent).abs() < 0.12,
                "slope {slope:.3} should approximate -{exponent}"
            );
        }
    }

    /// Satellite property test: empirical per-rank shares converge on the
    /// analytic `expected_share`.
    #[test]
    fn zipf_empirical_shares_match_expected_share() {
        let zipf = Zipfian::new(6, 1.1);
        let total: f64 = (0..6).map(|r| zipf.expected_share(r)).sum();
        assert!(
            (total - 1.0).abs() < 1e-12,
            "shares must sum to 1, got {total}"
        );
        let mut rng = SeedRng::new(99);
        let draws = 40_000;
        let mut counts = vec![0u64; zipf.len()];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (rank, &c) in counts.iter().enumerate() {
            let empirical = c as f64 / draws as f64;
            let expected = zipf.expected_share(rank);
            assert!(
                (empirical - expected).abs() < 0.01,
                "rank {rank}: empirical {empirical:.4} vs expected {expected:.4}"
            );
        }
    }

    /// Satellite property test: the numeric integral of the diurnal curve
    /// over one period equals `mean_level() * period`, and the curve is
    /// exactly periodic.
    #[test]
    fn diurnal_period_integral_matches_closed_form_mean() {
        let curve = Diurnal {
            floor: 2.0,
            peak: 14.0,
            period: 24.0,
        };
        let steps = 200_000;
        let dt = curve.period / steps as f64;
        // Midpoint rule — O(dt²) error, far below the assertion tolerance.
        let integral: f64 = (0..steps)
            .map(|i| curve.level((i as f64 + 0.5) * dt) * dt)
            .sum();
        let expected = curve.mean_level() * curve.period;
        assert!(
            (integral - expected).abs() < 1e-6,
            "integral {integral} vs closed form {expected}"
        );
        for t in [0.0, 3.7, 11.2, 23.9] {
            assert!((curve.level(t) - curve.level(t + curve.period)).abs() < 1e-9);
        }
        assert!((curve.level(0.0) - curve.floor).abs() < 1e-12);
        assert!((curve.level(curve.period / 2.0) - curve.peak).abs() < 1e-12);
    }

    #[test]
    fn drift_schedule_reveals_classes_in_phases() {
        let drift = DriftSchedule::new(vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]], 0.7);
        assert_eq!(drift.num_phases(), 3);
        assert_eq!(drift.seen(0), vec![0, 1, 2]);
        assert_eq!(drift.seen(2), vec![0, 1, 2, 3, 4, 5, 6]);
        let mut rng = SeedRng::new(5);
        let mut hot_hits = 0;
        let draws = 5_000;
        for _ in 0..draws {
            let class = drift.sample_class(1, &mut rng);
            assert!(class <= 4, "phase 1 must never surface phase-2 classes");
            if drift.introduced(1).contains(&class) {
                hot_hits += 1;
            }
        }
        // hot_share 0.7 plus the backlog draws that also land on phase-1
        // classes: the newest classes must clearly dominate.
        assert!(hot_hits as f64 / draws as f64 > 0.6);
    }
}
