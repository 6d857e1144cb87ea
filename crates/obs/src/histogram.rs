//! Log-bucketed latency histograms: fixed power-of-2 buckets, so p50/p99
//! estimates cost 32 counters per event kind instead of retained samples.

use ofscil_tensor::bytes::{put_u64, DecodeError, Reader};

/// Number of buckets in a [`LatencyHistogram`]. Bucket 0 holds exact zeros,
/// bucket `i ≥ 1` holds latencies in `[2^(i-1), 2^i)` microseconds, and the
/// last bucket absorbs everything from `2^30` µs (~18 minutes) up.
pub(crate) const LATENCY_BUCKETS: usize = 32;

/// A fixed-size power-of-2 latency histogram.
///
/// Recording is one increment, merging is bucket-wise addition (so per-shard
/// histograms sum into a cluster histogram without loss), and quantiles come
/// back as the **upper bound** of the bucket holding the requested rank — a
/// conservative estimate whose error is bounded by the bucket width (at most
/// 2× the true value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket counts. Bucket 0 holds exact zeros, bucket `i ≥ 1` holds
    /// latencies in `[2^(i-1), 2^i)` microseconds, and the last bucket
    /// absorbs everything from `2^30` µs up.
    pub counts: [u64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn empty() -> LatencyHistogram {
        LatencyHistogram {
            counts: [0; LATENCY_BUCKETS],
        }
    }

    /// The bucket index a latency falls in.
    pub(crate) fn bucket_of(latency_us: u64) -> usize {
        if latency_us == 0 {
            return 0;
        }
        let log2 = 63 - latency_us.leading_zeros() as usize;
        (log2 + 1).min(LATENCY_BUCKETS - 1)
    }

    /// The inclusive upper bound of a bucket, in microseconds — what
    /// quantiles report. The last bucket is unbounded and reports its lower
    /// bound to stay finite.
    pub(crate) fn bucket_bound_us(bucket: usize) -> u64 {
        if bucket >= LATENCY_BUCKETS - 1 {
            1 << (LATENCY_BUCKETS - 2)
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Counts one latency sample.
    pub fn record(&mut self, latency_us: u64) {
        self.counts[LatencyHistogram::bucket_of(latency_us)] += 1;
    }

    /// Folds another histogram in, bucket-wise. Buckets saturate: a
    /// histogram decoded from a peer may hold any counts.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Total samples recorded, saturating at `u64::MAX`.
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .fold(0, |total, &count| total.saturating_add(count))
    }

    /// The upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`), 0 when empty.
    pub(crate) fn quantile_us(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        // Rank of the wanted sample, 1-based, clamped into the population.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return LatencyHistogram::bucket_bound_us(bucket);
            }
        }
        LatencyHistogram::bucket_bound_us(LATENCY_BUCKETS - 1)
    }

    /// Median estimate (bucket upper bound), microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th-percentile estimate (bucket upper bound), microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Appends the 32 bucket counts, bucket order.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(LATENCY_BUCKETS * 8);
        for &count in &self.counts {
            put_u64(out, count);
        }
    }

    /// Inverse of [`LatencyHistogram::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] when a bucket is missing.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<LatencyHistogram, DecodeError> {
        let mut histogram = LatencyHistogram::empty();
        for count in histogram.counts.iter_mut() {
            *count = r.u64()?;
        }
        Ok(histogram)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two_with_a_zero_bucket() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(1023), 10);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        // Every bucket's bound sits just under the next bucket's first value.
        for bucket in 1..LATENCY_BUCKETS - 1 {
            assert_eq!(
                LatencyHistogram::bucket_of(LatencyHistogram::bucket_bound_us(bucket)),
                bucket
            );
        }
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let mut h = LatencyHistogram::empty();
        assert_eq!(h.p50_us(), 0);
        for _ in 0..98 {
            h.record(100); // bucket 7, bound 127
        }
        h.record(5_000); // bucket 13, bound 8191
        h.record(70_000); // bucket 17, bound 131071
        assert_eq!(h.total(), 100);
        assert_eq!(h.p50_us(), 127);
        assert_eq!(h.p99_us(), 8_191);
        assert_eq!(h.quantile_us(1.0), 131_071);

        // Merging is bucket-wise, so a merged histogram answers like one
        // that saw both populations.
        let mut other = LatencyHistogram::empty();
        for _ in 0..300 {
            other.record(70_000);
        }
        h.merge(&other);
        assert_eq!(h.total(), 400);
        assert_eq!(h.p50_us(), 131_071);
    }
}
