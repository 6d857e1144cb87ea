//! Range scans and aggregates over the columnar store.

use crate::event::{Event, EventKind};
use crate::histogram::LatencyHistogram;
use crate::rollup::{Rollup, ROLLUP_BUCKET_US};
use crate::tail::ObsCursor;
use ofscil_tensor::bytes::{put_f64, put_str, put_u32, put_u64, DecodeError, Reader};

/// Default cap on the number of events a query materializes. Aggregates are
/// always computed over **every** matching row; the cap only bounds the
/// returned event list.
pub const DEFAULT_EVENT_LIMIT: u32 = 4096;

/// How wide an [`Resolution::Auto`] query's trailing raw window is: the
/// last 10 rollup buckets are served as raw events, everything older as
/// rollup rows.
pub(crate) const AUTO_RAW_WINDOW_US: u64 = 10 * ROLLUP_BUCKET_US;

/// What granularity a query wants its matches materialized at.
///
/// Aggregates are identical at every resolution (a rollup cell is an
/// [`ObsAggregates`] folded row by row, like a raw scan's); the resolution only
/// decides whether the result carries raw [`Event`] rows, per-minute
/// [`Rollup`] rows, or a time-partitioned mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resolution {
    /// Raw events only (the default, and the only pre-v7 wire behavior).
    #[default]
    Raw,
    /// Per-minute rollup rows only; `events` stays empty.
    Rollup,
    /// Rollups for history, raw events for the trailing 10 rollup buckets
    /// — split at a bucket boundary so no row is counted twice.
    Auto,
}

impl Resolution {
    /// The stable wire code of this resolution.
    pub fn code(self) -> u8 {
        match self {
            Resolution::Raw => 0,
            Resolution::Rollup => 1,
            Resolution::Auto => 2,
        }
    }

    /// Inverse of [`Resolution::code`]; `None` for unknown codes.
    pub(crate) fn from_code(code: u8) -> Option<Resolution> {
        match code {
            0 => Some(Resolution::Raw),
            1 => Some(Resolution::Rollup),
            2 => Some(Resolution::Auto),
            _ => None,
        }
    }
}

/// A range scan: deployment, time window, sequence window, kind mask.
///
/// All windows are inclusive. An empty deployment string matches every
/// deployment; a zero kind mask matches every kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsQuery {
    /// Deployment to scan; empty for all. This leads the wire encoding so a
    /// router can peek it like any other request's routing key.
    pub deployment: String,
    /// Earliest matching [`Event::time_us`].
    pub(crate) time_min: u64,
    /// Latest matching [`Event::time_us`].
    pub(crate) time_max: u64,
    /// Smallest matching [`Event::seq`].
    pub(crate) seq_min: u64,
    /// Largest matching [`Event::seq`].
    pub(crate) seq_max: u64,
    /// OR of [`EventKind::bit`]s to match; 0 matches every kind.
    pub(crate) kinds: u16,
    /// Maximum events returned (earliest first); excess rows still count in
    /// the aggregates and set [`ObsResult::truncated`]. 0 is a pure
    /// aggregate query.
    pub limit: u32,
    /// Granularity of the materialized rows. Sequence windows apply to raw
    /// events only — rollup cells no longer carry per-event sequence
    /// numbers, so a narrowed `seq` window should be paired with
    /// [`Resolution::Raw`].
    pub(crate) resolution: Resolution,
}

impl ObsQuery {
    /// Matches everything.
    pub fn all() -> ObsQuery {
        ObsQuery {
            deployment: String::new(),
            time_min: 0,
            time_max: u64::MAX,
            seq_min: 0,
            seq_max: u64::MAX,
            kinds: 0,
            limit: DEFAULT_EVENT_LIMIT,
            resolution: Resolution::Raw,
        }
    }

    /// Matches everything for one deployment.
    pub fn deployment(name: &str) -> ObsQuery {
        ObsQuery {
            deployment: name.to_string(),
            ..ObsQuery::all()
        }
    }

    /// Restricts the time window (builder style, inclusive).
    #[must_use]
    pub fn with_time_range(mut self, min_us: u64, max_us: u64) -> ObsQuery {
        self.time_min = min_us;
        self.time_max = max_us;
        self
    }

    /// Restricts the sequence window (builder style, inclusive).
    #[must_use]
    pub fn with_seq_range(mut self, min: u64, max: u64) -> ObsQuery {
        self.seq_min = min;
        self.seq_max = max;
        self
    }

    /// Restricts the matched kinds (builder style).
    #[must_use]
    pub fn with_kinds(mut self, kinds: &[EventKind]) -> ObsQuery {
        self.kinds = kinds.iter().fold(0, |mask, kind| mask | kind.bit());
        self
    }

    /// Sets the returned-event cap (builder style).
    #[must_use]
    pub fn with_limit(mut self, limit: u32) -> ObsQuery {
        self.limit = limit;
        self
    }

    /// Sets the materialization granularity (builder style).
    #[must_use]
    pub fn with_resolution(mut self, resolution: Resolution) -> ObsQuery {
        self.resolution = resolution;
        self
    }

    /// Whether a kind code passes the mask.
    pub fn matches_kind_code(&self, code: u8) -> bool {
        self.kinds == 0 || (code < 16 && self.kinds & (1u16 << code) != 0)
    }

    /// Whether a `(time_us, seq)` pair falls inside both windows.
    pub fn matches_windows(&self, time_us: u64, seq: u64) -> bool {
        time_us >= self.time_min
            && time_us <= self.time_max
            && seq >= self.seq_min
            && seq <= self.seq_max
    }
}

impl ObsQuery {
    /// Appends the filter: deployment first (`u32`-prefixed, so a router's
    /// `peek_request` reads it like any other request's routing key), then
    /// the time and sequence windows, kind mask, row limit and resolution.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.deployment);
        put_u64(out, self.time_min);
        put_u64(out, self.time_max);
        put_u64(out, self.seq_min);
        put_u64(out, self.seq_max);
        put_u32(out, u32::from(self.kinds));
        put_u32(out, self.limit);
        out.push(self.resolution.code());
    }

    /// Inverse of [`ObsQuery::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`]: a kind mask wider than 16 bits is a
    /// [`DecodeError::ValueOverflow`], an unknown resolution a
    /// [`DecodeError::BadTag`].
    pub fn decode(r: &mut Reader<'_>) -> Result<ObsQuery, DecodeError> {
        let deployment = r.str()?;
        let time_min = r.u64()?;
        let time_max = r.u64()?;
        let seq_min = r.u64()?;
        let seq_max = r.u64()?;
        let kinds = r.u32()?;
        let kinds = u16::try_from(kinds).map_err(|_| DecodeError::ValueOverflow {
            field: "kinds",
            value: u64::from(kinds),
        })?;
        let limit = r.u32()?;
        let tag = r.u8()?;
        let resolution = Resolution::from_code(tag).ok_or(DecodeError::BadTag {
            field: "obs resolution",
            tag,
        })?;
        Ok(ObsQuery {
            deployment,
            time_min,
            time_max,
            seq_min,
            seq_max,
            kinds,
            limit,
            resolution,
        })
    }
}

impl Default for ObsQuery {
    fn default() -> Self {
        ObsQuery::all()
    }
}

/// Running min/max/sum/count over one numeric column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observed values.
    pub count: u64,
}

impl Summary {
    /// An empty summary.
    pub fn empty() -> Summary {
        Summary {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            count: 0,
        }
    }

    /// Folds one finite value in; non-finite values (a "not applicable"
    /// NaN accuracy) are skipped.
    pub(crate) fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.count += 1;
    }

    /// Folds another summary in (for merging shard results). The count
    /// saturates: a peer's decoded counters are not trusted to be sane.
    pub(crate) fn merge(&mut self, other: &Summary) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.count = self.count.saturating_add(other.count);
    }

    /// Removes one previously-observed value from the sum and count;
    /// non-finite values were never observed, so they are skipped again.
    fn retract(&mut self, value: f64) {
        if value.is_finite() {
            self.sum -= value;
            self.count = self.count.saturating_sub(1);
        }
    }

    /// Mean of the observed values; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Appends min, max, sum (IEEE-754 bits) and count: 32 bytes.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.min);
        put_f64(out, self.max);
        put_f64(out, self.sum);
        put_u64(out, self.count);
    }

    /// Inverse of [`Summary::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] for a short body.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Summary, DecodeError> {
        Ok(Summary {
            min: r.f64()?,
            max: r.f64()?,
            sum: r.f64()?,
            count: r.u64()?,
        })
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::empty()
    }
}

/// Aggregates over every row a query matched — including rows past the
/// event-list cap. The same four values are a [`Rollup`] cell's contents,
/// so every fold, merge, retraction and codec of them lives here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsAggregates {
    /// Rows matched.
    pub matched: u64,
    /// Energy column, millijoules.
    pub energy_mj: Summary,
    /// Latency column, microseconds.
    pub latency_us: Summary,
    /// Accuracy column; NaN rows ("not applicable") are skipped, so
    /// `accuracy.count` can be below `matched`.
    pub accuracy: Summary,
}

impl ObsAggregates {
    /// Folds one matching event in.
    pub fn observe(&mut self, event: &Event) {
        self.observe_row(event.energy_mj, event.latency_us, event.accuracy);
    }

    /// Folds one row's value columns in — [`ObsAggregates::observe`]
    /// without materializing the [`Event`].
    pub(crate) fn observe_row(&mut self, energy_mj: f64, latency_us: u64, accuracy: f32) {
        self.matched += 1;
        self.energy_mj.observe(energy_mj);
        self.latency_us.observe(latency_us as f64);
        self.accuracy.observe(f64::from(accuracy));
    }

    /// Folds another aggregate in, saturating like [`Summary::merge`]: the
    /// other side may have been decoded from a peer or a spill file.
    pub(crate) fn merge(&mut self, other: &ObsAggregates) {
        self.matched = self.matched.saturating_add(other.matched);
        self.energy_mj.merge(&other.energy_mj);
        self.latency_us.merge(&other.latency_us);
        self.accuracy.merge(&other.accuracy);
    }

    /// Removes one previously-observed event (a deduplicated or trimmed
    /// row). Min/max stay valid because the retracted row was identical to
    /// one that remains. Counts saturate at zero: a part decoded from a
    /// peer may carry rows its aggregates never counted.
    pub(crate) fn retract(&mut self, event: &Event) {
        self.matched = self.matched.saturating_sub(1);
        self.energy_mj.retract(event.energy_mj);
        self.latency_us.retract(event.latency_us as f64);
        self.accuracy.retract(f64::from(event.accuracy));
    }

    /// Appends matched, then the energy, latency and accuracy summaries:
    /// 104 bytes.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.matched);
        self.energy_mj.encode(out);
        self.latency_us.encode(out);
        self.accuracy.encode(out);
    }

    /// Inverse of [`ObsAggregates::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] for a short body.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<ObsAggregates, DecodeError> {
        Ok(ObsAggregates {
            matched: r.u64()?,
            energy_mj: Summary::decode(r)?,
            latency_us: Summary::decode(r)?,
            accuracy: Summary::decode(r)?,
        })
    }
}

/// What a query returned — from one store, or merged across a cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsResult {
    /// Matching events in `(time_us, seq)` order, capped at the query's
    /// limit (earliest first).
    pub events: Vec<Event>,
    /// Downsampled rows for the query's rollup-resolution span, in
    /// `(bucket, deployment, kind)` order; empty at [`Resolution::Raw`].
    pub rollups: Vec<Rollup>,
    /// Aggregates over **all** matching rows, capped by nothing.
    pub aggregates: ObsAggregates,
    /// `true` when `events` was cut short by the limit.
    pub truncated: bool,
    /// Events ever appended to the answering store(s) — a completeness
    /// denominator, not a match count.
    pub appended: u64,
    /// Events the answering pipeline(s) shed under backpressure.
    pub dropped: u64,
    /// Sources that answered (1 for a single store; the router sums).
    pub shards_ok: u32,
    /// Sources that could not be reached.
    pub shards_err: u32,
    /// The answering store's **lifetime** latency histogram over the
    /// query's kind mask (per-store counter like `appended`, not scoped by
    /// the query's windows or deployment; merged bucket-wise across
    /// shards). Quantiles via [`LatencyHistogram::p50_us`] /
    /// [`LatencyHistogram::p99_us`].
    pub latency_hist: LatencyHistogram,
}

/// Sorts events into the `(time_us, seq)` timeline order — deployment,
/// kind, then raw payload bits breaking ties purely so identical rows land
/// adjacent — and removes **bit-exact duplicate rows**, invoking `on_dup`
/// with every row removed.
///
/// This is the row identity behind [`ObsResult::merge`]'s dedup: a retried
/// scatter leg (or a tail resume overlapping its back-fill) re-delivers
/// rows identical in every field, NaN payload bits included, so comparing
/// bits removes exactly those while distinct same-microsecond events
/// survive. Routers reuse it directly when splicing tail legs into one
/// stream.
pub fn sort_dedup_events(events: &mut Vec<Event>, mut on_dup: impl FnMut(&Event)) {
    events.sort_by(|a, b| {
        a.order_key()
            .cmp(&b.order_key())
            .then_with(|| a.deployment.cmp(&b.deployment))
            .then_with(|| a.kind.code().cmp(&b.kind.code()))
            .then_with(|| a.energy_mj.to_bits().cmp(&b.energy_mj.to_bits()))
            .then_with(|| a.latency_us.cmp(&b.latency_us))
            .then_with(|| a.accuracy.to_bits().cmp(&b.accuracy.to_bits()))
            .then_with(|| a.wal_bytes.cmp(&b.wal_bytes))
    });
    let mut deduped: Vec<Event> = Vec::with_capacity(events.len());
    for event in events.drain(..) {
        if deduped.last().is_some_and(|prev| {
            prev.time_us == event.time_us
                && prev.seq == event.seq
                && prev.kind == event.kind
                && prev.deployment == event.deployment
                && prev.energy_mj.to_bits() == event.energy_mj.to_bits()
                && prev.latency_us == event.latency_us
                && prev.accuracy.to_bits() == event.accuracy.to_bits()
                && prev.wal_bytes == event.wal_bytes
        }) {
            on_dup(&event);
        } else {
            deduped.push(event);
        }
    }
    *events = deduped;
}

impl ObsResult {
    /// Merges per-shard results into one timeline: events re-sorted by
    /// `(time_us, seq)` and re-capped at `limit`, aggregates and counters
    /// summed, rollup cells merged by `(bucket, deployment, kind)` key.
    /// This is the stitch that makes a migrated tenant's history whole
    /// again.
    ///
    /// Identical `(deployment, time_us, seq, kind)` event rows — the
    /// signature of a retried scatter-gather leg answering twice — are
    /// deduplicated, and the duplicate's contribution is retracted from the
    /// aggregates so a retry cannot double-count. Duplicates hidden past a
    /// part's truncated event list are undetectable; `truncated` flags that
    /// the guarantee weakened.
    pub fn merge(parts: Vec<ObsResult>, limit: usize) -> ObsResult {
        let mut merged = ObsResult::default();
        let mut cells: Vec<Rollup> = Vec::new();
        for part in parts {
            merged.aggregates.merge(&part.aggregates);
            merged.truncated |= part.truncated;
            merged.appended = merged.appended.saturating_add(part.appended);
            merged.dropped = merged.dropped.saturating_add(part.dropped);
            merged.shards_ok = merged.shards_ok.saturating_add(part.shards_ok);
            merged.shards_err = merged.shards_err.saturating_add(part.shards_err);
            // Like `appended`, the histogram is a per-store counter: it sums
            // across parts (a retried leg counts twice, same as `appended`).
            merged.latency_hist.merge(&part.latency_hist);
            merged.events.extend(part.events);
            cells.extend(part.rollups);
        }
        let aggregates = &mut merged.aggregates;
        sort_dedup_events(&mut merged.events, |event| aggregates.retract(event));
        if merged.events.len() > limit {
            merged.events.truncate(limit);
            merged.truncated = true;
        }
        // Rollup cells with the same key from different shards are
        // complementary slices of the same minute — merge, don't drop.
        cells.sort_by_key(|a| a.key());
        for cell in cells {
            match merged.rollups.last_mut() {
                Some(prev) if prev.key() == cell.key() => prev.values.merge(&cell.values),
                _ => merged.rollups.push(cell),
            }
        }
        if merged.rollups.len() > limit {
            merged.rollups.truncate(limit);
            merged.truncated = true;
        }
        merged
    }

    /// Drops every event at or before `cursor`, retracting each trimmed
    /// row's contribution from the aggregates — the resume-cursor trim a
    /// tail back-fill applies so a reconnecting subscriber only receives
    /// rows **strictly after** the last one it consumed.
    ///
    /// Rollup cells are left untouched: they are bucket-granular, and a
    /// cell overlapping the cursor's minute cannot be split. A splice that
    /// mixes trimmed raw rows with rollup history therefore stays exact on
    /// events and bucket-coarse on rollups.
    pub(crate) fn retain_after(&mut self, cursor: ObsCursor) {
        let aggregates = &mut self.aggregates;
        self.events.retain(|event| {
            if event.order_key() > cursor.key() {
                return true;
            }
            aggregates.retract(event);
            false
        });
    }
}

/// Per-deployment load inside one trailing window of an [`ObsResult`] —
/// what a control plane reads to find hot tenants and shard skew.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentRate {
    /// The deployment.
    pub deployment: String,
    /// `Infer` + `Learn` events inside the window.
    pub requests: u64,
    /// Millijoules those events spent.
    pub energy_mj: f64,
}

/// Folds request events (`Infer` + `Learn`) into per-deployment counts and
/// energy totals over the **trailing** `window_us` microseconds, measured
/// backwards from the latest event in the slice — not from the wall clock,
/// so the same events always yield the same rates (a determinism a
/// tick-driven control plane's planner depends on). Returns deployments
/// sorted by descending request count, then name, hottest first. An empty
/// slice yields an empty vector.
///
/// A control plane folding a live tail incrementally keeps its own event
/// window and calls this on it each tick.
pub fn trailing_rates_of(events: &[Event], window_us: u64) -> Vec<DeploymentRate> {
    let Some(latest) = events.iter().map(|e| e.time_us).max() else {
        return Vec::new();
    };
    let cutoff = latest.saturating_sub(window_us);
    let mut by_name: std::collections::HashMap<&str, (u64, f64)> = std::collections::HashMap::new();
    for event in events {
        if event.time_us < cutoff || !matches!(event.kind, EventKind::Infer | EventKind::Learn) {
            continue;
        }
        let entry = by_name.entry(event.deployment.as_str()).or_insert((0, 0.0));
        entry.0 += 1;
        if event.energy_mj.is_finite() {
            entry.1 += event.energy_mj;
        }
    }
    let mut rates: Vec<DeploymentRate> = by_name
        .into_iter()
        .map(|(name, (requests, energy_mj))| DeploymentRate {
            deployment: name.to_string(),
            requests,
            energy_mj,
        })
        .collect();
    rates.sort_by(|a, b| {
        b.requests
            .cmp(&a.requests)
            .then_with(|| a.deployment.cmp(&b.deployment))
    });
    rates
}

impl ObsResult {
    /// Appends the result: rows, aggregates (matched + three summaries),
    /// truncated flag, completeness counters, rollup cells, histogram.
    pub fn encode(&self, out: &mut Vec<u8>) {
        Event::encode_all(&self.events, out);
        self.aggregates.encode(out);
        out.push(u8::from(self.truncated));
        put_u64(out, self.appended);
        put_u64(out, self.dropped);
        put_u32(out, self.shards_ok);
        put_u32(out, self.shards_err);
        Rollup::encode_all(&self.rollups, out);
        self.latency_hist.encode(out);
    }

    /// Inverse of [`ObsResult::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`]; row and cell counts are proved
    /// against the body before their vectors are allocated.
    pub fn decode(r: &mut Reader<'_>) -> Result<ObsResult, DecodeError> {
        Ok(ObsResult {
            events: Event::decode_all(r)?,
            aggregates: ObsAggregates::decode(r)?,
            truncated: r.flag("truncated")?,
            appended: r.u64()?,
            dropped: r.u64()?,
            shards_ok: r.u32()?,
            shards_err: r.u32()?,
            rollups: Rollup::decode_all(r)?,
            latency_hist: LatencyHistogram::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_skips_non_finite_and_merges() {
        let mut a = Summary::empty();
        a.observe(2.0);
        a.observe(f64::NAN);
        a.observe(4.0);
        assert_eq!((a.min, a.max, a.sum, a.count), (2.0, 4.0, 6.0, 2));
        let mut b = Summary::empty();
        b.observe(1.0);
        a.merge(&b);
        assert_eq!((a.min, a.max, a.count), (1.0, 4.0, 3));
        assert!((a.mean() - 7.0 / 3.0).abs() < 1e-12);
        assert!(Summary::empty().mean().is_nan());
    }

    #[test]
    fn kind_mask_and_windows() {
        let q = ObsQuery::all()
            .with_kinds(&[EventKind::Infer, EventKind::Migration])
            .with_time_range(10, 20)
            .with_seq_range(1, 5);
        assert!(q.matches_kind_code(EventKind::Infer.code()));
        assert!(q.matches_kind_code(EventKind::Migration.code()));
        assert!(!q.matches_kind_code(EventKind::Learn.code()));
        assert!(q.matches_windows(10, 1));
        assert!(q.matches_windows(20, 5));
        assert!(!q.matches_windows(9, 1));
        assert!(!q.matches_windows(21, 1));
        assert!(!q.matches_windows(15, 0));
        assert!(!q.matches_windows(15, 6));
        // Zero mask matches everything.
        assert!(ObsQuery::all().matches_kind_code(EventKind::Promotion.code()));
    }

    #[test]
    fn merge_restitches_order_and_recaps() {
        let event = |t: u64, seq: u64| {
            Event::new(EventKind::Infer, "t")
                .with_time_us(t)
                .with_seq(seq)
        };
        let mut a = ObsResult {
            shards_ok: 1,
            appended: 2,
            ..ObsResult::default()
        };
        a.events = vec![event(1, 0), event(5, 0)];
        a.aggregates.observe(&a.events[0]);
        a.aggregates.observe(&a.events[1]);
        let mut b = ObsResult {
            shards_ok: 1,
            appended: 3,
            dropped: 1,
            ..ObsResult::default()
        };
        b.events = vec![event(2, 0), event(3, 0), event(4, 0)];
        for e in &b.events {
            let e = e.clone();
            b.aggregates.observe(&e);
        }
        let merged = ObsResult::merge(vec![a, b], 4);
        assert_eq!(
            merged.events.iter().map(|e| e.time_us).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert!(merged.truncated);
        assert_eq!(merged.aggregates.matched, 5);
        assert_eq!((merged.appended, merged.dropped), (5, 1));
        assert_eq!((merged.shards_ok, merged.shards_err), (2, 0));
    }

    #[test]
    fn merge_dedups_retried_legs_but_keeps_distinct_twins() {
        let row = Event::new(EventKind::Learn, "t")
            .with_time_us(5)
            .with_seq(3)
            .with_energy_mj(0.5)
            .with_latency_us(40);
        let mut part = ObsResult {
            shards_ok: 1,
            appended: 1,
            ..ObsResult::default()
        };
        part.events = vec![row.clone()];
        part.aggregates.observe(&row);
        let mut cell = Rollup::new(0, "t", EventKind::Learn);
        cell.observe(&row);
        part.rollups = vec![cell];

        // The same leg answering twice: one event row survives and its
        // duplicate's contribution is retracted from the aggregates.
        let retried = part.clone();
        let merged = ObsResult::merge(vec![part.clone(), retried], 16);
        assert_eq!(merged.events.len(), 1);
        assert_eq!(merged.aggregates.matched, 1);
        assert_eq!(merged.aggregates.energy_mj.sum, 0.5);
        assert_eq!(merged.aggregates.energy_mj.count, 1);
        assert_eq!(merged.aggregates.latency_us.sum, 40.0);
        // NaN accuracy rows never entered the accuracy summary.
        assert_eq!(merged.aggregates.accuracy.count, 0);
        assert_eq!((merged.shards_ok, merged.appended), (2, 2));
        // Rollup cells with one key collapse into one merged cell.
        assert_eq!(merged.rollups.len(), 1);

        // A *distinct* event colliding on (deployment, time, seq, kind) but
        // differing in payload is not a retry — both rows survive.
        let mut twin_part = ObsResult {
            shards_ok: 1,
            appended: 1,
            ..ObsResult::default()
        };
        let twin = row.clone().with_energy_mj(0.25);
        twin_part.events = vec![twin.clone()];
        twin_part.aggregates.observe(&twin);
        let merged = ObsResult::merge(vec![part, twin_part], 16);
        assert_eq!(merged.events.len(), 2);
        assert_eq!(merged.aggregates.matched, 2);
        assert_eq!(merged.aggregates.energy_mj.sum, 0.75);
    }

    /// Parts come decoded off the wire, so their counters are whatever a
    /// peer sent: a duplicate row its aggregates never counted, or buckets
    /// already at `u64::MAX`. Merging and trimming saturate instead of
    /// panicking (debug) or wrapping to ≈`u64::MAX` (release).
    #[test]
    fn merge_saturates_peer_supplied_counters() {
        let row = Event::new(EventKind::Infer, "t")
            .with_time_us(5)
            .with_seq(3)
            .with_latency_us(40);
        let part = ObsResult {
            events: vec![row.clone()],
            ..ObsResult::default()
        };
        let merged = ObsResult::merge(vec![part.clone(), part.clone()], 16);
        assert_eq!(merged.events.len(), 1);
        assert_eq!(merged.aggregates.matched, 0);
        assert_eq!(merged.aggregates.latency_us.count, 0);

        let mut trimmed = part.clone();
        trimmed.retain_after(ObsCursor::at(&row));
        assert!(trimmed.events.is_empty());
        assert_eq!(trimmed.aggregates.matched, 0);

        let mut full = ObsResult {
            appended: u64::MAX,
            shards_ok: u32::MAX,
            ..part
        };
        full.aggregates.matched = u64::MAX;
        full.aggregates.energy_mj.count = u64::MAX;
        full.latency_hist.counts = [u64::MAX; crate::histogram::LATENCY_BUCKETS];
        let mut cell = Rollup::new(0, "t", EventKind::Infer);
        cell.values.matched = u64::MAX;
        full.rollups = vec![cell];
        let merged = ObsResult::merge(vec![full.clone(), full], 16);
        assert_eq!(merged.appended, u64::MAX);
        assert_eq!(merged.shards_ok, u32::MAX);
        assert_eq!(merged.latency_hist.counts[0], u64::MAX);
        assert_eq!(merged.latency_hist.total(), u64::MAX);
        assert_eq!(merged.latency_hist.p50_us(), 0);
        assert_eq!(merged.rollups[0].values.matched, u64::MAX);
        // The retried row was retracted once from the saturated counts.
        assert_eq!(merged.aggregates.matched, u64::MAX - 1);
        assert_eq!(merged.aggregates.energy_mj.count, u64::MAX - 1);
    }

    /// The resume-splice invariant: a rollup-resolution back-fill and a raw
    /// live tail meet at the cursor with no gap, no double-count and the
    /// `(time_us, seq)` order intact — the overlap row a retried leg
    /// re-delivers at the boundary collapses to one occurrence.
    #[test]
    fn merge_splices_rollup_backfill_with_raw_tail_at_the_cursor() {
        let row = |t: u64, seq: u64, e: f64| {
            Event::new(EventKind::Infer, "t")
                .with_time_us(t)
                .with_seq(seq)
                .with_energy_mj(e)
                .with_latency_us(10 * t)
        };
        // The subscriber died having consumed up to (100, 1).
        let cursor = ObsCursor {
            time_us: 100,
            seq: 1,
        };

        // Back-fill leg: GC took the raw rows of the old minute, so history
        // arrives as one rollup cell; the missed range after the cursor
        // comes back raw — including a pre-cursor row the time-window query
        // matched, which retain_after must trim (and retract).
        let old = [row(10, 0, 1.0), row(20, 0, 2.0)];
        let mut cell = Rollup::new(0, "t", EventKind::Infer);
        let mut backfill = ObsResult {
            shards_ok: 1,
            ..ObsResult::default()
        };
        for event in &old {
            cell.observe(event);
            backfill.aggregates.matched += 1;
            backfill.aggregates.energy_mj.observe(event.energy_mj);
            backfill
                .aggregates
                .latency_us
                .observe(event.latency_us as f64);
        }
        backfill.rollups = vec![cell];
        for event in [row(100, 1, 0.5), row(100, 2, 0.25), row(150, 0, 4.0)] {
            backfill.aggregates.observe(&event);
            backfill.events.push(event);
        }
        backfill.retain_after(cursor);
        assert_eq!(
            backfill
                .events
                .iter()
                .map(Event::order_key)
                .collect::<Vec<_>>(),
            vec![(100, 2), (150, 0)],
            "the row at the cursor itself is trimmed"
        );
        assert_eq!(backfill.aggregates.matched, 4);
        assert_eq!(backfill.aggregates.energy_mj.sum, 1.0 + 2.0 + 0.25 + 4.0);

        // Live leg: the registration overlapped the back-fill by one row at
        // the boundary (a reconnect retry), then saw two fresh rows.
        let mut live = ObsResult {
            shards_ok: 1,
            ..ObsResult::default()
        };
        for event in [row(150, 0, 4.0), row(200, 0, 8.0), row(250, 3, 16.0)] {
            live.aggregates.observe(&event);
            live.events.push(event);
        }

        let merged = ObsResult::merge(vec![backfill, live], 64);
        // No gap, no duplicate, order preserved across the splice point.
        assert_eq!(
            merged
                .events
                .iter()
                .map(Event::order_key)
                .collect::<Vec<_>>(),
            vec![(100, 2), (150, 0), (200, 0), (250, 3)]
        );
        // Aggregates count the rolled-up history once and each raw row once
        // — the boundary overlap was retracted.
        assert_eq!(merged.aggregates.matched, 2 + 4);
        assert_eq!(
            merged.aggregates.energy_mj.sum,
            1.0 + 2.0 + 0.25 + 4.0 + 8.0 + 16.0
        );
        // The rolled-up minute is still there, untouched by the splice.
        assert_eq!(merged.rollups.len(), 1);
        assert_eq!(merged.rollups[0].values.matched, 2);
        assert!(!merged.truncated);
    }

    #[test]
    fn resolution_codes_roundtrip() {
        for resolution in [Resolution::Raw, Resolution::Rollup, Resolution::Auto] {
            assert_eq!(Resolution::from_code(resolution.code()), Some(resolution));
        }
        assert_eq!(Resolution::from_code(3), None);
        assert_eq!(ObsQuery::all().resolution, Resolution::Raw);
    }

    #[test]
    fn trailing_rates_window_kinds_and_order() {
        let events = vec![
            // Outside the trailing window (latest is 10_000, window 2_000 →
            // cutoff 8_000).
            Event::new(EventKind::Infer, "old")
                .with_time_us(1_000)
                .with_energy_mj(9.0),
            // Non-request kinds never count, even in-window.
            Event::new(EventKind::Migration, "cold").with_time_us(9_000),
            Event::new(EventKind::Infer, "warm")
                .with_time_us(8_000)
                .with_energy_mj(0.5),
            Event::new(EventKind::Learn, "hot")
                .with_time_us(9_000)
                .with_energy_mj(1.5),
            Event::new(EventKind::Infer, "hot")
                .with_time_us(10_000)
                .with_energy_mj(0.25),
            // NaN energy counts the request but not the energy.
            Event::new(EventKind::Infer, "warm").with_time_us(9_500),
        ];
        let rates = trailing_rates_of(&events, 2_000);
        assert_eq!(rates.len(), 2);
        assert_eq!(
            (rates[0].deployment.as_str(), rates[0].requests),
            ("hot", 2)
        );
        assert!((rates[0].energy_mj - 1.75).abs() < 1e-12);
        assert_eq!(
            (rates[1].deployment.as_str(), rates[1].requests),
            ("warm", 2)
        );
        assert!((rates[1].energy_mj - 0.5).abs() < 1e-12);
        // Ties break by name, and the same events always give the same
        // answer (no wall clock involved).
        assert_eq!(trailing_rates_of(&events, 2_000), rates);
        assert!(trailing_rates_of(&[], 1_000).is_empty());
    }
}
