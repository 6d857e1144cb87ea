//! `ofscil_obs` — a columnar, time-indexed event store for cluster
//! observability.
//!
//! The serving stack's statistics were point-in-time counters: a
//! scatter-gather read says what the totals are *now*, but "what did tenant
//! X's accuracy, energy budget and latency do over the last hour, across a
//! migration" needs a time series. This crate is that series, built in the
//! chunked, time-sorted, garbage-collected shape of rerun's arrow store —
//! minus arrow, because the workspace builds offline:
//!
//! * [`Event`] / [`EventKind`] — the schema: one row per `Infer`, `Learn`,
//!   `Reject`, `TopUp`, `Checkpoint`, `Migration`, `BreakerOpen`/`Close` or
//!   `Promotion`, carrying deployment, sequence number, monotonic
//!   microsecond time, energy (mJ), latency (µs), accuracy and WAL bytes,
//! * [`EventSink`] — the **non-blocking** intake: a bounded channel written
//!   with `try_send`, so the serving hot path never waits on observability.
//!   Under backpressure events are dropped and counted
//!   ([`EventSink::dropped`]) — losing a sample is acceptable, stalling an
//!   inference is not,
//! * [`ObsStore`] — column-per-field chunks: an active chunk absorbs
//!   appends, seals at [`chunk_events`](ObsConfig::with_chunk_events) rows
//!   (sorted by time, then sequence number), and the oldest sealed chunks
//!   are garbage collected once the store exceeds
//!   [`byte_budget`](ObsConfig::with_byte_budget),
//! * [`ObsQuery`] / [`ObsResult`] — range scans by deployment, time window,
//!   sequence window and event-kind mask, with min/max/sum/count aggregates
//!   over energy, latency and accuracy. Results merge
//!   ([`ObsResult::merge`]), which is how a router stitches one tenant's
//!   timeline back together across the shards a migration spread it over,
//! * [`Rollup`] / [`Resolution`] — per-minute downsampled cells folded from
//!   every sealed chunk (and never GC'd), so long-horizon queries are
//!   answered from a handful of cells with aggregates exactly equal to a
//!   raw scan's; [`Resolution::Auto`] serves rollups for history and raw
//!   events for the trailing window, split at a bucket boundary,
//! * [`ChunkSpill`] — the durability seam: a hook handed every sealed
//!   chunk, implemented by `ofscil_store`'s `ObsSpill` so timelines survive
//!   kill-and-recover ([`ObsStore::adopt_chunk`] rehydrates them),
//! * [`ObsTail`] / [`ObsCursor`] — live tails: [`ObsStore::subscribe`]
//!   registers a bounded drop-and-count fan-out off the append path and
//!   back-fills everything after a resume cursor in the same atomic step,
//!   so a reconnecting subscriber splices history onto the live feed with
//!   no gaps and no duplicates; drop windows surface as transition-only
//!   [`EventKind::SinkOverflow`] rows in the timeline itself,
//! * [`LatencyHistogram`] — fixed power-of-2 latency buckets kept per
//!   event kind, merged bucket-wise across shards and read back as
//!   p50/p99,
//! * [`Obs`] — the handle gluing the three together: a sink, a store, and a
//!   detached collector thread draining one into the other.
//!
//! # Example
//!
//! ```
//! use ofscil_obs::{Event, EventKind, Obs, ObsConfig, ObsQuery};
//! use std::time::Duration;
//!
//! let obs = Obs::new(ObsConfig::default());
//! obs.sink().emit(
//!     Event::new(EventKind::Infer, "tenant-a")
//!         .with_latency_us(120)
//!         .with_energy_mj(0.5)
//!         .with_accuracy(0.93),
//! );
//! assert!(obs.flush(Duration::from_secs(1)));
//! let result = obs.query(&ObsQuery::deployment("tenant-a"));
//! assert_eq!(result.aggregates.matched, 1);
//! assert_eq!(result.dropped, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod histogram;
mod query;
mod rollup;
mod sink;
mod store;
mod tail;

pub use event::{Event, EventKind};
pub use histogram::LatencyHistogram;
pub use query::{
    sort_dedup_events, trailing_rates_of, DeploymentRate, ObsAggregates, ObsQuery, ObsResult,
    Resolution, Summary, DEFAULT_EVENT_LIMIT,
};
pub use rollup::{Rollup, ROLLUP_BUCKET_US};
pub use sink::{EventSink, ObsClock};
pub use store::{ChunkSpill, ObsConfig, ObsCounters, ObsStore, EVENT_BYTES};
pub use tail::{ObsCursor, ObsTail, TailBatch};

use std::sync::Arc;
use std::time::{Duration, Instant};

/// A live observability pipeline: a bounded [`EventSink`], a columnar
/// [`ObsStore`], and a detached collector thread draining the first into the
/// second.
///
/// Cloning is cheap and shares everything: hand clones to the serve runtime,
/// the wire server and the router and they all feed the same store. The
/// collector thread exits once every clone (and every extracted sink) has
/// been dropped.
#[derive(Debug, Clone)]
pub struct Obs {
    store: Arc<ObsStore>,
    sink: EventSink,
}

impl Obs {
    /// Builds the pipeline and spawns its collector thread.
    pub fn new(config: ObsConfig) -> Obs {
        let store = Arc::new(ObsStore::new(config.clone()));
        let (sink, events) = EventSink::bounded(config.queue_depth.max(1));
        let collector = Arc::clone(&store);
        std::thread::Builder::new()
            .name("ofscil-obs-collector".into())
            .spawn(move || {
                // Ends when every sink clone is gone — the one detached
                // thread in the workspace, owned by nothing but its channel.
                for event in events {
                    collector.append(&event);
                }
            })
            .expect("spawn obs collector thread");
        Obs { store, sink }
    }

    /// The non-blocking intake side. Clone it into anything that emits.
    pub fn sink(&self) -> &EventSink {
        &self.sink
    }

    /// The queryable store side.
    pub fn store(&self) -> &ObsStore {
        &self.store
    }

    /// Store counters plus the sink's sent/dropped totals.
    pub fn counters(&self) -> ObsCounters {
        let mut counters = self.store.counters();
        counters.sent = self.sink.sent();
        counters.dropped = self.sink.dropped();
        counters
    }

    /// Waits until everything the sink accepted so far has been appended to
    /// the store (or `timeout` elapses). Returns `true` when drained.
    ///
    /// Dropped events were never accepted, so they do not block the flush —
    /// this settles the pipeline, it does not resurrect shed samples.
    pub fn flush(&self, timeout: Duration) -> bool {
        let target = self.sink.sent();
        let deadline = Instant::now() + timeout;
        while self.store.appended() < target {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Flushes (bounded, 250 ms) and queries the store, stamping the sink's
    /// drop counter into the result so a caller can judge completeness.
    pub fn query(&self, query: &ObsQuery) -> ObsResult {
        self.flush(Duration::from_millis(250));
        let mut result = self.store.query(query);
        result.dropped = self.sink.dropped();
        result
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(ObsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_flush_query_roundtrip() {
        let obs = Obs::new(ObsConfig::default());
        for i in 0..10u64 {
            obs.sink().emit(
                Event::new(EventKind::Infer, "t")
                    .with_seq(i)
                    .with_latency_us(100 + i)
                    .with_energy_mj(0.25)
                    .with_accuracy(0.9),
            );
        }
        obs.sink()
            .emit(Event::new(EventKind::Migration, "t").with_seq(99));
        assert!(obs.flush(Duration::from_secs(5)));

        let all = obs.query(&ObsQuery::deployment("t"));
        assert_eq!(all.events.len(), 11);
        assert_eq!(all.aggregates.matched, 11);
        assert_eq!(all.dropped, 0);
        // Events come back time-ordered.
        assert!(all
            .events
            .windows(2)
            .all(|w| w[0].order_key() <= w[1].order_key()));

        // Kind masks scope both the event list and the aggregates.
        let infers = obs.query(&ObsQuery::deployment("t").with_kinds(&[EventKind::Infer]));
        assert_eq!(infers.events.len(), 10);
        assert_eq!(infers.aggregates.latency_us.min, 100.0);
        assert_eq!(infers.aggregates.latency_us.max, 109.0);
        assert_eq!(infers.aggregates.accuracy.count, 10);
        // The migration row's NaN accuracy never pollutes the aggregate.
        assert_eq!(all.aggregates.accuracy.count, 10);
    }

    #[test]
    fn clones_share_one_store() {
        let obs = Obs::default();
        let clone = obs.clone();
        clone
            .sink()
            .emit(Event::new(EventKind::Learn, "t").with_seq(1));
        assert!(obs.flush(Duration::from_secs(5)));
        assert_eq!(obs.counters().appended, 1);
        assert_eq!(clone.counters().appended, 1);
    }
}
