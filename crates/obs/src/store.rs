//! The columnar store: an active chunk absorbing appends, sealed time-sorted
//! chunks behind it, and a byte budget enforced by evicting the oldest.
//!
//! Two things outlive the raw chunks. Every seal folds the chunk's rows into
//! per-minute [`Rollup`] cells that are never GC'd, so long-horizon
//! aggregates survive eviction. And an optional [`ChunkSpill`] hook hands
//! each sealed chunk to a durable writer (`ofscil_store`'s `ObsSpill`), so a
//! restarted process can adopt the spilled chunks back and answer timeline
//! queries as if it never died.

use crate::event::{Event, EventKind};
use crate::histogram::LatencyHistogram;
use crate::query::{ObsAggregates, ObsQuery, ObsResult, Resolution, AUTO_RAW_WINDOW_US};
use crate::rollup::{Rollup, ROLLUP_BUCKET_US};
use crate::tail::{ObsCursor, ObsTail, TailCounters};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// A durability hook the store calls with every chunk it seals (inside the
/// append path, so spills happen in seal order). Implementations must not
/// block on anything slower than a local append, and must swallow their own
/// errors into counters — observability never fails the caller.
///
/// Chunks *adopted* from a previous life ([`ObsStore::adopt_chunk`]) are
/// never re-spilled, so a rehydrate-then-serve cycle does not duplicate the
/// spill file.
pub trait ChunkSpill: Send + Sync + std::fmt::Debug {
    /// Persists one sealed, time-sorted chunk.
    fn spill_chunk(&self, events: &[Event]);
}

/// Bytes one event occupies across the eight columns: deployment id (4) +
/// kind (1) + seq (8) + time (8) + energy (8) + latency (8) + accuracy (4) +
/// WAL bytes (8). Interned deployment names are not charged — there are a
/// handful of tenants and millions of rows.
pub const EVENT_BYTES: usize = 49;

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Depth of the bounded intake channel ([`EventSink`](crate::EventSink)).
    /// Size it at the burst you expect between collector wakeups; overflow
    /// is dropped and counted, never waited on.
    pub(crate) queue_depth: usize,
    /// Rows per chunk: the active chunk seals (and time-sorts) once it holds
    /// this many events.
    pub(crate) chunk_events: usize,
    /// Resident budget in bytes (`rows × EVENT_BYTES`). Once exceeded, whole
    /// sealed chunks are evicted oldest-first; the active chunk is never
    /// evicted.
    pub(crate) byte_budget: usize,
}

impl ObsConfig {
    /// Sets the rows-per-chunk seal threshold (builder style; clamped to ≥ 1).
    #[must_use]
    pub fn with_chunk_events(mut self, events: usize) -> ObsConfig {
        self.chunk_events = events.max(1);
        self
    }

    /// Sets the resident byte budget (builder style; clamped to ≥ 1).
    #[must_use]
    pub fn with_byte_budget(mut self, bytes: usize) -> ObsConfig {
        self.byte_budget = bytes.max(1);
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            queue_depth: 8192,
            chunk_events: 512,
            byte_budget: 4 * 1024 * 1024,
        }
    }
}

/// A point-in-time snapshot of the pipeline's health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Events appended to the store since creation (survivors and GC'd).
    pub appended: u64,
    /// Events the sink accepted into the channel ([`Obs`](crate::Obs) fills
    /// this; a bare store reports 0).
    pub sent: u64,
    /// Events the sink shed under backpressure ([`Obs`](crate::Obs) fills
    /// this; a bare store reports 0).
    pub dropped: u64,
    /// Sealed chunks currently resident.
    pub(crate) sealed_chunks: u64,
    /// Rows currently resident (active + sealed).
    pub resident_events: u64,
    /// `resident_events × EVENT_BYTES`.
    pub(crate) resident_bytes: u64,
    /// Whole chunks evicted by the byte budget so far.
    pub gc_chunks: u64,
    /// Rows those evictions removed.
    pub(crate) gc_events: u64,
    /// Sealed chunks handed to the [`ChunkSpill`] hook so far (0 when no
    /// hook is attached; adopted chunks are not re-spilled and not counted).
    pub spilled_chunks: u64,
    /// Per-minute rollup cells currently held (these survive GC).
    pub rollup_rows: u64,
    /// Live tail subscribers currently registered.
    pub(crate) tails: u64,
    /// Rows accepted into tail subscriber channels so far (all subscribers,
    /// departed ones included).
    pub(crate) tail_delivered: u64,
    /// Rows shed because a tail subscriber's channel was full.
    pub(crate) tail_dropped: u64,
    /// Clean→overflow transitions across all tail subscribers — one per
    /// [`SinkOverflow`](crate::EventKind::SinkOverflow) marker appended.
    pub(crate) tail_overflows: u64,
}

/// The eight parallel columns of one chunk.
#[derive(Debug, Default)]
struct Columns {
    deployment: Vec<u32>,
    kind: Vec<u8>,
    seq: Vec<u64>,
    time_us: Vec<u64>,
    energy_mj: Vec<f64>,
    latency_us: Vec<u64>,
    accuracy: Vec<f32>,
    wal_bytes: Vec<u64>,
}

impl Columns {
    fn len(&self) -> usize {
        self.time_us.len()
    }

    fn push(&mut self, deployment: u32, event: &Event) {
        self.deployment.push(deployment);
        self.kind.push(event.kind.code());
        self.seq.push(event.seq);
        self.time_us.push(event.time_us);
        self.energy_mj.push(event.energy_mj);
        self.latency_us.push(event.latency_us);
        self.accuracy.push(event.accuracy);
        self.wal_bytes.push(event.wal_bytes);
    }

    /// Reorders every column by `(time_us, seq)` via one permutation —
    /// columnar sorting without materializing rows.
    fn sort_by_time(&mut self) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| (self.time_us[i], self.seq[i]));
        self.deployment = order.iter().map(|&i| self.deployment[i]).collect();
        self.kind = order.iter().map(|&i| self.kind[i]).collect();
        self.seq = order.iter().map(|&i| self.seq[i]).collect();
        self.time_us = order.iter().map(|&i| self.time_us[i]).collect();
        self.energy_mj = order.iter().map(|&i| self.energy_mj[i]).collect();
        self.latency_us = order.iter().map(|&i| self.latency_us[i]).collect();
        self.accuracy = order.iter().map(|&i| self.accuracy[i]).collect();
        self.wal_bytes = order.iter().map(|&i| self.wal_bytes[i]).collect();
    }

    /// Materializes row `i` back into an [`Event`].
    fn event(&self, i: usize, names: &[String]) -> Event {
        Event {
            deployment: names
                .get(self.deployment[i] as usize)
                .cloned()
                .unwrap_or_default(),
            kind: EventKind::from_code(self.kind[i]).unwrap_or(EventKind::Infer),
            seq: self.seq[i],
            time_us: self.time_us[i],
            energy_mj: self.energy_mj[i],
            latency_us: self.latency_us[i],
            accuracy: self.accuracy[i],
            wal_bytes: self.wal_bytes[i],
        }
    }
}

/// A sealed, time-sorted chunk with its time bounds for query skipping.
#[derive(Debug)]
struct SealedChunk {
    cols: Columns,
    min_time: u64,
    max_time: u64,
}

/// One registered live-tail subscriber: its filter, its bounded channel,
/// and the transition state the [`SinkOverflow`](EventKind::SinkOverflow)
/// marker is edge-triggered from.
#[derive(Debug)]
struct TailSlot {
    id: u64,
    filter: ObsQuery,
    tx: mpsc::SyncSender<Event>,
    counters: Arc<TailCounters>,
    /// `true` while inside a drop window; the clean→overflow edge appends
    /// one marker event, further drops in the same window stay silent.
    overflowed: bool,
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Interned deployment names; column values index into this.
    names: Vec<String>,
    ids: HashMap<String, u32>,
    active: Columns,
    sealed: Vec<SealedChunk>,
    /// Per-minute cells folded from every sealed chunk, keyed by
    /// `(bucket, deployment id, kind code)`: a [`Rollup`]'s values without
    /// its key. Never GC'd — this is the downsampled history that outlives
    /// the raw chunks.
    rollups: BTreeMap<(u64, u32, u8), ObsAggregates>,
    /// Durability hook; sealed (not adopted) chunks are handed to it.
    spill: Option<Arc<dyn ChunkSpill>>,
    /// Latest event timestamp ever seen (appends and adoptions); anchors
    /// [`Resolution::Auto`]'s raw/rollup split.
    latest_time: u64,
    gc_chunks: u64,
    gc_events: u64,
    spilled_chunks: u64,
    /// Live tail subscribers; appends fan out to these under the store
    /// lock, so a subscription's back-fill and its live feed partition the
    /// timeline exactly (no row in both, no row in neither).
    tails: Vec<TailSlot>,
    next_tail_id: u64,
    tail_delivered: u64,
    tail_dropped: u64,
    tail_overflows: u64,
    /// Store-lifetime latency histograms, one per event kind, indexed by
    /// kind code. Appended and adopted rows both land here.
    histograms: [LatencyHistogram; EventKind::ALL.len()],
}

impl StoreInner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    fn resident_events(&self) -> usize {
        self.active.len() + self.sealed.iter().map(|c| c.cols.len()).sum::<usize>()
    }

    /// Folds a sealed chunk's rows into the per-minute rollup cells.
    fn fold_rollups(&mut self, cols: &Columns) {
        for i in 0..cols.len() {
            let key = (
                Rollup::bucket_of(cols.time_us[i]),
                cols.deployment[i],
                cols.kind[i],
            );
            self.rollups.entry(key).or_default().observe_row(
                cols.energy_mj[i],
                cols.latency_us[i],
                cols.accuracy[i],
            );
        }
    }

    fn seal_active(&mut self) {
        if self.active.len() == 0 {
            return;
        }
        let mut cols = std::mem::take(&mut self.active);
        cols.sort_by_time();
        let min_time = *cols.time_us.first().expect("non-empty chunk");
        let max_time = *cols.time_us.last().expect("non-empty chunk");
        self.fold_rollups(&cols);
        if let Some(spill) = self.spill.clone() {
            let events: Vec<Event> = (0..cols.len())
                .map(|i| cols.event(i, &self.names))
                .collect();
            spill.spill_chunk(&events);
            self.spilled_chunks += 1;
        }
        self.sealed.push(SealedChunk {
            cols,
            min_time,
            max_time,
        });
    }

    /// Evicts whole sealed chunks, oldest (`min_time`, then insertion order)
    /// first, until resident bytes fit the budget. The active chunk is never
    /// evicted, so the budget can be overshot by at most one chunk.
    fn gc(&mut self, byte_budget: usize) {
        while self.resident_events() * EVENT_BYTES > byte_budget && !self.sealed.is_empty() {
            let oldest = self
                .sealed
                .iter()
                .enumerate()
                .min_by_key(|(i, c)| (c.min_time, *i))
                .map(|(i, _)| i)
                .expect("non-empty sealed list");
            let chunk = self.sealed.remove(oldest);
            self.gc_chunks += 1;
            self.gc_events += chunk.cols.len() as u64;
        }
    }

    /// Offers one appended event to every registered tail whose filter
    /// matches. `try_send` only — the append path never waits on a slow
    /// subscriber. Disconnected subscribers are unregistered here; a
    /// clean→overflow transition returns a [`SinkOverflow`] marker for the
    /// caller to append once the lock is released.
    ///
    /// [`SinkOverflow`]: EventKind::SinkOverflow
    fn fan_out(&mut self, event: &Event) -> Vec<Event> {
        let mut markers = Vec::new();
        let delivered = &mut self.tail_delivered;
        let dropped = &mut self.tail_dropped;
        let overflows = &mut self.tail_overflows;
        self.tails.retain_mut(|slot| {
            if !tail_matches(&slot.filter, event) {
                return true;
            }
            match slot.tx.try_send(event.clone()) {
                Ok(()) => {
                    slot.counters.delivered.fetch_add(1, Ordering::Release);
                    *delivered += 1;
                    // A successful delivery closes the drop window; the next
                    // drop is a fresh transition.
                    slot.overflowed = false;
                    true
                }
                Err(mpsc::TrySendError::Full(_)) => {
                    let total = slot.counters.dropped.fetch_add(1, Ordering::Release) + 1;
                    *dropped += 1;
                    if !slot.overflowed {
                        slot.overflowed = true;
                        *overflows += 1;
                        markers.push(
                            Event::new(EventKind::SinkOverflow, &format!("tail:{}", slot.id))
                                .with_time_us(event.time_us)
                                .with_seq(total),
                        );
                    }
                    true
                }
                // Subscriber gone: unregister the slot.
                Err(mpsc::TrySendError::Disconnected(_)) => false,
            }
        });
        markers
    }
}

/// Whether a live event passes a tail's filter (deployment, both windows,
/// kind mask) — the same predicate the back-fill query applied.
fn tail_matches(filter: &ObsQuery, event: &Event) -> bool {
    (filter.deployment.is_empty() || filter.deployment == event.deployment)
        && filter.matches_windows(event.time_us, event.seq)
        && filter.matches_kind_code(event.kind.code())
}

/// The columnar store. Thread-safe; normally fed by the collector thread of
/// an [`Obs`](crate::Obs) pipeline and queried from anywhere.
#[derive(Debug, Default)]
pub struct ObsStore {
    inner: Mutex<StoreInner>,
    appended: AtomicU64,
    config: ObsConfig,
}

impl ObsStore {
    /// An empty store with the given tuning.
    pub fn new(config: ObsConfig) -> ObsStore {
        ObsStore {
            inner: Mutex::new(StoreInner::default()),
            appended: AtomicU64::new(0),
            config: ObsConfig {
                queue_depth: config.queue_depth.max(1),
                chunk_events: config.chunk_events.max(1),
                byte_budget: config.byte_budget.max(1),
            },
        }
    }

    /// The store's tuning.
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// Appends one event as-is (no timestamp stamping — the sink did that).
    /// Seals the active chunk at
    /// [`chunk_events`](ObsConfig::with_chunk_events) rows, runs GC after
    /// each seal, and fans the event out to every registered live tail
    /// (non-blocking; see [`ObsStore::subscribe`]).
    pub fn append(&self, event: &Event) {
        let mut inner = self.inner.lock().expect("obs store lock");
        let id = inner.intern(&event.deployment);
        inner.active.push(id, event);
        inner.latest_time = inner.latest_time.max(event.time_us);
        inner.histograms[event.kind.code() as usize].record(event.latency_us);
        if inner.active.len() >= self.config.chunk_events {
            inner.seal_active();
            inner.gc(self.config.byte_budget);
        }
        let markers = inner.fan_out(event);
        drop(inner);
        self.appended.fetch_add(1, Ordering::Release);
        // Overflow markers are ordinary rows: appended (and fanned out)
        // like anything else. The recursion terminates because a marker can
        // only be produced on a slot's clean→overflow edge, which the drop
        // that produced it already consumed.
        for marker in markers {
            self.append(&marker);
        }
    }

    /// Attaches the durability hook. Every chunk sealed **after** this call
    /// is handed to `spill` (inside the append path, so spills happen in
    /// seal order). Attach after rehydrating so adopted history is not
    /// written twice.
    pub fn set_spill(&self, spill: Arc<dyn ChunkSpill>) {
        let mut inner = self.inner.lock().expect("obs store lock");
        inner.spill = Some(spill);
    }

    /// Adopts one chunk spilled by a previous life: rows are re-sorted,
    /// folded into the rollup cells, and installed as a sealed chunk (then
    /// GC'd under the normal budget). Adopted chunks are **not** re-spilled.
    pub fn adopt_chunk(&self, events: &[Event]) {
        if events.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("obs store lock");
        let mut cols = Columns::default();
        for event in events {
            let id = inner.intern(&event.deployment);
            cols.push(id, event);
            inner.latest_time = inner.latest_time.max(event.time_us);
            inner.histograms[event.kind.code() as usize].record(event.latency_us);
        }
        cols.sort_by_time();
        let min_time = *cols.time_us.first().expect("non-empty chunk");
        let max_time = *cols.time_us.last().expect("non-empty chunk");
        inner.fold_rollups(&cols);
        inner.sealed.push(SealedChunk {
            cols,
            min_time,
            max_time,
        });
        inner.gc(self.config.byte_budget);
        drop(inner);
        self.appended
            .fetch_add(events.len() as u64, Ordering::Release);
    }

    /// Adopts one rollup cell compacted by a previous life's spill GC —
    /// history whose raw rows are gone but whose aggregates survive.
    pub fn adopt_rollup(&self, rollup: &Rollup) {
        let mut inner = self.inner.lock().expect("obs store lock");
        let id = inner.intern(&rollup.deployment);
        let key = (rollup.bucket_us, id, rollup.kind.code());
        inner.rollups.entry(key).or_default().merge(&rollup.values);
        inner.latest_time = inner.latest_time.max(rollup.bucket_us);
    }

    /// Seals the active chunk now (tests and shutdown paths; queries see the
    /// active chunk anyway).
    pub fn seal(&self) {
        let mut inner = self.inner.lock().expect("obs store lock");
        inner.seal_active();
        inner.gc(self.config.byte_budget);
    }

    /// Total events ever appended.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// A snapshot of the store-side counters (`sent`/`dropped` are 0 here;
    /// [`Obs::counters`](crate::Obs::counters) fills them from the sink).
    pub fn counters(&self) -> ObsCounters {
        let inner = self.inner.lock().expect("obs store lock");
        let resident = inner.resident_events() as u64;
        ObsCounters {
            appended: self.appended(),
            sent: 0,
            dropped: 0,
            sealed_chunks: inner.sealed.len() as u64,
            resident_events: resident,
            resident_bytes: resident * EVENT_BYTES as u64,
            gc_chunks: inner.gc_chunks,
            gc_events: inner.gc_events,
            spilled_chunks: inner.spilled_chunks,
            rollup_rows: inner.rollups.len() as u64,
            tails: inner.tails.len() as u64,
            tail_delivered: inner.tail_delivered,
            tail_dropped: inner.tail_dropped,
            tail_overflows: inner.tail_overflows,
        }
    }

    /// Registers a live tail: a bounded channel of `depth` events fed by
    /// every subsequent append that matches `filter`, plus the cursor-ranged
    /// back-fill of everything the store already holds.
    ///
    /// Registration and back-fill happen under one store lock, so the two
    /// sides partition the timeline exactly: a row is in the back-fill or
    /// will arrive live, never both, never neither. With a `cursor`, the
    /// back-fill starts **strictly after** it (rows at or before the cursor
    /// are trimmed and their aggregate contribution retracted); rollup
    /// cells cover back-fill spans whose raw rows were GC'd, at bucket
    /// granularity, when the filter's resolution asks for them.
    ///
    /// Delivery is drop-and-count ([`ObsTail::dropped`]); the first drop
    /// after a clean period appends a
    /// [`SinkOverflow`](EventKind::SinkOverflow) marker under the
    /// pseudo-deployment `tail:<id>`.
    pub fn subscribe(&self, filter: ObsQuery, cursor: Option<ObsCursor>, depth: usize) -> ObsTail {
        let mut inner = self.inner.lock().expect("obs store lock");
        let mut backfill_query = filter.clone();
        if let Some(cursor) = cursor {
            backfill_query.time_min = backfill_query.time_min.max(cursor.time_us);
        }
        let mut backfill = self.query_inner(&inner, &backfill_query);
        if let Some(cursor) = cursor {
            backfill.retain_after(cursor);
        }
        let mut high_water = cursor.unwrap_or_default();
        for event in &backfill.events {
            high_water.advance(event.order_key());
        }
        let (tx, rx) = mpsc::sync_channel(depth.max(1));
        let counters = Arc::new(TailCounters::default());
        let id = inner.next_tail_id;
        inner.next_tail_id += 1;
        inner.tails.push(TailSlot {
            id,
            filter,
            tx,
            counters: Arc::clone(&counters),
            overflowed: false,
        });
        drop(inner);
        ObsTail {
            backfill,
            cursor: high_water,
            rx,
            id,
            counters,
        }
    }

    /// Runs `query` against every resident chunk and rollup cell.
    ///
    /// The query's resolution partitions its time window: a raw span is
    /// scanned row-by-row (sealed chunks outside it are skipped by their
    /// bounds; matching rows are all aggregated and materialized up to
    /// `query.limit`, earliest first), and a rollup span is answered from
    /// the per-minute cells — at **bucket granularity**, so a cell whose
    /// minute intersects the span contributes whole. [`Resolution::Auto`]
    /// splits at a bucket boundary 10 rollup buckets behind the latest
    /// event, so no row is ever counted twice; the sequence window applies
    /// to the raw span only.
    pub fn query(&self, query: &ObsQuery) -> ObsResult {
        let inner = self.inner.lock().expect("obs store lock");
        self.query_inner(&inner, query)
    }

    /// The query body, against an already-locked inner state — shared by
    /// [`ObsStore::query`] and the atomic back-fill in
    /// [`ObsStore::subscribe`].
    fn query_inner(&self, inner: &StoreInner, query: &ObsQuery) -> ObsResult {
        // The store-lifetime latency histogram over the queried kind mask
        // rides along on every result (windows and deployment do not scope
        // it — it is a per-store counter, not a per-row aggregate).
        let mut latency_hist = LatencyHistogram::empty();
        for kind in EventKind::ALL {
            if query.matches_kind_code(kind.code()) {
                latency_hist.merge(&inner.histograms[kind.code() as usize]);
            }
        }
        // Resolve the deployment filter to an interned id once. A name this
        // store never saw matches nothing — but the scan still reports
        // appended/aggregate context truthfully (zeroes).
        let want_id: Option<u32> = if query.deployment.is_empty() {
            None
        } else {
            match inner.ids.get(&query.deployment) {
                Some(&id) => Some(id),
                None => {
                    return ObsResult {
                        appended: self.appended(),
                        shards_ok: 1,
                        latency_hist,
                        ..ObsResult::default()
                    }
                }
            }
        };

        // Inclusive spans; None means "nothing at this granularity".
        let (raw_span, roll_span) = match query.resolution {
            Resolution::Raw => (Some((query.time_min, query.time_max)), None),
            Resolution::Rollup => (None, Some((query.time_min, query.time_max))),
            Resolution::Auto => {
                let effective_max = query.time_max.min(inner.latest_time);
                let split = Rollup::bucket_of(effective_max.saturating_sub(AUTO_RAW_WINDOW_US));
                if split <= query.time_min {
                    (Some((query.time_min, query.time_max)), None)
                } else {
                    (
                        Some((split, query.time_max)),
                        Some((query.time_min, split - 1)),
                    )
                }
            }
        };

        let mut result = ObsResult {
            shards_ok: 1,
            latency_hist,
            ..ObsResult::default()
        };

        if let Some((raw_min, raw_max)) = raw_span {
            let mut scan = |cols: &Columns| {
                for i in 0..cols.len() {
                    if let Some(id) = want_id {
                        if cols.deployment[i] != id {
                            continue;
                        }
                    }
                    if cols.time_us[i] < raw_min
                        || cols.time_us[i] > raw_max
                        || cols.seq[i] < query.seq_min
                        || cols.seq[i] > query.seq_max
                    {
                        continue;
                    }
                    if !query.matches_kind_code(cols.kind[i]) {
                        continue;
                    }
                    let event = cols.event(i, &inner.names);
                    result.aggregates.observe(&event);
                    result.events.push(event);
                }
            };
            for chunk in &inner.sealed {
                if chunk.max_time < raw_min || chunk.min_time > raw_max {
                    continue;
                }
                scan(&chunk.cols);
            }
            scan(&inner.active);
        }

        if let Some((roll_min, roll_max)) = roll_span {
            let in_span = |bucket: u64| {
                bucket.saturating_add(ROLLUP_BUCKET_US - 1) >= roll_min && bucket <= roll_max
            };
            let mut cells: BTreeMap<(u64, u32, u8), ObsAggregates> = BTreeMap::new();
            for (&(bucket, dep, kind), cell) in &inner.rollups {
                if !in_span(bucket) || !query.matches_kind_code(kind) {
                    continue;
                }
                if want_id.is_some_and(|id| id != dep) {
                    continue;
                }
                cells.insert((bucket, dep, kind), cell.clone());
            }
            // The active chunk has not been folded yet — fold its in-span
            // rows on the fly so a rollup answer never lags the raw one.
            for i in 0..inner.active.len() {
                let bucket = Rollup::bucket_of(inner.active.time_us[i]);
                if !in_span(bucket) || !query.matches_kind_code(inner.active.kind[i]) {
                    continue;
                }
                if want_id.is_some_and(|id| id != inner.active.deployment[i]) {
                    continue;
                }
                let key = (bucket, inner.active.deployment[i], inner.active.kind[i]);
                cells.entry(key).or_default().observe_row(
                    inner.active.energy_mj[i],
                    inner.active.latency_us[i],
                    inner.active.accuracy[i],
                );
            }
            for ((bucket, dep, kind), values) in cells {
                result.aggregates.merge(&values);
                result.rollups.push(Rollup {
                    bucket_us: bucket,
                    deployment: inner.names.get(dep as usize).cloned().unwrap_or_default(),
                    kind: EventKind::from_code(kind).unwrap_or(EventKind::Infer),
                    values,
                });
            }
        }

        result.events.sort_by_key(Event::order_key);
        let limit = query.limit as usize;
        if result.events.len() > limit {
            result.events.truncate(limit);
            result.truncated = true;
        }
        result.rollups.sort_by_key(|a| a.key());
        if result.rollups.len() > limit {
            result.rollups.truncate(limit);
            result.truncated = true;
        }
        result.appended = self.appended();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(deployment: &str, t: u64, seq: u64) -> Event {
        Event::new(EventKind::Infer, deployment)
            .with_time_us(t)
            .with_seq(seq)
            .with_energy_mj(1.0)
            .with_latency_us(10)
    }

    #[test]
    fn seals_sort_and_bound_chunks() {
        let store = ObsStore::new(ObsConfig::default().with_chunk_events(4));
        // Out-of-order appends within a chunk get time-sorted at seal.
        for t in [30u64, 10, 40, 20] {
            store.append(&event("t", t, t));
        }
        let counters = store.counters();
        assert_eq!(counters.sealed_chunks, 1);
        assert_eq!(counters.resident_events, 4);
        assert_eq!(counters.resident_bytes, 4 * EVENT_BYTES as u64);
        let result = store.query(&ObsQuery::all());
        assert_eq!(
            result.events.iter().map(|e| e.time_us).collect::<Vec<_>>(),
            vec![10, 20, 30, 40]
        );
    }

    #[test]
    fn gc_evicts_oldest_sealed_chunk_first() {
        // Budget fits two 2-row chunks plus a bit; the third seal evicts the
        // oldest.
        let store = ObsStore::new(
            ObsConfig::default()
                .with_chunk_events(2)
                .with_byte_budget(5 * EVENT_BYTES),
        );
        for t in 0..6u64 {
            store.append(&event("t", t * 10, t));
        }
        let counters = store.counters();
        assert_eq!(counters.gc_chunks, 1);
        assert_eq!(counters.gc_events, 2);
        assert_eq!(counters.appended, 6);
        assert_eq!(counters.resident_events, 4);
        // The surviving window is the newest rows.
        let result = store.query(&ObsQuery::all());
        assert_eq!(
            result.events.iter().map(|e| e.time_us).collect::<Vec<_>>(),
            vec![20, 30, 40, 50]
        );
    }

    #[test]
    fn unknown_deployment_matches_nothing_but_reports_appended() {
        let store = ObsStore::new(ObsConfig::default());
        store.append(&event("t", 1, 1));
        let result = store.query(&ObsQuery::deployment("nope"));
        assert!(result.events.is_empty());
        assert_eq!(result.aggregates.matched, 0);
        assert_eq!(result.appended, 1);
        assert_eq!(result.shards_ok, 1);
    }

    #[test]
    fn limit_truncates_events_but_not_aggregates() {
        let store = ObsStore::new(ObsConfig::default());
        for t in 0..10u64 {
            store.append(&event("t", t, t));
        }
        let result = store.query(&ObsQuery::deployment("t").with_limit(3));
        assert_eq!(result.events.len(), 3);
        assert!(result.truncated);
        // Earliest first.
        assert_eq!(result.events[0].time_us, 0);
        assert_eq!(result.aggregates.matched, 10);
        assert_eq!(result.aggregates.energy_mj.sum, 10.0);
    }

    #[derive(Debug, Default)]
    struct MemSpill {
        chunks: Mutex<Vec<Vec<Event>>>,
    }

    impl ChunkSpill for MemSpill {
        fn spill_chunk(&self, events: &[Event]) {
            self.chunks.lock().unwrap().push(events.to_vec());
        }
    }

    #[test]
    fn seal_spills_sorted_chunks_but_adopt_does_not() {
        let spill = Arc::new(MemSpill::default());
        let store = ObsStore::new(ObsConfig::default().with_chunk_events(2));
        store.set_spill(Arc::clone(&spill) as Arc<dyn ChunkSpill>);
        store.append(&event("t", 20, 1));
        store.append(&event("t", 10, 0));
        let spilled = spill.chunks.lock().unwrap().clone();
        assert_eq!(spilled.len(), 1);
        assert_eq!(
            spilled[0].iter().map(|e| e.time_us).collect::<Vec<_>>(),
            vec![10, 20],
            "chunks are spilled time-sorted"
        );
        assert_eq!(store.counters().spilled_chunks, 1);

        // A second store adopting the spilled chunk answers identically —
        // and does not write the history back out.
        let reborn = ObsStore::new(ObsConfig::default().with_chunk_events(2));
        reborn.adopt_chunk(&spilled[0]);
        reborn.set_spill(Arc::clone(&spill) as Arc<dyn ChunkSpill>);
        let key = |r: &ObsResult| {
            r.events
                .iter()
                .map(|e| (e.time_us, e.seq, e.deployment.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            key(&reborn.query(&ObsQuery::all())),
            key(&store.query(&ObsQuery::all()))
        );
        assert_eq!(reborn.appended(), 2);
        assert_eq!(reborn.counters().spilled_chunks, 0);
        assert_eq!(spill.chunks.lock().unwrap().len(), 1);
    }

    #[test]
    fn rollup_resolution_matches_raw_aggregates_and_survives_gc() {
        let store = ObsStore::new(ObsConfig::default().with_chunk_events(3));
        // Rows across two minute buckets, some still in the active chunk.
        for i in 0..8u64 {
            store.append(
                &event("t", i * ROLLUP_BUCKET_US / 4, i).with_energy_mj(0.25 * (i + 1) as f64),
            );
        }
        let raw = store.query(&ObsQuery::deployment("t"));
        let rolled = store.query(&ObsQuery::deployment("t").with_resolution(Resolution::Rollup));
        assert!(rolled.events.is_empty());
        assert!(!rolled.rollups.is_empty());
        assert_eq!(rolled.aggregates, raw.aggregates);
        assert_eq!(
            rolled.rollups.iter().map(|r| r.values.matched).sum::<u64>(),
            raw.aggregates.matched
        );
        assert_eq!(store.counters().rollup_rows as usize, 2);

        // Evict every raw chunk: the rollup answer is unchanged.
        let tight = ObsStore::new(
            ObsConfig::default()
                .with_chunk_events(2)
                .with_byte_budget(EVENT_BYTES),
        );
        for i in 0..6u64 {
            tight.append(&event("t", i, i));
        }
        assert!(tight.counters().gc_chunks > 0);
        let rolled = tight.query(&ObsQuery::deployment("t").with_resolution(Resolution::Rollup));
        assert_eq!(rolled.aggregates.matched, 6, "rollups outlive GC'd chunks");
    }

    /// Rollup cells come back from a spill file, so their counts are only as
    /// sane as its bytes: two checksum-valid cells whose counts sum past
    /// `u64::MAX` saturate instead of panicking (debug) or wrapping
    /// (release), whether they share a key (merged at adoption) or not
    /// (merged by the query).
    #[test]
    fn adopted_rollup_counts_saturate() {
        for second_bucket in [0, ROLLUP_BUCKET_US] {
            let store = ObsStore::new(ObsConfig::default());
            let mut first = Rollup::new(0, "t", EventKind::Infer);
            first.values.matched = u64::MAX - 1;
            let mut second = Rollup::new(second_bucket, "t", EventKind::Infer);
            second.values.matched = 5;
            store.adopt_rollup(&first);
            store.adopt_rollup(&second);
            let result = store.query(&ObsQuery::all().with_resolution(Resolution::Rollup));
            assert_eq!(result.aggregates.matched, u64::MAX);
        }
    }

    #[test]
    fn auto_resolution_partitions_exactly_at_a_bucket_boundary() {
        let store = ObsStore::new(ObsConfig::default().with_chunk_events(4));
        // 20 minutes of one event per minute: the trailing AUTO_RAW_WINDOW_US
        // (10 buckets) comes back raw, older minutes as rollup cells.
        for i in 0..20u64 {
            store.append(&event("t", i * ROLLUP_BUCKET_US + 7, i));
        }
        let auto = store.query(&ObsQuery::deployment("t").with_resolution(Resolution::Auto));
        let raw = store.query(&ObsQuery::deployment("t"));
        assert_eq!(
            auto.aggregates, raw.aggregates,
            "no row lost or double-counted"
        );
        assert!(!auto.events.is_empty() && !auto.rollups.is_empty());
        let split = auto.events.first().unwrap().time_us;
        assert!(auto
            .rollups
            .iter()
            .all(|r| r.bucket_us + ROLLUP_BUCKET_US <= split + 7));
        // A short window stays fully raw.
        let recent = store.query(
            &ObsQuery::deployment("t")
                .with_resolution(Resolution::Auto)
                .with_time_range(19 * ROLLUP_BUCKET_US, u64::MAX),
        );
        assert!(recent.rollups.is_empty());
        assert_eq!(recent.events.len(), 1);
    }

    /// Subscribe's atomic register-plus-back-fill: rows appended before the
    /// subscription are in the back-fill, rows after arrive live — never
    /// both, never neither.
    #[test]
    fn subscribe_partitions_backfill_and_live_exactly() {
        let store = ObsStore::new(ObsConfig::default().with_chunk_events(3));
        for t in 0..5u64 {
            store.append(&event("t", t * 10, t));
        }
        let tail = store.subscribe(ObsQuery::all(), None, 16);
        assert_eq!(tail.backfill.events.len(), 5);
        assert_eq!(tail.cursor.key(), (40, 4));
        assert_eq!(store.counters().tails, 1);
        store.append(&event("t", 50, 5));
        store.append(&event("u", 60, 6));
        let first = tail
            .recv_timeout(std::time::Duration::from_secs(1))
            .unwrap();
        let second = tail
            .recv_timeout(std::time::Duration::from_secs(1))
            .unwrap();
        assert_eq!((first.time_us, second.time_us), (50, 60));
        assert_eq!(tail.delivered(), 2);
        assert_eq!(tail.dropped(), 0);
        // Filters scope the live feed exactly like the back-fill query.
        let filtered = store.subscribe(ObsQuery::deployment("t"), None, 16);
        store.append(&event("u", 70, 7));
        store.append(&event("t", 80, 8));
        assert_eq!(
            filtered
                .recv_timeout(std::time::Duration::from_secs(1))
                .unwrap()
                .time_us,
            80
        );
        // Dropping a tail unregisters it at the next fan-out.
        drop(tail);
        drop(filtered);
        store.append(&event("t", 90, 9));
        assert_eq!(store.counters().tails, 0);
    }

    /// A full subscriber channel sheds (never blocks) and the clean→overflow
    /// edge appends exactly one SinkOverflow marker to the store itself.
    #[test]
    fn tail_overflow_appends_one_transition_marker() {
        let store = ObsStore::new(ObsConfig::default());
        let tail = store.subscribe(ObsQuery::all(), None, 2);
        for t in 0..5u64 {
            store.append(&event("t", t, t));
        }
        // 2 delivered, then e3/e4/e5 dropped plus the marker itself (the
        // channel is full, so the marker's own fan-out sheds too).
        assert_eq!(tail.delivered(), 2);
        assert_eq!(tail.dropped(), 4);
        let counters = store.counters();
        assert_eq!(counters.tail_overflows, 1);
        assert_eq!(counters.tail_dropped, 4);
        let markers = store.query(&ObsQuery::all().with_kinds(&[EventKind::SinkOverflow]));
        assert_eq!(
            markers.events.len(),
            1,
            "transition-only: one marker per window"
        );
        assert_eq!(markers.events[0].deployment, format!("tail:{}", tail.id()));
        assert_eq!(
            markers.events[0].seq, 1,
            "seq is the dropped total at the edge"
        );
        assert_eq!(
            markers.events[0].time_us, 2,
            "stamped with the shed row's time"
        );

        // Draining and delivering again closes the window; the next full
        // channel is a fresh transition with a fresh marker.
        tail.try_next().unwrap();
        tail.try_next().unwrap();
        store.append(&event("t", 10, 10));
        store.append(&event("t", 11, 11));
        assert_eq!(tail.delivered(), 4);
        store.append(&event("t", 12, 12));
        let markers = store.query(&ObsQuery::all().with_kinds(&[EventKind::SinkOverflow]));
        assert_eq!(markers.events.len(), 2);
        assert_eq!(store.counters().tail_overflows, 2);
    }

    /// Kill-and-resume: a second subscription from the dead tail's cursor
    /// back-fills exactly the missed range, and back-fill + live together
    /// are bit-identical to a post-hoc query over the same range.
    #[test]
    fn resume_cursor_backfills_strictly_after_and_splices_gap_free() {
        let store = ObsStore::new(ObsConfig::default().with_chunk_events(4));
        for t in 0..10u64 {
            store.append(&event("t", t * 10, t));
        }
        let first = store.subscribe(ObsQuery::all(), None, 64);
        let cursor = first.cursor;
        assert_eq!(cursor.key(), (90, 9));
        drop(first); // the subscriber dies

        // Rows land while nobody is listening…
        for t in 10..15u64 {
            store.append(&event("t", t * 10, t));
        }
        // …then the subscriber comes back with its cursor.
        let resumed = store.subscribe(ObsQuery::all(), Some(cursor), 64);
        assert_eq!(
            resumed
                .backfill
                .events
                .iter()
                .map(Event::order_key)
                .collect::<Vec<_>>(),
            (10..15u64).map(|t| (t * 10, t)).collect::<Vec<_>>(),
            "back-fill is exactly the missed range, strictly after the cursor"
        );
        assert_eq!(resumed.cursor.key(), (140, 14));
        for t in 15..18u64 {
            store.append(&event("t", t * 10, t));
        }
        let mut spliced: Vec<Event> = resumed.backfill.events.clone();
        while let Some(event) = resumed.try_next() {
            spliced.push(event);
        }
        let posthoc = store.query(&ObsQuery::all().with_time_range(cursor.time_us, u64::MAX));
        let posthoc: Vec<Event> = posthoc
            .events
            .into_iter()
            .filter(|e| e.order_key() > cursor.key())
            .collect();
        // `Event` equality is NaN-poisoned (unset accuracy), so compare the
        // identifying keys row by row.
        assert_eq!(
            spliced.iter().map(Event::order_key).collect::<Vec<_>>(),
            posthoc.iter().map(Event::order_key).collect::<Vec<_>>(),
            "no gaps, no duplicates"
        );
    }

    #[test]
    fn latency_histograms_are_per_kind_and_survive_adoption() {
        let histogram = |store: &ObsStore, kind| {
            store
                .query(&ObsQuery::all().with_kinds(&[kind]))
                .latency_hist
        };
        let store = ObsStore::new(ObsConfig::default());
        for i in 0..98u64 {
            store.append(&event("t", i, i).with_latency_us(100));
        }
        store.append(&event("t", 98, 98).with_latency_us(5_000));
        store.append(&event("t", 99, 99).with_latency_us(5_000));
        store.append(&Event::new(EventKind::Learn, "t").with_latency_us(1_000_000));
        let infer = histogram(&store, EventKind::Infer);
        assert_eq!(infer.total(), 100);
        assert_eq!(infer.p50_us(), 127);
        assert_eq!(infer.p99_us(), 8_191);
        assert_eq!(histogram(&store, EventKind::Learn).total(), 1);
        // The queried kind mask picks which histograms ride on the result.
        assert_eq!(store.query(&ObsQuery::all()).latency_hist.total(), 101);

        // Adopted chunks fold in, so a rehydrated store answers like the
        // one that died.
        let reborn = ObsStore::new(ObsConfig::default());
        let all = store.query(&ObsQuery::all());
        reborn.adopt_chunk(&all.events);
        assert_eq!(
            histogram(&reborn, EventKind::Infer),
            histogram(&store, EventKind::Infer)
        );
    }

    #[test]
    fn seq_window_filters_across_sealed_and_active() {
        let store = ObsStore::new(ObsConfig::default().with_chunk_events(3));
        for s in 0..7u64 {
            store.append(&event("t", 100, s));
        }
        let result = store.query(&ObsQuery::deployment("t").with_seq_range(2, 5));
        assert_eq!(
            result.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }
}
