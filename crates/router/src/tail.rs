//! Cluster-wide live tails: one subscription, many legs.
//!
//! A [`ClusterTail`] multiplexes a single observability subscription across
//! the whole cluster — one wire leg per ring shard, one per advertised
//! follower, plus an in-process leg on the router's own store — and merges
//! the legs into a single stream of [`TailBatch`]es. It is the streaming
//! sibling of the scatter-gather `ObsQuery` path: same legs, pushed instead
//! of polled.
//!
//! Every leg keeps its **own resume cursor**. When a shard dies, restarts,
//! or is re-pointed at a promoted follower
//! ([`RouterHandle::replace_shard`](crate::RouterHandle::replace_shard)),
//! the leg reconnects — re-resolving the shard's current address from the
//! pool — and resubscribes from the last row it consumed, so the merged
//! stream survives kill/restart with no gaps; the server back-fills
//! strictly after the cursor, so a leg retry re-delivers nothing. Rows that
//! live on two legs at once (a primary and the follower replicating it)
//! are removed by the wire proxy with the same bit-exact row identity
//! [`ObsResult::merge`](ofscil_obs::ObsResult::merge) dedups with — the
//! splice invariant.
//!
//! Legs **block** on the bounded merge channel: the router is lossless for
//! every row that reached it. The shard-side per-subscriber channel stays
//! the bounded drop-and-count stage, so a slow cluster tail sheds at the
//! edge — never on a shard's append path — and the sheds surface as
//! `SinkOverflow` markers inside the very stream being tailed.

use crate::server::{Shared, POLL};
use ofscil_obs::{sort_dedup_events, Obs, ObsCursor, ObsQuery, Rollup, TailBatch};
use ofscil_serve::ServeError;
use ofscil_wire::codec::{decode_request, encode_response, WireRequest};
use ofscil_wire::{BoundAddr, VerbatimFrame, WireClient, WireResponse, WireStream};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Leg batches buffered between the legs and the consumer.
const MERGE_DEPTH: usize = 64;
/// Per-subscriber channel depth the local leg asks the router's own store
/// for — matches the wire server's tail queue depth.
const LOCAL_TAIL_DEPTH: usize = 1024;
/// Most events the local leg accumulates into one live batch.
const LOCAL_BATCH_EVENTS: usize = 1024;
/// Pause between a broken leg's reconnect attempts.
const LEG_RETRY: Duration = Duration::from_millis(50);
/// Most leg batches the wire proxy merges into a single client frame.
const PROXY_MERGE_BATCHES: usize = 16;

/// Counters and the stop flag shared by every leg of one cluster tail.
#[derive(Debug, Default)]
struct TailState {
    stop: AtomicBool,
    resumed: AtomicU64,
    dropped: AtomicU64,
}

/// The consumer end of a cluster-wide live tail
/// (see [`RouterHandle::cluster_tail`](crate::RouterHandle::cluster_tail)).
///
/// Batches arrive per leg (each internally `(time_us, seq)`-ordered, not
/// globally ordered across legs); the wire proxy re-orders per poll window
/// before framing, and an in-process consumer folding batches into its own
/// window does the same. Dropping the tail stops every leg within the
/// router's poll interval.
#[derive(Debug)]
pub struct ClusterTail {
    rx: mpsc::Receiver<TailBatch>,
    state: Arc<TailState>,
    legs: usize,
}

impl ClusterTail {
    /// Blocks up to `timeout` for the next leg batch.
    ///
    /// # Errors
    ///
    /// [`mpsc::RecvTimeoutError::Timeout`] when nothing arrived, and
    /// [`mpsc::RecvTimeoutError::Disconnected`] once every leg has exited.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<TailBatch, mpsc::RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// The next leg batch if one is already buffered; never blocks.
    pub(crate) fn try_next(&self) -> Option<TailBatch> {
        self.rx.try_recv().ok()
    }

    /// The next leg batch if one is already buffered; never blocks. What
    /// the control plane's rate feed drains each tick.
    ///
    /// # Errors
    ///
    /// [`mpsc::TryRecvError::Empty`] when nothing is buffered, and
    /// [`mpsc::TryRecvError::Disconnected`] once every leg has exited.
    pub fn try_recv(&self) -> Result<TailBatch, mpsc::TryRecvError> {
        self.rx.try_recv()
    }

    /// Legs this tail multiplexes (shards + advertised followers + the
    /// router's own store), snapshotted at subscribe time.
    pub fn legs(&self) -> usize {
        self.legs
    }

    /// Successful leg **re**-subscriptions so far — how many times a broken
    /// leg (killed shard, replaced primary) spliced back onto the stream.
    pub fn resumed(&self) -> u64 {
        self.state.resumed.load(Ordering::Acquire)
    }

    /// Events shed cluster-wide by the legs' shard-side subscriber channels
    /// (drop-and-count; deltas folded across reconnects).
    pub fn dropped(&self) -> u64 {
        self.state.dropped.load(Ordering::Acquire)
    }
}

impl Drop for ClusterTail {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
    }
}

/// Where one wire leg points.
enum LegTarget {
    /// A ring shard. The address is re-resolved from the pool on every
    /// attempt, so the leg follows a `replace_shard` re-point to a promoted
    /// follower instead of redialing the corpse forever.
    Shard(usize),
    /// An advertised follower, dialed by its display string (followers
    /// have no pooled slot — same as the scatter-gather follower legs).
    Follower(String),
}

/// Spawns every leg of a cluster tail and hands back the consumer end.
///
/// The leg set is snapshotted at subscribe time: shards currently on the
/// ring plus currently-advertised followers. Legs are detached threads
/// holding their own `Arc<Shared>`; they exit when the tail is dropped or
/// the router shuts down, whichever comes first.
pub(crate) fn spawn_cluster_tail(
    shared: Arc<Shared>,
    query: ObsQuery,
    cursor: Option<ObsCursor>,
) -> ClusterTail {
    let shard_ids = {
        let placement = shared.placement.read().expect("placement lock poisoned");
        placement.ring.shard_ids()
    };
    let follower_addrs: Vec<String> = {
        let followers = shared.followers.lock().expect("follower registry poisoned");
        let mut list: Vec<String> = followers.values().flatten().cloned().collect();
        list.sort_unstable();
        list.dedup();
        list
    };
    let (tx, rx) = mpsc::sync_channel(MERGE_DEPTH);
    let state = Arc::new(TailState::default());
    let mut legs = 0;
    for shard in shard_ids {
        legs += 1;
        let shared = Arc::clone(&shared);
        let query = query.clone();
        let tx = tx.clone();
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            run_wire_leg(
                &shared,
                &LegTarget::Shard(shard),
                &query,
                cursor,
                &tx,
                &state,
            );
        });
    }
    for advertised in follower_addrs {
        legs += 1;
        let shared = Arc::clone(&shared);
        let query = query.clone();
        let tx = tx.clone();
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            run_wire_leg(
                &shared,
                &LegTarget::Follower(advertised),
                &query,
                cursor,
                &tx,
                &state,
            );
        });
    }
    if let Some(obs) = shared.obs.clone() {
        legs += 1;
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            run_local_leg(&obs, query, cursor, &tx, &state);
        });
    }
    ClusterTail { rx, state, legs }
}

/// One wire leg: connect, subscribe from the leg's cursor, pump batches —
/// and on any break, reconnect and resubscribe from the last consumed row.
fn run_wire_leg(
    shared: &Shared,
    target: &LegTarget,
    query: &ObsQuery,
    mut cursor: Option<ObsCursor>,
    tx: &mpsc::SyncSender<TailBatch>,
    state: &TailState,
) {
    let mut sessions: u64 = 0;
    loop {
        if state.stop.load(Ordering::Acquire) || shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let addr = match target {
            LegTarget::Shard(shard) => shared.pool.addr(*shard).ok(),
            LegTarget::Follower(advertised) => BoundAddr::parse(advertised),
        };
        let stream = addr.and_then(|addr| {
            WireClient::connect(&addr)
                .and_then(|client| {
                    // The read timeout is what lets `next_batch` poll the
                    // stop flag while the leg idles.
                    client.set_read_timeout(Some(POLL))?;
                    client.obs_subscribe(query, cursor)
                })
                .ok()
        });
        let Some(mut stream) = stream else {
            std::thread::sleep(LEG_RETRY);
            continue;
        };
        sessions += 1;
        if sessions > 1 {
            state.resumed.fetch_add(1, Ordering::Release);
        }
        // The server's shed counter is cumulative per subscription; fold
        // deltas into the cluster-wide total across reconnects.
        let mut session_dropped: u64 = 0;
        // On a server death, a stop raised mid-wait, or a broken transport
        // the stream ends and the outer loop decides between exit and
        // resubscribe.
        while let Ok(Some(batch)) = stream.next_batch(Some(&state.stop)) {
            let mut next = cursor.unwrap_or_default();
            batch.advance_cursor(&mut next);
            cursor = Some(next);
            let delta = batch.dropped.saturating_sub(session_dropped);
            session_dropped = batch.dropped;
            if delta > 0 {
                state.dropped.fetch_add(delta, Ordering::Release);
            }
            // Blocking send: the merge channel backpressures the
            // leg instead of dropping — shedding stays shard-side.
            if tx.send(batch).is_err() {
                return;
            }
        }
        std::thread::sleep(LEG_RETRY);
    }
}

/// The in-process leg on the router's own store: migrations, breaker
/// transitions and control-plane actions belong in the merged stream just
/// as they belong in a scatter-gathered query.
fn run_local_leg(
    obs: &Obs,
    query: ObsQuery,
    cursor: Option<ObsCursor>,
    tx: &mpsc::SyncSender<TailBatch>,
    state: &TailState,
) {
    // Drain the sink's channel first so the back-fill covers everything
    // emitted before the subscription — the wire server's contract.
    obs.flush(Duration::from_millis(250));
    let mut tail = obs.store().subscribe(query, cursor, LOCAL_TAIL_DEPTH);
    let mut high = tail.cursor;
    let events = std::mem::take(&mut tail.backfill.events);
    let rollups = std::mem::take(&mut tail.backfill.rollups);
    if !events.is_empty() || !rollups.is_empty() {
        let batch = TailBatch {
            events,
            rollups,
            cursor: high,
            backfill: true,
            truncated: tail.backfill.truncated,
            dropped: 0,
        };
        if tx.send(batch).is_err() {
            return;
        }
    }
    let mut reported_dropped: u64 = 0;
    loop {
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        let first = match tail.recv_timeout(POLL) {
            Ok(event) => event,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let mut events = vec![first];
        while events.len() < LOCAL_BATCH_EVENTS {
            match tail.try_next() {
                Some(event) => events.push(event),
                None => break,
            }
        }
        for event in &events {
            high.advance(event.order_key());
        }
        let dropped = tail.dropped();
        let delta = dropped.saturating_sub(reported_dropped);
        reported_dropped = dropped;
        if delta > 0 {
            state.dropped.fetch_add(delta, Ordering::Release);
        }
        let batch = TailBatch {
            events,
            rollups: Vec::new(),
            cursor: high,
            backfill: false,
            truncated: false,
            dropped,
        };
        if tx.send(batch).is_err() {
            return;
        }
    }
}

/// Serves one proxied `ObsSubscribe` connection: opens a [`ClusterTail`]
/// over the whole cluster and re-frames the merged stream to the client.
///
/// Leg batches available in the same poll window are merged into one
/// frame: events re-sorted into `(time_us, seq)` order and cross-leg
/// duplicates removed with the bit-exact identity of
/// [`ObsResult::merge`](ofscil_obs::ObsResult::merge). Every frame carries
/// the high-water cursor across all merged rows — the position a client
/// resubscribes from after a broken connection, upon which every leg
/// back-fills strictly after it.
pub(crate) fn stream_cluster_tail(
    mut stream: WireStream,
    shared: &Arc<Shared>,
    frame: &VerbatimFrame,
) {
    let (query, cursor) = match decode_request(frame.kind, frame.payload()) {
        Ok(WireRequest::ObsSubscribe { query, cursor }) => (query, cursor),
        _ => {
            let _ = stream.write_all(&encode_response(&WireResponse::Error(
                ServeError::InvalidRequest("undecodable tail subscription".into()),
            )));
            return;
        }
    };
    let tail = spawn_cluster_tail(Arc::clone(shared), query, cursor);
    let mut merged_cursor = cursor.unwrap_or_default();
    loop {
        let first = match tail.recv_timeout(POLL) {
            Ok(batch) => batch,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let mut batches = vec![first];
        while batches.len() < PROXY_MERGE_BATCHES {
            match tail.try_next() {
                Some(batch) => batches.push(batch),
                None => break,
            }
        }
        let mut events = Vec::new();
        let mut rollups: Vec<Rollup> = Vec::new();
        let mut backfill = true;
        let mut truncated = false;
        for batch in &batches {
            batch.advance_cursor(&mut merged_cursor);
            backfill &= batch.backfill;
            truncated |= batch.truncated;
        }
        for batch in batches {
            events.extend(batch.events);
            rollups.extend(batch.rollups);
        }
        sort_dedup_events(&mut events, |_| {});
        let out = TailBatch {
            events,
            rollups,
            cursor: merged_cursor,
            backfill,
            truncated,
            dropped: tail.dropped(),
        };
        if stream
            .write_all(&encode_response(&WireResponse::Tail(out)))
            .is_err()
        {
            return;
        }
    }
}
