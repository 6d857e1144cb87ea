//! The blocking socket frontend of a serving runtime.
//!
//! ```text
//!  sockets ──frames──▶ connection threads ──ServeClient──▶ ServeRuntime
//!                          │ decode request, call, encode response
//!                          │
//!                          └─ Subscribe: register with the replication hub,
//!                             send one full snapshot, then stream deltas
//!
//!  ServeRuntime worker ──LearnCommit──▶ replication hub ──fan-out──▶ subscribers
//! ```
//!
//! Everything is `std` and blocking: one thread per connection inside a
//! `thread::scope`, a nonblocking accept loop that polls a shutdown flag,
//! and read timeouts on accepted sockets so connection threads notice
//! shutdown between frames. The serving runtime's own backpressure
//! ([`ServeConfig::queue_depth`](ofscil_serve::ServeConfig)) bounds the
//! requests waiting for a worker, which is what keeps connections that
//! submit faster than the pool serves from buffering unbounded work.

use crate::codec::{decode_request, encode_response, ReplEvent, WireRequest, WireResponse};
use crate::error::WireError;
use crate::frame::{read_frame_verbatim, VerbatimEvent, DEFAULT_MAX_PAYLOAD};
use crate::net::{BoundAddr, WireBind, WireListener, WireStream};
use ofscil_obs::{Event, EventKind, Obs, ObsCursor, ObsQuery, TailBatch};
use ofscil_serve::{
    LearnCommit, LearnerRegistry, ServeClient, ServeConfig, ServeError, ServeHooks, ServeRuntime,
};
use ofscil_store::{ObsSpill, Store, StoreError, SPILL_FILE};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How often blocked server loops wake to poll the shutdown flag.
const POLL: Duration = Duration::from_millis(20);

/// Raises a shutdown flag when dropped — including during unwinding, so a
/// panicking server body still releases the accept, maintenance and
/// connection threads its scope must join (the panic propagates instead of
/// deadlocking the teardown). Shared by every scoped server in this crate
/// and by frame-speaking frontends above it (the `ofscil_router` frontend).
pub struct ShutdownOnDrop<'a> {
    flag: &'a AtomicBool,
}

impl<'a> ShutdownOnDrop<'a> {
    /// Arms the guard: `flag` is raised when the returned value drops.
    pub fn new(flag: &'a AtomicBool) -> Self {
        ShutdownOnDrop { flag }
    }
}

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::Release);
    }
}

/// Configuration of a [`WireServer`] (and, via
/// [`FollowerConfig`](crate::FollowerConfig), of a follower's local server).
#[derive(Debug, Clone, PartialEq)]
pub struct WireConfig {
    /// Where to listen.
    pub(crate) bind: WireBind,
    /// Configuration of the serving runtime behind the socket. Set
    /// `queue_depth` here to shed load once that many requests wait for a
    /// worker, instead of buffering without bound.
    pub serve: ServeConfig,
    /// Maximum accepted frame payload in bytes (default 16 MiB).
    pub(crate) max_payload: usize,
}

impl WireConfig {
    /// TCP on an ephemeral loopback port with default serve settings — the
    /// configuration examples and tests want. The actually bound port is
    /// reported through [`WireHandle::addr`].
    pub fn tcp_loopback() -> Self {
        WireConfig {
            bind: WireBind::Tcp("127.0.0.1:0".into()),
            serve: ServeConfig::default(),
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }

    /// Sets the serve-runtime configuration (builder style).
    #[must_use]
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the bind target (builder style).
    #[must_use]
    pub fn with_bind(mut self, bind: WireBind) -> Self {
        self.bind = bind;
        self
    }
}

/// Handle the body of [`WireServer::run_observed`] receives.
#[derive(Debug)]
pub struct WireHandle {
    addr: BoundAddr,
}

impl WireHandle {
    /// The concrete address the server bound (resolves ephemeral ports).
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }
}

/// Commits a subscriber may fall behind by before it is disconnected. The
/// queue is bounded so a follower whose socket stalls cannot make the
/// primary buffer commits without limit — the lagging subscriber is dropped
/// (with a typed error frame) and must resubscribe for a fresh anchor.
const REPL_QUEUE_DEPTH: usize = 1024;

/// Fan-out point between the runtime's commits hook and the per-subscriber
/// replication streams.
pub(crate) struct ReplHub {
    subscribers: Mutex<HashMap<String, Vec<mpsc::SyncSender<Arc<LearnCommit>>>>>,
}

impl ReplHub {
    pub(crate) fn new() -> Self {
        ReplHub {
            subscribers: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a subscriber for one deployment's commits. Registration
    /// happens *before* the subscriber takes its full snapshot, so a commit
    /// landing in between is delivered as a delta the follower recognises as
    /// already-contained (its seq is at or below the snapshot's).
    pub(crate) fn register(&self, deployment: &str) -> mpsc::Receiver<Arc<LearnCommit>> {
        let (tx, rx) = mpsc::sync_channel(REPL_QUEUE_DEPTH);
        self.subscribers
            .lock()
            .expect("hub lock poisoned")
            .entry(deployment.to_string())
            .or_default()
            .push(tx);
        rx
    }

    /// Forwards one commit to every live subscriber of its deployment,
    /// dropping subscribers whose connection ended or whose bounded queue is
    /// full (a stalled socket must not grow the primary's memory).
    pub(crate) fn forward(&self, commit: LearnCommit) {
        let mut subscribers = self.subscribers.lock().expect("hub lock poisoned");
        let Some(list) = subscribers.get_mut(&commit.deployment) else {
            return;
        };
        let commit = Arc::new(commit);
        list.retain(|tx| tx.try_send(Arc::clone(&commit)).is_ok());
        if list.is_empty() {
            subscribers.remove(&commit.deployment);
        }
    }
}

/// The socket frontend: binds a listener, serves connections for exactly
/// the duration of the body, then tears everything down deterministically.
#[derive(Debug)]
pub struct WireServer;

impl WireServer {
    /// Runs a wire-serving session. The listener, the serving runtime, the
    /// replication hub and every connection thread live for exactly the
    /// duration of `body`, which receives the handle carrying the bound
    /// address. Clients in other processes connect with
    /// [`WireClient`](crate::WireClient).
    ///
    /// Every committed `LearnOnline` goes straight from the serve worker
    /// that ran it to the replication hub, through the runtime's
    /// [`ServeHooks::commits`] hook. The hub only `try_send`s into each
    /// subscriber's bounded queue, so a stalled follower never holds up a
    /// worker; it is dropped instead.
    ///
    /// With a durable [`Store`](ofscil_store::Store):
    ///
    /// * every committed `LearnOnline` and budget top-up is journaled to the
    ///   store's write-ahead log before its reply (via the serve runtime's
    ///   [`CommitJournal`](ofscil_serve::CommitJournal) hook), and a
    ///   successful `Import` is journaled as a full-state record,
    /// * replication subscribers are anchored **from the store's latest
    ///   checkpoint** (plus the delta-compacted WAL tail) instead of an
    ///   expensive live snapshot under the model lock, and the `ReAnchor`
    ///   request serves the same cheap anchor as a one-shot response,
    /// * a background maintenance thread runs the store's delta compaction
    ///   ([`Store::maintenance`]) so replay cost stays bounded by live
    ///   classes while the server is up.
    ///
    /// The caller is responsible for calling [`Store::bootstrap`] (recover +
    /// attach) *before* serving — keeping recovery explicit means a test or
    /// an operator can inspect what was restored.
    ///
    /// With an observability handle:
    ///
    /// * the serving runtime emits `Infer`/`Learn`/`Reject`/`TopUp` events
    ///   into the handle's non-blocking [`EventSink`](ofscil_obs::EventSink)
    ///   (the hot path never waits on the collector; overflow is counted,
    ///   not blocked on),
    /// * the store maintenance thread emits a `Checkpoint` event whenever a
    ///   deployment's latest-checkpoint sequence number advances,
    /// * the `ObsQuery` wire request is answered from the handle's columnar
    ///   store. Without a handle that request gets a typed
    ///   [`InvalidRequest`](ofscil_serve::ServeError::InvalidRequest),
    /// * with **both** a store and an obs handle, the timeline is durable:
    ///   an [`ObsSpill`] log is opened inside the store root, any chunks and
    ///   rollups a previous incarnation spilled are rehydrated into the obs
    ///   store *before* serving starts, every chunk sealed while serving is
    ///   written through, and on graceful shutdown the sink is drained and
    ///   the active chunk sealed so the timeline's tail reaches disk too.
    ///   `ObsQuery` timelines therefore survive kill-and-recover.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when binding or opening the spill log
    /// fails and [`WireError::Runtime`] when the serve configuration is
    /// invalid.
    pub fn run_observed<T, F>(
        registry: &LearnerRegistry,
        config: &WireConfig,
        store: Option<&Store>,
        obs: Option<&Obs>,
        body: F,
    ) -> Result<T, WireError>
    where
        F: FnOnce(&WireHandle) -> T,
    {
        let spill = match (store, obs) {
            (Some(store), Some(obs)) => {
                let (spill, recovery) =
                    ObsSpill::open(&store.root().join(SPILL_FILE)).map_err(|e| match e {
                        StoreError::Io(e) => WireError::Io(e),
                        other => WireError::Protocol(format!("obs spill: {other}")),
                    })?;
                recovery.rehydrate_into(obs.store());
                let spill = Arc::new(spill);
                obs.store()
                    .set_spill(Arc::clone(&spill) as Arc<dyn ofscil_obs::ChunkSpill>);
                Some(spill)
            }
            _ => None,
        };

        let (listener, addr) = WireListener::bind(&config.bind)?;
        let shutdown = AtomicBool::new(false);
        let hub = ReplHub::new();

        let hooks = ServeHooks {
            commits: Some(&|commit| hub.forward(commit)),
            journal: store.map(|s| s as &dyn ofscil_serve::CommitJournal),
            obs: obs.map(|o| o.sink()),
        };
        let value = ServeRuntime::run_with(registry, &config.serve, hooks, |client| {
            std::thread::scope(|scope| {
                let hub = &hub;
                let shutdown = &shutdown;
                let options = ConnOptions {
                    max_payload: config.max_payload,
                    read_only: config.serve.read_only,
                };
                if let Some(store) = store {
                    scope.spawn(move || maintenance_loop(store, registry, obs, shutdown));
                }
                let client = client.clone();
                scope.spawn(move || {
                    listener.serve_connections(scope, shutdown, POLL, move |stream| {
                        serve_connection(
                            stream, &client, registry, hub, store, obs, shutdown, options,
                        );
                    });
                });

                let handle = WireHandle { addr: addr.clone() };
                let _shutdown_on_exit = ShutdownOnDrop::new(shutdown);
                body(&handle)
                // The guard raises the flag on return *and* on panic; the
                // scope then joins the accept loop, the maintenance thread
                // and every connection thread, all of which poll it within
                // `POLL`.
            })
        })
        .map_err(WireError::Runtime)?;

        if spill.is_some() {
            if let Some(obs) = obs {
                // Graceful shutdown: drain what the sink accepted and seal
                // the active chunk so the timeline's tail spills too. A
                // killed process skips this — that is exactly the torn tail
                // the spill log tolerates on the next open.
                obs.flush(Duration::from_secs(2));
                obs.store().seal();
            }
        }

        #[cfg(unix)]
        if let BoundAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        Ok(value)
    }
}

/// Per-connection serving options every connection is served with.
#[derive(Clone, Copy)]
struct ConnOptions {
    max_payload: usize,
    read_only: bool,
}

/// Polls the store's maintenance sweep (delta compaction of WALs past the
/// compaction threshold) until shutdown — the "background" in background
/// delta compaction. The shutdown flag is polled every `POLL` so teardown
/// stays prompt, but the sweep itself runs an order of magnitude less often
/// (and the store skips logs with no appends since the last attempt).
/// Maintenance failures are tolerated: compaction is an optimization, and
/// the next sweep retries.
///
/// With an observability handle attached, each sweep also compares every
/// deployment's latest-checkpoint sequence number against the last sweep and
/// emits a `Checkpoint` event when it advanced. The first sweep seeds the
/// baseline silently, so checkpoints that predate the server do not appear
/// as fresh timeline events.
fn maintenance_loop(
    store: &Store,
    registry: &LearnerRegistry,
    obs: Option<&Obs>,
    shutdown: &AtomicBool,
) {
    let mut tick: u32 = 0;
    let mut checkpoint_seqs: HashMap<String, u64> = HashMap::new();
    let mut seeded = false;
    while !shutdown.load(Ordering::Acquire) {
        if tick % 16 == 0 {
            let _ = store.maintenance();
            if let Some(obs) = obs {
                observe_checkpoints(store, registry, obs, &mut checkpoint_seqs, seeded);
                seeded = true;
            }
        }
        tick = tick.wrapping_add(1);
        std::thread::sleep(POLL);
    }
}

/// One checkpoint-watch sweep: emits a `Checkpoint` event for every
/// deployment whose latest-checkpoint sequence number moved past the
/// recorded baseline (carrying the new sequence number and the current WAL
/// size), then advances the baseline. With `emit` false the sweep only
/// records baselines.
fn observe_checkpoints(
    store: &Store,
    registry: &LearnerRegistry,
    obs: &Obs,
    checkpoint_seqs: &mut HashMap<String, u64>,
    emit: bool,
) {
    use ofscil_serve::CommitJournal;
    for name in registry.names() {
        let Some(stats) = store.durability_stats(&name) else {
            continue;
        };
        let seen = checkpoint_seqs.entry(name.clone()).or_insert(0);
        if emit && stats.last_checkpoint_seq > *seen {
            obs.sink().emit(
                Event::new(EventKind::Checkpoint, &name)
                    .with_seq(stats.last_checkpoint_seq)
                    .with_wal_bytes(stats.wal_bytes),
            );
        }
        *seen = stats.last_checkpoint_seq;
    }
}

/// Serves one connection: a request/response loop that hands off to
/// replication streaming on `Subscribe`.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: WireStream,
    client: &ServeClient,
    registry: &LearnerRegistry,
    hub: &ReplHub,
    store: Option<&Store>,
    obs: Option<&Obs>,
    shutdown: &AtomicBool,
    options: ConnOptions,
) {
    loop {
        let frame = match read_frame_verbatim(&mut stream, options.max_payload, Some(shutdown)) {
            Ok(VerbatimEvent::Frame(frame)) => frame,
            // Clean EOF, shutdown, or a frame-level error (the byte stream
            // can no longer be trusted): close the connection.
            Ok(VerbatimEvent::Eof | VerbatimEvent::Shutdown) | Err(_) => return,
        };
        let response = match decode_request(frame.kind, frame.payload()) {
            // The frame envelope was intact, so the stream is still
            // synchronized: answer with a typed error and keep serving.
            Err(e) => WireResponse::Error(ServeError::InvalidRequest(format!(
                "undecodable request: {e}"
            ))),
            Ok(WireRequest::Serve(request)) => match client.call(request) {
                Ok(response) => WireResponse::Serve(response),
                Err(error) => WireResponse::Error(error),
            },
            Ok(WireRequest::Subscribe { deployment }) => {
                stream_replication(stream, &deployment, registry, hub, store, shutdown);
                return;
            }
            // Migration endpoints are registry-direct (like Subscribe): they
            // move explicit-memory state between processes, not through the
            // request pipeline. Import is a write and respects replica mode.
            Ok(WireRequest::Export { deployment }) => {
                match registry.export_deployment(&deployment) {
                    Ok(export) => WireResponse::Export(export),
                    Err(error) => WireResponse::Error(error),
                }
            }
            Ok(WireRequest::Import(export)) => {
                if options.read_only {
                    WireResponse::Error(ServeError::ReadOnlyReplica {
                        deployment: export.name,
                    })
                } else {
                    // Journaled *inside* the import's model-lock window (the
                    // same discipline as learns), so the WAL cannot order a
                    // racing learn's record ahead of the import it ran
                    // after.
                    let journaled =
                        registry.import_deployment_with(&export, |seq, spent, budget| {
                            journal_import(
                                store,
                                &export.name,
                                seq,
                                &export.snapshot,
                                spent,
                                budget,
                            )
                        });
                    match journaled {
                        Ok((classes, Ok(()))) => WireResponse::Imported {
                            classes: classes as u64,
                        },
                        // The in-memory import stands, but the caller must
                        // not believe it is durable — a router seeing this
                        // error keeps the old placement and can retry
                        // (imports never move seq backwards).
                        Ok((_, Err(e))) => WireResponse::Error(ServeError::Execution(format!(
                            "import applied but journaling failed: {e}"
                        ))),
                        Err(error) => WireResponse::Error(error),
                    }
                }
            }
            // Answered from the local columnar event store; a router fans
            // this request out to every shard instead (see `ofscil_router`).
            Ok(WireRequest::ObsQuery(query)) => match obs {
                Some(obs) => WireResponse::Obs(Box::new(obs.query(&query))),
                None => WireResponse::Error(ServeError::InvalidRequest(
                    "observability is not enabled on this server".into(),
                )),
            },
            // A live tail: the connection switches to streaming TailBatch
            // frames (back-fill first, then live), like Subscribe does for
            // replication.
            Ok(WireRequest::ObsSubscribe { query, cursor }) => match obs {
                Some(obs) => {
                    stream_obs_tail(stream, obs, query, cursor, shutdown);
                    return;
                }
                None => WireResponse::Error(ServeError::InvalidRequest(
                    "observability is not enabled on this server".into(),
                )),
            },
            // Follower advertisement is consumed by routers (which intercept
            // the frame before forwarding); reaching a plain shard means the
            // follower was pointed at the wrong address.
            Ok(WireRequest::AdvertiseFollower { .. }) => WireResponse::Error(
                ServeError::InvalidRequest("follower advertisement is a router operation".into()),
            ),
            // A one-shot anchor: the cheap checkpoint-served snapshot when a
            // store is attached, a live snapshot otherwise.
            Ok(WireRequest::ReAnchor { deployment }) => {
                match anchor_for(&deployment, registry, store) {
                    Ok((seq, snapshot)) => WireResponse::Repl(ReplEvent::Full { seq, snapshot }),
                    Err(error) => WireResponse::Error(error),
                }
            }
        };
        if stream.write_all(&encode_response(&response)).is_err() {
            return;
        }
    }
}

/// Journals a just-applied import into the store's WAL as a full-state
/// record, with the post-install sequence number and meter state. Called
/// while the import's model lock is still held (see the `Import` arm).
///
/// Serving without a store — or importing into a deployment that was never
/// attached to it — is not an error: such deployments simply are not
/// durable. A *failed* journal write on an attached deployment is: the
/// caller must surface it instead of acknowledging the import as durable.
fn journal_import(
    store: Option<&Store>,
    deployment: &str,
    seq: u64,
    snapshot: &[u8],
    spent_mj: f64,
    budget_mj: Option<f64>,
) -> Result<(), String> {
    let Some(store) = store else { return Ok(()) };
    match store.journal_import(deployment, seq, snapshot, spent_mj, budget_mj) {
        Ok(()) | Err(ofscil_store::StoreError::NotAttached(_)) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

/// A full-snapshot anchor for one deployment: served from the store's latest
/// checkpoint plus the delta-compacted WAL tail when a store is attached
/// (bounded by live classes, never touches the model lock), from a live
/// snapshot otherwise.
fn anchor_for(
    deployment: &str,
    registry: &LearnerRegistry,
    store: Option<&Store>,
) -> Result<(u64, Vec<u8>), ServeError> {
    if let Some(store) = store {
        if let Ok(state) = store.replication_anchor(deployment) {
            return Ok((state.seq, state.snapshot));
        }
    }
    registry.snapshot_with_seq(deployment)
}

/// Bounded per-subscriber fan-out depth for wire tails. Past it the store
/// sheds rows (drop-and-count, surfaced as `SinkOverflow` markers) — the
/// append path never buffers for a stalled socket, the same discipline as
/// [`REPL_QUEUE_DEPTH`].
const TAIL_QUEUE_DEPTH: usize = 1024;

/// Maximum rows per streamed `TailBatch` frame.
const TAIL_BATCH_EVENTS: usize = 1024;

/// Streams a live observability tail to one subscriber: the cursor-ranged
/// back-fill first (bounded frames, oldest rows first, rollup cells for
/// GC'd spans riding with the first frame), then live batches until the
/// connection or the server ends.
///
/// The store registers the tail **atomically with the back-fill query**, so
/// back-fill and live feed partition the timeline exactly; every frame
/// carries the high-water resume cursor, so a reconnecting subscriber
/// resubscribes from the last frame it consumed and misses nothing.
fn stream_obs_tail(
    mut stream: WireStream,
    obs: &Obs,
    query: ObsQuery,
    cursor: Option<ObsCursor>,
    shutdown: &AtomicBool,
) {
    // Settle the sink first so rows it already accepted land in the
    // back-fill instead of racing the registration.
    obs.flush(Duration::from_millis(250));
    let tail = obs.store().subscribe(query, cursor, TAIL_QUEUE_DEPTH);

    // The final back-fill frame is sent even when empty, so the subscriber
    // always learns where "live" begins.
    let mut high_water = cursor.unwrap_or_default();
    let mut offset = 0usize;
    loop {
        let end = (offset + TAIL_BATCH_EVENTS).min(tail.backfill.events.len());
        let events = tail.backfill.events[offset..end].to_vec();
        for event in &events {
            high_water.advance(event.order_key());
        }
        let last = end == tail.backfill.events.len();
        let batch = TailBatch {
            events,
            rollups: if offset == 0 {
                tail.backfill.rollups.clone()
            } else {
                Vec::new()
            },
            cursor: high_water,
            backfill: true,
            truncated: tail.backfill.truncated,
            dropped: tail.dropped(),
        };
        if stream
            .write_all(&encode_response(&WireResponse::Tail(batch)))
            .is_err()
        {
            return;
        }
        offset = end;
        if last {
            break;
        }
    }

    // Live: block briefly for the next row, drain greedily into one bounded
    // frame per wakeup.
    loop {
        let first = match tail.recv_timeout(POLL) {
            Ok(event) => event,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let mut events = vec![first];
        while events.len() < TAIL_BATCH_EVENTS {
            match tail.try_next() {
                Some(event) => events.push(event),
                None => break,
            }
        }
        for event in &events {
            high_water.advance(event.order_key());
        }
        let batch = TailBatch {
            events,
            rollups: Vec::new(),
            cursor: high_water,
            backfill: false,
            truncated: false,
            dropped: tail.dropped(),
        };
        if stream
            .write_all(&encode_response(&WireResponse::Tail(batch)))
            .is_err()
        {
            return;
        }
    }
}

/// Streams a deployment's snapshot stream to one subscriber: registration
/// first, then the full-snapshot anchor, then deltas until the connection or
/// the server ends.
///
/// With a store attached the anchor is served from the **latest checkpoint**
/// (plus the delta-compacted WAL tail) instead of a live snapshot — so a
/// far-behind subscriber re-anchoring itself never takes the deployment's
/// model lock, and its cost is bounded by live classes. Every journaled
/// commit is in the store *before* it reaches the hub (the journal write
/// happens under the model lock), so the checkpoint-served anchor can never
/// lag a delta the hub delivers: racing commits arrive with a sequence
/// number at or below the anchor (skipped by the follower) or exactly one
/// past it.
fn stream_replication(
    mut stream: WireStream,
    deployment: &str,
    registry: &LearnerRegistry,
    hub: &ReplHub,
    store: Option<&Store>,
    shutdown: &AtomicBool,
) {
    let deltas = hub.register(deployment);
    // Anchor *after* registering: a commit racing this anchor either made it
    // in (its delta arrives with seq <= anchor and is skipped) or not (its
    // delta arrives with the next seq and is applied). No gap is possible.
    let (seq, snapshot) = match anchor_for(deployment, registry, store) {
        Ok(anchor) => anchor,
        Err(error) => {
            let _ = stream.write_all(&encode_response(&WireResponse::Error(error)));
            return;
        }
    };
    let full = WireResponse::Repl(ReplEvent::Full { seq, snapshot });
    if stream.write_all(&encode_response(&full)).is_err() {
        return;
    }
    loop {
        match deltas.recv_timeout(POLL) {
            Ok(commit) => {
                let event = WireResponse::Repl(ReplEvent::Delta {
                    seq: commit.seq,
                    total_classes: commit.total_classes as u64,
                    updates: commit
                        .updates
                        .iter()
                        .map(|(class, prototype)| (*class as u64, prototype.clone()))
                        .collect(),
                });
                if stream.write_all(&encode_response(&event)).is_err() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            // Outside shutdown, a disconnected queue means the hub dropped
            // this subscriber for lagging past the bounded queue depth. Say
            // so in a typed frame before closing, so the follower can tell
            // this recoverable condition apart from a real failure and
            // resubscribe for a fresh anchor.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if !shutdown.load(Ordering::Acquire) {
                    let lagged = WireResponse::Error(ServeError::ReplicationLagged {
                        deployment: deployment.to_string(),
                    });
                    let _ = stream.write_all(&encode_response(&lagged));
                }
                return;
            }
        }
    }
}
