//! Follower mode: a replica process that tails a primary's snapshot stream
//! and serves read-only traffic.
//!
//! A follower owns a local [`LearnerRegistry`] with the same deployments as
//! its primary (same backbone/FCR weights — typically both sides loaded the
//! same pretrained model). [`Follower::run`] then
//!
//! 1. starts a local [`WireServer`] with
//!    [`read_only`](ofscil_serve::ServeConfig::read_only) forced on, so the
//!    replica answers `Infer`/`Stats`/`Snapshot` over its own socket while
//!    rejecting writes with a typed
//!    [`ReadOnlyReplica`](ofscil_serve::ServeError::ReadOnlyReplica) error,
//! 2. opens one upstream connection per tailed deployment, subscribes, and
//!    applies the stream: the full-snapshot anchor through
//!    [`LearnerRegistry::restore`], every sequence-numbered delta through
//!    [`LearnerRegistry::apply_prototype_updates`] — both bypass the storage
//!    quantizer, so the replica's explicit memory is **bit-exact**: its
//!    snapshot bytes hash identically to the primary's and its predictions
//!    are bit-identical.
//!
//! Deltas carry consecutive sequence numbers; a delta at or below the
//! snapshot anchor is already contained and skipped, a skipped number is a
//! [`WireError::ReplicationGap`]. A gap no longer halts the tail for good:
//! the follower's state can no longer be proven exact from deltas alone, so
//! it **resyncs** — it drops the subscription and resubscribes, restoring a
//! fresh full-snapshot anchor that by construction contains everything up to
//! its sequence number. The same recovery runs when the primary drops the
//! subscriber for lagging past the bounded replication queue. Resyncs are
//! bounded by [`FollowerConfig::resync_limit`]; once exhausted, the error is
//! surfaced through [`FollowerHandle::replication_error`] as before.

use crate::client::WireClient;
use crate::codec::ReplEvent;
use crate::error::{PayloadError, WireError};
use crate::net::BoundAddr;
use crate::server::{WireConfig, WireHandle, WireServer};
use ofscil_obs::{Event, EventKind, EventSink, Obs};
use ofscil_serve::LearnerRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often tail threads wake to poll their stop flag.
const POLL: Duration = Duration::from_millis(20);

/// Configuration of a [`Follower`].
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Address of the primary's wire server.
    pub(crate) upstream: BoundAddr,
    /// Deployments to tail. Each must exist on the primary and be registered
    /// locally with a matching projection dimensionality.
    pub deployments: Vec<String>,
    /// The follower's own wire server configuration.
    /// [`ServeConfig::read_only`](ofscil_serve::ServeConfig::read_only) is
    /// forced on regardless of what it says.
    pub wire: WireConfig,
    /// How many times a deployment's tail may automatically resubscribe from
    /// a fresh full-snapshot anchor after a replication gap (or after being
    /// dropped for lagging) before the error is surfaced. Zero restores the
    /// old halt-on-gap behaviour.
    pub(crate) resync_limit: u64,
    /// Routing frontend to announce this follower to, if any. When set,
    /// [`Follower::run`] sends one best-effort
    /// [`AdvertiseFollower`](crate::codec::WireRequest::AdvertiseFollower)
    /// (upstream address + the follower's own bound address) right after the
    /// local server binds, so a control plane watching the router knows this
    /// replica is a promotion candidate. Failures are swallowed — an
    /// unreachable router must not stop the replica from serving.
    pub(crate) advertise: Option<BoundAddr>,
    /// Observability pipeline for the replica itself, if any. When set, the
    /// follower's local server answers `ObsQuery` from this handle's store,
    /// and the tail threads stamp the replication lifecycle into it: one
    /// [`ReplApply`](ofscil_obs::EventKind::ReplApply) per applied delta
    /// (carrying the commit sequence number) and one
    /// [`Resync`](ofscil_obs::EventKind::Resync) per fresh full-snapshot
    /// re-anchor (carrying the anchor's sequence number). A router including
    /// this replica in its scatter-gather can therefore show replication lag
    /// and recovery next to the primary's own events.
    pub obs: Option<Obs>,
}

impl FollowerConfig {
    /// Tails `deployments` from `upstream`, serving locally on an ephemeral
    /// loopback TCP port, with up to 3 automatic resyncs per deployment.
    pub fn new(upstream: BoundAddr, deployments: &[&str]) -> Self {
        FollowerConfig {
            upstream,
            deployments: deployments.iter().map(|d| d.to_string()).collect(),
            wire: WireConfig::tcp_loopback(),
            resync_limit: 3,
            advertise: None,
            obs: None,
        }
    }

    /// Sets the automatic-resync bound (builder style).
    #[must_use]
    pub fn with_resync_limit(mut self, resync_limit: u64) -> Self {
        self.resync_limit = resync_limit;
        self
    }

    /// Announces the follower to a routing frontend at `router` (builder
    /// style): once the local server binds, [`Follower::run`] sends one
    /// best-effort `AdvertiseFollower`, so a control plane watching the
    /// router knows this replica is a promotion candidate.
    #[must_use]
    pub fn with_advertise(mut self, router: BoundAddr) -> Self {
        self.advertise = Some(router);
        self
    }

    /// Attaches an observability pipeline to the replica (builder style) —
    /// see [`FollowerConfig::obs`].
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// Per-deployment replication progress, shared between tail threads and the
/// handle.
#[derive(Debug, Default)]
struct ProgressState {
    /// Highest applied sequence number per deployment (absent before the
    /// full-snapshot anchor arrived).
    applied: HashMap<String, u64>,
    /// First error of each failed tail, by deployment.
    errors: HashMap<String, String>,
    /// Automatic resubscribes performed per deployment.
    resyncs: HashMap<String, u64>,
}

#[derive(Debug, Default)]
struct Progress {
    state: Mutex<ProgressState>,
    changed: Condvar,
}

impl Progress {
    fn record_applied(&self, deployment: &str, seq: u64) {
        let mut state = self.state.lock().expect("progress lock poisoned");
        state.applied.insert(deployment.to_string(), seq);
        drop(state);
        self.changed.notify_all();
    }

    fn record_error(&self, deployment: &str, error: &WireError) {
        let mut state = self.state.lock().expect("progress lock poisoned");
        state
            .errors
            .entry(deployment.to_string())
            .or_insert_with(|| error.to_string());
        drop(state);
        self.changed.notify_all();
    }

    fn record_resync(&self, deployment: &str) {
        let mut state = self.state.lock().expect("progress lock poisoned");
        *state.resyncs.entry(deployment.to_string()).or_insert(0) += 1;
        drop(state);
        self.changed.notify_all();
    }
}

/// Handle the body of [`Follower::run`] receives.
#[derive(Debug)]
pub struct FollowerHandle<'a> {
    server: &'a WireHandle,
    progress: &'a Progress,
}

impl FollowerHandle<'_> {
    /// The follower's own bound address — connect a
    /// [`WireClient`](crate::WireClient) here for read-only traffic.
    pub fn addr(&self) -> &BoundAddr {
        self.server.addr()
    }

    /// How many times the deployment's tail resubscribed from a fresh
    /// full-snapshot anchor after a replication gap or a lag drop.
    pub fn resyncs(&self, deployment: &str) -> u64 {
        self.progress
            .state
            .lock()
            .expect("progress lock poisoned")
            .resyncs
            .get(deployment)
            .copied()
            .unwrap_or(0)
    }

    /// The first replication error of a deployment's tail, if it failed.
    pub fn replication_error(&self, deployment: &str) -> Option<String> {
        self.progress
            .state
            .lock()
            .expect("progress lock poisoned")
            .errors
            .get(deployment)
            .cloned()
    }

    /// Blocks until the deployment has applied at least sequence number
    /// `seq` — the synchronization point "every commit the primary
    /// acknowledged up to here is now visible on the replica".
    ///
    /// # Errors
    ///
    /// Returns the tail's replication error if it failed, or a
    /// [`WireError::Protocol`] on timeout.
    pub fn wait_for_seq(
        &self,
        deployment: &str,
        seq: u64,
        timeout: Duration,
    ) -> Result<u64, WireError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.progress.state.lock().expect("progress lock poisoned");
        loop {
            if let Some(&applied) = state.applied.get(deployment) {
                if applied >= seq {
                    return Ok(applied);
                }
            }
            if let Some(error) = state.errors.get(deployment) {
                return Err(WireError::Protocol(format!(
                    "replication tail for {deployment:?} failed: {error}"
                )));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WireError::Protocol(format!(
                    "timed out waiting for {deployment:?} to reach seq {seq}"
                )));
            }
            let (next, _) = self
                .progress
                .changed
                .wait_timeout(state, deadline - now)
                .expect("progress lock poisoned");
            state = next;
        }
    }
}

/// A snapshot-replicated read replica: local read-only wire server plus one
/// stream-tailing thread per deployment.
#[derive(Debug)]
pub struct Follower;

impl Follower {
    /// Runs a follower session: the local read-only server and the tail
    /// threads live for exactly the duration of `body`.
    ///
    /// Tail failures (an unreachable primary, a replication gap) do not tear
    /// the session down — the replica keeps serving whatever state it has —
    /// but they are surfaced through
    /// [`FollowerHandle::replication_error`] and fail any
    /// [`FollowerHandle::wait_for_seq`] on the affected deployment.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the local server cannot bind and
    /// [`WireError::Runtime`] when the serve configuration is invalid.
    pub fn run<T, F>(
        registry: &LearnerRegistry,
        config: &FollowerConfig,
        body: F,
    ) -> Result<T, WireError>
    where
        F: FnOnce(&FollowerHandle<'_>) -> T,
    {
        let mut wire = config.wire.clone();
        wire.serve.read_only = true;
        let progress = Progress::default();
        let stop = AtomicBool::new(false);

        WireServer::run_observed(registry, &wire, None, config.obs.as_ref(), |server| {
            // Best-effort advertisement: tell the routing frontend (if any)
            // that this replica tails `upstream` and where it listens, so a
            // control plane can pick it as a promotion candidate. A dead or
            // absent router is not a reason to refuse to serve.
            if let Some(router) = &config.advertise {
                let _ = WireClient::connect(router).and_then(|mut client| {
                    client.advertise_follower(
                        &config.upstream.to_string(),
                        &server.addr().to_string(),
                    )
                });
            }
            std::thread::scope(|scope| {
                for deployment in &config.deployments {
                    let progress = &progress;
                    let stop = &stop;
                    let upstream = &config.upstream;
                    let resync_limit = config.resync_limit;
                    let sink = config.obs.as_ref().map(|obs| obs.sink().clone());
                    scope.spawn(move || {
                        tail_deployment(
                            registry,
                            upstream,
                            deployment,
                            progress,
                            stop,
                            resync_limit,
                            sink.as_ref(),
                        );
                    });
                }
                let handle = FollowerHandle {
                    server,
                    progress: &progress,
                };
                let _stop_on_exit = crate::server::ShutdownOnDrop::new(&stop);
                body(&handle)
            })
        })
    }

    /// Promotes a follower's replicated registry to a **writable primary**
    /// backed by a durable store — the failover path once the old primary is
    /// gone.
    ///
    /// The store is [`bootstrap`](ofscil_store::Store::bootstrap)ped against
    /// the registry first, which covers both failover flavours:
    ///
    /// * a fresh store directory: every deployment is checkpointed at its
    ///   replicated state, so the store **adopts the follower's replication
    ///   sequence numbers** as its baseline — a subscriber that re-attaches
    ///   to the promoted primary resumes from a consistent anchor and tails
    ///   the new writes,
    /// * the dead primary's own store directory (shared storage): any
    ///   deployment whose durable history ran past the follower's replicated
    ///   state is recovered from the log first (recovery never moves state
    ///   backwards), and the rest are checkpointed as above.
    ///
    /// The promoted server then runs exactly like a store-backed
    /// [`WireServer::run_observed`]: writable, journaled, serving
    /// replication subscribers from its checkpoints.
    ///
    /// With an observability handle, one `Promotion` event is emitted per
    /// registered deployment right after the store bootstrap (carrying the
    /// replication sequence number the new primary adopts), and the promoted
    /// server runs with the handle attached — its timeline picks up exactly
    /// where the dead primary's left off, which is what lets a routed
    /// `ObsQuery` stitch a tenant's trajectory across the failover.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Protocol`] when the store bootstrap fails,
    /// [`WireError::Io`] when binding fails and [`WireError::Runtime`] when
    /// the serve configuration is invalid.
    pub fn promote<T, F>(
        registry: &LearnerRegistry,
        store: &ofscil_store::Store,
        config: &WireConfig,
        obs: Option<&ofscil_obs::Obs>,
        body: F,
    ) -> Result<T, WireError>
    where
        F: FnOnce(&WireHandle) -> T,
    {
        store
            .bootstrap(registry)
            .map_err(|e| WireError::Protocol(format!("promotion bootstrap failed: {e}")))?;
        if let Some(obs) = obs {
            for name in registry.names() {
                let seq = registry.replication_seq(&name).unwrap_or(0);
                obs.sink().emit(
                    ofscil_obs::Event::new(ofscil_obs::EventKind::Promotion, &name).with_seq(seq),
                );
            }
        }
        let mut wire = config.clone();
        wire.serve.read_only = false;
        WireServer::run_observed(registry, &wire, Some(store), obs, body)
    }
}

/// Returns `true` for tail failures a fresh full-snapshot anchor repairs: a
/// sequence gap (the primary's memory mutated outside the commit stream —
/// a restore, an imported migration) and the typed lag drop the primary
/// sends before disconnecting a subscriber that fell behind its bounded
/// replication queue.
fn resyncable(error: &WireError) -> bool {
    matches!(
        error,
        WireError::ReplicationGap { .. }
            | WireError::Remote(ofscil_serve::ServeError::ReplicationLagged { .. })
    )
}

/// Tails one deployment's snapshot stream until stopped or broken,
/// resubscribing from a fresh anchor up to `resync_limit` times when the
/// stream gaps or the primary drops the subscription for lagging.
fn tail_deployment(
    registry: &LearnerRegistry,
    upstream: &BoundAddr,
    deployment: &str,
    progress: &Progress,
    stop: &AtomicBool,
    resync_limit: u64,
    sink: Option<&EventSink>,
) {
    let mut resyncs = 0;
    loop {
        let resynced = resyncs > 0;
        match tail_inner(
            registry, upstream, deployment, progress, stop, sink, resynced,
        ) {
            Ok(()) => return,
            Err(error)
                if resyncable(&error)
                    && resyncs < resync_limit
                    && !stop.load(Ordering::Acquire) =>
            {
                resyncs += 1;
                progress.record_resync(deployment);
            }
            Err(error) => {
                progress.record_error(deployment, &error);
                return;
            }
        }
    }
}

fn tail_inner(
    registry: &LearnerRegistry,
    upstream: &BoundAddr,
    deployment: &str,
    progress: &Progress,
    stop: &AtomicBool,
    sink: Option<&EventSink>,
    resynced: bool,
) -> Result<(), WireError> {
    let client = WireClient::connect(upstream)?;
    client.set_read_timeout(Some(POLL))?;
    let mut stream = client.subscribe(deployment)?;
    let mut anchor: Option<u64> = None;
    while let Some(event) = stream.next_event(Some(stop))? {
        match event {
            ReplEvent::Full { seq, snapshot } => {
                // Adopt the anchor's sequence number exactly: the replica's
                // registry counts in the primary's sequence line (each
                // consecutive delta then advances it by one), which is what
                // lets a promoted follower continue that line.
                registry
                    .restore_at(deployment, &snapshot, seq)
                    .map_err(WireError::Runtime)?;
                anchor = Some(seq);
                progress.record_applied(deployment, seq);
                if resynced {
                    // This full snapshot is a recovery re-anchor, not the
                    // initial subscribe — stamp it with the sequence number
                    // the replica jumped to.
                    if let Some(sink) = sink {
                        sink.emit(Event::new(EventKind::Resync, deployment).with_seq(seq));
                    }
                }
            }
            ReplEvent::Delta {
                seq,
                total_classes,
                updates,
            } => {
                let Some(applied) = anchor else {
                    return Err(WireError::Protocol(
                        "replication delta arrived before the full-snapshot anchor".into(),
                    ));
                };
                if seq <= applied {
                    // Already contained in the snapshot anchor.
                    continue;
                }
                if seq != applied + 1 {
                    return Err(WireError::ReplicationGap {
                        deployment: deployment.to_string(),
                        expected: applied + 1,
                        got: seq,
                    });
                }
                let updates = decode_updates(&updates)?;
                let total = registry
                    .apply_prototype_updates(deployment, &updates)
                    .map_err(WireError::Runtime)?;
                if total as u64 != total_classes {
                    return Err(WireError::Protocol(format!(
                        "replica diverged: {total} classes after seq {seq}, primary has \
                         {total_classes}"
                    )));
                }
                anchor = Some(seq);
                progress.record_applied(deployment, seq);
                if let Some(sink) = sink {
                    // ReplApply, not Learn: a merged timeline must count the
                    // primary's learn exactly once, with the replica's apply
                    // visible as its own replication-lifecycle row.
                    sink.emit(Event::new(EventKind::ReplApply, deployment).with_seq(seq));
                }
            }
        }
    }
    Ok(())
}

fn decode_updates(updates: &[(u64, Vec<f32>)]) -> Result<Vec<(usize, Vec<f32>)>, WireError> {
    updates
        .iter()
        .map(|(class, prototype)| {
            usize::try_from(*class)
                .map(|class| (class, prototype.clone()))
                .map_err(|_| {
                    WireError::Payload(PayloadError::ValueOverflow {
                        field: "class",
                        value: *class,
                    })
                })
        })
        .collect()
}
