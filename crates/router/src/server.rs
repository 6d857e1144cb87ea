//! The client-facing router frontend and its admin handle.
//!
//! ```text
//!  clients ──wire frames──▶ RouterServer ──peek deployment──▶ hash ring
//!                               │                                │
//!                               │   forward frame verbatim       ▼
//!                               └──────▶ ShardPool ───▶ owning WireServer
//!
//!  RouterHandle: cluster_stats (scatter-gather), migrate / add_shard /
//!  drain_shard (live explicit-memory migration + atomic ring remap), probe
//! ```
//!
//! The router speaks the existing wire frame protocol on its own address, so
//! every [`WireClient`] works against it unchanged. Requests are **peeked**,
//! not decoded: the leading deployment string selects the owning shard and
//! the frame bytes are forwarded untouched, which keeps the routing hop free
//! of tensor deserialization and makes bit-exactness across the hop trivial.
//!
//! Placement = the consistent-hash ring plus a per-deployment location map.
//! The map starts as the pure ring assignment and is updated by migrations;
//! a migration exports the deployment's explicit memory from the source
//! shard (the PR 2 snapshot codec, bit-exact), imports it on the target, and
//! remaps the deployment — all under the placement write lock, so no request
//! can route against a half-moved deployment.

use crate::error::RouterError;
use crate::pool::{PoolConfig, ShardHealth, ShardPool};
use crate::ring::HashRing;
use crate::tail::{spawn_cluster_tail, stream_cluster_tail, ClusterTail};
use ofscil_obs::{Event, EventKind, EventSink, Obs, ObsCursor, ObsQuery, ObsResult};
use ofscil_serve::{DeploymentStats, ServeError, ServeRequest, ServeResponse};
use ofscil_store::OpLog;
use ofscil_tensor::bytes::{decode_exact, put_str, put_u64};
use ofscil_wire::codec::{decode_request, encode_response, WireRequest};
use ofscil_wire::{
    peek_request, read_frame_verbatim, BoundAddr, ShutdownOnDrop, VerbatimEvent, VerbatimFrame,
    WireBind, WireListener, WireResponse, WireStream, DEFAULT_MAX_PAYLOAD,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// How often blocked router loops wake to poll the shutdown flag.
pub(crate) const POLL: Duration = Duration::from_millis(20);

/// Virtual nodes per shard on the hash ring.
const VNODES: usize = 64;

/// Configuration of a [`RouterServer`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Where the router listens for clients.
    pub(crate) bind: WireBind,
    /// Backend shard addresses; index = shard id on the ring.
    pub shards: Vec<BoundAddr>,
    /// Deployments the router places and manages. Routing itself hashes any
    /// name, but migration, rebalancing and cluster statistics operate on
    /// this known set.
    pub deployments: Vec<String>,
    /// Connection-pool knobs (retries, backoff, cooldown).
    pub(crate) pool: PoolConfig,
    /// Path of the persistent placement journal. When set, every migration's
    /// placement override is appended as a checksummed record (the
    /// `ofscil_store` record codec), and a restarting router replays the
    /// journal to recover where migrated deployments live — the ring itself
    /// is deterministic from `shards`, so overrides are the only placement
    /// state worth persisting. `None` keeps placement in memory only.
    pub(crate) placement_log: Option<PathBuf>,
    /// Observability handle of the router itself. When set, migrations and
    /// circuit-breaker transitions are recorded as cluster events
    /// (`Migration`, `BreakerOpen`/`BreakerClose` under `shard:N`), and a
    /// scatter-gathered `ObsQuery` merges the router's own timeline into the
    /// per-shard results.
    pub obs: Option<Obs>,
}

impl RouterConfig {
    /// A router on an ephemeral loopback TCP port in front of `shards`.
    pub fn tcp_loopback(shards: Vec<BoundAddr>) -> Self {
        RouterConfig {
            bind: WireBind::Tcp("127.0.0.1:0".into()),
            shards,
            deployments: Vec::new(),
            pool: PoolConfig::default(),
            placement_log: None,
            obs: None,
        }
    }

    /// Sets the managed deployment set (builder style).
    #[must_use]
    pub fn with_deployments(mut self, deployments: &[&str]) -> Self {
        self.deployments = deployments.iter().map(|d| d.to_string()).collect();
        self
    }

    /// Sets the pool configuration (builder style).
    #[must_use]
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Persists the placement override map to a journal at `path` (builder
    /// style): migrations are appended as records, and a restarted router
    /// replays them so migrated deployments keep routing to their current
    /// shard.
    #[must_use]
    pub fn with_placement_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.placement_log = Some(path.into());
        self
    }

    /// Attaches an observability handle (builder style). Handles are cheap
    /// clones sharing one store, so the caller keeps its own copy to query.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::InvalidConfig`] when no shards are given.
    pub(crate) fn validate(&self) -> Result<(), RouterError> {
        if self.shards.is_empty() {
            return Err(RouterError::InvalidConfig(
                "a router needs at least one backend shard".into(),
            ));
        }
        Ok(())
    }
}

/// Where every deployment currently lives: the pure ring assignment,
/// overridden by migrations.
#[derive(Debug)]
pub(crate) struct Placement {
    pub(crate) ring: HashRing,
    /// Current shard of every *known* deployment. Starts as the ring
    /// assignment; migrations update it. Names outside the map fall back to
    /// the ring hash.
    pub(crate) location: HashMap<String, usize>,
}

impl Placement {
    fn shard_for(&self, deployment: &str) -> Result<usize, RouterError> {
        if let Some(&shard) = self.location.get(deployment) {
            return Ok(shard);
        }
        self.ring
            .shard_for(deployment)
            .ok_or(RouterError::EmptyRing)
    }
}

/// State shared between the accept loop, the admin handle and the detached
/// legs of a [`ClusterTail`] — hence behind an `Arc`, so tail legs can
/// outlive the connection thread that spawned them (they exit on their own
/// stop flag or on [`Shared::shutdown`]).
pub(crate) struct Shared {
    pub(crate) pool: ShardPool,
    pub(crate) placement: RwLock<Placement>,
    /// The persistent placement journal, when configured: one override
    /// record per migration, replayed at startup.
    pub(crate) placement_log: Option<Mutex<OpLog>>,
    /// The router's own observability handle, when configured.
    pub(crate) obs: Option<Obs>,
    /// Follower addresses advertised per shard id — the promotion
    /// candidates a control plane reads. Populated by `AdvertiseFollower`
    /// frames; cleared for a shard when its id is re-pointed at a new
    /// primary.
    pub(crate) followers: Mutex<HashMap<usize, Vec<String>>>,
    /// Raised when the routing session ends; every blocked loop (accept,
    /// connection reads, tail legs) polls it within [`POLL`].
    pub(crate) shutdown: AtomicBool,
}

/// Record kind of a placement override in the journal.
const PLACEMENT_KIND_OVERRIDE: u8 = 0x01;

/// Body of a placement-journal override record: deployment string (u32 LE
/// length + UTF-8 bytes) followed by the owning shard id (u64 LE).
pub fn encode_override(deployment: &str, shard: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(12 + deployment.len());
    put_str(&mut body, deployment);
    put_u64(&mut body, shard as u64);
    body
}

/// Inverse of [`encode_override`]; `None` for malformed bodies (skipped on
/// replay — the journal's per-record checksum already filtered corruption,
/// so this only guards against foreign records).
pub fn decode_override(body: &[u8]) -> Option<(String, usize)> {
    decode_exact(body, |r| Ok((r.str()?, r.usize("shard")?))).ok()
}

/// Appends one override record to the journal, if one is configured.
fn journal_override(
    placement_log: Option<&Mutex<OpLog>>,
    deployment: &str,
    shard: usize,
) -> Result<(), RouterError> {
    if let Some(log) = placement_log {
        log.lock()
            .expect("placement log poisoned")
            .append(PLACEMENT_KIND_OVERRIDE, &encode_override(deployment, shard))
            .map_err(|e| RouterError::PlacementLog(e.to_string()))?;
    }
    Ok(())
}

/// One shard's slice of a scatter-gathered cluster statistics read.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard id.
    pub shard: usize,
    /// The shard's wire address.
    pub addr: BoundAddr,
    /// Statistics of every managed deployment this shard currently owns.
    pub deployments: Vec<DeploymentStats>,
    /// `false` when the shard could not be reached at all (dead process,
    /// open circuit breaker) — the gather then carries whatever the live
    /// shards returned, with this one explicitly marked instead of the
    /// whole read failing. A shard that answered but *refused* a request
    /// stays `true` (see [`ShardStats::error`]).
    pub reachable: bool,
    /// Set when the shard could not be queried; `deployments` is then
    /// whatever was gathered before the failure.
    pub error: Option<String>,
    /// Events ever appended to the shard's observability store. Zero when
    /// the shard has observability disabled (or could not be asked).
    pub(crate) obs_events: u64,
    /// Events the shard's bounded observability sink shed under overload —
    /// the load-shedding honesty counter, surfaced per shard so a control
    /// plane can see *which* member is dropping its own telemetry. Zero when
    /// observability is disabled.
    pub obs_dropped: u64,
    /// Median inference latency in microseconds, read from the shard's
    /// store-lifetime log-bucketed histogram (reported at the bucket's
    /// upper bound). Zero when observability is disabled or no inference
    /// was ever recorded.
    pub infer_p50_us: u64,
    /// 99th-percentile inference latency, from the same histogram.
    pub(crate) infer_p99_us: u64,
}

/// What one live migration did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated deployment.
    pub deployment: String,
    /// Shard the state was exported from.
    pub from: usize,
    /// Shard the state now lives on.
    pub to: usize,
    /// Replication sequence number the moved snapshot was taken at.
    pub seq: u64,
    /// Classes restored on the target.
    pub classes: u64,
}

/// Handle the body of [`RouterServer::run`] receives: the bound address plus
/// the cluster-admin operations (probing, scatter-gather statistics, live
/// migration, ring membership).
pub struct RouterHandle<'a> {
    addr: BoundAddr,
    shared: &'a Arc<Shared>,
}

impl RouterHandle<'_> {
    /// The router's client-facing address — point any
    /// [`WireClient`](ofscil_wire::WireClient) here.
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// The shard currently serving `deployment`.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::EmptyRing`] when every shard was drained.
    pub fn shard_for(&self, deployment: &str) -> Result<usize, RouterError> {
        self.shared
            .placement
            .read()
            .expect("placement lock poisoned")
            .shard_for(deployment)
    }

    /// Actively probes every shard (one fresh connection each). A healthy
    /// probe clears a shard's failure cooldown early.
    pub fn probe(&self) -> Vec<ShardHealth> {
        self.shared.pool.probe_all()
    }

    /// How long a shard's circuit breaker has been open (`None` while
    /// closed) — see `ShardPool::breaker_dwell`. The hysteresis input a
    /// control plane compares against its promotion threshold.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] for out-of-range ids.
    pub fn breaker_dwell(&self, shard: usize) -> Result<Option<Duration>, RouterError> {
        self.shared.pool.breaker_dwell(shard)
    }

    /// The wire address a shard id currently points at.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] for out-of-range ids.
    pub fn shard_addr(&self, shard: usize) -> Result<BoundAddr, RouterError> {
        self.shared.pool.addr(shard)
    }

    /// Sorted names of the deployments the router manages (the placement
    /// map's keys — routing itself hashes any name).
    pub fn deployments(&self) -> Vec<String> {
        let placement = self
            .shared
            .placement
            .read()
            .expect("placement lock poisoned");
        let mut names: Vec<String> = placement.location.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Follower addresses advertised for a shard (sorted), as received via
    /// `AdvertiseFollower` frames — the promotion candidates a control plane
    /// picks from when the shard's breaker stays open.
    pub fn followers(&self, shard: usize) -> Vec<String> {
        let followers = self
            .shared
            .followers
            .lock()
            .expect("follower registry poisoned");
        let mut list = followers.get(&shard).cloned().unwrap_or_default();
        list.sort_unstable();
        list
    }

    /// Re-points a shard id at a new primary address — the failover edge
    /// after a follower promotion. The pool slot is replaced (idle
    /// connections to the dead primary dropped, breaker state reset so
    /// traffic tries the new address immediately) and the shard's advertised
    /// followers are cleared: the promoted one is the primary now and any
    /// siblings were tailing a corpse.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] for out-of-range ids.
    pub fn replace_shard(&self, shard: usize, addr: BoundAddr) -> Result<(), RouterError> {
        self.shared.pool.replace_addr(shard, addr)?;
        self.shared
            .followers
            .lock()
            .expect("follower registry poisoned")
            .remove(&shard);
        Ok(())
    }

    /// Runs an observability query through the router's scatter-gather path
    /// in process — every ring shard plus the router's own store, merged
    /// time-ordered — without a socket round trip. What a co-located control
    /// plane watches the cluster through.
    pub fn obs_query(&self, query: &ofscil_obs::ObsQuery) -> ObsResult {
        obs_scatter_query(self.shared, query)
    }

    /// Opens a **cluster-wide live tail** in process: one subscription
    /// multiplexed into per-shard legs, advertised-follower legs and the
    /// router's own store, merged into a single stream of batches. Each leg
    /// keeps its own resume cursor and resubscribes when its shard dies or
    /// is re-pointed ([`RouterHandle::replace_shard`]), so the stream
    /// survives kill/restart gap-free. Pass `cursor` to resume a previous
    /// cluster tail; back-fill then starts strictly after it on every leg.
    ///
    /// This is the push path a co-located control plane maintains its
    /// trailing rates from, instead of issuing a windowed query every tick.
    pub fn cluster_tail(&self, query: &ObsQuery, cursor: Option<ObsCursor>) -> ClusterTail {
        spawn_cluster_tail(Arc::clone(self.shared), query.clone(), cursor)
    }

    /// Emits one event into the router's own observability store, if one is
    /// attached (no-op otherwise) — how a control plane stamps the actions
    /// it takes into the same timeline a routed `ObsQuery` reconstructs.
    pub fn observe(&self, event: Event) {
        if let Some(obs) = &self.shared.obs {
            obs.sink().emit(event);
        }
    }

    /// Scatter-gather statistics: every shard is queried concurrently for
    /// the managed deployments it currently owns, and the per-shard slices
    /// are gathered in shard order. An unreachable shard yields its error in
    /// [`ShardStats::error`] instead of failing the whole read.
    pub fn cluster_stats(&self) -> Vec<ShardStats> {
        // Snapshot the placement, then release the lock before any network
        // work: the scatter must not block routing.
        let mut by_shard: HashMap<usize, Vec<String>> = HashMap::new();
        let shard_ids = {
            let placement = self
                .shared
                .placement
                .read()
                .expect("placement lock poisoned");
            for name in placement.location.keys() {
                if let Ok(shard) = placement.shard_for(name) {
                    by_shard.entry(shard).or_default().push(name.clone());
                }
            }
            placement.ring.shard_ids()
        };
        let pool = &self.shared.pool;
        let mut slices: Vec<ShardStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_ids
                .iter()
                .map(|&shard| {
                    let mut names = by_shard.remove(&shard).unwrap_or_default();
                    names.sort_unstable();
                    scope.spawn(move || gather_shard_stats(pool, shard, &names))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("stats gather thread panicked"))
                .collect()
        });
        slices.sort_by_key(|slice| slice.shard);
        slices
    }

    /// Live-migrates one deployment to `target`: exports the explicit memory
    /// from the current owner (bit-exact snapshot codec), imports it on the
    /// target, and atomically remaps the deployment — all under the
    /// placement write lock, so no request routes against a half-moved
    /// deployment.
    ///
    /// Holding the lock across the export/import round trips deliberately
    /// pauses **all** routing for the duration of the move (normally
    /// single-digit milliseconds — the explicit memory is kilobytes). This
    /// is what shrinks the lost-write window to requests already in flight
    /// when the export snapshot is cut; a hung target can stretch the pause,
    /// so migrate onto shards a [`probe`](RouterHandle::probe) reports
    /// healthy.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] for bad targets,
    /// [`RouterError::InvalidConfig`] when the deployment already lives on
    /// `target`, [`RouterError::ShardUnavailable`] when either side cannot
    /// be reached, and [`RouterError::Remote`] when a shard refused (e.g.
    /// the deployment is not registered on the target).
    pub fn migrate(&self, deployment: &str, target: usize) -> Result<MigrationReport, RouterError> {
        let mut placement = self
            .shared
            .placement
            .write()
            .expect("placement lock poisoned");
        if target >= self.shared.pool.len() {
            return Err(RouterError::UnknownShard(target));
        }
        let from = placement.shard_for(deployment)?;
        if from == target {
            return Err(RouterError::InvalidConfig(format!(
                "deployment {deployment:?} already lives on shard {target}"
            )));
        }
        let report = migrate_locked(
            &self.shared.pool,
            &mut placement,
            self.shared.placement_log.as_ref(),
            self.shared.obs.as_ref().map(|o| o.sink()),
            deployment,
            from,
            target,
        )?;
        Ok(report)
    }

    /// Adds a backend shard and rebalances: every managed deployment whose
    /// ring assignment moved onto the new shard is live-migrated there.
    /// Returns the new shard id and the migrations performed.
    ///
    /// # Errors
    ///
    /// Returns a pool or shard error when a migration fails; deployments
    /// already moved stay moved (placement remains consistent), the rest
    /// keep their old shard.
    pub fn add_shard(&self, addr: BoundAddr) -> Result<(usize, Vec<MigrationReport>), RouterError> {
        let mut placement = self
            .shared
            .placement
            .write()
            .expect("placement lock poisoned");
        let pool_id = self.shared.pool.add_shard(addr);
        let ring_id = placement.ring.add_shard();
        debug_assert_eq!(pool_id, ring_id, "pool and ring ids must stay aligned");
        let moves = rebalance_locked(
            &self.shared.pool,
            &mut placement,
            self.shared.placement_log.as_ref(),
            self.shared.obs.as_ref().map(|o| o.sink()),
        )?;
        Ok((ring_id, moves))
    }

    /// Drains a shard: removes it from the ring and live-migrates every
    /// managed deployment it owned to the deployment's new ring assignment.
    /// The drained shard keeps its id (never recycled) but receives no
    /// further traffic. Returns the migrations performed.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] when the id is neither on the
    /// ring nor hosting stranded deployments, [`RouterError::InvalidConfig`]
    /// when it is the last ring shard, and a pool or shard error when a
    /// migration fails. A partial failure leaves the ring removal standing
    /// and the unmigrated deployments routing to the drained shard;
    /// **retrying** `drain_shard` on the same id resumes moving whatever is
    /// still stranded.
    pub fn drain_shard(&self, shard: usize) -> Result<Vec<MigrationReport>, RouterError> {
        let mut placement = self
            .shared
            .placement
            .write()
            .expect("placement lock poisoned");
        if placement.ring.contains(shard) {
            if placement.ring.len() <= 1 {
                return Err(RouterError::InvalidConfig(
                    "cannot drain the last shard on the ring".into(),
                ));
            }
            placement.ring.remove_shard(shard);
        } else if !placement.location.values().any(|&s| s == shard) {
            return Err(RouterError::UnknownShard(shard));
        }
        // A re-drain after a partially-failed attempt lands here with the
        // ring already updated; the rebalance moves what is still stranded.
        rebalance_locked(
            &self.shared.pool,
            &mut placement,
            self.shared.placement_log.as_ref(),
            self.shared.obs.as_ref().map(|o| o.sink()),
        )
    }
}

/// Queries one shard for the statistics of the given deployments.
///
/// A transport failure marks the slice `reachable: false` and returns the
/// partial gather instead of failing the whole cluster read; a shard that
/// answered with a refusal keeps `reachable: true` with the refusal in
/// `error`. A shard owning no managed deployments is actively probed —
/// otherwise a dead but empty shard would report as healthy purely because
/// nothing asked it anything.
fn gather_shard_stats(pool: &ShardPool, shard: usize, names: &[String]) -> ShardStats {
    let addr = pool.addr(shard).expect("shard id from the ring");
    let mut stats = ShardStats {
        shard,
        addr,
        deployments: Vec::new(),
        reachable: true,
        error: None,
        obs_events: 0,
        obs_dropped: 0,
        infer_p50_us: 0,
        infer_p99_us: 0,
    };
    if names.is_empty() {
        if let Ok(health) = pool.probe(shard) {
            if !health.healthy {
                stats.reachable = false;
                stats.error = Some(
                    health
                        .last_error
                        .unwrap_or_else(|| "probe failed".to_string()),
                );
            }
        }
        gather_obs_counters(pool, shard, &mut stats);
        return stats;
    }
    for name in names {
        let result = pool.with_conn(shard, true, |conn| {
            conn.call(ServeRequest::Stats {
                deployment: name.clone(),
            })
        });
        match result {
            Ok(ServeResponse::Stats(s)) => stats.deployments.push(s),
            Ok(other) => {
                stats.error = Some(format!("unexpected stats response: {other:?}"));
                break;
            }
            Err(RouterError::Remote(e)) => {
                stats.error = Some(e.to_string());
                break;
            }
            Err(e) => {
                stats.reachable = false;
                stats.error = Some(e.to_string());
                break;
            }
        }
    }
    if stats.reachable {
        gather_obs_counters(pool, shard, &mut stats);
    }
    stats
}

/// Fills a slice's observability counters with one cheap probe query: zero
/// event limit and an empty time window, so the shard answers only its
/// `appended`/`dropped` totals — plus the store-lifetime inference latency
/// histogram riding on every result (the kind filter scopes it to `Infer`)
/// — without scanning a single chunk. A shard without observability (typed
/// refusal) or out of reach keeps the zeros — the counters are telemetry
/// about telemetry, never worth failing a cluster read over.
fn gather_obs_counters(pool: &ShardPool, shard: usize, stats: &mut ShardStats) {
    let probe = ofscil_obs::ObsQuery::all()
        .with_kinds(&[EventKind::Infer])
        .with_limit(0)
        .with_time_range(u64::MAX, u64::MAX);
    if let Ok(result) = pool.with_conn(shard, true, |conn| conn.obs_query(&probe)) {
        stats.obs_events = result.appended;
        stats.obs_dropped = result.dropped;
        if result.latency_hist.total() > 0 {
            stats.infer_p50_us = result.latency_hist.p50_us();
            stats.infer_p99_us = result.latency_hist.p99_us();
        }
    }
}

/// Export → import → remap, with the placement write lock already held. The
/// remap is journaled before it is applied, so a router restarted after the
/// append routes the deployment to its new shard (an append that lands
/// without the in-memory remap is re-applied identically on replay).
fn migrate_locked(
    pool: &ShardPool,
    placement: &mut Placement,
    placement_log: Option<&Mutex<OpLog>>,
    obs: Option<&EventSink>,
    deployment: &str,
    from: usize,
    to: usize,
) -> Result<MigrationReport, RouterError> {
    let started = obs.map(|_| std::time::Instant::now());
    let export = pool.with_conn(from, true, |conn| conn.export(deployment))?;
    // Import mutates the target: never replayed on an ambiguous failure.
    let classes = pool.with_conn(to, false, |conn| conn.import(&export))?;
    journal_override(placement_log, deployment, to)?;
    placement.location.insert(deployment.to_string(), to);
    if let (Some(obs), Some(started)) = (obs, started) {
        // The cluster event that later explains a tenant's timeline split:
        // its seq is the snapshot the move was cut at, its latency the
        // routing pause the migration imposed.
        obs.emit(
            Event::new(EventKind::Migration, deployment)
                .with_seq(export.seq)
                .with_latency_us(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64),
        );
    }
    Ok(MigrationReport {
        deployment: deployment.to_string(),
        from,
        to,
        seq: export.seq,
        classes,
    })
}

/// Moves every managed deployment whose current location disagrees with its
/// ring assignment. Used by both shard addition (keys move *onto* the new
/// shard) and draining (keys move *off* the removed shard).
fn rebalance_locked(
    pool: &ShardPool,
    placement: &mut Placement,
    placement_log: Option<&Mutex<OpLog>>,
    obs: Option<&EventSink>,
) -> Result<Vec<MigrationReport>, RouterError> {
    let mut names: Vec<String> = placement.location.keys().cloned().collect();
    names.sort_unstable();
    let mut moves = Vec::new();
    for name in names {
        let current = placement.location[&name];
        let target = placement
            .ring
            .shard_for(&name)
            .ok_or(RouterError::EmptyRing)?;
        if target != current {
            moves.push(migrate_locked(
                pool,
                placement,
                placement_log,
                obs,
                &name,
                current,
                target,
            )?);
        }
    }
    Ok(moves)
}

/// The client-facing sharding router: binds a wire-frame listener, routes
/// for exactly the duration of the body, then tears down deterministically.
#[derive(Debug)]
pub struct RouterServer;

impl RouterServer {
    /// Runs a routing session. The listener, the shard pools and every
    /// connection thread live for exactly the duration of `body`, which
    /// receives the [`RouterHandle`] carrying the bound address and the
    /// admin operations.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::InvalidConfig`] for bad configurations and a
    /// wire error when binding fails.
    pub fn run<T, F>(config: &RouterConfig, body: F) -> Result<T, RouterError>
    where
        F: for<'a> FnOnce(&RouterHandle<'a>) -> T,
    {
        config.validate()?;
        let ring = HashRing::new(config.shards.len(), VNODES);
        let mut location: HashMap<String, usize> = config
            .deployments
            .iter()
            .map(|name| {
                let shard = ring.shard_for(name).expect("validated non-empty ring");
                (name.clone(), shard)
            })
            .collect();
        // Replay the placement journal over the pure ring assignment: each
        // surviving override record re-points a migrated deployment at the
        // shard that actually holds its explicit memory. Overrides naming
        // shards outside the configured set are stale and skipped.
        let placement_log = match &config.placement_log {
            Some(path) => {
                let (log, records) =
                    OpLog::open(path).map_err(|e| RouterError::PlacementLog(e.to_string()))?;
                for (kind, body) in records {
                    if kind != PLACEMENT_KIND_OVERRIDE {
                        continue;
                    }
                    if let Some((name, shard)) = decode_override(&body) {
                        if shard < config.shards.len() {
                            location.insert(name, shard);
                        }
                    }
                }
                Some(Mutex::new(log))
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            pool: ShardPool::new_observed(
                config.shards.clone(),
                config.pool.clone(),
                config.obs.as_ref().map(|o| o.sink().clone()),
            ),
            placement: RwLock::new(Placement { ring, location }),
            placement_log,
            obs: config.obs.clone(),
            followers: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });

        let (listener, addr) = WireListener::bind(&config.bind)?;

        let value = std::thread::scope(|scope| {
            let shared_ref = &shared;
            scope.spawn(move || {
                listener.serve_connections(scope, &shared_ref.shutdown, POLL, move |stream| {
                    serve_connection(stream, shared_ref);
                });
            });

            let handle = RouterHandle {
                addr: addr.clone(),
                shared: &shared,
            };
            let _shutdown_on_exit = ShutdownOnDrop::new(&shared.shutdown);
            body(&handle)
            // The guard raises the flag on return *and* on panic; the scope
            // then joins the accept loop and every connection thread, all of
            // which poll the flag within `POLL`. Detached cluster-tail legs
            // also poll it, but hold their own `Arc` and need no join.
        });

        #[cfg(unix)]
        if let BoundAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        Ok(value)
    }
}

/// Serves one client connection: read a frame, pick the shard, forward the
/// frame verbatim, relay the answer. A cluster-tail subscription instead
/// hands the connection off into an open-ended merged stream.
fn serve_connection(mut stream: WireStream, shared: &Arc<Shared>) {
    loop {
        let frame =
            match read_frame_verbatim(&mut stream, DEFAULT_MAX_PAYLOAD, Some(&shared.shutdown)) {
                Ok(VerbatimEvent::Frame(frame)) => frame,
                Ok(VerbatimEvent::Eof | VerbatimEvent::Shutdown) | Err(_) => return,
            };
        // An observability subscription turns the connection into a stream
        // of merged tail batches — it never comes back to the one-reply
        // routing cycle, so it is dispatched before `route_one`.
        if let Ok(peek) = peek_request(frame.kind, frame.payload()) {
            if peek.obs_tail {
                stream_cluster_tail(stream, shared, &frame);
                return;
            }
        }
        let reply = route_one(shared, &frame);
        if stream.write_all(&reply).is_err() {
            return;
        }
    }
}

/// Routes a single request frame and returns the reply frame bytes. Both
/// directions relay the already-validated frame bytes untouched — no
/// payload copy, no checksum recomputation on the hot path.
fn route_one(shared: &Shared, frame: &VerbatimFrame) -> Vec<u8> {
    let peek = match peek_request(frame.kind, frame.payload()) {
        Ok(peek) => peek,
        Err(e) => {
            return encode_response(&WireResponse::Error(ServeError::InvalidRequest(format!(
                "unroutable request: {e}"
            ))));
        }
    };
    if peek.scatter {
        // An observability query is the one request that is *not* owned by a
        // single shard: a deployment's timeline may span several after a
        // migration. Fan it out and stitch the answers back together.
        return obs_scatter(shared, frame);
    }
    if peek.advertise {
        // A follower announcing itself is addressed to the router, not to
        // any shard: record the candidate and answer directly.
        return register_follower(shared, frame);
    }
    let shard = {
        let placement = shared.placement.read().expect("placement lock poisoned");
        match placement.shard_for(&peek.deployment) {
            Ok(shard) => shard,
            Err(e) => return encode_response(&WireResponse::Error(e.to_serve_error())),
        }
    };
    if peek.streaming {
        // A subscription turns the connection into an open-ended stream; the
        // router's pooled request/response connections cannot carry that.
        // Point the subscriber at the owning shard instead.
        let addr = shared
            .pool
            .addr(shard)
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".into());
        return encode_response(&WireResponse::Error(ServeError::InvalidRequest(format!(
            "replication subscriptions are not proxied; subscribe to the owning shard \
             {shard} directly at {addr}"
        ))));
    }
    // Reads may retry once on a fresh connection when a pooled one went
    // stale; writes must not be replayed (the shard may have applied them).
    match shared
        .pool
        .with_conn(shard, !peek.write, |conn| conn.forward_frame(&frame.bytes))
    {
        Ok(reply) => reply,
        Err(e) => encode_response(&WireResponse::Error(e.to_serve_error())),
    }
}

/// Records a follower advertisement in the router's follower registry: the
/// advertised upstream address is matched against the shard table (by its
/// canonical `BoundAddr` display form) and the follower's address stored
/// under that shard id, deduplicated. An upstream the router does not front
/// is a typed refusal — the follower was pointed at the wrong cluster.
fn register_follower(shared: &Shared, frame: &VerbatimFrame) -> Vec<u8> {
    let (upstream, follower) = match decode_request(frame.kind, frame.payload()) {
        Ok(WireRequest::AdvertiseFollower { upstream, follower }) => (upstream, follower),
        _ => {
            return encode_response(&WireResponse::Error(ServeError::InvalidRequest(
                "undecodable follower advertisement".into(),
            )));
        }
    };
    let shard = (0..shared.pool.len()).find(|&shard| {
        shared
            .pool
            .addr(shard)
            .map(|addr| addr.to_string() == upstream)
            .unwrap_or(false)
    });
    let Some(shard) = shard else {
        return encode_response(&WireResponse::Error(ServeError::InvalidRequest(format!(
            "advertised upstream {upstream:?} is not a shard of this router"
        ))));
    };
    let mut followers = shared.followers.lock().expect("follower registry poisoned");
    let entry = followers.entry(shard).or_default();
    if !entry.contains(&follower) {
        entry.push(follower);
    }
    encode_response(&WireResponse::Advertised {
        registered: entry.len() as u64,
    })
}

/// Scatter-gathers one observability query across every ring shard and the
/// router's own event store, merging the slices into a single time-ordered
/// timeline. Shards that cannot be reached (or have observability disabled)
/// are counted in [`ObsResult::shards_err`] instead of failing the query —
/// a partially-observable cluster still answers with what it has.
fn obs_scatter(shared: &Shared, frame: &VerbatimFrame) -> Vec<u8> {
    let query = match decode_request(frame.kind, frame.payload()) {
        Ok(WireRequest::ObsQuery(query)) => query,
        _ => {
            return encode_response(&WireResponse::Error(ServeError::InvalidRequest(
                "undecodable observability query".into(),
            )));
        }
    };
    encode_response(&WireResponse::Obs(Box::new(obs_scatter_query(
        shared, &query,
    ))))
}

/// The scatter itself, on a decoded query — shared between the wire path
/// above and [`RouterHandle::obs_query`] (the in-process path a co-located
/// control plane reads the cluster through without a socket round trip).
///
/// Beyond the ring shards, every *advertised follower* gets its own leg: a
/// replica runs its own event store (replication applies, resyncs), and
/// those rows belong in the same merged timeline — replication lag is
/// invisible if only primaries are asked. Follower addresses arrive as
/// display strings over `AdvertiseFollower`, so each leg re-parses with
/// [`BoundAddr::parse`] and dials a fresh connection (followers are not
/// ring members and have no pooled slot); an unparsable or unreachable
/// follower counts in [`ObsResult::shards_err`] like a dead shard.
fn obs_scatter_query(shared: &Shared, query: &ofscil_obs::ObsQuery) -> ObsResult {
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
    let pool = &shared.pool;
    let results: Vec<Result<ObsResult, RouterError>> = std::thread::scope(|scope| {
        let shard_handles: Vec<_> = shard_ids
            .iter()
            .map(|&shard| {
                scope.spawn(move || pool.with_conn(shard, true, |conn| conn.obs_query(query)))
            })
            .collect();
        let follower_handles: Vec<_> = follower_addrs
            .iter()
            .map(|advertised| scope.spawn(move || query_follower_obs(advertised, query)))
            .collect();
        shard_handles
            .into_iter()
            .chain(follower_handles)
            .map(|handle| handle.join().expect("obs scatter thread panicked"))
            .collect()
    });
    let mut shards_ok: u32 = 0;
    let mut shards_err: u32 = 0;
    let mut parts = Vec::new();
    for result in results {
        match result {
            Ok(part) => {
                shards_ok += 1;
                parts.push(part);
            }
            Err(_) => shards_err += 1,
        }
    }
    if let Some(obs) = &shared.obs {
        // The router's own timeline carries the cluster events (migrations,
        // breaker transitions, control-plane decisions) that explain the
        // per-shard slices. Its source counters are zeroed so only real
        // shards count in the totals below.
        let mut local = obs.query(query);
        local.shards_ok = 0;
        local.shards_err = 0;
        parts.push(local);
    }
    let mut merged = ObsResult::merge(parts, query.limit as usize);
    merged.shards_ok = shards_ok;
    merged.shards_err = shards_err;
    merged
}

/// One follower leg of the observability scatter: re-parse the advertised
/// display string, dial a fresh connection (followers have no pooled slot),
/// and run the query.
fn query_follower_obs(
    advertised: &str,
    query: &ofscil_obs::ObsQuery,
) -> Result<ObsResult, RouterError> {
    let addr = BoundAddr::parse(advertised).ok_or_else(|| {
        RouterError::InvalidConfig(format!("unparsable follower address {advertised:?}"))
    })?;
    let mut client = ofscil_wire::WireClient::connect(&addr)?;
    Ok(client.obs_query(query)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_zero_knobs() {
        assert!(matches!(
            RouterConfig::tcp_loopback(vec![]).validate().unwrap_err(),
            RouterError::InvalidConfig(_)
        ));
        let addr = BoundAddr::Tcp("127.0.0.1:1".parse().unwrap());
        RouterConfig::tcp_loopback(vec![addr]).validate().unwrap();
    }

    #[test]
    fn placement_override_records_roundtrip() {
        let body = encode_override("tenant-a", 3);
        assert_eq!(decode_override(&body), Some(("tenant-a".into(), 3)));
        assert!(decode_override(&body[..body.len() - 1]).is_none());
        assert!(decode_override(&[]).is_none());
        let empty = encode_override("", 0);
        assert_eq!(decode_override(&empty), Some((String::new(), 0)));
    }

    #[test]
    fn placement_journal_replays_overrides_across_restarts() {
        let mut path = std::env::temp_dir();
        path.push(format!("ofscil-placement-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            log.append(PLACEMENT_KIND_OVERRIDE, &encode_override("tenant-a", 2))
                .unwrap();
            log.append(PLACEMENT_KIND_OVERRIDE, &encode_override("tenant-a", 1))
                .unwrap();
            // Stale override pointing past the configured shard set.
            log.append(PLACEMENT_KIND_OVERRIDE, &encode_override("tenant-b", 99))
                .unwrap();
        }
        // Replay exactly as RouterServer::run does.
        let (_, records) = OpLog::open(&path).unwrap();
        let shards = 3usize;
        let mut location: HashMap<String, usize> = HashMap::new();
        for (kind, body) in records {
            if kind != PLACEMENT_KIND_OVERRIDE {
                continue;
            }
            if let Some((name, shard)) = decode_override(&body) {
                if shard < shards {
                    location.insert(name, shard);
                }
            }
        }
        // Last override wins; out-of-range shards are skipped.
        assert_eq!(location.get("tenant-a"), Some(&1));
        assert_eq!(location.get("tenant-b"), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn placement_prefers_migrated_locations_over_the_ring() {
        let ring = HashRing::new(3, 64);
        let home = ring.shard_for("tenant-a").unwrap();
        let elsewhere = (home + 1) % 3;
        let mut placement = Placement {
            ring,
            location: HashMap::new(),
        };
        assert_eq!(placement.shard_for("tenant-a").unwrap(), home);
        placement.location.insert("tenant-a".into(), elsewhere);
        assert_eq!(placement.shard_for("tenant-a").unwrap(), elsewhere);
        // Unknown names still hash onto the ring.
        assert!(placement.shard_for("never-registered").is_ok());
    }
}
