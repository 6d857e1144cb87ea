//! Process harness for the recovery side: follower replicas and the
//! store-backed primaries they turn into, each on its own thread with a
//! stop switch — the same shape as the router crate's `ShardProcess`, so a
//! single binary can stand a whole self-healing cluster up and kill
//! members mid-run.

use crate::executor::RecoveryDriver;
use ofscil_obs::Obs;
use ofscil_serve::LearnerRegistry;
use ofscil_store::Store;
use ofscil_wire::harness::ServerThread;
use ofscil_wire::{BoundAddr, Follower, FollowerConfig, WireConfig, WireError, WireServer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A follower replica on its own thread: tails a primary, serves read-only
/// traffic, and (when configured with
/// [`FollowerConfig::with_advertise`]) announces itself to the router as a
/// promotion candidate.
#[derive(Debug)]
pub struct FollowerProcess {
    registry: Arc<LearnerRegistry>,
    server: ServerThread,
}

impl FollowerProcess {
    /// Boots the replica: binds its read-only server, starts the tails, and
    /// keeps serving until it is promoted or dropped.
    /// The registry is shared — the caller keeps an `Arc` clone to inspect
    /// replicated state.
    ///
    /// # Errors
    ///
    /// Returns the server's bind error when the replica never came up.
    pub fn spawn(
        registry: Arc<LearnerRegistry>,
        config: FollowerConfig,
    ) -> Result<Self, WireError> {
        let thread_registry = Arc::clone(&registry);
        let server = ServerThread::spawn("follower server", move |until_stopped| {
            Follower::run(&thread_registry, &config, |handle| {
                until_stopped.wait(handle.addr())
            })
        })?;
        Ok(FollowerProcess { registry, server })
    }

    /// The replica's own bound address — what it advertised to the router.
    pub fn addr(&self) -> &BoundAddr {
        self.server.addr()
    }

    /// Promotes the replica: stops the tail (the primary it followed is
    /// presumed dead), then boots a **writable** store-backed primary over
    /// the replicated registry via
    /// [`Follower::promote`] — bootstrapping `store_dir` so the
    /// new primary adopts the replica's sequence numbers and emits one
    /// `Promotion` event per deployment into `obs`.
    ///
    /// # Errors
    ///
    /// Returns the promoted server's bind or bootstrap error.
    pub(crate) fn promote(
        self,
        store_dir: &Path,
        obs: Option<Obs>,
    ) -> Result<PrimaryProcess, WireError> {
        self.server.stop();
        PrimaryProcess::spawn(self.registry, store_dir.to_path_buf(), obs, true)
    }
}

/// A writable, store-backed primary on its own thread — what a promotion
/// or a store restart produces. Serves on an ephemeral loopback TCP port
/// until stopped or dropped.
#[derive(Debug)]
pub struct PrimaryProcess(ServerThread);

impl PrimaryProcess {
    /// Restarts a shard from its durable store: recovers `store_dir` into
    /// `registry` (which must have the shard's deployments registered) and
    /// serves it writable and journaled.
    ///
    /// # Errors
    ///
    /// Returns the server's bind error or the store's recovery error.
    pub(crate) fn restart(
        registry: Arc<LearnerRegistry>,
        store_dir: &Path,
        obs: Option<Obs>,
    ) -> Result<Self, WireError> {
        PrimaryProcess::spawn(registry, store_dir.to_path_buf(), obs, false)
    }

    /// Common spawn path; `promoting` picks between
    /// [`Follower::promote`] (emits per-deployment `Promotion`
    /// events) and a plain bootstrap + observed serve (restart).
    fn spawn(
        registry: Arc<LearnerRegistry>,
        store_dir: PathBuf,
        obs: Option<Obs>,
        promoting: bool,
    ) -> Result<Self, WireError> {
        ServerThread::spawn("promoted primary", move |until_stopped| {
            let store = Store::open(&store_dir)
                .map_err(|error| WireError::Protocol(format!("store open failed: {error}")))?;
            let wire = WireConfig::tcp_loopback();
            if promoting {
                Follower::promote(&registry, &store, &wire, obs.as_ref(), |handle| {
                    until_stopped.wait(handle.addr())
                })
            } else {
                store.bootstrap(&registry).map_err(|error| {
                    WireError::Protocol(format!("restart bootstrap failed: {error}"))
                })?;
                WireServer::run_observed(&registry, &wire, Some(&store), obs.as_ref(), |handle| {
                    until_stopped.wait(handle.addr())
                })
            }
        })
        .map(PrimaryProcess)
    }

    /// The primary's bound address — what the ring slot gets re-pointed at.
    pub fn addr(&self) -> &BoundAddr {
        self.0.addr()
    }
}

/// Per-shard standby resources.
#[derive(Debug, Default)]
struct Standby {
    follower: Option<FollowerProcess>,
    /// The durable store directory and the registry a restart recovers it
    /// into (the dead shard's deployments registered).
    store: Option<(PathBuf, Arc<LearnerRegistry>)>,
}

/// The environment half of the control plane: owns each shard's standby
/// resources (an advertised follower replica, a durable store directory, a
/// standby registry) and turns [`Planner`](crate::Planner) decisions into
/// processes. Implements [`RecoveryDriver`], idempotently — a shard
/// promoted or restarted once hands the same address back on retries.
#[derive(Debug, Default)]
pub struct StandbyFleet {
    shards: HashMap<usize, Standby>,
    obs: Option<Obs>,
    /// The primaries brought up so far; kept alive here (dropping the fleet
    /// stops them).
    primaries: Vec<PrimaryProcess>,
    /// Idempotency map: shard → the address its recovery already produced.
    recovered: HashMap<usize, BoundAddr>,
}

impl StandbyFleet {
    /// An empty fleet whose spawned primaries record into `obs`.
    pub fn new(obs: Option<Obs>) -> StandbyFleet {
        StandbyFleet {
            obs,
            ..StandbyFleet::default()
        }
    }

    /// Registers `shard`'s follower replica (the promotion candidate).
    pub fn add_follower(&mut self, shard: usize, follower: FollowerProcess) {
        self.shards.entry(shard).or_default().follower = Some(follower);
    }

    /// Registers `shard`'s durable store directory — used to bootstrap a
    /// promotion and to recover a restart — and the standby registry a
    /// restart recovers it into, with the shard's deployments registered as
    /// at boot. A promotion serves the follower's own registry instead.
    pub fn add_store(
        &mut self,
        shard: usize,
        dir: impl Into<PathBuf>,
        registry: Arc<LearnerRegistry>,
    ) {
        self.shards.entry(shard).or_default().store = Some((dir.into(), registry));
    }

    /// How many primaries this fleet has brought up.
    pub fn recovered(&self) -> usize {
        self.primaries.len()
    }
}

impl RecoveryDriver for StandbyFleet {
    fn promote(&mut self, shard: usize, follower_addr: &str) -> Result<BoundAddr, String> {
        if let Some(addr) = self.recovered.get(&shard) {
            return Ok(addr.clone());
        }
        let standby = self
            .shards
            .get_mut(&shard)
            .ok_or_else(|| format!("no standby resources for shard {shard}"))?;
        let (dir, _) = standby
            .store
            .clone()
            .ok_or_else(|| format!("no store directory for shard {shard}"))?;
        let follower = standby
            .follower
            .take()
            .ok_or_else(|| format!("no follower registered for shard {shard}"))?;
        if follower.addr().to_string() != follower_addr {
            let actual = follower.addr().clone();
            standby.follower = Some(follower);
            return Err(format!(
                "shard {shard}'s registered follower is {actual}, not {follower_addr}"
            ));
        }
        let primary = follower
            .promote(&dir, self.obs.clone())
            .map_err(|error| format!("promotion failed: {error}"))?;
        let addr = primary.addr().clone();
        self.primaries.push(primary);
        self.recovered.insert(shard, addr.clone());
        Ok(addr)
    }

    fn restart(&mut self, shard: usize) -> Result<BoundAddr, String> {
        if let Some(addr) = self.recovered.get(&shard) {
            return Ok(addr.clone());
        }
        let standby = self
            .shards
            .get_mut(&shard)
            .ok_or_else(|| format!("no standby resources for shard {shard}"))?;
        let (dir, registry) = standby
            .store
            .clone()
            .ok_or_else(|| format!("no store directory for shard {shard}"))?;
        let primary = PrimaryProcess::restart(registry, &dir, self.obs.clone())
            .map_err(|error| format!("restart failed: {error}"))?;
        let addr = primary.addr().clone();
        self.primaries.push(primary);
        self.recovered.insert(shard, addr.clone());
        Ok(addr)
    }
}
