//! Backend-shard harness: run a [`WireServer`] on its own thread with a
//! stop switch.
//!
//! The wire and router layers are process-agnostic — everything crosses real
//! sockets — so tests, benches and examples stand a "backend process" up as
//! a dedicated thread owning its own [`LearnerRegistry`] and socket. The
//! same topology runs with actual OS processes by starting one
//! `WireServer` per process; this harness exists so a single binary can
//! spin a whole sharded cluster up and tear members down (including
//! mid-run, to exercise failover).

use ofscil_obs::Obs;
use ofscil_serve::LearnerRegistry;
use ofscil_store::Store;
use ofscil_wire::harness::ServerThread;
use ofscil_wire::{BoundAddr, WireConfig, WireError, WireServer};
use std::sync::Arc;

/// One backend shard: a [`WireServer`] over its own registry, running on a
/// dedicated thread until stopped (or dropped).
#[derive(Debug)]
pub struct ShardProcess(ServerThread);

impl ShardProcess {
    /// Boots a shard: binds the server, reports readiness, and keeps serving
    /// until [`ShardProcess::stop`] (or drop). The registry is shared —
    /// callers keep their own `Arc` clone to inspect or pre-load state.
    ///
    /// With an observability handle the shard's server records its serving
    /// events into the handle's store and answers `ObsQuery` requests from
    /// it. Handles are cheap clones over one shared store — the caller keeps
    /// its own to query directly.
    ///
    /// # Errors
    ///
    /// Returns the server's bind error when the shard never came up.
    pub fn spawn_observed(
        registry: Arc<LearnerRegistry>,
        config: WireConfig,
        obs: Option<Obs>,
    ) -> Result<Self, WireError> {
        ShardProcess::spawn_durable_observed(registry, config, None, obs)
    }

    /// Like [`ShardProcess::spawn_observed`], but additionally backed by a
    /// durable [`Store`]: commits are journaled, and with an observability
    /// handle attached the server also opens the store's obs spill log —
    /// rehydrating any previously spilled timeline before serving, writing
    /// sealed chunks through while serving. Kill this shard (drop or
    /// [`ShardProcess::stop`]) and respawn it over the same store directory
    /// with a *fresh* obs handle, and its timeline picks up where it left
    /// off — the restart-survival path the `router_obs` test exercises.
    ///
    /// The store is owned by the shard's thread for the server's lifetime,
    /// mirroring a real process owning its data directory. Call
    /// [`Store::bootstrap`](ofscil_store::Store::bootstrap) before handing
    /// the store in, exactly as with [`WireServer::run_observed`].
    ///
    /// # Errors
    ///
    /// Returns the server's bind (or spill-open) error when the shard never
    /// came up.
    pub fn spawn_durable_observed(
        registry: Arc<LearnerRegistry>,
        config: WireConfig,
        store: Option<Store>,
        obs: Option<Obs>,
    ) -> Result<Self, WireError> {
        ServerThread::spawn("shard server", move |until_stopped| {
            WireServer::run_observed(&registry, &config, store.as_ref(), obs.as_ref(), |handle| {
                until_stopped.wait(handle.addr())
            })
        })
        .map(ShardProcess)
    }

    /// The shard's bound wire address.
    pub fn addr(&self) -> &BoundAddr {
        self.0.addr()
    }

    /// Shuts the shard down and waits for its server to finish draining.
    /// After this returns, the address refuses connections — the way a test
    /// "kills" a shard to exercise `ShardUnavailable` failover.
    pub fn stop(self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_wire::WireClient;

    #[test]
    fn shard_boots_serves_and_stops() {
        let registry = Arc::new(LearnerRegistry::new());
        let shard =
            ShardProcess::spawn_observed(Arc::clone(&registry), WireConfig::tcp_loopback(), None)
                .unwrap();
        let addr = shard.addr().clone();
        // Reachable while up...
        let mut client = WireClient::connect(&addr).unwrap();
        let err = client
            .call(ofscil_serve::ServeRequest::Stats {
                deployment: "ghost".into(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            WireError::Remote(ofscil_serve::ServeError::UnknownDeployment(_))
        ));
        shard.stop();
        // ...and refusing connections after stop.
        assert!(WireClient::connect(&addr).is_err());
    }
}
