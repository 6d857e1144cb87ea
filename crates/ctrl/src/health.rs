//! The cluster health model: what one control tick sees.
//!
//! A [`ClusterSnapshot`] is plain data — the planner consumes nothing else,
//! which is what makes every policy decision unit-testable without sockets.
//! [`ClusterSnapshot::assemble`] is the one function that talks to a live
//! cluster, fusing three signals the router already exposes:
//!
//! * scatter-gathered [`cluster_stats`](RouterHandle::cluster_stats) — which
//!   shard owns which deployment, and who answered at all,
//! * per-shard [`breaker_dwell`](RouterHandle::breaker_dwell) — how long a
//!   breaker has been continuously open (the debounced death signal),
//! * per-deployment trailing [`DeploymentRate`]s — who is actually hot
//!   *right now*, rather than since process start. The controller
//!   maintains these incrementally from a streamed cluster tail
//!   ([`RateFeed`](crate::RateFeed)).

use ofscil_obs::DeploymentRate;
use ofscil_router::RouterHandle;
use std::time::Duration;

/// One deployment's trailing-window load, attributed to the shard that
/// currently serves it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentLoad {
    /// Deployment name.
    pub name: String,
    /// `Infer` + `Learn` events observed inside the trailing window.
    pub requests: u64,
    /// Energy those events spent, in millijoules.
    pub energy_mj: f64,
}

/// One shard's slice of a control tick's observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Shard id.
    pub shard: usize,
    /// Whether the scatter-gather could reach the shard at all.
    pub reachable: bool,
    /// How long the shard's circuit breaker has been continuously open
    /// (`None` while closed). The planner's recovery trigger — `reachable`
    /// alone flaps on a single lost request, the dwell does not.
    pub breaker_dwell: Option<Duration>,
    /// Follower addresses advertised for this shard (promotion candidates).
    pub followers: Vec<String>,
    /// The managed deployments this shard currently owns, with their
    /// trailing-window load (zero for deployments the window saw nothing
    /// from).
    pub deployments: Vec<DeploymentLoad>,
}

impl ShardState {
    /// Total trailing-window requests across the shard's deployments — the
    /// load number the rebalance policy compares.
    pub fn load(&self) -> u64 {
        self.deployments.iter().map(|d| d.requests).sum()
    }
}

/// Everything the planner sees for one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// The controller tick this snapshot was taken on (the planner's clock
    /// for cooldown accounting).
    pub tick: u64,
    /// Per-shard state, in shard-id order.
    pub shards: Vec<ShardState>,
}

impl ClusterSnapshot {
    /// Fuses already-computed trailing rates with a live stats read: one
    /// scatter-gathered stats pass and a breaker/follower-registry read per
    /// shard. An unreachable shard contributes an empty deployment list —
    /// recovery planning needs only its dwell. The rates come from the
    /// controller's [`RateFeed`](crate::RateFeed).
    pub(crate) fn assemble(
        router: &RouterHandle<'_>,
        tick: u64,
        rates: &[DeploymentRate],
    ) -> ClusterSnapshot {
        let shards = router
            .cluster_stats()
            .into_iter()
            .map(|slice| {
                let deployments = slice
                    .deployments
                    .iter()
                    .map(|stats| {
                        let rate = rates.iter().find(|r| r.deployment == stats.name);
                        DeploymentLoad {
                            name: stats.name.clone(),
                            requests: rate.map_or(0, |r| r.requests),
                            energy_mj: rate.map_or(0.0, |r| r.energy_mj),
                        }
                    })
                    .collect();
                ShardState {
                    shard: slice.shard,
                    reachable: slice.reachable,
                    breaker_dwell: router.breaker_dwell(slice.shard).ok().flatten(),
                    followers: router.followers(slice.shard),
                    deployments,
                }
            })
            .collect();
        ClusterSnapshot { tick, shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_load_sums_deployment_requests() {
        let shard = ShardState {
            shard: 0,
            reachable: true,
            breaker_dwell: None,
            followers: Vec::new(),
            deployments: vec![
                DeploymentLoad {
                    name: "a".into(),
                    requests: 7,
                    energy_mj: 0.5,
                },
                DeploymentLoad {
                    name: "b".into(),
                    requests: 5,
                    energy_mj: 0.25,
                },
            ],
        };
        assert_eq!(shard.load(), 12);
    }
}
