//! The control loop: observe → plan → execute, one tick at a time.
//!
//! [`Controller::tick`] is synchronous and deterministic in its decision
//! making (the planner sees only the captured snapshot); calling it on a
//! timer from the process that owns the
//! [`RouterHandle`](ofscil_router::RouterHandle) is the whole deployment
//! story. Every action the executor carries out is stamped back into the
//! router's observability store, so the recovery timeline — breaker-open,
//! promotion, migrations — reconstructs from one routed
//! [`ObsQuery`](ofscil_obs::ObsQuery).
//!
//! Observation is **push-driven**: the controller opens one streaming
//! [`RateFeed`] at construction and folds its deltas into the trailing
//! rates each tick, instead of issuing a windowed observability query per
//! tick. The feed's cluster tail lives as long as the router: each leg
//! retries its shard until the tail is dropped or the router shuts down,
//! so an outage pauses a leg's deltas without ending the feed.

use crate::action::{ControlAction, CtrlError};
use crate::config::CtrlConfig;
use crate::executor::{ClusterOps, Executor, RecoveryDriver};
use crate::health::{ClusterSnapshot, ShardState};
use crate::planner::Planner;
use crate::rates::RateFeed;
use ofscil_obs::{Event, EventKind};
use ofscil_router::RouterHandle;
use ofscil_wire::BoundAddr;

impl ClusterOps for RouterHandle<'_> {
    fn migrate(&self, deployment: &str, target: usize) -> Result<(), String> {
        RouterHandle::migrate(self, deployment, target)
            .map(|_| ())
            .map_err(|error| error.to_string())
    }

    fn replace_shard(&self, shard: usize, addr: BoundAddr) -> Result<(), String> {
        RouterHandle::replace_shard(self, shard, addr).map_err(|error| error.to_string())
    }
}

/// What one [`Controller::tick`] did.
#[derive(Debug)]
pub struct TickReport {
    /// The tick number (monotonic from 1).
    pub tick: u64,
    /// The cluster state the decisions were made from.
    pub snapshot: ClusterSnapshot,
    /// Everything the planner asked for this tick.
    pub(crate) planned: Vec<ControlAction>,
    /// The subset that executed successfully.
    pub executed: Vec<ControlAction>,
    /// Typed failures for the rest (retries already exhausted).
    pub failures: Vec<CtrlError>,
}

impl TickReport {
    /// `true` when every shard answered and nothing needed doing — the
    /// steady state a recovery loop waits for.
    pub fn quiescent(&self) -> bool {
        self.planned.is_empty()
            && self
                .snapshot
                .shards
                .iter()
                .all(|s| s.reachable && s.breaker_dwell.is_none())
    }
}

/// The self-driving loop: watches the cluster through a
/// [`RouterHandle`], plans with a [`Planner`], executes with an
/// `Executor` against a caller-supplied [`RecoveryDriver`].
pub struct Controller<'a, D: RecoveryDriver> {
    router: &'a RouterHandle<'a>,
    driver: D,
    planner: Planner,
    executor: Executor,
    feed: RateFeed,
    tick: u64,
}

impl<'a, D: RecoveryDriver> Controller<'a, D> {
    /// A controller at tick zero, subscribed to the cluster's live tail for
    /// its trailing rates. The driver supplies the process-side recovery
    /// operations (e.g. a [`StandbyFleet`](crate::harness::StandbyFleet)).
    pub fn new(router: &'a RouterHandle<'a>, driver: D, config: CtrlConfig) -> Self {
        Controller {
            router,
            driver,
            planner: Planner::new(config.clone()),
            executor: Executor::new(&config),
            feed: RateFeed::subscribe(router, &config),
            tick: 0,
        }
    }

    /// The recovery driver, for inspecting what it holds after a run.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// The streaming rate feed, for inspecting its counters after a run.
    pub fn feed(&self) -> &RateFeed {
        &self.feed
    }

    /// Runs one control tick: fold the rate feed's deltas into a
    /// [`ClusterSnapshot`], plan, execute each action (with retries), and
    /// stamp the successful ones into the observability timeline.
    pub fn tick(&mut self) -> TickReport {
        self.tick += 1;
        let snapshot = ClusterSnapshot::assemble(self.router, self.tick, &self.feed.rates());
        let planned = self.planner.plan(&snapshot);
        let mut executed = Vec::new();
        let mut failures = Vec::new();
        for action in &planned {
            match self.executor.execute(action, self.router, &mut self.driver) {
                Ok(()) => {
                    self.stamp(action, &snapshot);
                    executed.push(action.clone());
                }
                Err(error) => failures.push(error),
            }
        }
        TickReport {
            tick: self.tick,
            snapshot,
            planned,
            executed,
            failures,
        }
    }

    /// Stamps an executed action into the router's obs store — the
    /// control-plane audit trail. Every planner decision gets a dedicated
    /// `Ctrl*` row carrying the evidence it was made from, so a
    /// `chaos_recovery`-style incident reconstructs from one routed query:
    ///
    /// * [`PromoteFollower`](ControlAction::PromoteFollower) →
    ///   [`CtrlPromote`](EventKind::CtrlPromote) and
    ///   [`RestartFromStore`](ControlAction::RestartFromStore) →
    ///   [`CtrlRestart`](EventKind::CtrlRestart), both on deployment
    ///   `shard:N` with seq = tick, latency = the breaker dwell that
    ///   triggered recovery (µs), energy = the shard's trailing-window
    ///   energy and wal_bytes = its trailing-window request count,
    /// * [`RebalanceHot`](ControlAction::RebalanceHot) →
    ///   [`CtrlRebalance`](EventKind::CtrlRebalance) on the moved tenant,
    ///   seq = tick, latency = source shard id, wal_bytes = target shard
    ///   id, energy = the tenant's trailing-window energy.
    ///
    /// The `Ctrl*` row is the only controller row per action: a promoted
    /// server still emits one per-deployment `Promotion` row itself, and a
    /// rebalance's migrations their own `Migration` events inside the
    /// router's `migrate`, but a store restart adds no `Promotion` row.
    fn stamp(&self, action: &ControlAction, snapshot: &ClusterSnapshot) {
        match action {
            ControlAction::RebalanceHot {
                deployment,
                from,
                to,
            } => {
                let energy_mj = snapshot
                    .shards
                    .iter()
                    .flat_map(|s| &s.deployments)
                    .find(|d| &d.name == deployment)
                    .map_or(0.0, |d| d.energy_mj);
                self.router.observe(
                    Event::new(EventKind::CtrlRebalance, deployment)
                        .with_seq(self.tick)
                        .with_latency_us(*from as u64)
                        .with_wal_bytes(*to as u64)
                        .with_energy_mj(energy_mj),
                );
            }
            ControlAction::PromoteFollower { shard, .. }
            | ControlAction::RestartFromStore { shard } => {
                let kind = match action {
                    ControlAction::PromoteFollower { .. } => EventKind::CtrlPromote,
                    _ => EventKind::CtrlRestart,
                };
                let state = snapshot.shards.iter().find(|s| s.shard == *shard);
                let dwell_us = state
                    .and_then(|s| s.breaker_dwell)
                    .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64);
                let energy_mj =
                    state.map_or(0.0, |s| s.deployments.iter().map(|d| d.energy_mj).sum());
                let requests = state.map_or(0, ShardState::load);
                self.router.observe(
                    Event::new(kind, &format!("shard:{shard}"))
                        .with_seq(self.tick)
                        .with_latency_us(dwell_us)
                        .with_energy_mj(energy_mj)
                        .with_wal_bytes(requests),
                );
            }
        }
    }
}
