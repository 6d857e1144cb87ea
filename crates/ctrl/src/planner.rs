//! The policy engine: a pure, deterministic function from a
//! [`ClusterSnapshot`] to a list of [`ControlAction`]s.
//!
//! The planner holds **no cluster handles** — only its configuration and
//! the cooldown bookkeeping from earlier plans — so every decision path is
//! unit-testable by constructing snapshots by hand. Given the same state
//! and the same snapshot it always emits the same plan: shards are walked
//! in id order, followers are chosen by lexicographic minimum, and load
//! ties break on deployment name.
//!
//! Two policies run per tick, recovery first:
//!
//! 1. **Recovery.** A shard whose breaker has been continuously open for at
//!    least [`breaker_dwell_threshold`](CtrlConfig::breaker_dwell_threshold)
//!    gets a [`PromoteFollower`](ControlAction::PromoteFollower) if a
//!    replica advertised itself, else a
//!    [`RestartFromStore`](ControlAction::RestartFromStore). Shorter flaps
//!    plan nothing — that is the hysteresis.
//! 2. **Rebalance.** Among healthy shards (reachable, breaker closed), if
//!    the hottest shard's trailing request rate exceeds
//!    [`rebalance_ratio`](CtrlConfig::rebalance_ratio) × the coldest's
//!    *and* clears [`rebalance_floor`](CtrlConfig::rebalance_floor), the
//!    hottest deployment moves to the coldest shard. The loads are
//!    re-simulated after each planned move, so one plan can emit several
//!    migrations — but never the same deployment twice.
//!
//! Every planned action stamps a cooldown on its shard or deployment:
//! for [`cooldown_ticks`](CtrlConfig::cooldown_ticks) ticks that key is
//! off-limits, which is what keeps the loop from flapping while an executed
//! action propagates through breakers and stats.

use crate::action::ControlAction;
use crate::config::CtrlConfig;
use crate::health::ClusterSnapshot;
use std::collections::{HashMap, HashSet};

/// Cooldown key: recovery actions are keyed per shard, rebalance actions
/// per deployment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Shard(usize),
    Deployment(String),
}

/// The deterministic decision core of the control loop. See the module
/// docs for the policies.
#[derive(Debug, Clone)]
pub struct Planner {
    config: CtrlConfig,
    /// Tick each key last had an action planned on it.
    cooldowns: HashMap<Key, u64>,
}

impl Planner {
    /// A planner with no cooldown history.
    pub fn new(config: CtrlConfig) -> Planner {
        Planner {
            config,
            cooldowns: HashMap::new(),
        }
    }

    /// Whether `key` may be acted on at `tick`.
    fn ready(&self, key: &Key, tick: u64) -> bool {
        match self.cooldowns.get(key) {
            Some(&last) => tick.saturating_sub(last) >= self.config.cooldown_ticks.max(1),
            None => true,
        }
    }

    /// Plans this tick's actions. Mutates only the cooldown bookkeeping.
    pub fn plan(&mut self, snapshot: &ClusterSnapshot) -> Vec<ControlAction> {
        let max_actions = self.config.max_actions_per_tick.max(1);
        let mut actions = Vec::new();

        // --- Recovery: dwell hysteresis, promotion over restart. ---
        for shard in &snapshot.shards {
            if actions.len() >= max_actions {
                break;
            }
            let Some(dwell) = shard.breaker_dwell else {
                continue;
            };
            if dwell < self.config.breaker_dwell_threshold {
                continue; // a flap, not a death — wait it out
            }
            let key = Key::Shard(shard.shard);
            if !self.ready(&key, snapshot.tick) {
                continue;
            }
            let action = match shard.followers.iter().min() {
                Some(follower) => ControlAction::PromoteFollower {
                    shard: shard.shard,
                    follower_addr: follower.clone(),
                },
                None => ControlAction::RestartFromStore { shard: shard.shard },
            };
            self.cooldowns.insert(key, snapshot.tick);
            actions.push(action);
        }

        // --- Rebalance: only across shards that are provably healthy. ---
        let mut loads: Vec<(usize, u64)> = snapshot
            .shards
            .iter()
            .filter(|s| s.reachable && s.breaker_dwell.is_none())
            .map(|s| (s.shard, s.load()))
            .collect();
        let mut moved: HashSet<String> = HashSet::new();
        let mut targets: HashSet<usize> = HashSet::new();
        while actions.len() < max_actions && loads.len() >= 2 {
            // A shard that already received a migration this plan cannot
            // turn around and act as the hot source — without this, the
            // re-simulated loads would ping-pong work inside one tick.
            let Some(&(hot, hot_load)) = loads
                .iter()
                .filter(|(shard, _)| !targets.contains(shard))
                .max_by_key(|&&(shard, load)| (load, shard))
            else {
                break;
            };
            let &(cold, cold_load) = loads
                .iter()
                .min_by_key(|&&(shard, load)| (load, shard))
                .expect("non-empty");
            let ratio = self.config.rebalance_ratio.max(1.0);
            if hot == cold
                || hot_load < self.config.rebalance_floor
                || (hot_load as f64) <= ratio * (cold_load as f64)
            {
                break; // balanced enough
            }
            let hot_state = snapshot
                .shards
                .iter()
                .find(|s| s.shard == hot)
                .expect("load entries come from the snapshot");
            // Hottest eligible deployment; load ties break on name so the
            // plan never depends on snapshot vector order.
            let candidate = hot_state
                .deployments
                .iter()
                .filter(|d| d.requests > 0 && !moved.contains(&d.name))
                .filter(|d| self.ready(&Key::Deployment(d.name.clone()), snapshot.tick))
                .max_by(|a, b| {
                    a.requests
                        .cmp(&b.requests)
                        .then_with(|| b.name.cmp(&a.name))
                });
            let Some(candidate) = candidate else { break };
            // Re-simulate the loads so a second move this tick sees the
            // first one's effect instead of re-picking the same skew.
            for entry in &mut loads {
                if entry.0 == hot {
                    entry.1 = entry.1.saturating_sub(candidate.requests);
                } else if entry.0 == cold {
                    entry.1 += candidate.requests;
                }
            }
            moved.insert(candidate.name.clone());
            targets.insert(cold);
            self.cooldowns
                .insert(Key::Deployment(candidate.name.clone()), snapshot.tick);
            actions.push(ControlAction::RebalanceHot {
                deployment: candidate.name.clone(),
                from: hot,
                to: cold,
            });
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{DeploymentLoad, ShardState};
    use std::time::Duration;

    fn shard(id: usize, loads: &[(&str, u64)]) -> ShardState {
        ShardState {
            shard: id,
            reachable: true,
            breaker_dwell: None,
            followers: Vec::new(),
            deployments: loads
                .iter()
                .map(|&(name, requests)| DeploymentLoad {
                    name: name.into(),
                    requests,
                    energy_mj: requests as f64 * 0.1,
                })
                .collect(),
        }
    }

    fn config() -> CtrlConfig {
        let mut config = CtrlConfig::default()
            .with_dwell_threshold(Duration::from_millis(100))
            .with_cooldown_ticks(3)
            .with_rebalance_floor(10);
        config.rebalance_ratio = 2.0;
        config
    }

    fn capped(max_actions_per_tick: usize) -> CtrlConfig {
        CtrlConfig {
            max_actions_per_tick,
            ..config()
        }
    }

    #[test]
    fn breaker_flap_below_dwell_threshold_plans_nothing() {
        let mut planner = Planner::new(config());
        let mut dead = shard(1, &[]);
        dead.reachable = false;
        dead.breaker_dwell = Some(Duration::from_millis(40)); // below 100ms
        dead.followers = vec!["tcp://127.0.0.1:9001".into()];
        let snapshot = ClusterSnapshot {
            tick: 1,
            shards: vec![shard(0, &[("a", 5)]), dead.clone()],
        };
        assert!(planner.plan(&snapshot).is_empty());

        // Unreachable but breaker closed (single lost request, breaker
        // already probed shut again): still nothing.
        dead.breaker_dwell = None;
        let snapshot = ClusterSnapshot {
            tick: 2,
            shards: vec![shard(0, &[("a", 5)]), dead],
        };
        assert!(planner.plan(&snapshot).is_empty());
    }

    #[test]
    fn open_dwell_past_threshold_promotes_the_smallest_follower_once() {
        let mut planner = Planner::new(config());
        let mut dead = shard(1, &[]);
        dead.reachable = false;
        dead.breaker_dwell = Some(Duration::from_millis(150));
        dead.followers = vec!["tcp://127.0.0.1:9002".into(), "tcp://127.0.0.1:9001".into()];
        let make = |tick| ClusterSnapshot {
            tick,
            shards: vec![shard(0, &[("a", 5)]), dead.clone()],
        };

        assert_eq!(
            planner.plan(&make(1)),
            vec![ControlAction::PromoteFollower {
                shard: 1,
                follower_addr: "tcp://127.0.0.1:9001".into(),
            }]
        );
        // Cooldown: the very next ticks plan nothing for the same shard...
        assert!(planner.plan(&make(2)).is_empty());
        assert!(planner.plan(&make(3)).is_empty());
        // ...until the window passes and the (still-dead) shard is retried.
        assert_eq!(planner.plan(&make(4)).len(), 1);
    }

    #[test]
    fn no_followers_escalates_to_store_restart() {
        let mut planner = Planner::new(config());
        let mut dead = shard(2, &[]);
        dead.reachable = false;
        dead.breaker_dwell = Some(Duration::from_secs(1));
        let snapshot = ClusterSnapshot {
            tick: 1,
            shards: vec![shard(0, &[]), dead],
        };
        assert_eq!(
            planner.plan(&snapshot),
            vec![ControlAction::RestartFromStore { shard: 2 }]
        );
    }

    #[test]
    fn rebalance_moves_the_hottest_deployment_to_the_coldest_shard() {
        let mut planner = Planner::new(config());
        let snapshot = ClusterSnapshot {
            tick: 1,
            shards: vec![
                shard(0, &[("hot", 90), ("warm", 30)]),
                shard(1, &[("cool", 5)]),
                shard(2, &[("idle", 1)]),
            ],
        };
        let plan = planner.plan(&snapshot);
        assert_eq!(
            plan[0],
            ControlAction::RebalanceHot {
                deployment: "hot".into(),
                from: 0,
                to: 2
            }
        );
        // Loads are re-simulated: after moving 90 requests to shard 2,
        // shard 0 (30) vs shard 1 (5) still exceeds ratio 2, so "warm"
        // moves too — to shard 1, the new coldest.
        assert_eq!(
            plan[1],
            ControlAction::RebalanceHot {
                deployment: "warm".into(),
                from: 0,
                to: 1
            }
        );
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn two_overloaded_shards_never_migrate_the_same_deployment_twice() {
        let mut planner = Planner::new(capped(8));
        let snapshot = ClusterSnapshot {
            tick: 1,
            shards: vec![
                shard(0, &[("alpha", 80)]),
                shard(1, &[("beta", 70)]),
                shard(2, &[]),
            ],
        };
        let plan = planner.plan(&snapshot);
        let mut names: Vec<&str> = plan
            .iter()
            .map(|a| match a {
                ControlAction::RebalanceHot { deployment, .. } => deployment.as_str(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            total,
            "a deployment was planned twice: {plan:?}"
        );
        // Across ticks the cooldown holds the line too: the deployments
        // just moved cannot bounce straight back.
        let follow_up = planner.plan(&ClusterSnapshot {
            tick: 2,
            ..snapshot
        });
        assert!(
            follow_up.iter().all(|a| match a {
                ControlAction::RebalanceHot { deployment, .. } =>
                    !names.contains(&deployment.as_str()),
                _ => true,
            }),
            "cooldown violated: {follow_up:?}"
        );
    }

    #[test]
    fn rebalance_respects_the_floor_and_the_ratio() {
        let mut planner = Planner::new(config());
        // Skewed but under the floor (9 < 10): idle clusters don't churn.
        let quiet = ClusterSnapshot {
            tick: 1,
            shards: vec![shard(0, &[("a", 9)]), shard(1, &[])],
        };
        assert!(planner.plan(&quiet).is_empty());
        // Over the floor but inside the ratio (20 ≤ 2×12): balanced enough.
        let balanced = ClusterSnapshot {
            tick: 2,
            shards: vec![shard(0, &[("a", 20)]), shard(1, &[("b", 12)])],
        };
        assert!(planner.plan(&balanced).is_empty());
    }

    #[test]
    fn unhealthy_shards_are_excluded_from_rebalance() {
        let mut planner = Planner::new(config());
        let mut sick = shard(1, &[]);
        sick.breaker_dwell = Some(Duration::from_millis(10)); // flapping
        let snapshot = ClusterSnapshot {
            tick: 1,
            shards: vec![shard(0, &[("a", 50)]), sick, shard(2, &[("b", 5)])],
        };
        // Shard 1 is neither a migration target nor a recovery case yet:
        // the hot deployment lands on shard 2, the healthy cold one.
        let plan = planner.plan(&snapshot);
        assert_eq!(
            plan,
            vec![ControlAction::RebalanceHot {
                deployment: "a".into(),
                from: 0,
                to: 2
            }]
        );
    }

    /// Seeded pseudo-random snapshots: two planners with the same
    /// configuration walk the same sequence and must emit identical plans
    /// at every step — the determinism contract the chaos scenario leans on.
    #[test]
    fn seeded_plans_are_deterministic() {
        fn lcg(state: &mut u64) -> u64 {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state >> 33
        }
        fn random_snapshot(tick: u64, seed: &mut u64) -> ClusterSnapshot {
            let shards = (0..4)
                .map(|id| {
                    let dead = lcg(seed) % 5 == 0;
                    ShardState {
                        shard: id,
                        reachable: !dead,
                        breaker_dwell: dead.then(|| Duration::from_millis(lcg(seed) % 400)),
                        followers: if lcg(seed) % 2 == 0 {
                            vec![format!("tcp://10.0.0.{}:9000", lcg(seed) % 8)]
                        } else {
                            Vec::new()
                        },
                        deployments: (0..lcg(seed) % 4)
                            .map(|d| DeploymentLoad {
                                name: format!("t{}-{d}", lcg(seed) % 6),
                                requests: lcg(seed) % 120,
                                energy_mj: 0.0,
                            })
                            .collect(),
                    }
                })
                .collect();
            ClusterSnapshot { tick, shards }
        }

        let config = capped(3);
        let mut left = Planner::new(config.clone());
        let mut right = Planner::new(config);
        for trial in 0..64u64 {
            let mut seed_l = 0x5eed ^ trial;
            let mut seed_r = 0x5eed ^ trial;
            let snap_l = random_snapshot(trial + 1, &mut seed_l);
            let snap_r = random_snapshot(trial + 1, &mut seed_r);
            assert_eq!(
                snap_l, snap_r,
                "snapshot generation must itself be deterministic"
            );
            assert_eq!(
                left.plan(&snap_l),
                right.plan(&snap_r),
                "plans diverged at {trial}"
            );
        }
    }
}
