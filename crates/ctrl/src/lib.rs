//! `ofscil_ctrl` — the self-driving cluster control plane.
//!
//! The layers below this crate already expose every mechanism an operator
//! needs: the router migrates deployments live, followers replicate and
//! promote, stores recover from WAL + checkpoints, and the obs store holds
//! the cluster's timeline. What was missing is the *operator* — something
//! that watches those signals and pulls the levers itself. This crate is
//! that operator, as a deterministic, tick-driven loop:
//!
//! * [`ClusterSnapshot`] — one tick's observation, fused from the router's
//!   scatter-gathered stats, per-shard breaker dwell times, the advertised
//!   follower registry and per-deployment trailing request rates,
//! * [`RateFeed`] — where those rates come from: one streaming cluster
//!   tail opened at controller construction, folded incrementally — drain
//!   the deltas, dedup cross-leg overlap, prune the window — so a tick
//!   costs what happened since the last one, not a windowed
//!   [`ObsQuery`](ofscil_obs::ObsQuery) re-reduced from scratch,
//! * [`Planner`] — the pure policy core: snapshot in, typed
//!   [`ControlAction`]s out. Breaker-dwell hysteresis keeps flaps from
//!   triggering failovers, per-key cooldowns keep the loop from flapping
//!   itself, and every tie is broken deterministically — the same state
//!   always produces the same plan,
//! * `Executor` — carries actions out through two narrow traits
//!   (`ClusterOps`, [`RecoveryDriver`]) with bounded, backoff-spaced
//!   retries and typed failures; tests drive it entirely with mocks,
//! * [`Controller`] — observe → plan → execute, stamping every planner
//!   decision back into the observability timeline as a typed audit event
//!   (`CtrlPromote`/`CtrlRestart`/`CtrlRebalance`) carrying the snapshot
//!   evidence — breaker dwell, trailing energy and request rates — that
//!   justified it,
//! * [`harness`] — thread-per-process stand-ins ([`FollowerProcess`],
//!   [`PrimaryProcess`]) and the [`StandbyFleet`] recovery driver that
//!   turns planner decisions into running replacements.
//!
//! # Example: the planner is just a function
//!
//! ```
//! use ofscil_ctrl::{ClusterSnapshot, ControlAction, CtrlConfig, Planner, ShardState};
//! use std::time::Duration;
//!
//! let mut planner = Planner::new(CtrlConfig::default());
//! let snapshot = ClusterSnapshot {
//!     tick: 1,
//!     shards: vec![
//!         ShardState {
//!             shard: 0,
//!             reachable: true,
//!             breaker_dwell: None,
//!             followers: vec![],
//!             deployments: vec![],
//!         },
//!         ShardState {
//!             shard: 1,
//!             reachable: false,
//!             // Continuously open for 2 s — well past the threshold.
//!             breaker_dwell: Some(Duration::from_secs(2)),
//!             followers: vec!["tcp://127.0.0.1:9001".into()],
//!             deployments: vec![],
//!         },
//!     ],
//! };
//! assert_eq!(
//!     planner.plan(&snapshot),
//!     vec![ControlAction::PromoteFollower {
//!         shard: 1,
//!         follower_addr: "tcp://127.0.0.1:9001".into(),
//!     }]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
mod config;
mod controller;
mod executor;
pub mod harness;
mod health;
mod planner;
mod rates;

pub use action::{ControlAction, CtrlError};
pub use config::CtrlConfig;
pub use controller::{Controller, TickReport};
pub use executor::RecoveryDriver;
pub use harness::{FollowerProcess, PrimaryProcess, StandbyFleet};
pub use health::{ClusterSnapshot, DeploymentLoad, ShardState};
pub use planner::Planner;
pub use rates::RateFeed;
