//! The control plane's output vocabulary: typed actions and typed failures.

use std::fmt;

/// One decision the planner emitted for the executor to carry out.
///
/// Actions are plain data — comparing, logging and replaying them needs no
/// cluster — and each maps onto exactly one recovery or rebalance edge the
/// router already exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlAction {
    /// Live-migrate one hot deployment off an overloaded shard onto the
    /// least-loaded one (the router's `migrate`, so billing state and the
    /// obs `Migration` event ride along).
    RebalanceHot {
        /// The deployment to move.
        deployment: String,
        /// Shard it currently lives on (the overloaded one).
        from: usize,
        /// Shard it should live on (the coldest reachable one).
        to: usize,
    },
    /// A shard's breaker stayed open past the dwell threshold and a replica
    /// advertised itself: promote that follower to a durable primary and
    /// re-point the ring slot at it.
    PromoteFollower {
        /// The dead shard's id.
        shard: usize,
        /// The advertised follower address (its `BoundAddr` display form,
        /// e.g. `tcp://127.0.0.1:9001`) to promote.
        follower_addr: String,
    },
    /// A shard's breaker stayed open past the dwell threshold and **no**
    /// follower advertised itself: restart the shard from its durable store
    /// (WAL + checkpoints) and re-point the ring slot at the new process.
    RestartFromStore {
        /// The dead shard's id.
        shard: usize,
    },
}

impl ControlAction {
    /// A short human-readable label (for timelines and logs).
    pub fn label(&self) -> &'static str {
        match self {
            ControlAction::RebalanceHot { .. } => "rebalance-hot",
            ControlAction::PromoteFollower { .. } => "promote-follower",
            ControlAction::RestartFromStore { .. } => "restart-from-store",
        }
    }
}

impl fmt::Display for ControlAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlAction::RebalanceHot {
                deployment,
                from,
                to,
            } => {
                write!(f, "rebalance-hot {deployment:?} shard {from} -> {to}")
            }
            ControlAction::PromoteFollower {
                shard,
                follower_addr,
            } => {
                write!(f, "promote-follower {follower_addr} for shard {shard}")
            }
            ControlAction::RestartFromStore { shard } => {
                write!(f, "restart-from-store shard {shard}")
            }
        }
    }
}

/// What went wrong while carrying a [`ControlAction`] out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlError {
    /// The executor retried the action to exhaustion; `error` is the last
    /// attempt's failure.
    ActionFailed {
        /// The action that could not be carried out.
        action: ControlAction,
        /// How many attempts were made (always ≥ 1).
        attempts: u32,
        /// The final attempt's error message.
        error: String,
    },
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::ActionFailed {
                action,
                attempts,
                error,
            } => {
                write!(f, "{action} failed after {attempts} attempt(s): {error}")
            }
        }
    }
}

impl std::error::Error for CtrlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_display_and_label() {
        let actions = [
            ControlAction::RebalanceHot {
                deployment: "t".into(),
                from: 0,
                to: 1,
            },
            ControlAction::PromoteFollower {
                shard: 2,
                follower_addr: "tcp://127.0.0.1:9001".into(),
            },
            ControlAction::RestartFromStore { shard: 1 },
        ];
        for action in &actions {
            assert!(action.to_string().contains(&action.label()[..9]));
        }
        let error = CtrlError::ActionFailed {
            action: actions[2].clone(),
            attempts: 3,
            error: "store missing".into(),
        };
        assert!(error.to_string().contains("3 attempt(s)"));
        assert!(error.to_string().contains("store missing"));
    }
}
