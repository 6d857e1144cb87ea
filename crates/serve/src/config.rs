//! Runtime configuration for the serving loop.

use crate::{Result, ServeError};

/// Configuration of a [`ServeRuntime`](crate::ServeRuntime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of worker threads executing jobs. Workers for *different*
    /// deployments run concurrently; requests for the same deployment are
    /// serialized by the deployment's own lock. Workers are the only threads
    /// a served forward runs on: the kernels under it start none. Defaults to
    /// the available cores, capped at 8.
    pub workers: usize,
    /// Maximum number of `Infer` requests a worker takes off one
    /// deployment's queue at a time and runs as a single batched forward
    /// pass. The batch is whatever is waiting when the worker is free, so
    /// its size follows load: one when idle, up to this under a backlog.
    pub max_batch: usize,
    /// Maximum number of requests waiting inside the runtime: submitted and
    /// not yet taken by a worker, answered by the dispatcher, or parked
    /// under [`BudgetPolicy::Defer`](crate::BudgetPolicy::Defer).
    /// Submissions beyond this depth are shed immediately with
    /// [`ServeError::QueueFull`](crate::ServeError::QueueFull) instead of
    /// buffering without bound — the backpressure a socket frontend needs so
    /// workers that fall behind cannot exhaust memory. `None` means
    /// unbounded.
    pub queue_depth: Option<usize>,
    /// When `true` the runtime serves a read-only replica: `Infer`, `Stats`
    /// and `Snapshot` are served normally, while state-mutating requests
    /// (`LearnOnline`, `TopUpBudget`) are rejected with
    /// [`ServeError::ReadOnlyReplica`](crate::ServeError::ReadOnlyReplica).
    pub read_only: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: recommended_threads(),
            max_batch: 16,
            queue_depth: None,
            read_only: false,
        }
    }
}

/// The default worker count: one per available core, at most 8.
fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

impl ServeConfig {
    /// Sets the maximum batch size (builder style).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when any knob is zero.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "workers must be at least 1".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if self.queue_depth == Some(0) {
            return Err(ServeError::InvalidConfig(
                "queue_depth must be at least 1 when bounded".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_threads_is_positive() {
        assert!(recommended_threads() >= 1);
        assert!(recommended_threads() <= 8);
    }

    #[test]
    fn defaults_are_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_knobs_are_rejected() {
        assert!(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig::default().with_max_batch(0).validate().is_err());
        let depth = |depth| ServeConfig {
            queue_depth: Some(depth),
            ..ServeConfig::default()
        };
        assert!(depth(0).validate().is_err());
        depth(1).validate().unwrap();
    }
}
