//! Control-loop tuning knobs.

use std::time::Duration;

/// Configuration of the control loop: hysteresis thresholds, cooldowns and
/// retry policy.
///
/// The defaults are sized for loopback test clusters (millisecond breakers);
/// a production deployment with second-scale probe intervals would raise
/// the dwell threshold ([`CtrlConfig::with_dwell_threshold`]) and the rate
/// window ([`CtrlConfig::with_rate_window_us`]) accordingly.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlConfig {
    /// How long a shard's circuit breaker must have been **continuously**
    /// open before the planner reacts with a promotion or store restart.
    /// This is the hysteresis that keeps a brief flap (one failed request,
    /// breaker opens, probe closes it) from triggering a failover.
    pub(crate) breaker_dwell_threshold: Duration,
    /// Minimum ticks between two actions touching the same shard or the
    /// same deployment. An action planned at tick `t` suppresses further
    /// actions on its key until tick `t + cooldown_ticks` — the anti-flap
    /// window that gives an executed action time to take effect before the
    /// planner reconsiders.
    pub(crate) cooldown_ticks: u64,
    /// Rebalance trigger: the hottest shard's trailing request rate must
    /// exceed `rebalance_ratio ×` the coldest shard's before a migration is
    /// planned. Must be ≥ 1; higher values tolerate more skew.
    pub(crate) rebalance_ratio: f64,
    /// Rebalance floor: the hottest shard must additionally have served at
    /// least this many requests inside the trailing window. Keeps idle
    /// clusters (where 3 requests vs 1 trips any ratio) from churning.
    pub(crate) rebalance_floor: u64,
    /// Upper bound on actions planned per tick, recovery and rebalance
    /// combined. Keeps one bad observation from rewriting the whole
    /// cluster at once.
    pub(crate) max_actions_per_tick: usize,
    /// How many times the executor tries an action before surfacing
    /// [`CtrlError::ActionFailed`](crate::CtrlError::ActionFailed).
    pub(crate) retry_attempts: u32,
    /// Sleep before the second attempt; doubles per further attempt.
    pub(crate) retry_backoff: Duration,
    /// Trailing window (microseconds, anchored at the newest observed
    /// event) over which per-deployment request/energy rates are computed
    /// for the rebalance decision.
    pub(crate) rate_window_us: u64,
    /// Event cap for the observability scan feeding the rate computation.
    pub(crate) rate_event_limit: u32,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            breaker_dwell_threshold: Duration::from_millis(250),
            cooldown_ticks: 3,
            rebalance_ratio: 3.0,
            rebalance_floor: 32,
            max_actions_per_tick: 2,
            retry_attempts: 3,
            retry_backoff: Duration::from_millis(25),
            rate_window_us: 2_000_000,
            rate_event_limit: 50_000,
        }
    }
}

impl CtrlConfig {
    /// Sets the breaker dwell threshold (builder style).
    #[must_use]
    pub fn with_dwell_threshold(mut self, threshold: Duration) -> Self {
        self.breaker_dwell_threshold = threshold;
        self
    }

    /// Sets the per-key action cooldown in ticks (builder style).
    #[must_use]
    pub fn with_cooldown_ticks(mut self, ticks: u64) -> Self {
        self.cooldown_ticks = ticks;
        self
    }

    /// Sets the rebalance request floor (builder style).
    #[must_use]
    pub fn with_rebalance_floor(mut self, floor: u64) -> Self {
        self.rebalance_floor = floor;
        self
    }

    /// Sets the executor retry policy (builder style). Zero attempts are
    /// clamped to 1 at execution time.
    #[must_use]
    pub fn with_retries(mut self, attempts: u32, backoff: Duration) -> Self {
        self.retry_attempts = attempts;
        self.retry_backoff = backoff;
        self
    }

    /// Sets the trailing rate window (builder style).
    #[must_use]
    pub fn with_rate_window_us(mut self, window_us: u64) -> Self {
        self.rate_window_us = window_us;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_override_defaults() {
        let config = CtrlConfig::default()
            .with_dwell_threshold(Duration::from_millis(50))
            .with_cooldown_ticks(5)
            .with_rebalance_floor(8)
            .with_retries(2, Duration::from_millis(1))
            .with_rate_window_us(1_000);
        assert_eq!(config.breaker_dwell_threshold, Duration::from_millis(50));
        assert_eq!(config.cooldown_ticks, 5);
        assert_eq!(config.rebalance_floor, 8);
        assert_eq!(config.retry_attempts, 2);
        assert_eq!(config.retry_backoff, Duration::from_millis(1));
        assert_eq!(config.rate_window_us, 1_000);
    }
}
