//! The push-driven rate feed: trailing request rates from a live cluster
//! tail instead of a windowed query per tick.
//!
//! A [`RateFeed`] subscribes once — a [`ClusterTail`] multiplexed over every
//! shard, advertised follower and the router's own store — and folds the
//! **deltas** each tick: drain whatever leg batches arrived, dedup cross-leg
//! overlap with the bit-exact splice identity, prune rows that fell out of
//! the trailing window, recompute. The per-tick cost scales with what
//! happened since the last tick, not with the window size, and shards spend
//! no query CPU on an idle control plane.
//!
//! The tail outlives every shard outage: a leg whose shard dies reconnects
//! and resumes from the last row it consumed, and legs exit only when the
//! tail is dropped or the router shuts down. So the feed never needs a
//! second observation path — a tick always reads the trailing rates of the
//! retained window, whatever arrived since the last one.

use crate::config::CtrlConfig;
use ofscil_obs::{
    sort_dedup_events, trailing_rates_of, DeploymentRate, Event, EventKind, ObsQuery,
};
use ofscil_router::{ClusterTail, RouterHandle};

/// An incrementally maintained trailing-rate window over a cluster-wide
/// live tail.
#[derive(Debug)]
pub struct RateFeed {
    tail: ClusterTail,
    /// The trailing window: request events, `(time_us, seq)`-sorted and
    /// cross-leg deduplicated.
    window: Vec<Event>,
    window_us: u64,
    event_limit: usize,
    batches: u64,
}

impl RateFeed {
    /// The subscription filter: request events only, back-fill capped at
    /// the configured rate event limit.
    fn query(config: &CtrlConfig) -> ObsQuery {
        ObsQuery::all()
            .with_kinds(&[EventKind::Infer, EventKind::Learn])
            .with_limit(config.rate_event_limit)
    }

    /// Opens the cluster tail and starts an empty window. The leg set is
    /// snapshotted at subscribe time: one leg per shard slot, which follows
    /// a slot re-pointed by `replace_shard`.
    pub(crate) fn subscribe(router: &RouterHandle<'_>, config: &CtrlConfig) -> RateFeed {
        RateFeed {
            tail: router.cluster_tail(&Self::query(config), None),
            window: Vec::new(),
            window_us: config.rate_window_us,
            event_limit: (config.rate_event_limit as usize).max(1),
            batches: 0,
        }
    }

    /// Drains every buffered leg batch into the window and returns the
    /// trailing rates of the retained window.
    pub(crate) fn rates(&mut self) -> Vec<DeploymentRate> {
        // A disconnected tail (only once the router shuts down) just
        // delivers nothing more; the window keeps what it retained.
        while let Ok(batch) = self.tail.try_recv() {
            self.batches += 1;
            // The subscription filter already restricts kinds; the retain
            // is belt-and-braces against a future filter widening quietly
            // inflating request counts.
            self.window.extend(
                batch
                    .events
                    .into_iter()
                    .filter(|e| matches!(e.kind, EventKind::Infer | EventKind::Learn)),
            );
        }
        // A primary and the follower replicating it both deliver the same
        // rows; the splice identity removes the overlap (and anything a leg
        // redelivered across a resubscription).
        sort_dedup_events(&mut self.window, |_| {});
        if let Some(latest) = self.window.last().map(|event| event.time_us) {
            let cutoff = latest.saturating_sub(self.window_us);
            self.window.retain(|event| event.time_us >= cutoff);
        }
        if self.window.len() > self.event_limit {
            let excess = self.window.len() - self.event_limit;
            self.window.drain(..excess);
        }
        trailing_rates_of(&self.window, self.window_us)
    }

    /// Leg batches consumed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Request events currently inside the trailing window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The underlying cluster tail (legs, resumed and shed counters).
    pub fn tail(&self) -> &ClusterTail {
        &self.tail
    }
}
