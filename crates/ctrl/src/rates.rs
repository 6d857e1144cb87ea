//! The push-driven rate feed: trailing request rates from a live cluster
//! tail instead of a windowed query per tick.
//!
//! [`ClusterSnapshot::capture`](crate::ClusterSnapshot::capture) polls: every
//! tick it routes an [`ObsQuery`] to every shard and re-reduces the whole
//! trailing window from scratch. A [`RateFeed`] subscribes once — a
//! [`ClusterTail`] multiplexed over every shard, advertised follower and the
//! router's own store — and folds the **deltas** each tick: drain whatever
//! leg batches arrived, dedup cross-leg overlap with the bit-exact splice
//! identity, prune rows that fell out of the trailing window, recompute. The
//! per-tick cost scales with what happened since the last tick, not with the
//! window size, and shards spend no query CPU on an idle control plane.
//!
//! The feed is deliberately pessimistic about its own health: the moment the
//! tail reports every leg gone ([`RateFeed::rates`] returns `None`), the
//! controller falls back to the polled capture path for that tick and
//! [`RateFeed::resubscribe`]s from the feed's high-water cursor — the legs
//! back-fill strictly after it, so the healed stream splices on with no gaps
//! and no duplicates.

use crate::config::CtrlConfig;
use ofscil_obs::{
    sort_dedup_events, trailing_rates_of, DeploymentRate, Event, EventKind, ObsCursor, ObsQuery,
};
use ofscil_router::{ClusterTail, RouterHandle};
use std::sync::mpsc::TryRecvError;

/// An incrementally maintained trailing-rate window over a cluster-wide
/// live tail.
#[derive(Debug)]
pub struct RateFeed {
    tail: ClusterTail,
    /// The trailing window: request events, `(time_us, seq)`-sorted and
    /// cross-leg deduplicated.
    window: Vec<Event>,
    /// High-water mark across everything consumed — where a resubscription
    /// splices back onto the stream.
    cursor: ObsCursor,
    window_us: u64,
    event_limit: usize,
    live: bool,
    batches: u64,
    resubscribed: u64,
}

impl RateFeed {
    /// The subscription filter: request events only, back-fill capped the
    /// same way the polled query is.
    fn query(config: &CtrlConfig) -> ObsQuery {
        ObsQuery::all()
            .with_kinds(&[EventKind::Infer, EventKind::Learn])
            .with_limit(config.rate_event_limit)
    }

    /// Opens the cluster tail and starts an empty window. The leg set is
    /// snapshotted at subscribe time; a controller that reshapes the ring
    /// mid-flight keeps working through the polled fallback until the next
    /// [`resubscribe`](RateFeed::resubscribe).
    pub(crate) fn subscribe(router: &RouterHandle<'_>, config: &CtrlConfig) -> RateFeed {
        RateFeed {
            tail: router.cluster_tail(&Self::query(config), None),
            window: Vec::new(),
            cursor: ObsCursor::start(),
            window_us: config.rate_window_us,
            event_limit: (config.rate_event_limit as usize).max(1),
            live: true,
            batches: 0,
            resubscribed: 0,
        }
    }

    /// Drains every buffered leg batch into the window and returns the
    /// trailing rates, or `None` once every leg has exited — the signal to
    /// fall back to a polled [`ObsQuery`] for this tick.
    pub(crate) fn rates(&mut self) -> Option<Vec<DeploymentRate>> {
        loop {
            match self.tail.try_recv() {
                Ok(batch) => {
                    self.batches += 1;
                    batch.advance_cursor(&mut self.cursor);
                    // The subscription filter already restricts kinds; the
                    // retain is belt-and-braces against a future filter
                    // widening quietly inflating request counts.
                    self.window.extend(
                        batch
                            .events
                            .into_iter()
                            .filter(|e| matches!(e.kind, EventKind::Infer | EventKind::Learn)),
                    );
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.live = false;
                    return None;
                }
            }
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
        Some(trailing_rates_of(&self.window, self.window_us))
    }

    /// Replaces a dead tail with a fresh subscription from the feed's
    /// high-water cursor. The retained window stays valid: every leg
    /// back-fills strictly after the cursor, so nothing is redelivered and
    /// nothing is skipped.
    pub(crate) fn resubscribe(&mut self, router: &RouterHandle<'_>, config: &CtrlConfig) {
        self.tail = router.cluster_tail(&Self::query(config), Some(self.cursor));
        self.live = true;
        self.resubscribed += 1;
    }

    /// Whether the tail was still delivering when rates were last read.
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Leg batches consumed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Times the feed replaced a dead tail with a fresh subscription.
    pub fn resubscribed(&self) -> u64 {
        self.resubscribed
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
