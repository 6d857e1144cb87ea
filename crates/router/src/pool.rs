//! Per-shard connection pooling with reconnect, backoff and health state.
//!
//! The router keeps a small pool of idle [`WireClient`] connections per
//! backend shard. A request checks a connection out, rides it, and returns
//! it on success; a connection that errors is dropped (its stream can no
//! longer be trusted) and — for **idempotent** requests only — retried once
//! on a fresh connection, which transparently heals the stale-pool case
//! where a shard restarted between two requests. Writes are never replayed
//! after an ambiguous failure: the shard may have applied them even though
//! the response never arrived. Connecting retries with exponential backoff,
//! and a shard whose connections keep failing is marked **down** for a
//! cooldown window during which requests fail fast with a typed
//! [`RouterError::ShardUnavailable`] instead of re-paying the connect
//! timeout — the classic circuit-breaker shape, sized for a handful of
//! shards.

use crate::error::RouterError;
use ofscil_obs::{Event, EventKind, EventSink};
use ofscil_wire::{BoundAddr, WireClient, WireError};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Connection-management knobs of the shard pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolConfig {
    /// Connect attempts per checkout before the shard is declared
    /// unavailable (minimum 1).
    pub connect_attempts: usize,
    /// Sleep before the second connect attempt; doubles per further attempt.
    pub backoff: Duration,
    /// How long a shard stays marked down after a failed checkout. Requests
    /// inside the window fail fast; a health probe or the window expiring
    /// lets traffic try again.
    pub cooldown: Duration,
    /// Idle connections kept per shard; further returns are closed.
    pub max_idle: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            connect_attempts: 3,
            backoff: Duration::from_millis(10),
            cooldown: Duration::from_millis(500),
            max_idle: 8,
        }
    }
}

/// Point-in-time health of one shard, as reported by
/// [`RouterHandle::probe`](crate::RouterHandle::probe).
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Shard id.
    pub shard: usize,
    /// The shard's wire address.
    pub addr: BoundAddr,
    /// `true` when the probe's connection attempt succeeded.
    pub healthy: bool,
    /// The most recent failure, if any.
    pub(crate) last_error: Option<String>,
}

#[derive(Debug, Default)]
struct SlotState {
    consecutive_failures: u32,
    down_until: Option<Instant>,
    last_error: Option<String>,
    /// When the breaker last transitioned closed → open; `None` while
    /// closed. Repeat failures extend `down_until` but keep this anchor, so
    /// its age is the breaker's total open **dwell** — what a control plane
    /// compares against its promotion threshold.
    opened_at: Option<Instant>,
}

/// One shard's address, idle connections and failure state.
#[derive(Debug)]
struct ShardSlot {
    addr: BoundAddr,
    idle: Mutex<Vec<WireClient>>,
    state: Mutex<SlotState>,
}

impl ShardSlot {
    fn new(addr: BoundAddr) -> Self {
        ShardSlot {
            addr,
            idle: Mutex::new(Vec::new()),
            state: Mutex::new(SlotState::default()),
        }
    }

    fn pop_idle(&self) -> Option<WireClient> {
        self.idle.lock().expect("pool lock poisoned").pop()
    }

    fn checkin(&self, conn: WireClient, max_idle: usize) {
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < max_idle {
            idle.push(conn);
        }
    }

    /// Clears the failure state. Returns `true` when this actually closed a
    /// breaker (the slot had failures or a cooldown on record) — the
    /// transition edge worth an observability event.
    fn mark_up(&self) -> bool {
        let mut state = self.state.lock().expect("pool state lock poisoned");
        let closed = state.down_until.is_some() || state.consecutive_failures > 0;
        state.consecutive_failures = 0;
        state.down_until = None;
        state.last_error = None;
        state.opened_at = None;
        closed
    }

    /// Records a failure and starts (or extends) the cooldown window.
    /// Returns `true` when the breaker was closed before this call — i.e.
    /// this failure is the open transition, not a repeat.
    fn mark_down(&self, error: &str, cooldown: Duration) -> bool {
        // Dead shards accept no connections, so the stale idle pool is junk.
        self.idle.lock().expect("pool lock poisoned").clear();
        let mut state = self.state.lock().expect("pool state lock poisoned");
        let opened = state.down_until.is_none();
        state.consecutive_failures += 1;
        state.down_until = Some(Instant::now() + cooldown);
        state.last_error = Some(error.to_string());
        if state.opened_at.is_none() {
            state.opened_at = Some(Instant::now());
        }
        opened
    }

    /// How long the breaker has been open; `None` while closed.
    fn open_dwell(&self) -> Option<Duration> {
        let state = self.state.lock().expect("pool state lock poisoned");
        state.opened_at.map(|at| at.elapsed())
    }

    /// The cached failure if the shard is still inside its cooldown window.
    fn cooling_down(&self) -> Option<String> {
        let state = self.state.lock().expect("pool state lock poisoned");
        match state.down_until {
            Some(until) if Instant::now() < until => Some(
                state
                    .last_error
                    .clone()
                    .unwrap_or_else(|| "marked down".to_string()),
            ),
            _ => None,
        }
    }
}

/// The router's per-shard connection pools. Shard ids index the slot table
/// and match the ids on the [`HashRing`](crate::HashRing).
#[derive(Debug)]
pub(crate) struct ShardPool {
    slots: RwLock<Vec<std::sync::Arc<ShardSlot>>>,
    config: PoolConfig,
    /// When attached, circuit-breaker **transitions** (closed → open, open →
    /// closed) are emitted as `BreakerOpen`/`BreakerClose` events under the
    /// pseudo-deployment `shard:N`. Repeated failures inside an open window
    /// are not re-emitted.
    obs: Option<EventSink>,
}

impl ShardPool {
    /// A pool over the given shard addresses (ids `0..addrs.len()`),
    /// emitting circuit-breaker transition events into `obs` when attached.
    pub(crate) fn new_observed(
        addrs: Vec<BoundAddr>,
        config: PoolConfig,
        obs: Option<EventSink>,
    ) -> Self {
        ShardPool {
            slots: RwLock::new(
                addrs
                    .into_iter()
                    .map(|a| ShardSlot::new(a).into())
                    .collect(),
            ),
            config,
            obs,
        }
    }

    /// Emits one breaker-transition event for a shard, if a sink is attached.
    fn breaker_event(&self, shard: usize, kind: EventKind) {
        if let Some(obs) = &self.obs {
            obs.emit(Event::new(kind, &format!("shard:{shard}")));
        }
    }

    /// Applies a successful interaction with a shard: clears its failure
    /// state and emits `BreakerClose` when that closed an open breaker.
    fn on_up(&self, shard: usize, slot: &ShardSlot) {
        if slot.mark_up() {
            self.breaker_event(shard, EventKind::BreakerClose);
        }
    }

    /// Applies a failed interaction with a shard: starts its cooldown and
    /// emits `BreakerOpen` on the closed → open edge.
    fn on_down(&self, shard: usize, slot: &ShardSlot, detail: &str) {
        if slot.mark_down(detail, self.config.cooldown) {
            self.breaker_event(shard, EventKind::BreakerOpen);
        }
    }

    /// Number of shard slots (including drained ones — ids stay stable).
    pub(crate) fn len(&self) -> usize {
        self.slots.read().expect("pool lock poisoned").len()
    }

    /// Registers a new shard address, returning its id.
    pub(crate) fn add_shard(&self, addr: BoundAddr) -> usize {
        let mut slots = self.slots.write().expect("pool lock poisoned");
        slots.push(ShardSlot::new(addr).into());
        slots.len() - 1
    }

    /// How long a shard's circuit breaker has been **open** — the time since
    /// its closed → open transition, not since the latest repeat failure.
    /// `None` while the breaker is closed. The dwell a control plane
    /// compares against its promotion threshold: a flap that recovers resets
    /// it, only a persistently dead shard grows it.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] for out-of-range ids.
    pub(crate) fn breaker_dwell(&self, shard: usize) -> Result<Option<Duration>, RouterError> {
        Ok(self.slot(shard)?.open_dwell())
    }

    /// Re-points a shard id at a new address — the failover edge after a
    /// follower promotion. The slot is replaced wholesale: idle connections
    /// to the dead primary are dropped and the failure state (breaker,
    /// dwell) starts fresh, so traffic tries the new address immediately.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] for out-of-range ids.
    pub(crate) fn replace_addr(&self, shard: usize, addr: BoundAddr) -> Result<(), RouterError> {
        let mut slots = self.slots.write().expect("pool lock poisoned");
        let slot = slots
            .get_mut(shard)
            .ok_or(RouterError::UnknownShard(shard))?;
        *slot = ShardSlot::new(addr).into();
        Ok(())
    }

    /// The address of a shard.
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::UnknownShard`] for out-of-range ids.
    pub(crate) fn addr(&self, shard: usize) -> Result<BoundAddr, RouterError> {
        Ok(self.slot(shard)?.addr.clone())
    }

    fn slot(&self, shard: usize) -> Result<std::sync::Arc<ShardSlot>, RouterError> {
        self.slots
            .read()
            .expect("pool lock poisoned")
            .get(shard)
            .cloned()
            .ok_or(RouterError::UnknownShard(shard))
    }

    fn unavailable(&self, shard: usize, slot: &ShardSlot, detail: String) -> RouterError {
        RouterError::ShardUnavailable {
            shard,
            addr: slot.addr.to_string(),
            detail,
        }
    }

    /// Connects to a shard with bounded retries and exponential backoff.
    fn connect(&self, shard: usize, slot: &ShardSlot) -> Result<WireClient, RouterError> {
        let mut backoff = self.config.backoff;
        let mut last: Option<WireError> = None;
        for attempt in 0..self.config.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match WireClient::connect(&slot.addr) {
                Ok(conn) => return Ok(conn),
                Err(e) => last = Some(e),
            }
        }
        let detail = format!(
            "connect failed after {} attempts: {}",
            self.config.connect_attempts.max(1),
            last.expect("at least one attempt ran")
        );
        self.on_down(shard, slot, &detail);
        Err(self.unavailable(shard, slot, detail))
    }

    /// Runs `f` on a connection to `shard`: pooled if available, freshly
    /// connected otherwise. A fresh connection that fails marks the shard
    /// down for the cooldown window.
    ///
    /// `retry_stale` controls what happens when a *pooled* connection fails
    /// mid-request (typically because the shard restarted while the
    /// connection sat idle): with `true`, `f` is retried once on a fresh
    /// connection — only safe for **idempotent** requests, because the
    /// shard may have applied the first attempt even though its response
    /// never arrived. With `false` the ambiguous failure is surfaced as
    /// [`RouterError::ShardUnavailable`] without replaying the request (and
    /// without entering the cooldown — one torn connection proves nothing
    /// about the shard's health).
    ///
    /// # Errors
    ///
    /// Returns [`RouterError::ShardUnavailable`] for transport failures,
    /// [`RouterError::Remote`] when the shard itself refused, and
    /// [`RouterError::UnknownShard`] for bad ids.
    pub(crate) fn with_conn<T>(
        &self,
        shard: usize,
        retry_stale: bool,
        mut f: impl FnMut(&mut WireClient) -> Result<T, WireError>,
    ) -> Result<T, RouterError> {
        let slot = self.slot(shard)?;
        if let Some(detail) = slot.cooling_down() {
            return Err(self.unavailable(shard, &slot, detail));
        }
        if let Some(mut conn) = slot.pop_idle() {
            match f(&mut conn) {
                Ok(value) => {
                    self.on_up(shard, &slot);
                    slot.checkin(conn, self.config.max_idle);
                    return Ok(value);
                }
                Err(WireError::Remote(error)) => {
                    // The shard answered — connection and shard are fine,
                    // the request itself was refused.
                    self.on_up(shard, &slot);
                    slot.checkin(conn, self.config.max_idle);
                    return Err(RouterError::Remote(error));
                }
                // The pooled connection went stale; drop it. Idempotent
                // requests fall through to one fresh attempt; writes must
                // not be replayed after an ambiguous failure.
                Err(error) => {
                    if !retry_stale {
                        return Err(self.unavailable(
                            shard,
                            &slot,
                            format!(
                                "pooled connection failed mid-request ({error}); not \
                                 replayed — the request mutates state and may already \
                                 have been applied"
                            ),
                        ));
                    }
                }
            }
        }
        let mut conn = self.connect(shard, &slot)?;
        match f(&mut conn) {
            Ok(value) => {
                self.on_up(shard, &slot);
                slot.checkin(conn, self.config.max_idle);
                Ok(value)
            }
            Err(WireError::Remote(error)) => {
                self.on_up(shard, &slot);
                slot.checkin(conn, self.config.max_idle);
                Err(RouterError::Remote(error))
            }
            Err(error) => {
                let detail = format!("request failed on a fresh connection: {error}");
                self.on_down(shard, &slot, &detail);
                Err(self.unavailable(shard, &slot, detail))
            }
        }
    }

    /// Actively probes one shard: a single fresh connection attempt, no
    /// retries. A success clears the shard's down state early; a failure
    /// (re)marks it down.
    pub(crate) fn probe(&self, shard: usize) -> Result<ShardHealth, RouterError> {
        let slot = self.slot(shard)?;
        let healthy = match WireClient::connect(&slot.addr) {
            Ok(conn) => {
                self.on_up(shard, &slot);
                slot.checkin(conn, self.config.max_idle);
                true
            }
            Err(e) => {
                self.on_down(shard, &slot, &format!("probe failed: {e}"));
                false
            }
        };
        let state = slot.state.lock().expect("pool state lock poisoned");
        Ok(ShardHealth {
            shard,
            addr: slot.addr.clone(),
            healthy,
            last_error: state.last_error.clone(),
        })
    }

    /// Probes every shard in id order.
    pub(crate) fn probe_all(&self) -> Vec<ShardHealth> {
        (0..self.len())
            .map(|shard| self.probe(shard).expect("id in range"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An address nothing listens on: bind an ephemeral port, then drop it.
    fn dead_addr() -> BoundAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        BoundAddr::Tcp(addr)
    }

    #[test]
    fn unreachable_shard_is_typed_and_fast_fails_during_cooldown() {
        let pool = ShardPool::new_observed(
            vec![dead_addr()],
            PoolConfig {
                connect_attempts: 2,
                backoff: Duration::from_millis(1),
                cooldown: Duration::from_secs(30),
                max_idle: 4,
            },
            None,
        );
        let err = pool
            .with_conn(0, true, |_conn| Ok::<(), WireError>(()))
            .unwrap_err();
        assert!(
            matches!(err, RouterError::ShardUnavailable { shard: 0, .. }),
            "{err}"
        );

        // Inside the cooldown the failure is served from cache: no further
        // connect attempts, so this returns immediately.
        let start = Instant::now();
        let err = pool
            .with_conn(0, true, |_conn| Ok::<(), WireError>(()))
            .unwrap_err();
        assert!(matches!(err, RouterError::ShardUnavailable { .. }));
        assert!(start.elapsed() < Duration::from_millis(50));

        let health = pool.probe(0).unwrap();
        assert!(!health.healthy);
        let slots = pool.slots.read().unwrap();
        assert!(slots[0].state.lock().unwrap().consecutive_failures >= 2);
        assert!(health.last_error.is_some());
    }

    #[test]
    fn unknown_shard_ids_are_rejected() {
        let pool = ShardPool::new_observed(vec![], PoolConfig::default(), None);
        assert_eq!(pool.len(), 0);
        assert!(matches!(
            pool.with_conn(0, true, |_c| Ok::<(), WireError>(()))
                .unwrap_err(),
            RouterError::UnknownShard(0)
        ));
        assert!(matches!(
            pool.addr(3).unwrap_err(),
            RouterError::UnknownShard(3)
        ));
    }

    #[test]
    fn add_shard_allocates_sequential_ids() {
        let pool = ShardPool::new_observed(vec![dead_addr()], PoolConfig::default(), None);
        assert_eq!(pool.add_shard(dead_addr()), 1);
        assert_eq!(pool.add_shard(dead_addr()), 2);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn breaker_dwell_anchors_at_the_open_transition_and_replace_resets() {
        let config = PoolConfig {
            connect_attempts: 1,
            backoff: Duration::from_millis(1),
            cooldown: Duration::from_millis(1),
            max_idle: 4,
        };
        let pool = ShardPool::new_observed(vec![dead_addr()], config, None);
        assert_eq!(pool.breaker_dwell(0).unwrap(), None);

        let _ = pool.probe(0);
        let first = pool.breaker_dwell(0).unwrap().expect("breaker open");
        // A repeat failure after the 1ms cooldown elapsed must NOT re-anchor
        // the dwell: it keeps growing from the first open.
        std::thread::sleep(Duration::from_millis(10));
        let _ = pool.probe(0);
        let second = pool.breaker_dwell(0).unwrap().expect("still open");
        assert!(
            second >= first + Duration::from_millis(10),
            "{second:?} vs {first:?}"
        );

        // Re-pointing the shard at a live address clears the failure state…
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = BoundAddr::Tcp(listener.local_addr().unwrap());
        pool.replace_addr(0, live.clone()).unwrap();
        assert_eq!(pool.breaker_dwell(0).unwrap(), None);
        assert_eq!(pool.addr(0).unwrap(), live);
        // …and out-of-range ids stay typed.
        assert!(matches!(
            pool.replace_addr(7, dead_addr()).unwrap_err(),
            RouterError::UnknownShard(7)
        ));
        assert!(matches!(
            pool.breaker_dwell(7).unwrap_err(),
            RouterError::UnknownShard(7)
        ));
    }
}
