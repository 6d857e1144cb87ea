//! The non-blocking intake: a bounded channel that sheds instead of stalls.

use crate::event::{Event, EventKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Pseudo-deployment name of [`EventKind::SinkOverflow`] markers emitted by
/// the intake channel itself (tail subscribers use `tail:<id>` instead).
pub(crate) const SINK_OVERFLOW_DEPLOYMENT: &str = "obs:sink";

/// A monotonic clock with a wall anchor: microseconds since the Unix epoch,
/// but advanced by `Instant` so it can never run backwards within a process.
///
/// Every process in a cluster anchors its own clock at startup, so
/// timestamps from different processes are comparable to NTP-ish precision
/// while per-process ordering stays strictly monotonic — good enough to
/// stitch one tenant's timeline across a migration between shards.
#[derive(Debug)]
pub struct ObsClock {
    anchor_us: u64,
    started: Instant,
}

impl ObsClock {
    /// Anchors the clock at the current wall time.
    pub fn new() -> ObsClock {
        let anchor_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        ObsClock {
            anchor_us,
            started: Instant::now(),
        }
    }

    /// Monotonic microseconds since the Unix epoch.
    pub(crate) fn now_us(&self) -> u64 {
        self.anchor_us
            .saturating_add(self.started.elapsed().as_micros() as u64)
    }
}

impl Default for ObsClock {
    fn default() -> Self {
        ObsClock::new()
    }
}

#[derive(Debug, Default)]
struct SinkCounters {
    sent: AtomicU64,
    dropped: AtomicU64,
    /// `true` while inside a drop window; flips back on the first accepted
    /// event, which also carries the window's [`EventKind::SinkOverflow`]
    /// marker into the channel.
    overflow: AtomicBool,
    overflows: AtomicU64,
}

/// The write side of an observability pipeline.
///
/// [`emit`](EventSink::emit) is **non-blocking by construction**: it stamps
/// the event's time and `try_send`s it into a bounded channel. A full
/// channel (the collector fell behind) drops the event and increments
/// [`dropped`](EventSink::dropped) — the serving hot path never waits on
/// observability, and the loss is visible instead of silent.
#[derive(Debug, Clone)]
pub struct EventSink {
    tx: mpsc::SyncSender<Event>,
    clock: Arc<ObsClock>,
    counters: Arc<SinkCounters>,
}

impl EventSink {
    /// A sink over a fresh bounded channel of `depth` events, plus the
    /// receiving end a collector drains. [`Obs::new`](crate::Obs::new) wires
    /// this up for normal use; tests use it directly to exercise
    /// backpressure deterministically.
    pub(crate) fn bounded(depth: usize) -> (EventSink, mpsc::Receiver<Event>) {
        let (tx, rx) = mpsc::sync_channel(depth.max(1));
        let sink = EventSink {
            tx,
            clock: Arc::new(ObsClock::new()),
            counters: Arc::new(SinkCounters::default()),
        };
        (sink, rx)
    }

    /// Stamps `event` with the sink's clock and offers it to the channel.
    /// Never blocks; a full channel counts a drop.
    pub fn emit(&self, mut event: Event) {
        event.time_us = self.clock.now_us();
        self.emit_at(event);
    }

    /// Offers `event` with its timestamp left untouched. Never blocks.
    ///
    /// The first drop after a clean period opens an **overflow window**
    /// ([`EventSink::overflows`] counts the transitions, breaker-style).
    /// The window's [`EventKind::SinkOverflow`] marker rides into the
    /// channel with the first event accepted afterwards — at the drop
    /// instant the channel is full by definition, so the marker lands on
    /// the closing edge, stamped with the accepted event's time and
    /// carrying the total dropped count in `seq`. Drop windows are thereby
    /// visible in the timeline itself, one row per window.
    pub(crate) fn emit_at(&self, event: Event) {
        let time_us = event.time_us;
        match self.tx.try_send(event) {
            Ok(()) => {
                self.counters.sent.fetch_add(1, Ordering::Release);
                if self.counters.overflow.swap(false, Ordering::AcqRel) {
                    let marker = Event::new(EventKind::SinkOverflow, SINK_OVERFLOW_DEPLOYMENT)
                        .with_time_us(time_us)
                        .with_seq(self.dropped());
                    match self.tx.try_send(marker) {
                        Ok(()) => {
                            self.counters.sent.fetch_add(1, Ordering::Release);
                        }
                        // The channel refilled under us: count the drop and
                        // re-arm so a later accepted event retries.
                        Err(_) => {
                            self.counters.dropped.fetch_add(1, Ordering::Release);
                            self.counters.overflow.store(true, Ordering::Release);
                        }
                    }
                }
            }
            // Full (backpressure) or disconnected (collector gone): either
            // way the event is shed, never waited on.
            Err(_) => {
                self.counters.dropped.fetch_add(1, Ordering::Release);
                if !self.counters.overflow.swap(true, Ordering::AcqRel) {
                    self.counters.overflows.fetch_add(1, Ordering::Release);
                }
            }
        }
    }

    /// Events accepted into the channel so far (overflow markers included).
    pub fn sent(&self) -> u64 {
        self.counters.sent.load(Ordering::Acquire)
    }

    /// Events shed because the channel was full (or its collector gone).
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Acquire)
    }

    /// The sink's clock, for callers that want comparable timestamps
    /// without emitting.
    pub fn clock(&self) -> &ObsClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::time::Duration;

    #[test]
    fn clock_is_monotonic() {
        let clock = ObsClock::new();
        let mut last = clock.now_us();
        for _ in 0..1000 {
            let now = clock.now_us();
            assert!(now >= last);
            last = now;
        }
        assert!(last > 0, "anchor should place us well past the epoch");
    }

    /// The bounded-channel drop counter, deterministically: nothing drains
    /// the receiver, so exactly `depth` events are accepted and the rest are
    /// shed — and emitting past a full channel returns immediately instead
    /// of blocking.
    #[test]
    fn full_channel_drops_and_counts_instead_of_blocking() {
        let (sink, _rx) = EventSink::bounded(2);
        let start = Instant::now();
        for i in 0..10u64 {
            sink.emit(Event::new(EventKind::Infer, "t").with_seq(i));
        }
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "emit must never block on a full channel"
        );
        assert_eq!(sink.sent(), 2);
        assert_eq!(sink.dropped(), 8);
    }

    #[test]
    fn disconnected_collector_sheds_too() {
        let (sink, rx) = EventSink::bounded(4);
        drop(rx);
        sink.emit(Event::new(EventKind::Learn, "t"));
        assert_eq!(sink.sent(), 0);
        assert_eq!(sink.dropped(), 1);
    }

    /// One drop window, however long, yields exactly one SinkOverflow
    /// marker — delivered with the first event accepted after the window,
    /// stamped with that event's time and the window's total dropped count.
    #[test]
    fn overflow_window_emits_one_transition_marker_on_recovery() {
        let (sink, rx) = EventSink::bounded(4);
        for i in 0..4u64 {
            sink.emit_at(
                Event::new(EventKind::Infer, "t")
                    .with_time_us(10 + i)
                    .with_seq(i),
            );
        }
        // Three drops, one window.
        for i in 0..3u64 {
            sink.emit_at(Event::new(EventKind::Infer, "t").with_time_us(20 + i));
        }
        assert_eq!(sink.counters.overflows.load(Ordering::Acquire), 1);
        assert_eq!(sink.dropped(), 3);
        // Drain two, then the next accepted event closes the window and the
        // marker rides along right behind it.
        rx.recv().unwrap();
        rx.recv().unwrap();
        sink.emit_at(Event::new(EventKind::Infer, "t").with_time_us(30));
        let events: Vec<Event> = rx.try_iter().collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].time_us, 30);
        let marker = &events[3];
        assert_eq!(marker.kind, EventKind::SinkOverflow);
        assert_eq!(marker.deployment, SINK_OVERFLOW_DEPLOYMENT);
        assert_eq!(marker.time_us, 30);
        assert_eq!(marker.seq, 3, "seq carries the dropped total");
        assert_eq!(sink.sent(), 6, "the marker counts as sent");
        // A second window is a second transition.
        for _ in 0..4 {
            sink.emit_at(Event::new(EventKind::Infer, "t").with_time_us(40));
        }
        sink.emit_at(Event::new(EventKind::Infer, "t").with_time_us(41));
        assert_eq!(sink.counters.overflows.load(Ordering::Acquire), 2);
    }

    #[test]
    fn emit_stamps_time_and_emit_at_preserves_it() {
        let (sink, rx) = EventSink::bounded(4);
        sink.emit(Event::new(EventKind::Infer, "t"));
        sink.emit_at(Event::new(EventKind::Infer, "t").with_time_us(42));
        let stamped = rx.recv().unwrap();
        assert!(
            stamped.time_us > 1_000_000,
            "emit stamps wall-anchored time"
        );
        assert_eq!(rx.recv().unwrap().time_us, 42);
    }
}
