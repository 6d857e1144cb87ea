//! Live tails: bounded per-subscriber fan-out off the store's append path,
//! with resume cursors for gap-free reconnects.
//!
//! A tail is registered **atomically with its back-fill**: the store takes
//! its lock once, answers the cursor-ranged back-fill query against the
//! content it holds at that instant, and registers the subscriber's bounded
//! channel before releasing the lock. Every event appended before the
//! registration is in the back-fill, every event appended after it lands in
//! the channel — the two sides are disjoint by construction, so a single
//! subscription never sees a duplicate and never misses a row.
//!
//! Reconnects are where overlap can appear: a resumed subscriber back-fills
//! from its [`ObsCursor`] via a fresh query, and a router leg's retry may
//! re-deliver rows near the cursor. Those splices are deduplicated by
//! [`ObsResult::merge`]'s bit-exact row identity — the same invariant that
//! stitches scatter-gather legs.
//!
//! Delivery is `try_send` into a bounded channel, exactly like
//! [`EventSink`](crate::EventSink): the append path never waits on a slow
//! subscriber. A full channel drops the event and counts it, and the first
//! drop after a clean period appends a transition-only
//! [`EventKind::SinkOverflow`](crate::EventKind::SinkOverflow) marker to the
//! store itself, so the drop window is visible in the timeline the
//! subscriber is tailing.

use crate::event::Event;
use crate::query::ObsResult;
use crate::rollup::Rollup;
use ofscil_tensor::bytes::{put_u64, DecodeError, Reader};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A resume position in a timeline: the [`Event::order_key`] of the last
/// row a subscriber consumed. Back-fill after a reconnect delivers rows
/// **strictly after** the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ObsCursor {
    /// Timestamp component of the last consumed row.
    pub time_us: u64,
    /// Sequence-number tiebreaker of the last consumed row.
    pub seq: u64,
}

impl ObsCursor {
    /// The position before the first possible row: resuming here back-fills
    /// everything except a row at exactly `(0, 0)`, so fresh subscriptions
    /// pass `None` instead.
    pub fn start() -> ObsCursor {
        ObsCursor { time_us: 0, seq: 0 }
    }

    /// A cursor at an event's order key.
    pub fn at(event: &Event) -> ObsCursor {
        let (time_us, seq) = event.order_key();
        ObsCursor { time_us, seq }
    }

    /// The cursor as the tuple [`Event::order_key`] produces.
    pub fn key(self) -> (u64, u64) {
        (self.time_us, self.seq)
    }

    /// Moves the cursor forward to `key` if that is later (high-water:
    /// a time-inverted row never moves a cursor backwards).
    pub fn advance(&mut self, key: (u64, u64)) {
        if key > self.key() {
            self.time_us = key.0;
            self.seq = key.1;
        }
    }

    /// Appends the cursor: time, then sequence number.
    pub fn encode(self, out: &mut Vec<u8>) {
        put_u64(out, self.time_us);
        put_u64(out, self.seq);
    }

    /// Inverse of [`ObsCursor::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] for a short body.
    pub fn decode(r: &mut Reader<'_>) -> Result<ObsCursor, DecodeError> {
        Ok(ObsCursor {
            time_us: r.u64()?,
            seq: r.u64()?,
        })
    }
}

/// One batch of a tail stream — the unit a wire server frames and a router
/// merges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TailBatch {
    /// Rows in this batch, `(time_us, seq)`-ordered within the batch.
    pub events: Vec<Event>,
    /// Rollup cells covering back-fill spans whose raw rows were GC'd
    /// (bucket-granular; empty on live batches).
    pub rollups: Vec<Rollup>,
    /// High-water cursor after consuming this batch — resume here.
    pub cursor: ObsCursor,
    /// `true` for the cursor-ranged back-fill that opens a subscription,
    /// `false` for live batches.
    pub backfill: bool,
    /// The back-fill was cut short by the query limit: rows may be missing
    /// and the gap-free guarantee is void until the subscriber re-anchors.
    pub truncated: bool,
    /// Events this subscriber's tail has shed so far (drop-and-count).
    pub dropped: u64,
}

impl TailBatch {
    /// Folds the batch's events into `cursor` (high-water).
    pub fn advance_cursor(&self, cursor: &mut ObsCursor) {
        for event in &self.events {
            cursor.advance(event.order_key());
        }
        cursor.advance(self.cursor.key());
    }

    /// Appends the batch: flags (bit 0 back-fill, bit 1 truncated), cursor,
    /// dropped count, rows, rollup cells.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.backfill) | u8::from(self.truncated) << 1);
        self.cursor.encode(out);
        put_u64(out, self.dropped);
        Event::encode_all(&self.events, out);
        Rollup::encode_all(&self.rollups, out);
    }

    /// Inverse of [`TailBatch::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`]; unknown flag bits are a
    /// [`DecodeError::BadTag`].
    pub fn decode(r: &mut Reader<'_>) -> Result<TailBatch, DecodeError> {
        let flags = r.u8()?;
        if flags & !3 != 0 {
            return Err(DecodeError::BadTag {
                field: "tail flags",
                tag: flags,
            });
        }
        let cursor = ObsCursor::decode(r)?;
        let dropped = r.u64()?;
        Ok(TailBatch {
            events: Event::decode_all(r)?,
            rollups: Rollup::decode_all(r)?,
            cursor,
            backfill: flags & 1 != 0,
            truncated: flags & 2 != 0,
            dropped,
        })
    }
}

/// Shared per-subscriber counters: written by the store's fan-out, read by
/// whoever streams the tail.
#[derive(Debug, Default)]
pub(crate) struct TailCounters {
    pub(crate) delivered: AtomicU64,
    pub(crate) dropped: AtomicU64,
}

/// A live tail on an [`ObsStore`](crate::ObsStore): the back-fill the
/// subscription opened with, plus the bounded channel live rows arrive on.
///
/// Dropping the tail unregisters it — the store removes the slot the next
/// time fan-out finds the channel disconnected.
#[derive(Debug)]
pub struct ObsTail {
    /// Everything after the resume cursor that the store held at subscribe
    /// time: raw rows where they survive, rollup cells where GC took them.
    pub backfill: ObsResult,
    /// High-water cursor after the back-fill — already advanced past every
    /// back-filled row.
    pub cursor: ObsCursor,
    pub(crate) rx: mpsc::Receiver<Event>,
    pub(crate) id: u64,
    pub(crate) counters: Arc<TailCounters>,
}

impl ObsTail {
    /// This subscription's id — live drops are attributed to the
    /// pseudo-deployment `tail:<id>` in [`SinkOverflow`] markers.
    ///
    /// [`SinkOverflow`]: crate::EventKind::SinkOverflow
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks up to `timeout` for the next live row.
    ///
    /// # Errors
    ///
    /// [`mpsc::RecvTimeoutError::Timeout`] when nothing arrived, and
    /// [`mpsc::RecvTimeoutError::Disconnected`] once the store is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Event, mpsc::RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// The next live row if one is already buffered; never blocks.
    pub fn try_next(&self) -> Option<Event> {
        self.rx.try_recv().ok()
    }

    /// Live rows accepted into this subscriber's channel so far.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.load(Ordering::Acquire)
    }

    /// Live rows shed because this subscriber's channel was full.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn cursor_is_a_high_water_mark() {
        let mut cursor = ObsCursor::start();
        cursor.advance((10, 2));
        assert_eq!(cursor.key(), (10, 2));
        // Same time, higher seq advances; anything earlier does not.
        cursor.advance((10, 5));
        assert_eq!(cursor.key(), (10, 5));
        cursor.advance((9, 99));
        cursor.advance((10, 4));
        assert_eq!(cursor.key(), (10, 5));
        let event = Event::new(EventKind::Infer, "t")
            .with_time_us(11)
            .with_seq(0);
        assert_eq!(ObsCursor::at(&event).key(), (11, 0));
    }

    #[test]
    fn batch_advances_cursor_over_events_and_own_cursor() {
        let batch = TailBatch {
            events: vec![
                Event::new(EventKind::Infer, "t")
                    .with_time_us(5)
                    .with_seq(1),
                Event::new(EventKind::Infer, "t")
                    .with_time_us(7)
                    .with_seq(0),
            ],
            cursor: ObsCursor { time_us: 6, seq: 0 },
            ..TailBatch::default()
        };
        let mut cursor = ObsCursor::start();
        batch.advance_cursor(&mut cursor);
        assert_eq!(cursor.key(), (7, 0));
    }
}
