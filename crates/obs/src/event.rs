//! The event schema: one row per thing the cluster did.

use ofscil_tensor::bytes::{put_f32, put_f64, put_str16, put_u32, put_u64, DecodeError, Reader};

/// What happened. The discriminants double as wire codes and as bit
/// positions in a query's kind mask ([`EventKind::bit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// One served inference (per item, even inside a coalesced batch).
    Infer,
    /// One committed `LearnOnline`.
    Learn,
    /// One admission rejection (budget refusal, including deferrals settled
    /// as rejections at shutdown).
    Reject,
    /// One accepted energy-budget top-up.
    TopUp,
    /// A durable checkpoint advanced (store-backed servers only).
    Checkpoint,
    /// A live migration moved the deployment between shards (router).
    Migration,
    /// A shard's circuit breaker opened (router; the "deployment" is the
    /// pseudo-name `shard:N`).
    BreakerOpen,
    /// A shard's circuit breaker closed again (router).
    BreakerClose,
    /// A follower was promoted to a writable primary.
    Promotion,
    /// A follower fell behind its replication stream and re-anchored from a
    /// fresh snapshot (`seq` is the sequence it re-anchored to).
    Resync,
    /// A follower applied one replicated commit (`seq` is the commit's
    /// replication sequence number) — the heartbeat a replication-lag
    /// timeline is read from.
    ReplApply,
    /// The control plane executed a `PromoteFollower` action (the
    /// "deployment" is the pseudo-name `shard:N`; `seq` is the controller
    /// tick, `latency_us` the breaker dwell that triggered it, and
    /// `energy_mj` the shard's trailing request load at decision time).
    CtrlPromote,
    /// The control plane executed a `RestartFromStore` action (same field
    /// encoding as [`EventKind::CtrlPromote`]).
    CtrlRestart,
    /// The control plane executed a `RebalanceHot` action (the "deployment"
    /// is the migrated tenant; `seq` is the controller tick, `latency_us`
    /// the source shard id, `wal_bytes` the target shard id, and
    /// `energy_mj` the tenant's trailing request load at decision time).
    CtrlRebalance,
    /// An observability pipeline started shedding events after a clean
    /// period — emitted **once per drop window** (transition-only, like
    /// breaker open/close), so silent drop windows are visible in the
    /// timeline itself. The "deployment" is the overflowing pipeline's
    /// pseudo-name (`obs:sink` for the intake channel, `tail:N` for a live
    /// tail subscriber); `seq` is the pipeline's total dropped count at the
    /// transition.
    SinkOverflow,
}

impl EventKind {
    /// Every kind, in code order.
    pub const ALL: [EventKind; 15] = [
        EventKind::Infer,
        EventKind::Learn,
        EventKind::Reject,
        EventKind::TopUp,
        EventKind::Checkpoint,
        EventKind::Migration,
        EventKind::BreakerOpen,
        EventKind::BreakerClose,
        EventKind::Promotion,
        EventKind::Resync,
        EventKind::ReplApply,
        EventKind::CtrlPromote,
        EventKind::CtrlRestart,
        EventKind::CtrlRebalance,
        EventKind::SinkOverflow,
    ];

    /// The stable storage/wire code of this kind.
    pub fn code(self) -> u8 {
        match self {
            EventKind::Infer => 0,
            EventKind::Learn => 1,
            EventKind::Reject => 2,
            EventKind::TopUp => 3,
            EventKind::Checkpoint => 4,
            EventKind::Migration => 5,
            EventKind::BreakerOpen => 6,
            EventKind::BreakerClose => 7,
            EventKind::Promotion => 8,
            EventKind::Resync => 9,
            EventKind::ReplApply => 10,
            EventKind::CtrlPromote => 11,
            EventKind::CtrlRestart => 12,
            EventKind::CtrlRebalance => 13,
            EventKind::SinkOverflow => 14,
        }
    }

    /// Inverse of [`EventKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<EventKind> {
        EventKind::ALL.get(code as usize).copied()
    }

    /// This kind's bit in a query's kind mask.
    pub fn bit(self) -> u16 {
        1 << self.code()
    }

    /// A short human-readable label (for timeline printouts).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Infer => "infer",
            EventKind::Learn => "learn",
            EventKind::Reject => "reject",
            EventKind::TopUp => "top-up",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Migration => "migration",
            EventKind::BreakerOpen => "breaker-open",
            EventKind::BreakerClose => "breaker-close",
            EventKind::Promotion => "promotion",
            EventKind::Resync => "resync",
            EventKind::ReplApply => "repl-apply",
            EventKind::CtrlPromote => "ctrl-promote",
            EventKind::CtrlRestart => "ctrl-restart",
            EventKind::CtrlRebalance => "ctrl-rebalance",
            EventKind::SinkOverflow => "sink-overflow",
        }
    }
}

/// One observability sample — the row form of what the store holds
/// column-per-field.
///
/// Fields that do not apply to a kind keep their neutral value: `seq` 0,
/// `energy_mj` 0, `latency_us` 0, `wal_bytes` 0, and `accuracy` **NaN**
/// (aggregates skip non-finite accuracies, so "not applicable" never drags a
/// mean down).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Deployment the event belongs to (interned to a `u32` id in storage).
    /// Router-level shard events use the pseudo-name `shard:N`.
    pub deployment: String,
    /// What happened.
    pub kind: EventKind,
    /// Replication/commit sequence number, when the event has one.
    pub seq: u64,
    /// Monotonic microseconds since the Unix epoch, stamped by the emitting
    /// process's [`ObsClock`](crate::ObsClock) at [`emit`](crate::EventSink::emit) time.
    pub time_us: u64,
    /// Energy attributed to the event, in millijoules (amortized per item
    /// for coalesced batches).
    pub energy_mj: f64,
    /// Wall-clock latency of the work, in microseconds.
    pub latency_us: u64,
    /// Accuracy proxy (the prediction's cosine similarity for `Infer`);
    /// NaN when not applicable.
    pub accuracy: f32,
    /// Write-ahead-log size after the event, for `Checkpoint` rows.
    pub wal_bytes: u64,
}

impl Event {
    /// A new event with neutral field values (see the struct docs).
    pub fn new(kind: EventKind, deployment: &str) -> Event {
        Event {
            deployment: deployment.to_string(),
            kind,
            seq: 0,
            time_us: 0,
            energy_mj: 0.0,
            latency_us: 0,
            accuracy: f32::NAN,
            wal_bytes: 0,
        }
    }

    /// Sets the sequence number (builder style).
    #[must_use]
    pub fn with_seq(mut self, seq: u64) -> Event {
        self.seq = seq;
        self
    }

    /// Sets the explicit timestamp (builder style). [`EventSink::emit`]
    /// overwrites it; use `EventSink::emit_at` to keep it.
    ///
    /// [`EventSink::emit`]: crate::EventSink::emit
    #[must_use]
    pub fn with_time_us(mut self, time_us: u64) -> Event {
        self.time_us = time_us;
        self
    }

    /// Sets the energy cost (builder style).
    #[must_use]
    pub fn with_energy_mj(mut self, energy_mj: f64) -> Event {
        self.energy_mj = energy_mj;
        self
    }

    /// Sets the latency (builder style).
    #[must_use]
    pub fn with_latency_us(mut self, latency_us: u64) -> Event {
        self.latency_us = latency_us;
        self
    }

    /// Sets the accuracy proxy (builder style).
    #[must_use]
    pub fn with_accuracy(mut self, accuracy: f32) -> Event {
        self.accuracy = accuracy;
        self
    }

    /// Sets the WAL size (builder style).
    #[must_use]
    pub fn with_wal_bytes(mut self, wal_bytes: u64) -> Event {
        self.wal_bytes = wal_bytes;
        self
    }

    /// The ordering key of the store and of merged query results: time
    /// first, sequence number as the tiebreaker.
    pub fn order_key(&self) -> (u64, u64) {
        (self.time_us, self.seq)
    }

    /// Smallest encoded row: name prefix (2) + kind (1) + seq/time/latency/
    /// wal (4×8) + energy (8) + accuracy (4). What a decoder multiplies a
    /// declared row count by before allocating.
    pub const MIN_ENCODED_BYTES: usize = 47;

    /// Appends the row's byte layout — the one layout spill chunks, query
    /// responses and tail batches all carry.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_str16(out, &self.deployment);
        out.push(self.kind.code());
        put_u64(out, self.seq);
        put_u64(out, self.time_us);
        put_f64(out, self.energy_mj);
        put_u64(out, self.latency_us);
        put_f32(out, self.accuracy);
        put_u64(out, self.wal_bytes);
    }

    /// Inverse of [`Event::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] for short rows, bad UTF-8 and unknown
    /// kind codes.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Event, DecodeError> {
        let deployment = r.str16()?;
        let tag = r.u8()?;
        let kind = EventKind::from_code(tag).ok_or(DecodeError::BadTag {
            field: "event kind",
            tag,
        })?;
        Ok(Event {
            deployment,
            kind,
            seq: r.u64()?,
            time_us: r.u64()?,
            energy_mj: r.f64()?,
            latency_us: r.u64()?,
            accuracy: r.f32()?,
            wal_bytes: r.u64()?,
        })
    }

    /// Appends a counted run of rows (`u32` count, then each row) after one
    /// `reserve` — the body of a spill chunk record and the event list of a
    /// query response or tail batch.
    pub fn encode_all(events: &[Event], out: &mut Vec<u8>) {
        out.reserve(4 + events.len() * 64);
        put_u32(out, events.len() as u32);
        for event in events {
            event.encode(out);
        }
    }

    /// Inverse of [`Event::encode_all`]. The declared count is proved
    /// against the remaining bytes before the row vector is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LengthOverflow`] for a count the body cannot
    /// hold, or the first row's decode error.
    pub fn decode_all(r: &mut Reader<'_>) -> Result<Vec<Event>, DecodeError> {
        r.list("events", Event::MIN_ENCODED_BYTES, Event::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip_and_bits_are_distinct() {
        let mut mask: u16 = 0;
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.code() as usize, i);
            assert_eq!(EventKind::from_code(kind.code()), Some(*kind));
            assert_eq!(mask & kind.bit(), 0, "bit collision at {kind:?}");
            mask |= kind.bit();
            assert!(!kind.label().is_empty());
        }
        assert_eq!(EventKind::from_code(15), None);
        assert_eq!(EventKind::from_code(255), None);
    }

    #[test]
    fn row_codec_roundtrips_bit_exactly_and_min_size_is_the_minimal_row() {
        let mut minimal = Vec::new();
        Event::new(EventKind::Infer, "").encode(&mut minimal);
        assert_eq!(minimal.len(), Event::MIN_ENCODED_BYTES);

        let events = vec![
            Event::new(EventKind::Infer, "tenant-a")
                .with_seq(4)
                .with_time_us(1_000)
                .with_energy_mj(0.5)
                .with_latency_us(120)
                .with_accuracy(0.875),
            // NaN accuracy: compared through Debug, which prints NaN alike.
            Event::new(EventKind::Migration, "tenant-a").with_wal_bytes(4096),
        ];
        let mut body = Vec::new();
        Event::encode_all(&events, &mut body);
        let mut r = Reader::new(&body);
        let back = Event::decode_all(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(format!("{back:?}"), format!("{events:?}"));

        // A count the body cannot hold is refused before allocation.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        hostile.extend_from_slice(&minimal);
        assert!(matches!(
            Event::decode_all(&mut Reader::new(&hostile)),
            Err(DecodeError::LengthOverflow {
                field: "events",
                ..
            })
        ));
        // An unknown kind code is a typed tag error.
        let mut bad = minimal.clone();
        bad[2] = 0xff;
        assert!(matches!(
            Event::decode(&mut Reader::new(&bad)),
            Err(DecodeError::BadTag {
                field: "event kind",
                tag: 0xff
            })
        ));
    }

    #[test]
    fn new_event_is_neutral() {
        let event = Event::new(EventKind::Reject, "t");
        assert_eq!(event.seq, 0);
        assert_eq!(event.energy_mj, 0.0);
        assert!(event.accuracy.is_nan());
        let event = event.with_seq(7).with_energy_mj(1.5).with_accuracy(0.5);
        assert_eq!(event.order_key(), (0, 7));
        assert_eq!(event.accuracy, 0.5);
    }
}
