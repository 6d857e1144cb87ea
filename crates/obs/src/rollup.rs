//! Downsampled per-minute rollup rows for long-horizon timelines.
//!
//! A [`Rollup`] is one `(minute bucket, deployment, kind)` key around an
//! [`ObsAggregates`]: the count and the min/max/sum summaries of every event
//! folded into it. The store folds each chunk it seals into these cells, so
//! a query over a long horizon can be answered from a handful of rollup rows
//! instead of a raw scan — with aggregates **exactly** equal to the raw
//! scan's (a cell and a scan fold the same values through the same
//! [`ObsAggregates`] fold, just grouped differently).

use crate::event::{Event, EventKind};
use crate::query::ObsAggregates;
use ofscil_tensor::bytes::{put_str16, put_u32, put_u64, DecodeError, Reader};

/// Width of one rollup bucket: a minute of microseconds.
pub const ROLLUP_BUCKET_US: u64 = 60_000_000;

/// One downsampled cell: every event of one kind, for one deployment,
/// inside one minute.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// Start of the minute bucket (`time_us - time_us % ROLLUP_BUCKET_US`).
    pub bucket_us: u64,
    /// Deployment the cell belongs to.
    pub deployment: String,
    /// Event kind the cell counts.
    pub kind: EventKind,
    /// What the cell holds: `matched` counts the events folded in, and the
    /// accuracy summary skips NaN rows, so its count can be below that.
    pub values: ObsAggregates,
}

impl Rollup {
    /// The bucket a timestamp falls into.
    pub fn bucket_of(time_us: u64) -> u64 {
        time_us - time_us % ROLLUP_BUCKET_US
    }

    /// An empty cell.
    pub fn new(bucket_us: u64, deployment: &str, kind: EventKind) -> Rollup {
        Rollup {
            bucket_us,
            deployment: deployment.to_string(),
            kind,
            values: ObsAggregates::default(),
        }
    }

    /// Folds one event in. The caller is responsible for routing the event
    /// to the right cell.
    pub fn observe(&mut self, event: &Event) {
        self.values.observe(event);
    }

    /// The grouping key: bucket, then deployment, then kind code — the sort
    /// order rollup rows are returned in.
    pub fn key(&self) -> (u64, String, u8) {
        (self.bucket_us, self.deployment.clone(), self.kind.code())
    }

    /// Smallest encoded cell: bucket (8) + name prefix (2) + kind (1) +
    /// count (8) + three 32-byte summaries.
    pub const MIN_ENCODED_BYTES: usize = 115;

    /// Appends the cell's byte layout — the body of a spill rollup record
    /// and the rollup rows of a query response or tail batch.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(Rollup::MIN_ENCODED_BYTES + self.deployment.len());
        put_u64(out, self.bucket_us);
        put_str16(out, &self.deployment);
        out.push(self.kind.code());
        self.values.encode(out);
    }

    /// Inverse of [`Rollup::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] for short cells, bad UTF-8 and
    /// unknown kind codes.
    pub fn decode(r: &mut Reader<'_>) -> Result<Rollup, DecodeError> {
        let bucket_us = r.u64()?;
        let deployment = r.str16()?;
        let tag = r.u8()?;
        let kind = EventKind::from_code(tag).ok_or(DecodeError::BadTag {
            field: "rollup kind",
            tag,
        })?;
        Ok(Rollup {
            bucket_us,
            deployment,
            kind,
            values: ObsAggregates::decode(r)?,
        })
    }

    /// Appends a counted run of cells (`u32` count, then each cell).
    pub(crate) fn encode_all(rollups: &[Rollup], out: &mut Vec<u8>) {
        put_u32(out, rollups.len() as u32);
        for rollup in rollups {
            rollup.encode(out);
        }
    }

    /// Inverse of [`Rollup::encode_all`]; the declared count is proved
    /// before the vector is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::LengthOverflow`] for a count the body cannot
    /// hold, or the first cell's decode error.
    pub(crate) fn decode_all(r: &mut Reader<'_>) -> Result<Vec<Rollup>, DecodeError> {
        r.list("rollups", Rollup::MIN_ENCODED_BYTES, Rollup::decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_floors_to_the_minute() {
        assert_eq!(Rollup::bucket_of(0), 0);
        assert_eq!(Rollup::bucket_of(ROLLUP_BUCKET_US - 1), 0);
        assert_eq!(Rollup::bucket_of(ROLLUP_BUCKET_US), ROLLUP_BUCKET_US);
        assert_eq!(
            Rollup::bucket_of(3 * ROLLUP_BUCKET_US + 17),
            3 * ROLLUP_BUCKET_US
        );
    }

    #[test]
    fn cell_codec_roundtrips_and_min_size_is_the_minimal_cell() {
        let mut minimal = Vec::new();
        Rollup::new(0, "", EventKind::Infer).encode(&mut minimal);
        assert_eq!(minimal.len(), Rollup::MIN_ENCODED_BYTES);

        let mut cell = Rollup::new(ROLLUP_BUCKET_US, "tenant-a", EventKind::Learn);
        cell.observe(&Event::new(EventKind::Learn, "tenant-a").with_energy_mj(0.5));
        let cells = vec![Rollup::new(0, "t", EventKind::Infer), cell];
        let mut body = Vec::new();
        Rollup::encode_all(&cells, &mut body);
        let mut r = Reader::new(&body);
        assert_eq!(Rollup::decode_all(&mut r).unwrap(), cells);
        r.finish().unwrap();

        let mut hostile = Vec::new();
        put_u32(&mut hostile, 2);
        hostile.extend_from_slice(&minimal);
        assert!(matches!(
            Rollup::decode_all(&mut Reader::new(&hostile)),
            Err(DecodeError::LengthOverflow {
                field: "rollups",
                declared: 2
            })
        ));
    }

    #[test]
    fn observe_and_merge_match_a_flat_fold() {
        let events = [
            Event::new(EventKind::Infer, "t")
                .with_energy_mj(0.5)
                .with_latency_us(10),
            Event::new(EventKind::Infer, "t")
                .with_energy_mj(0.25)
                .with_latency_us(30)
                .with_accuracy(0.5),
        ];
        let mut split_a = Rollup::new(0, "t", EventKind::Infer);
        split_a.observe(&events[0]);
        let mut split_b = Rollup::new(0, "t", EventKind::Infer);
        split_b.observe(&events[1]);
        split_a.values.merge(&split_b.values);

        let mut flat = Rollup::new(0, "t", EventKind::Infer);
        for event in &events {
            flat.observe(event);
        }
        assert_eq!(split_a, flat);
        assert_eq!(flat.values.matched, 2);
        assert_eq!(flat.values.energy_mj.sum, 0.75);
        assert_eq!(flat.values.accuracy.count, 1);
        assert_eq!(flat.key(), (0, "t".to_string(), 0));
    }
}
