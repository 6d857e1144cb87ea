//! Typed WAL records, checkpoint files, log replay and delta compaction.
//!
//! A deployment's durable state is one **checkpoint** (a full explicit-memory
//! snapshot plus the replication sequence number and energy-meter state it
//! was taken at) and a **write-ahead log** of the operations committed since:
//!
//! * [`WalRecord::Learn`] — one committed `LearnOnline`: the post-commit
//!   prototypes of the classes the batch touched (the same value-logged
//!   deltas the replication stream carries),
//! * [`WalRecord::Import`] — a full explicit-memory install (live migration,
//!   restore): the snapshot-codec bytes that were installed,
//! * [`WalRecord::TopUp`] — a budget top-up (the sequence number is
//!   unchanged; only the meter state moves).
//!
//! Every record carries the deployment's replication sequence number and
//! energy-meter state *after* the operation, so [`replay`] reconstructs all
//! three recovery targets — explicit memory, sequence number, energy budget —
//! bit-exactly from checkpoint + log.
//!
//! [`compact_records`] is the delta compaction: runs of `Learn` records
//! overwriting the same class slots collapse to one record holding only the
//! newest prototype per class, so replay cost is bounded by **live classes**,
//! not total writes. Compaction is replay-equivalent by construction (the
//! property the `compaction_equivalence` test drives with random op
//! sequences).

use crate::error::StoreError;
use crate::oplog::RawRecord;
use ofscil_serve::{
    decode_budget, decode_explicit_memory, decode_prototypes, encode_budget,
    encode_explicit_memory, encode_prototypes,
};
use ofscil_tensor::bytes::{
    decode_exact, put_bytes, put_checksum, put_f64, put_u16, put_u64, split_checksum, DecodeError,
    Reader,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Record kind bytes inside the WAL's [`OpLog`](crate::OpLog).
const KIND_LEARN: u8 = 0x01;
const KIND_IMPORT: u8 = 0x02;
const KIND_TOP_UP: u8 = 0x03;

/// Magic bytes identifying a checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"OFCK";

/// Current checkpoint format version.
pub(crate) const CHECKPOINT_VERSION: u16 = 1;

/// One durable operation on a deployment's explicit memory or budget.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One committed `LearnOnline`.
    Learn {
        /// Replication sequence number of the commit.
        seq: u64,
        /// Total classes stored after the commit.
        total_classes: u64,
        /// `(class, post-commit prototype)` pairs, ascending by class.
        updates: Vec<(u64, Vec<f32>)>,
        /// Energy admitted against the budget after the commit settled, in
        /// millijoules.
        spent_mj: f64,
        /// Energy budget after the commit; `None` when unlimited.
        budget_mj: Option<f64>,
    },
    /// A full explicit-memory install (migration import, restore).
    Import {
        /// Replication sequence number after the install.
        seq: u64,
        /// The installed `ofscil_serve::snapshot` codec bytes.
        snapshot: Vec<u8>,
        /// Meter spend after the install, in millijoules.
        spent_mj: f64,
        /// Budget after the install; `None` when unlimited.
        budget_mj: Option<f64>,
    },
    /// A budget top-up; the sequence number does not advance.
    TopUp {
        /// Replication sequence number at the time of the top-up.
        seq: u64,
        /// Meter spend after the top-up, in millijoules.
        spent_mj: f64,
        /// Budget after the top-up; `None` when unlimited.
        budget_mj: Option<f64>,
    },
}

impl WalRecord {
    /// The replication sequence number the record carries.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Learn { seq, .. }
            | WalRecord::Import { seq, .. }
            | WalRecord::TopUp { seq, .. } => *seq,
        }
    }

    /// Encodes the record into its raw `(kind, body)` form for the op log:
    /// sequence number and meter state first, then the kind's payload (the
    /// prototype list of a `Learn`, the snapshot bytes of an `Import`).
    pub fn encode(&self) -> RawRecord {
        // Fits every fixed-size prefix; the variable tails reserve their own.
        let mut body = Vec::with_capacity(64);
        let meter = |body: &mut Vec<u8>, spent_mj: f64, budget_mj: Option<f64>| {
            put_f64(body, spent_mj);
            encode_budget(budget_mj, body);
        };
        let kind = match self {
            WalRecord::Learn {
                seq,
                total_classes,
                updates,
                spent_mj,
                budget_mj,
            } => {
                put_u64(&mut body, *seq);
                put_u64(&mut body, *total_classes);
                meter(&mut body, *spent_mj, *budget_mj);
                encode_prototypes(updates, &mut body);
                KIND_LEARN
            }
            WalRecord::Import {
                seq,
                snapshot,
                spent_mj,
                budget_mj,
            } => {
                body.reserve(snapshot.len());
                put_u64(&mut body, *seq);
                meter(&mut body, *spent_mj, *budget_mj);
                put_bytes(&mut body, snapshot);
                KIND_IMPORT
            }
            WalRecord::TopUp {
                seq,
                spent_mj,
                budget_mj,
            } => {
                put_u64(&mut body, *seq);
                meter(&mut body, *spent_mj, *budget_mj);
                KIND_TOP_UP
            }
        };
        (kind, body)
    }

    /// Decodes a raw `(kind, body)` record.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] for a record the log's checksum let
    /// through but whose body does not parse — the store treats it as
    /// corruption (same truncate-the-tail handling as a failed checksum).
    /// Declared counts are proved against the body before anything is
    /// allocated.
    pub fn decode(kind: u8, body: &[u8]) -> Result<WalRecord, DecodeError> {
        decode_exact(body, |r| {
            Ok(match kind {
                KIND_LEARN => WalRecord::Learn {
                    seq: r.u64()?,
                    total_classes: r.u64()?,
                    spent_mj: r.f64()?,
                    budget_mj: decode_budget(r)?,
                    updates: decode_prototypes(r)?,
                },
                KIND_IMPORT => WalRecord::Import {
                    seq: r.u64()?,
                    spent_mj: r.f64()?,
                    budget_mj: decode_budget(r)?,
                    snapshot: r.bytes("snapshot")?,
                },
                KIND_TOP_UP => WalRecord::TopUp {
                    seq: r.u64()?,
                    spent_mj: r.f64()?,
                    budget_mj: decode_budget(r)?,
                },
                other => return Err(DecodeError::UnknownKind(other)),
            })
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A full-snapshot checkpoint: everything recovery needs without reading a
/// single WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Generation tag pairing the checkpoint with its WAL: both carry the
    /// same epoch, and checkpointing bumps it. A WAL whose epoch lags its
    /// checkpoint's is a stale generation (a crash landed between the
    /// checkpoint rename and the log truncation) and its records — all
    /// already folded into the checkpoint — are discarded at open.
    pub epoch: u64,
    /// Replication sequence number the snapshot was taken at; a snapshot at
    /// `seq` already contains every commit numbered `<= seq`.
    pub seq: u64,
    /// Energy admitted against the budget at checkpoint time, in millijoules.
    pub spent_mj: f64,
    /// Energy budget at checkpoint time; `None` when unlimited.
    pub budget_mj: Option<f64>,
    /// `ofscil_serve::snapshot` codec bytes of the explicit memory.
    pub snapshot: Vec<u8>,
}

impl Checkpoint {
    /// Serializes the checkpoint to its file format (magic, version, fields,
    /// trailing FNV-1a checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(48 + self.snapshot.len());
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u16(&mut bytes, CHECKPOINT_VERSION);
        bytes.extend_from_slice(&[0u8; 2]);
        put_u64(&mut bytes, self.epoch);
        put_u64(&mut bytes, self.seq);
        put_f64(&mut bytes, self.spent_mj);
        encode_budget(self.budget_mj, &mut bytes);
        put_bytes(&mut bytes, &self.snapshot);
        put_checksum(&mut bytes, 0);
        bytes
    }

    /// Parses a checkpoint file's bytes.
    ///
    /// # Errors
    ///
    /// Unlike the WAL there is no salvageable prefix: any damage fails the
    /// decode with a description, and the store reports
    /// [`StoreError::CorruptCheckpoint`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, String> {
        let malformed = |e: DecodeError| format!("malformed checkpoint: {e}");
        let (covered, stored, computed) = split_checksum(bytes)
            .ok_or_else(|| format!("{} bytes is shorter than the checksum", bytes.len()))?;
        let mut r = Reader::new(covered);
        let magic = r.take(4).map_err(malformed)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(format!("bad magic {magic:?}"));
        }
        let version = r.u16().map_err(malformed)?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let _reserved = r.u16().map_err(malformed)?;
        if stored != computed {
            return Err(format!(
                "checksum {stored:#010x} != computed {computed:#010x}"
            ));
        }
        let mut fields = || -> Result<Checkpoint, DecodeError> {
            Ok(Checkpoint {
                epoch: r.u64()?,
                seq: r.u64()?,
                spent_mj: r.f64()?,
                budget_mj: decode_budget(&mut r)?,
                snapshot: r.bytes("snapshot")?,
            })
        };
        let checkpoint = fields().map_err(malformed)?;
        r.finish().map_err(malformed)?;
        Ok(checkpoint)
    }

    /// Writes the checkpoint to `path` atomically (temporary sibling +
    /// rename), so a crash mid-write leaves the previous checkpoint intact.
    pub(crate) fn write_to(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = path.with_extension("ckpt-tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&self.encode())?;
            file.flush()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// A deployment's fully-replayed durable state — the three things recovery
/// restores bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentState {
    /// Replication sequence number.
    pub seq: u64,
    /// `ofscil_serve::snapshot` codec bytes of the explicit memory.
    pub snapshot: Vec<u8>,
    /// Energy admitted against the budget, in millijoules.
    pub spent_mj: f64,
    /// Energy budget; `None` when unlimited.
    pub budget_mj: Option<f64>,
}

/// Replays a WAL on top of its checkpoint and returns the resulting state.
///
/// Records whose sequence number is at or below the running sequence are
/// already contained (a checkpoint taken at `seq` holds every commit
/// `<= seq`) and are skipped; `TopUp` records only move the meter. The
/// replayed snapshot is re-encoded with the deterministic snapshot codec, so
/// it is byte-identical to what the live deployment would answer to a
/// `Snapshot` request at the same sequence number.
///
/// # Errors
///
/// Returns [`StoreError::Codec`] when the checkpoint snapshot (or an
/// `Import` record's snapshot) does not decode — WAL-tail corruption never
/// reaches here; it is truncated at open time.
pub fn replay(
    checkpoint: &Checkpoint,
    records: &[WalRecord],
) -> Result<DeploymentState, StoreError> {
    if records.is_empty() {
        return Ok(DeploymentState {
            seq: checkpoint.seq,
            snapshot: checkpoint.snapshot.clone(),
            spent_mj: checkpoint.spent_mj,
            budget_mj: checkpoint.budget_mj,
        });
    }
    let mut em = decode_explicit_memory(&checkpoint.snapshot)?;
    let mut seq = checkpoint.seq;
    let mut spent_mj = checkpoint.spent_mj;
    let mut budget_mj = checkpoint.budget_mj;
    for record in records {
        match record {
            WalRecord::Learn {
                seq: s,
                updates,
                spent_mj: sp,
                budget_mj: b,
                ..
            } => {
                if *s <= seq {
                    continue;
                }
                for (class, prototype) in updates {
                    let class = usize::try_from(*class).map_err(|_| {
                        StoreError::Codec(ofscil_serve::ServeError::InvalidRequest(format!(
                            "journaled class id {class} overflows usize"
                        )))
                    })?;
                    em.restore_prototype(class, prototype)
                        .map_err(|e| StoreError::Codec(e.into()))?;
                }
                seq = *s;
                spent_mj = *sp;
                budget_mj = *b;
            }
            WalRecord::Import {
                seq: s,
                snapshot,
                spent_mj: sp,
                budget_mj: b,
            } => {
                if *s <= seq {
                    continue;
                }
                em = decode_explicit_memory(snapshot)?;
                seq = *s;
                spent_mj = *sp;
                budget_mj = *b;
            }
            WalRecord::TopUp {
                spent_mj: sp,
                budget_mj: b,
                ..
            } => {
                spent_mj = *sp;
                budget_mj = *b;
            }
        }
    }
    Ok(DeploymentState {
        seq,
        snapshot: encode_explicit_memory(&em),
        spent_mj,
        budget_mj,
    })
}

// ---------------------------------------------------------------------------
// Delta compaction
// ---------------------------------------------------------------------------

/// Collapses runs of `Learn` records that overwrite the same class slots:
/// within a run, only the **newest** prototype per class matters for replay,
/// so the run becomes a single record carrying the latest prototype of every
/// touched class, the run's final sequence number, class count and meter
/// state. `Import` records are full-state barriers that flush the run;
/// `TopUp` records fold their meter state into the pending run (or survive
/// verbatim when no run is pending, so the final meter state is always
/// preserved).
///
/// The result replays to **exactly** the same [`DeploymentState`] as the
/// input — the `compaction_equivalence` property test drives random op
/// sequences through both paths — while its length is bounded by the number
/// of `Import` barriers plus one record per segment, and each collapsed
/// record by the number of live classes.
pub fn compact_records(records: &[WalRecord]) -> Vec<WalRecord> {
    struct Pending {
        updates: BTreeMap<u64, Vec<f32>>,
        seq: u64,
        total_classes: u64,
        spent_mj: f64,
        budget_mj: Option<f64>,
    }
    let flush = |pending: Option<Pending>, out: &mut Vec<WalRecord>| {
        if let Some(p) = pending {
            out.push(WalRecord::Learn {
                seq: p.seq,
                total_classes: p.total_classes,
                updates: p.updates.into_iter().collect(),
                spent_mj: p.spent_mj,
                budget_mj: p.budget_mj,
            });
        }
    };

    let mut out = Vec::new();
    let mut pending: Option<Pending> = None;
    for record in records {
        match record {
            WalRecord::Learn {
                seq,
                total_classes,
                updates,
                spent_mj,
                budget_mj,
            } => {
                let p = pending.get_or_insert_with(|| Pending {
                    updates: BTreeMap::new(),
                    seq: 0,
                    total_classes: 0,
                    spent_mj: 0.0,
                    budget_mj: None,
                });
                for (class, prototype) in updates {
                    p.updates.insert(*class, prototype.clone());
                }
                p.seq = *seq;
                p.total_classes = *total_classes;
                p.spent_mj = *spent_mj;
                p.budget_mj = *budget_mj;
            }
            WalRecord::Import { .. } => {
                flush(pending.take(), &mut out);
                out.push(record.clone());
            }
            WalRecord::TopUp {
                spent_mj,
                budget_mj,
                ..
            } => match pending.as_mut() {
                // The pending collapsed record is emitted *after* this
                // top-up's position, so folding the meter state into it
                // preserves last-writer-wins replay semantics.
                Some(p) => {
                    p.spent_mj = *spent_mj;
                    p.budget_mj = *budget_mj;
                }
                None => out.push(record.clone()),
            },
        }
    }
    flush(pending, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_core::ExplicitMemory;

    fn proto(dim: usize, fill: f32) -> Vec<f32> {
        (0..dim).map(|i| fill + i as f32 * 0.125).collect()
    }

    fn empty_checkpoint(dim: usize) -> Checkpoint {
        Checkpoint {
            epoch: 0,
            seq: 0,
            spent_mj: 0.0,
            budget_mj: None,
            snapshot: encode_explicit_memory(&ExplicitMemory::new(dim)),
        }
    }

    #[test]
    fn record_codec_roundtrips_every_kind() {
        let records = [
            WalRecord::Learn {
                seq: 7,
                total_classes: 3,
                updates: vec![(0, proto(4, 0.5)), (9, proto(4, -1.0))],
                spent_mj: 12.5,
                budget_mj: Some(100.0),
            },
            WalRecord::Import {
                seq: 8,
                snapshot: vec![1, 2, 3, 4, 5],
                spent_mj: f64::MIN_POSITIVE,
                budget_mj: None,
            },
            WalRecord::TopUp {
                seq: 8,
                spent_mj: 0.0,
                budget_mj: Some(55.25),
            },
        ];
        for record in &records {
            let (kind, body) = record.encode();
            let back = WalRecord::decode(kind, &body).expect("decodes");
            assert_eq!(&back, record);
        }
        // Unknown kinds and trailing bytes are rejected, not panics.
        assert_eq!(
            WalRecord::decode(0x7f, &[]),
            Err(DecodeError::UnknownKind(0x7f))
        );
        let (kind, mut body) = records[2].encode();
        body.push(0xab);
        assert_eq!(
            WalRecord::decode(kind, &body),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn checkpoint_codec_roundtrips_and_detects_damage() {
        let ckpt = Checkpoint {
            epoch: 3,
            seq: 42,
            spent_mj: 3.125,
            budget_mj: Some(64.0),
            snapshot: encode_explicit_memory(&ExplicitMemory::new(8)),
        };
        let bytes = ckpt.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ckpt);
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x01;
        assert!(Checkpoint::decode(&flipped).is_err());
        assert!(Checkpoint::decode(&bytes[..bytes.len() - 2]).is_err());
        assert!(Checkpoint::decode(b"OFEMnope").is_err());
    }

    #[test]
    fn replay_applies_learns_imports_and_top_ups_in_order() {
        let dim = 4;
        let ckpt = empty_checkpoint(dim);
        let mut foreign = ExplicitMemory::new(dim);
        foreign.set_prototype(2, &proto(dim, 9.0)).unwrap();
        let records = vec![
            WalRecord::Learn {
                seq: 1,
                total_classes: 1,
                updates: vec![(0, proto(dim, 1.0))],
                spent_mj: 1.0,
                budget_mj: Some(10.0),
            },
            WalRecord::TopUp {
                seq: 1,
                spent_mj: 1.0,
                budget_mj: Some(20.0),
            },
            WalRecord::Import {
                seq: 2,
                snapshot: encode_explicit_memory(&foreign),
                spent_mj: 1.5,
                budget_mj: Some(20.0),
            },
            WalRecord::Learn {
                seq: 3,
                total_classes: 2,
                updates: vec![(5, proto(dim, -2.0))],
                spent_mj: 2.0,
                budget_mj: Some(20.0),
            },
        ];
        let state = replay(&ckpt, &records).unwrap();
        assert_eq!(state.seq, 3);
        assert_eq!(state.spent_mj, 2.0);
        assert_eq!(state.budget_mj, Some(20.0));
        let em = decode_explicit_memory(&state.snapshot).unwrap();
        // The import wiped class 0; classes 2 (imported) and 5 (post-import
        // learn) remain.
        assert_eq!(em.classes(), vec![2, 5]);

        // Records at or below the running seq are contained and skipped.
        let stale = vec![WalRecord::Learn {
            seq: 3,
            total_classes: 9,
            updates: vec![(7, proto(dim, 4.0))],
            spent_mj: 99.0,
            budget_mj: None,
        }];
        let ckpt_at_3 = Checkpoint {
            epoch: 0,
            seq: 3,
            spent_mj: 2.0,
            budget_mj: Some(20.0),
            snapshot: state.snapshot.clone(),
        };
        let replayed = replay(&ckpt_at_3, &stale).unwrap();
        assert_eq!(replayed.snapshot, state.snapshot);
        assert_eq!(replayed.spent_mj, 2.0);
    }

    #[test]
    fn compaction_collapses_overwrites_and_keeps_the_final_meter() {
        let dim = 4;
        // 50 learns hammering the same two classes, with a top-up at the end.
        let mut records = Vec::new();
        for i in 0..50u64 {
            records.push(WalRecord::Learn {
                seq: i + 1,
                total_classes: 2,
                updates: vec![(i % 2, proto(dim, i as f32))],
                spent_mj: i as f64,
                budget_mj: Some(1000.0),
            });
        }
        records.push(WalRecord::TopUp {
            seq: 50,
            spent_mj: 50.0,
            budget_mj: Some(2000.0),
        });
        let compacted = compact_records(&records);
        assert_eq!(compacted.len(), 1, "one collapsed record, not 51");
        match &compacted[0] {
            WalRecord::Learn {
                seq,
                updates,
                spent_mj,
                budget_mj,
                ..
            } => {
                assert_eq!(*seq, 50);
                assert_eq!(updates.len(), 2);
                assert_eq!(*spent_mj, 50.0);
                assert_eq!(*budget_mj, Some(2000.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let ckpt = empty_checkpoint(dim);
        assert_eq!(
            replay(&ckpt, &records).unwrap(),
            replay(&ckpt, &compacted).unwrap()
        );
    }

    #[test]
    fn compaction_respects_import_barriers() {
        let dim = 4;
        let mut foreign = ExplicitMemory::new(dim);
        foreign.set_prototype(1, &proto(dim, 7.0)).unwrap();
        let records = vec![
            WalRecord::Learn {
                seq: 1,
                total_classes: 1,
                updates: vec![(0, proto(dim, 1.0))],
                spent_mj: 1.0,
                budget_mj: None,
            },
            WalRecord::Import {
                seq: 2,
                snapshot: encode_explicit_memory(&foreign),
                spent_mj: 1.0,
                budget_mj: None,
            },
            WalRecord::Learn {
                seq: 3,
                total_classes: 2,
                updates: vec![(0, proto(dim, 5.0))],
                spent_mj: 2.0,
                budget_mj: None,
            },
        ];
        let compacted = compact_records(&records);
        // learn | import | learn — nothing collapses across the barrier.
        assert_eq!(compacted.len(), 3);
        let ckpt = empty_checkpoint(dim);
        assert_eq!(
            replay(&ckpt, &records).unwrap(),
            replay(&ckpt, &compacted).unwrap()
        );
    }

    #[test]
    fn lone_top_up_survives_compaction_verbatim() {
        let records = vec![WalRecord::TopUp {
            seq: 0,
            spent_mj: 0.0,
            budget_mj: Some(5.0),
        }];
        assert_eq!(compact_records(&records), records);
    }
}
