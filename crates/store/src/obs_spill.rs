//! Durable spill for the observability store: sealed `ObsStore` chunks
//! written through the [`OpLog`] record codec, GC'd by epoch into rollup
//! records, rehydrated on restart.
//!
//! The file at [`SPILL_FILE`] is an ordinary store record log — same magic,
//! same per-record FNV-1a checksum, same torn-tail truncation on open — so a
//! kill mid-spill costs at most the unacknowledged tail record. Two record
//! kinds live in it:
//!
//! * **chunk** ([`REC_CHUNK`]): one sealed, time-sorted chunk, row by row,
//! * **rollup** ([`REC_ROLLUP`]): one per-minute [`Rollup`] cell — what a
//!   chunk becomes when the spill's byte budget evicts it. Eviction folds
//!   the oldest chunk records into rollup cells and rewrites the log under
//!   a bumped header epoch (temporary sibling + rename, like every other
//!   compaction in this crate), so raw history ages into downsampled
//!   history instead of vanishing.
//!
//! [`ObsSpill`] implements `ofscil_obs`'s `ChunkSpill` hook, swallowing its
//! own I/O errors into a counter — observability durability must never fail
//! the serving path that triggered a seal.

use crate::error::StoreError;
use crate::oplog::{OpLog, RawRecord};
use ofscil_obs::{ChunkSpill, Event, ObsStore, Rollup};
use ofscil_tensor::bytes::decode_exact;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// File name of the spill log inside a store root.
pub const SPILL_FILE: &str = "obs.spill";

/// Record kind: one sealed chunk of raw events.
pub const REC_CHUNK: u8 = 1;

/// Record kind: one per-minute rollup cell compacted from evicted chunks.
pub const REC_ROLLUP: u8 = 2;

/// Default byte budget of the spill file before eviction folds the oldest
/// chunks into rollup records.
pub(crate) const DEFAULT_SPILL_BUDGET: u64 = 16 * 1024 * 1024;

/// kind (1) + length (4) + checksum (4) — [`OpLog`]'s framing overhead,
/// mirrored here for byte accounting of the in-memory record mirror.
const RECORD_OVERHEAD: u64 = 9;
const HEADER_LEN: u64 = 16;

fn encode_chunk(events: &[Event]) -> Vec<u8> {
    let mut body = Vec::new();
    Event::encode_all(events, &mut body);
    body
}

fn decode_chunk(body: &[u8]) -> Option<Vec<Event>> {
    decode_exact(body, Event::decode_all).ok()
}

fn encode_rollup(rollup: &Rollup) -> Vec<u8> {
    let mut body = Vec::new();
    rollup.encode(&mut body);
    body
}

fn decode_rollup(body: &[u8]) -> Option<Rollup> {
    decode_exact(body, Rollup::decode).ok()
}

/// What a previous life left in the spill file, decoded and ready to adopt.
#[derive(Debug, Default)]
pub struct SpillRecovery {
    /// Raw chunks still resident in the spill, oldest first.
    pub chunks: Vec<Vec<Event>>,
    /// Rollup cells the spill's own GC compacted evicted chunks into.
    pub rollups: Vec<Rollup>,
    /// Intact log records whose *body* failed to decode (foreign kind or
    /// malformed payload) — skipped, not fatal.
    pub corrupt_records: u64,
    /// The log's generation epoch (bumped by every spill GC).
    pub epoch: u64,
}

impl SpillRecovery {
    /// Total raw events across the recovered chunks.
    pub fn events(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// Adopts everything into `store`: rollup cells first (the oldest
    /// history), then the raw chunks. After this, queries answer as if the
    /// previous process had never died — minus whatever sat unsealed in its
    /// active chunk when it was killed.
    pub fn rehydrate_into(&self, store: &ObsStore) {
        for rollup in &self.rollups {
            store.adopt_rollup(rollup);
        }
        for chunk in &self.chunks {
            store.adopt_chunk(chunk);
        }
    }
}

/// A point-in-time snapshot of the spill's health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Chunk records currently in the log.
    pub(crate) chunk_records: u64,
    /// Rollup records currently in the log.
    pub(crate) rollup_records: u64,
    /// Log file size in bytes (header included).
    pub bytes: u64,
    /// The log's generation epoch (bumped by every GC rewrite).
    pub epoch: u64,
    /// Chunk records evicted into rollups so far (this process).
    pub(crate) gc_chunks: u64,
    /// Spill or GC I/O failures swallowed so far (this process). The hook
    /// must never fail the serving path, so errors land here.
    pub(crate) io_errors: u64,
}

#[derive(Debug)]
struct SpillInner {
    log: OpLog,
    /// In-memory mirror of the log's records, in file order — [`OpLog`]
    /// hands its records out once at open, so GC keeps its own copy to
    /// rewrite from. Bounded by the byte budget, same as the file.
    mirror: Vec<RawRecord>,
    byte_budget: u64,
    gc_chunks: u64,
    io_errors: u64,
}

impl SpillInner {
    fn mirror_bytes(&self) -> u64 {
        HEADER_LEN
            + self
                .mirror
                .iter()
                .map(|(_, body)| body.len() as u64 + RECORD_OVERHEAD)
                .sum::<u64>()
    }

    /// Folds the oldest chunk records into rollup cells until the log fits
    /// the budget, then rewrites the file under a bumped epoch. Rollup
    /// records always survive — they are the already-compacted form.
    fn gc(&mut self) -> Result<(), StoreError> {
        if self.mirror_bytes() <= self.byte_budget {
            return Ok(());
        }
        let mut cells: BTreeMap<(u64, String, u8), Rollup> = BTreeMap::new();
        let mut absorb = |rollup: Rollup| match cells.entry(rollup.key()) {
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                slot.get_mut().absorb(&rollup)
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(rollup);
            }
        };
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        for (kind, body) in &self.mirror {
            match *kind {
                REC_ROLLUP => {
                    if let Some(rollup) = decode_rollup(body) {
                        absorb(rollup);
                    }
                }
                _ => chunks.push(body.clone()),
            }
        }
        // Evict oldest-first until the *surviving* records fit. The rollup
        // side only grows by bounded cells, so this converges.
        let mut evicted = 0usize;
        let mut remaining_bytes: u64 = chunks
            .iter()
            .map(|b| b.len() as u64 + RECORD_OVERHEAD)
            .sum();
        while evicted < chunks.len() && HEADER_LEN + remaining_bytes > self.byte_budget {
            remaining_bytes -= chunks[evicted].len() as u64 + RECORD_OVERHEAD;
            if let Some(events) = decode_chunk(&chunks[evicted]) {
                for event in &events {
                    let key = (
                        Rollup::bucket_of(event.time_us),
                        event.deployment.clone(),
                        event.kind.code(),
                    );
                    match cells.entry(key) {
                        std::collections::btree_map::Entry::Occupied(mut slot) => {
                            slot.get_mut().observe(event)
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            let mut cell = Rollup::new(
                                Rollup::bucket_of(event.time_us),
                                &event.deployment,
                                event.kind,
                            );
                            cell.observe(event);
                            slot.insert(cell);
                        }
                    }
                }
            }
            evicted += 1;
        }
        self.gc_chunks += evicted as u64;
        let mut records: Vec<RawRecord> = cells
            .values()
            .map(|cell| (REC_ROLLUP, encode_rollup(cell)))
            .collect();
        records.extend(
            chunks
                .into_iter()
                .skip(evicted)
                .map(|body| (REC_CHUNK, body)),
        );
        let epoch = self.log.epoch().wrapping_add(1);
        self.log.rewrite_with_epoch(&records, epoch)?;
        self.mirror = records;
        Ok(())
    }
}

/// The durable side of an observability pipeline: an [`OpLog`]-backed spill
/// file that sealed chunks are appended to, with budget-driven compaction
/// into rollup records. Implements `ofscil_obs`'s [`ChunkSpill`] hook.
#[derive(Debug)]
pub struct ObsSpill {
    inner: Mutex<SpillInner>,
}

impl ObsSpill {
    /// Opens (or creates) the spill at `path` with the
    /// default budget, returning the handle and
    /// everything a previous life spilled (torn tail already truncated by
    /// the log open).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for filesystem failures and
    /// [`StoreError::BadLogHeader`] when the file is not a store log.
    pub fn open(path: &Path) -> Result<(ObsSpill, SpillRecovery), StoreError> {
        ObsSpill::open_with(path, DEFAULT_SPILL_BUDGET)
    }

    /// Like [`ObsSpill::open`] with an explicit byte budget (clamped ≥ 1).
    ///
    /// # Errors
    ///
    /// See [`ObsSpill::open`].
    pub fn open_with(
        path: &Path,
        byte_budget: u64,
    ) -> Result<(ObsSpill, SpillRecovery), StoreError> {
        let (log, records) = OpLog::open(path)?;
        let mut recovery = SpillRecovery {
            epoch: log.epoch(),
            ..SpillRecovery::default()
        };
        let mut mirror = Vec::with_capacity(records.len());
        for (kind, body) in records {
            let ok = match kind {
                REC_CHUNK => match decode_chunk(&body) {
                    Some(events) => {
                        recovery.chunks.push(events);
                        true
                    }
                    None => false,
                },
                REC_ROLLUP => match decode_rollup(&body) {
                    Some(rollup) => {
                        recovery.rollups.push(rollup);
                        true
                    }
                    None => false,
                },
                _ => false,
            };
            if ok {
                mirror.push((kind, body));
            } else {
                recovery.corrupt_records += 1;
            }
        }
        let spill = ObsSpill {
            inner: Mutex::new(SpillInner {
                log,
                mirror,
                byte_budget: byte_budget.max(1),
                gc_chunks: 0,
                io_errors: 0,
            }),
        };
        Ok((spill, recovery))
    }

    /// A snapshot of the spill's counters.
    pub fn stats(&self) -> SpillStats {
        let inner = self.inner.lock().expect("obs spill lock");
        let chunk_records = inner
            .mirror
            .iter()
            .filter(|(kind, _)| *kind == REC_CHUNK)
            .count() as u64;
        SpillStats {
            chunk_records,
            rollup_records: inner.mirror.len() as u64 - chunk_records,
            bytes: inner.log.bytes(),
            epoch: inner.log.epoch(),
            gc_chunks: inner.gc_chunks,
            io_errors: inner.io_errors,
        }
    }
}

impl ChunkSpill for ObsSpill {
    fn spill_chunk(&self, events: &[Event]) {
        let body = encode_chunk(events);
        let mut inner = self.inner.lock().expect("obs spill lock");
        match inner.log.append(REC_CHUNK, &body) {
            Ok(()) => inner.mirror.push((REC_CHUNK, body)),
            Err(_) => {
                inner.io_errors += 1;
                return;
            }
        }
        if inner.gc().is_err() {
            inner.io_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_obs::{EventKind, ObsConfig, ObsQuery, Resolution};
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ofscil-obs-spill-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn event(deployment: &str, t: u64, seq: u64) -> Event {
        Event::new(EventKind::Infer, deployment)
            .with_time_us(t)
            .with_seq(seq)
            .with_energy_mj(0.25)
            .with_latency_us(100)
    }

    #[test]
    fn spill_reopen_rehydrate_roundtrip() {
        let path = temp_path("roundtrip");
        {
            let (spill, recovery) = ObsSpill::open(&path).unwrap();
            assert_eq!(recovery.events(), 0);
            spill.spill_chunk(&[event("t", 10, 0), event("t", 20, 1)]);
            spill.spill_chunk(&[event("u", 30, 2)]);
            assert_eq!(spill.stats().chunk_records, 2);
        }
        let (_spill, recovery) = ObsSpill::open(&path).unwrap();
        assert_eq!(recovery.chunks.len(), 2);
        assert_eq!(recovery.events(), 3);
        assert_eq!(recovery.corrupt_records, 0);
        // NaN accuracy survives the bit-exact codec.
        assert!(recovery.chunks[0][0].accuracy.is_nan());

        let store = ObsStore::new(ObsConfig::default());
        recovery.rehydrate_into(&store);
        let result = store.query(&ObsQuery::all());
        assert_eq!(result.aggregates.matched, 3);
        assert_eq!(
            result.events.iter().map(|e| e.time_us).collect::<Vec<_>>(),
            [10, 20, 30]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_loses_only_the_last_chunk() {
        let path = temp_path("torn");
        {
            let (spill, _) = ObsSpill::open(&path).unwrap();
            spill.spill_chunk(&[event("t", 10, 0)]);
            spill.spill_chunk(&[event("t", 20, 1)]);
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        let (spill, recovery) = ObsSpill::open(&path).unwrap();
        assert_eq!(recovery.chunks.len(), 1);
        assert_eq!(recovery.chunks[0][0].time_us, 10);
        // The repaired spill accepts fresh chunks cleanly.
        spill.spill_chunk(&[event("t", 30, 2)]);
        assert_eq!(spill.stats().chunk_records, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_gc_folds_oldest_chunks_into_rollups_and_bumps_epoch() {
        let path = temp_path("gc");
        // ~8 events/chunk at ~50 bytes each: a 2 KiB budget holds a few
        // chunks, then eviction starts.
        let (spill, _) = ObsSpill::open_with(&path, 2048).unwrap();
        let mut appended = 0u64;
        for chunk in 0..20u64 {
            let events: Vec<Event> = (0..8)
                .map(|i| event("t", chunk * 1_000 + i, appended + i))
                .collect();
            appended += 8;
            spill.spill_chunk(&events);
        }
        let stats = spill.stats();
        assert_eq!(stats.io_errors, 0);
        assert!(stats.gc_chunks > 0, "budget never triggered GC");
        assert!(stats.epoch > 0, "GC must bump the log epoch");
        assert!(
            stats.bytes <= 2048 + 1024,
            "log failed to shrink near budget"
        );
        assert!(stats.rollup_records > 0);
        drop(spill);

        // Nothing was lost: chunks + rollups still account for every event.
        let (_spill, recovery) = ObsSpill::open_with(&path, 2048).unwrap();
        assert_eq!(recovery.corrupt_records, 0);
        let rolled: u64 = recovery.rollups.iter().map(|r| r.count).sum();
        assert_eq!(rolled + recovery.events(), appended);
        let store = ObsStore::new(ObsConfig::default());
        recovery.rehydrate_into(&store);
        let result = store.query(&ObsQuery::all().with_resolution(Resolution::Rollup));
        assert_eq!(result.aggregates.matched, appended);
        assert_eq!(result.aggregates.energy_mj.sum, appended as f64 * 0.25);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_record_kinds_are_skipped_not_fatal() {
        let path = temp_path("foreign-kind");
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            log.append(REC_CHUNK, &encode_chunk(&[event("t", 10, 0)]))
                .unwrap();
            log.append(0x7f, b"someone else's record").unwrap();
            log.append(REC_CHUNK, b"not a chunk body").unwrap();
        }
        let (_spill, recovery) = ObsSpill::open(&path).unwrap();
        assert_eq!(recovery.chunks.len(), 1);
        assert_eq!(recovery.corrupt_records, 2);
        let _ = std::fs::remove_file(&path);
    }
}
