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
//!   chunk becomes when the spill's byte budget evicts it. Eviction reads
//!   the file back, folds the oldest chunk records into rollup cells and
//!   rewrites the log under a bumped header epoch (temporary sibling +
//!   rename, like every other compaction in this crate), so raw history
//!   ages into downsampled history instead of vanishing.
//!
//! The file is the only copy of what was spilled: [`ObsSpill`] keeps two
//! record counts in memory, not the records.
//!
//! [`ObsSpill`] implements `ofscil_obs`'s `ChunkSpill` hook, swallowing its
//! own I/O errors into a counter — observability durability must never fail
//! the serving path that triggered a seal.

use crate::error::StoreError;
use crate::oplog::{OpLog, RawRecord, HEADER_LEN, RECORD_OVERHEAD};
use ofscil_obs::{ChunkSpill, Event, ObsConfig, ObsQuery, ObsStore, Resolution, Rollup};
use ofscil_tensor::bytes::decode_exact;
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
    byte_budget: u64,
    chunk_records: u64,
    rollup_records: u64,
    gc_chunks: u64,
    io_errors: u64,
}

impl SpillInner {
    /// Once the file outgrows the budget, reads it back, folds the oldest
    /// chunk records into rollup cells until the remaining chunk records
    /// fit, and rewrites the file under a bumped epoch. The rewrite holds
    /// exactly what a reopen would recover: rollup records always survive
    /// (they are the already-compacted form), while foreign record kinds
    /// and undecodable bodies are dropped.
    fn gc(&mut self) -> Result<(), StoreError> {
        if self.log.bytes() <= self.byte_budget {
            return Ok(());
        }
        // The cells are folded by the store a rehydrate adopts into, so a
        // compacted minute answers exactly like the raw rows it replaces.
        let cells = ObsStore::new(ObsConfig::default());
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        for (kind, body) in self.log.read_records()? {
            match kind {
                REC_CHUNK if decode_chunk(&body).is_some() => chunks.push(body),
                REC_ROLLUP => {
                    if let Some(rollup) = decode_rollup(&body) {
                        cells.adopt_rollup(&rollup);
                    }
                }
                _ => {}
            }
        }
        // Evict oldest-first until the *surviving* chunk records fit.
        let record_bytes = |body: &Vec<u8>| (body.len() + RECORD_OVERHEAD) as u64;
        let mut kept: u64 = chunks.iter().map(record_bytes).sum();
        let mut evicted = 0usize;
        while evicted < chunks.len() && HEADER_LEN as u64 + kept > self.byte_budget {
            kept -= record_bytes(&chunks[evicted]);
            if let Some(events) = decode_chunk(&chunks[evicted]) {
                cells.adopt_chunk(&events);
            }
            evicted += 1;
        }
        let rollups = cells
            .query(
                &ObsQuery::all()
                    .with_resolution(Resolution::Rollup)
                    .with_limit(u32::MAX),
            )
            .rollups;
        let records: Vec<RawRecord> = rollups
            .iter()
            .map(|cell| (REC_ROLLUP, encode_rollup(cell)))
            .chain(chunks.drain(evicted..).map(|body| (REC_CHUNK, body)))
            .collect();
        let epoch = self.log.epoch().wrapping_add(1);
        self.log.rewrite_with_epoch(&records, epoch)?;
        self.gc_chunks += evicted as u64;
        self.rollup_records = rollups.len() as u64;
        self.chunk_records = (records.len() - rollups.len()) as u64;
        Ok(())
    }
}

/// The durable side of an observability pipeline: an [`OpLog`]-backed spill
/// file that sealed chunks are appended to, with budget-driven compaction
/// into rollup records. Implements `ofscil_obs`'s [`ChunkSpill`] hook.
///
/// The handle holds no copy of the file's records, only their counts; its
/// GC reads the file back.
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
        for (kind, body) in records {
            let decoded = match kind {
                REC_CHUNK => decode_chunk(&body).map(|events| recovery.chunks.push(events)),
                REC_ROLLUP => decode_rollup(&body).map(|rollup| recovery.rollups.push(rollup)),
                _ => None,
            };
            if decoded.is_none() {
                recovery.corrupt_records += 1;
            }
        }
        let spill = ObsSpill {
            inner: Mutex::new(SpillInner {
                log,
                byte_budget: byte_budget.max(1),
                chunk_records: recovery.chunks.len() as u64,
                rollup_records: recovery.rollups.len() as u64,
                gc_chunks: 0,
                io_errors: 0,
            }),
        };
        Ok((spill, recovery))
    }

    /// A snapshot of the spill's counters.
    pub fn stats(&self) -> SpillStats {
        let inner = self.inner.lock().expect("obs spill lock");
        SpillStats {
            chunk_records: inner.chunk_records,
            rollup_records: inner.rollup_records,
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
        if inner.log.append(REC_CHUNK, &body).is_err() {
            inner.io_errors += 1;
            return;
        }
        inner.chunk_records += 1;
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
        let rolled: u64 = recovery.rollups.iter().map(|r| r.values.matched).sum();
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

    /// GC reads the file back instead of a copy, so it meets whatever is on
    /// disk: its rewrite must hold exactly what a reopen recovers — the
    /// foreign record and the undecodable chunk body are gone, every
    /// decodable event is still accounted for, and the record counts the
    /// spill reported before closing are the ones a reopen finds.
    #[test]
    fn gc_rewrites_exactly_what_a_reopen_recovers() {
        let path = temp_path("gc-foreign");
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            log.append(REC_CHUNK, &encode_chunk(&[event("t", 10, 0)]))
                .unwrap();
            log.append(0x7f, b"someone else's record").unwrap();
            log.append(REC_CHUNK, b"not a chunk body").unwrap();
        }
        let (spill, recovery) = ObsSpill::open_with(&path, 2048).unwrap();
        assert_eq!(recovery.corrupt_records, 2);
        let mut appended = recovery.events();
        while spill.stats().gc_chunks == 0 {
            assert!(appended < 1_000, "budget never triggered GC");
            let events: Vec<Event> = (0..8)
                .map(|i| event("t", 1_000 * appended + i, appended + i))
                .collect();
            appended += 8;
            spill.spill_chunk(&events);
        }
        let before = spill.stats();
        assert_eq!(before.io_errors, 0);
        drop(spill);

        let (spill, recovery) = ObsSpill::open_with(&path, 2048).unwrap();
        assert_eq!(recovery.corrupt_records, 0);
        let rolled: u64 = recovery.rollups.iter().map(|r| r.values.matched).sum();
        assert_eq!(rolled + recovery.events(), appended);
        assert_eq!(
            (before.chunk_records, before.rollup_records),
            (recovery.chunks.len() as u64, recovery.rollups.len() as u64)
        );
        let after = spill.stats();
        assert_eq!(
            (after.chunk_records, after.rollup_records),
            (before.chunk_records, before.rollup_records)
        );
        let _ = std::fs::remove_file(&path);
    }
}
