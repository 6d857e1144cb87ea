//! The generic append-only record log under the WAL (and under the router's
//! placement journal): a file of checksummed `(kind, body)` records in the
//! same dependency-free style as the snapshot and wire codecs.
//!
//! ```text
//! offset  size  field
//! 0       4     file magic  b"OFLG"
//! 4       2     format version, little-endian u16 (currently 1)
//! 6       2     reserved (zero)
//! 8       8     epoch, little-endian u64 (generation tag, see below)
//! 16      …     records, each:
//!                 kind      u8
//!                 length    u32 LE (body bytes)
//!                 body      length bytes
//!                 checksum  u32 LE, FNV-1a over kind + length + body
//! ```
//!
//! Appends are flushed per record, so every record the caller was told is
//! durable survives a process kill. Reads are **torn-tail tolerant**: a
//! record that fails its length or checksum (the classic half-written tail of
//! a killed writer) truncates the log at the last intact record instead of
//! failing the open — exactly the semantics a write-ahead log wants, because
//! a torn record's operation was never acknowledged. A damaged file *header*
//! is a hard [`StoreError::BadLogHeader`]: there is no prefix to salvage.
//!
//! The header's **epoch** is an opaque generation tag the layer above pairs
//! with a sibling file: the WAL store stamps its checkpoint and its log with
//! the same epoch and bumps both on every checkpoint, so a crash between
//! "new checkpoint renamed" and "log truncated" is detected at open time
//! (the log's epoch lags the checkpoint's) and the stale records — all
//! already folded into that checkpoint — are discarded instead of replayed
//! onto the newer base.

use crate::error::StoreError;
use ofscil_tensor::bytes::{fnv1a, put_bytes, put_checksum, put_u16, put_u64, Reader};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When [`OpLog::append`] pushes records past the OS page cache onto stable
/// storage (`File::sync_data`). Every policy still *flushes* per record —
/// a record the caller was told about always survives a process kill; the
/// policy decides what survives a whole-machine power cut, trading fsync
/// latency against the durability window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Flush to the OS per record, never `fsync` — the historical behaviour
    /// and the default. Fastest; a power cut can lose the page cache.
    #[default]
    Flush,
    /// `fsync` after every record: nothing acknowledged is ever lost, at one
    /// disk round trip per append.
    PerRecord,
    /// Group commit by count: `fsync` once every `n` records (the tail since
    /// the last sync rides along). `EveryN(1)` behaves like [`SyncPolicy::PerRecord`];
    /// `EveryN(0)` is treated as 1.
    EveryN(u64),
    /// Group commit by time: `fsync` on the first append at least this long
    /// after the previous sync. Bounds the power-cut loss window to roughly
    /// the interval under steady traffic.
    Interval(Duration),
}

/// Magic bytes identifying a store record log.
pub(crate) const LOG_MAGIC: [u8; 4] = *b"OFLG";

/// Current record-log format version.
pub(crate) const LOG_VERSION: u16 = 1;

/// File header: magic (4) + version (2) + reserved (2) + epoch (8).
pub(crate) const HEADER_LEN: usize = 16;
/// kind (1) + length (4) + checksum (4).
pub(crate) const RECORD_OVERHEAD: usize = 9;

/// One raw log record: the kind byte plus an opaque body the layer above
/// interprets (WAL records, placement overrides).
pub type RawRecord = (u8, Vec<u8>);

/// Serializes one record (kind + length + body + checksum) into `out`.
fn encode_record(out: &mut Vec<u8>, kind: u8, body: &[u8]) {
    let start = out.len();
    out.push(kind);
    put_bytes(out, body);
    put_checksum(out, start);
}

/// Parses records from `bytes` (which excludes the file header). Returns the
/// intact records and the length of the valid prefix; anything past it is a
/// torn or corrupt tail the caller should truncate.
fn parse_records(bytes: &[u8]) -> (Vec<RawRecord>, usize) {
    let mut records = Vec::new();
    let mut valid = 0usize;
    let mut r = Reader::new(bytes);
    while let Ok(kind) = r.u8() {
        let Ok(body) = r.bytes("record body") else {
            break;
        };
        let covered = &bytes[valid..r.offset()];
        if r.u32().ok() != Some(fnv1a(covered)) {
            break;
        }
        records.push((kind, body));
        valid = r.offset();
    }
    (records, valid)
}

fn header_bytes(epoch: u64) -> Vec<u8> {
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&LOG_MAGIC);
    put_u16(&mut header, LOG_VERSION);
    header.extend_from_slice(&[0u8; 2]);
    put_u64(&mut header, epoch);
    header
}

/// An open append handle on one record log file.
#[derive(Debug)]
pub struct OpLog {
    path: PathBuf,
    file: File,
    records: u64,
    bytes: u64,
    epoch: u64,
    sync: SyncPolicy,
    /// Records appended since the last `sync_data` (for [`SyncPolicy::EveryN`]).
    appends_since_sync: u64,
    /// When the last `sync_data` ran (for [`SyncPolicy::Interval`]).
    last_sync: Instant,
}

impl OpLog {
    /// Opens (or creates) the log at `path` and returns the intact records it
    /// already holds. A torn or corrupt tail is truncated away — the open
    /// repairs the file so subsequent appends extend the intact prefix.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for filesystem failures and
    /// [`StoreError::BadLogHeader`] when the file exists but is not a store
    /// log (there is nothing to salvage behind a foreign header).
    pub fn open(path: &Path) -> Result<(OpLog, Vec<RawRecord>), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < HEADER_LEN {
            // Brand new, or a header torn mid-write (which can hold no
            // records): start fresh — but only if what is there is a prefix
            // of our own magic/version/reserved preamble (a torn epoch is
            // fine: no records can exist behind a torn header). A short
            // *foreign* file is rejected like a full-size one, not
            // destroyed.
            let preamble = header_bytes(0);
            let check = bytes.len().min(8);
            if bytes[..check] != preamble[..check] {
                return Err(StoreError::BadLogHeader {
                    path: path.display().to_string(),
                    detail: format!(
                        "{} bytes of non-log content (not a torn log header)",
                        bytes.len()
                    ),
                });
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header_bytes(0))?;
            file.flush()?;
            return Ok((
                OpLog {
                    path: path.to_path_buf(),
                    file,
                    records: 0,
                    bytes: HEADER_LEN as u64,
                    epoch: 0,
                    sync: SyncPolicy::default(),
                    appends_since_sync: 0,
                    last_sync: Instant::now(),
                },
                Vec::new(),
            ));
        }
        if bytes[0..4] != LOG_MAGIC {
            return Err(StoreError::BadLogHeader {
                path: path.display().to_string(),
                detail: format!("magic {:?} (expected {LOG_MAGIC:?})", &bytes[0..4]),
            });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("length checked"));
        if version != LOG_VERSION {
            return Err(StoreError::BadLogHeader {
                path: path.display().to_string(),
                detail: format!("version {version} (decoder speaks {LOG_VERSION})"),
            });
        }

        let epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("length checked"));
        let (records, valid) = parse_records(&bytes[HEADER_LEN..]);
        let end = (HEADER_LEN + valid) as u64;
        if end < bytes.len() as u64 {
            // Torn or corrupt tail: truncate to the intact prefix.
            file.set_len(end)?;
        }
        file.seek(SeekFrom::Start(end))?;
        Ok((
            OpLog {
                path: path.to_path_buf(),
                file,
                records: records.len() as u64,
                bytes: end,
                epoch,
                sync: SyncPolicy::default(),
                appends_since_sync: 0,
                last_sync: Instant::now(),
            },
            records,
        ))
    }

    /// Sets when appends are pushed to stable storage — see [`SyncPolicy`].
    /// Takes effect from the next [`OpLog::append`].
    pub(crate) fn set_sync_policy(&mut self, sync: SyncPolicy) {
        self.sync = sync;
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the write fails; the log is then in an
    /// unknown tail state that the next open repairs by truncation.
    pub fn append(&mut self, kind: u8, body: &[u8]) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(body.len() + RECORD_OVERHEAD);
        encode_record(&mut buf, kind, body);
        self.file.write_all(&buf)?;
        self.file.flush()?;
        self.records += 1;
        self.bytes += buf.len() as u64;
        self.appends_since_sync += 1;
        let due = match self.sync {
            SyncPolicy::Flush => false,
            SyncPolicy::PerRecord => true,
            SyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            SyncPolicy::Interval(window) => self.last_sync.elapsed() >= window,
        };
        if due {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
            self.last_sync = Instant::now();
        }
        Ok(())
    }

    /// Atomically replaces the log's contents with `records` (compaction,
    /// post-checkpoint truncation): the replacement is written to a sibling
    /// temporary file and renamed over the log.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when writing or renaming fails; the
    /// original log is untouched in that case.
    pub(crate) fn rewrite(&mut self, records: &[RawRecord]) -> Result<(), StoreError> {
        self.rewrite_with_epoch(records, self.epoch)
    }

    /// Like [`OpLog::rewrite`], but also stamps a new generation epoch into
    /// the header — how the WAL store starts a fresh log generation after a
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when writing or renaming fails; the
    /// original log is untouched in that case.
    pub(crate) fn rewrite_with_epoch(
        &mut self,
        records: &[RawRecord],
        epoch: u64,
    ) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("tmp");
        let mut buf = header_bytes(epoch);
        for (kind, body) in records {
            encode_record(&mut buf, *kind, body);
        }
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&buf)?;
            file.flush()?;
            // Under a durable policy the replacement's contents must be on
            // stable storage before the rename can make them the log.
            if self.sync != SyncPolicy::Flush {
                file.sync_data()?;
            }
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.records = records.len() as u64;
        self.bytes = buf.len() as u64;
        self.epoch = epoch;
        self.appends_since_sync = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Reads the log's intact records back from disk, for a layer that
    /// keeps no copy of what it appended (the obs spill's GC).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be read.
    pub(crate) fn read_records(&self) -> Result<Vec<RawRecord>, StoreError> {
        let bytes = std::fs::read(&self.path)?;
        Ok(parse_records(bytes.get(HEADER_LEN..).unwrap_or_default()).0)
    }

    /// The generation epoch stamped in the log's header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of records currently in the log.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Size of the log file in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("ofscil-oplog-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = temp_path("roundtrip");
        {
            let (mut log, existing) = OpLog::open(&path).unwrap();
            assert!(existing.is_empty());
            log.append(1, b"alpha").unwrap();
            log.append(2, b"").unwrap();
            log.append(7, &[0u8; 300]).unwrap();
            assert_eq!(log.records(), 3);
        }
        let (log, records) = OpLog::open(&path).unwrap();
        assert_eq!(log.records(), 3);
        assert_eq!(records[0], (1, b"alpha".to_vec()));
        assert_eq!(records[1], (2, Vec::new()));
        assert_eq!(records[2].1.len(), 300);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_path("torn");
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            log.append(1, b"keep-me").unwrap();
            log.append(2, b"half-written-record").unwrap();
        }
        // Tear the second record: chop a few bytes off the end.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let (mut log, records) = OpLog::open(&path).unwrap();
        assert_eq!(records, vec![(1, b"keep-me".to_vec())]);
        // The repaired log accepts fresh appends cleanly.
        log.append(3, b"after-repair").unwrap();
        drop(log);
        let (_, records) = OpLog::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], (3, b"after-repair".to_vec()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_stops_the_replay_there() {
        let path = temp_path("corrupt");
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            log.append(1, b"first").unwrap();
            log.append(2, b"second").unwrap();
        }
        // Flip one byte inside the first record's body: both records are
        // gone (the log cannot be trusted past the damage).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 6] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (log, records) = OpLog::open(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(log.records(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let path = temp_path("rewrite");
        let (mut log, _) = OpLog::open(&path).unwrap();
        for i in 0..10 {
            log.append(1, &[i]).unwrap();
        }
        log.rewrite(&[(9, b"compacted".to_vec())]).unwrap();
        assert_eq!(log.records(), 1);
        log.append(1, b"tail").unwrap();
        drop(log);
        let (_, records) = OpLog::open(&path).unwrap();
        assert_eq!(
            records,
            vec![(9, b"compacted".to_vec()), (1, b"tail".to_vec())]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_sync_policy_appends_and_reopens_cleanly() {
        // sync_data is invisible to a same-OS reopen, so what this pins is
        // that every policy keeps the log readable and the counters exact —
        // including EveryN(0), which must behave as EveryN(1), and a
        // zero-length interval, which syncs on every append.
        for (tag, policy) in [
            ("flush", SyncPolicy::Flush),
            ("per-record", SyncPolicy::PerRecord),
            ("every-0", SyncPolicy::EveryN(0)),
            ("every-3", SyncPolicy::EveryN(3)),
            ("interval", SyncPolicy::Interval(Duration::from_millis(0))),
        ] {
            let path = temp_path(&format!("sync-{tag}"));
            {
                let (mut log, _) = OpLog::open(&path).unwrap();
                log.set_sync_policy(policy);
                for i in 0..7u8 {
                    log.append(1, &[i]).unwrap();
                }
                log.rewrite(&[(9, b"compacted".to_vec())]).unwrap();
                log.append(2, b"tail").unwrap();
            }
            let (log, records) = OpLog::open(&path).unwrap();
            assert_eq!(log.records(), 2, "policy {policy:?}");
            assert_eq!(
                records,
                vec![(9, b"compacted".to_vec()), (2, b"tail".to_vec())],
                "policy {policy:?}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn foreign_header_is_a_hard_error() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"NOTALOGFILE!").unwrap();
        assert!(matches!(
            OpLog::open(&path).unwrap_err(),
            StoreError::BadLogHeader { .. }
        ));
        // A short foreign file is rejected too, never truncated away...
        std::fs::write(&path, b"hi").unwrap();
        assert!(matches!(
            OpLog::open(&path).unwrap_err(),
            StoreError::BadLogHeader { .. }
        ));
        assert_eq!(std::fs::read(&path).unwrap(), b"hi");
        // ...while a genuinely torn header (a prefix of our own) heals.
        std::fs::write(&path, &LOG_MAGIC[..3]).unwrap();
        let (log, records) = OpLog::open(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(log.records(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
