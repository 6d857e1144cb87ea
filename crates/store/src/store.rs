//! The durable store: per-deployment WAL + checkpoint files under one root
//! directory, with journaling, recovery, delta compaction and checkpointing.

use crate::error::StoreError;
use crate::oplog::{OpLog, SyncPolicy};
use crate::wal::{compact_records, replay, Checkpoint, DeploymentState, WalRecord};
use ofscil_serve::{CommitJournal, DurabilityStats, LearnCommit, LearnerRegistry};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tuning knobs of a [`Store`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// After this many journaled records, the deployment's log is rolled into
    /// a fresh full-snapshot checkpoint and the WAL truncated (inline on the
    /// journaling path, amortized over the interval).
    pub(crate) checkpoint_interval: u64,
    /// Logs holding at least this many records are delta-compacted by
    /// [`Store::maintenance`] — the hook a background maintenance thread
    /// polls (the wire server runs one; see `WireServer::run_observed`).
    pub(crate) compact_min_records: u64,
    /// When WAL appends are pushed to stable storage — see [`SyncPolicy`].
    /// Applied to every deployment's log as it is opened or attached.
    pub sync: SyncPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            checkpoint_interval: 64,
            compact_min_records: 16,
            sync: SyncPolicy::default(),
        }
    }
}

impl StoreConfig {
    /// Sets the checkpoint interval (builder style).
    #[must_use]
    pub fn with_checkpoint_interval(mut self, records: u64) -> Self {
        self.checkpoint_interval = records.max(1);
        self
    }

    /// Sets the compaction threshold (builder style).
    #[must_use]
    pub fn with_compact_min_records(mut self, records: u64) -> Self {
        self.compact_min_records = records.max(1);
        self
    }

    /// Sets the WAL sync policy (builder style).
    #[must_use]
    pub fn with_sync_policy(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }
}

/// What [`Store::recover`] restored for one deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The recovered deployment.
    pub deployment: String,
    /// Replication sequence number the deployment was restored to.
    pub seq: u64,
    /// Classes in the restored explicit memory.
    pub classes: usize,
    /// WAL records replayed on top of the checkpoint.
    pub(crate) replayed_records: u64,
}

/// One deployment's open log state.
struct DeploymentLog {
    ckpt_path: PathBuf,
    checkpoint: Checkpoint,
    wal: OpLog,
    /// In-memory mirror of the WAL since the last checkpoint — what
    /// checkpointing, compaction and replication anchors replay without
    /// re-reading the file. Bounded by the checkpoint interval.
    records: Vec<WalRecord>,
    /// Records journaled since the last checkpoint. Independent of
    /// `records.len()`: compaction shrinks the log without resetting the
    /// checkpoint cadence, so the two knobs stay orthogonal.
    since_checkpoint: u64,
    /// Records appended since the last compaction attempt — what keeps a
    /// maintenance sweep from re-compacting an unchanged (or incompressible)
    /// log every tick.
    dirty: bool,
    /// Set when a WAL append failed: the log is missing an
    /// acknowledged-in-memory commit, so further appends are refused (deltas
    /// on a missing base would replay to a plausible-but-wrong state) and
    /// replication anchors fall back to live snapshots. Cleared only by a
    /// restart, whose recovery restores the durable prefix.
    gapped: bool,
    compactions: u64,
}

/// A log-structured persistence layer for a registry of deployments.
///
/// Layout: one directory, two files per deployment (names encoded so any
/// tenant name is a safe filename):
///
/// * `<name>.ckpt` — the latest full-snapshot checkpoint (explicit memory,
///   replication sequence number, energy-meter state), written atomically
///   via a temporary sibling + rename,
/// * `<name>.wal` — the write-ahead log of operations since that checkpoint
///   ([`WalRecord`]), one checksummed record per committed `LearnOnline`,
///   import or budget top-up.
///
/// Records are flushed per append, so every acknowledged commit survives a
/// process kill; a record torn by the kill itself is truncated away on the
/// next open (it was never acknowledged). Replay cost is bounded two ways:
/// checkpoints truncate the log every
/// [`checkpoint_interval`](StoreConfig::with_checkpoint_interval) records, and
/// [delta compaction](crate::compact_records) collapses runs of records that
/// overwrite the same class slots, so a hot deployment relearning the same
/// classes replays O(live classes), not O(total writes).
pub struct Store {
    root: PathBuf,
    config: StoreConfig,
    logs: Mutex<HashMap<String, Arc<Mutex<DeploymentLog>>>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("root", &self.root)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Encodes a deployment name into a filesystem-safe file stem: ASCII
/// alphanumerics, `-` and `_` pass through, everything else becomes `%XX`.
fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            other => out.push_str(&format!("%{other:02x}")),
        }
    }
    out
}

/// Inverse of [`encode_name`]; `None` for stems that are not valid encodings.
fn decode_name(stem: &str) -> Option<String> {
    let bytes = stem.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

impl Store {
    /// Opens (or creates) a store rooted at `dir` with default tuning,
    /// loading every persisted deployment's checkpoint and WAL. Torn or
    /// corrupt WAL tails are truncated to the intact prefix — never fatal.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] for filesystem failures and
    /// [`StoreError::CorruptCheckpoint`] when a checkpoint file is damaged
    /// (the WAL's torn-tail repair does not apply: without its full-snapshot
    /// base the log cannot be replayed).
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(dir, StoreConfig::default())
    }

    /// Opens (or creates) a store with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// See [`Store::open`].
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Store, StoreError> {
        let root = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let mut logs = HashMap::new();
        for entry in std::fs::read_dir(&root)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("ckpt") {
                continue;
            }
            let Some(name) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(decode_name)
            else {
                continue;
            };
            let bytes = std::fs::read(&path)?;
            let checkpoint =
                Checkpoint::decode(&bytes).map_err(|detail| StoreError::CorruptCheckpoint {
                    deployment: name.clone(),
                    detail,
                })?;
            let wal_path = path.with_extension("wal");
            let (mut wal, raw) = OpLog::open(&wal_path)?;
            wal.set_sync_policy(config.sync);
            let mut records = Vec::with_capacity(raw.len());
            if wal.epoch() != checkpoint.epoch {
                // A crash landed between the checkpoint rename and the log
                // truncation: the WAL is a stale generation whose records
                // are all folded into the checkpoint already. Discard them
                // — replaying them (especially meter-only top-ups, which
                // carry no distinguishing sequence number) would regress
                // the recovered state.
                wal.rewrite_with_epoch(&[], checkpoint.epoch)?;
            } else {
                let mut valid = Vec::with_capacity(raw.len());
                for (kind, body) in raw {
                    // A record whose body fails to parse despite an intact
                    // checksum marks the end of the trustworthy prefix,
                    // exactly like a torn tail.
                    match WalRecord::decode(kind, &body) {
                        Ok(record) => {
                            records.push(record);
                            valid.push((kind, body));
                        }
                        Err(_) => break,
                    }
                }
                if valid.len() as u64 != wal.records() {
                    wal.rewrite(&valid)?;
                }
            }
            let since_checkpoint = records.len() as u64;
            logs.insert(
                name.clone(),
                Arc::new(Mutex::new(DeploymentLog {
                    ckpt_path: path,
                    checkpoint,
                    wal,
                    records,
                    since_checkpoint,
                    dirty: true,
                    gapped: false,
                    compactions: 0,
                })),
            );
        }
        Ok(Store {
            root,
            config,
            logs: Mutex::new(logs),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Sorted names of every persisted deployment.
    pub fn deployments(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .logs
            .lock()
            .expect("store lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    fn log_of(&self, name: &str) -> Result<Arc<Mutex<DeploymentLog>>, StoreError> {
        self.logs
            .lock()
            .expect("store lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::NotAttached(name.to_string()))
    }

    /// Restores every persisted deployment that is registered in `registry`
    /// **and** whose durable sequence number is at or ahead of the
    /// registry's — the fresh-restart case. A deployment whose in-memory
    /// history already ran past the store is left untouched (recovery never
    /// moves state backwards), as are persisted deployments the registry does
    /// not know.
    ///
    /// Explicit memory, replication sequence number and energy-meter state
    /// are restored **bit-exactly** from checkpoint + WAL replay.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Codec`] when a snapshot fails to decode or a
    /// deployment's projection dimensionality does not match the registered
    /// model.
    pub fn recover(&self, registry: &LearnerRegistry) -> Result<Vec<RecoveryReport>, StoreError> {
        let mut reports = Vec::new();
        for name in self.deployments() {
            let Ok(live_seq) = registry.replication_seq(&name) else {
                continue;
            };
            let log = self.log_of(&name)?;
            let log = log.lock().expect("deployment log poisoned");
            let replayed = log.records.len() as u64;
            let state = replay(&log.checkpoint, &log.records)?;
            drop(log);
            if state.seq < live_seq {
                // The registry's live history already ran past the store
                // (a promoted follower re-using an old store directory):
                // recovery never moves state backwards, and appending
                // future deltas onto the stale base would replay to a
                // plausible-but-wrong state — so re-baseline the store at
                // the live state instead.
                self.reseed(&name, registry)?;
                continue;
            }
            let classes = registry.recover_deployment(
                &name,
                &state.snapshot,
                state.seq,
                state.spent_mj,
                state.budget_mj,
            )?;
            reports.push(RecoveryReport {
                deployment: name,
                seq: state.seq,
                classes,
                replayed_records: replayed,
            });
        }
        Ok(reports)
    }

    /// Attaches every registered deployment that has no persisted state yet:
    /// writes its initial checkpoint (current snapshot, sequence number and
    /// meter state, read atomically) and creates its empty WAL. Returns the
    /// number of deployments attached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when writing the checkpoint or log fails.
    pub(crate) fn attach(&self, registry: &LearnerRegistry) -> Result<usize, StoreError> {
        let mut attached = 0;
        for name in registry.names() {
            {
                let logs = self.logs.lock().expect("store lock poisoned");
                if logs.contains_key(&name) {
                    continue;
                }
            }
            let (seq, snapshot) = registry.snapshot_with_seq(&name)?;
            let (spent_mj, budget_mj) = registry.energy_state(&name)?;
            let checkpoint = Checkpoint {
                epoch: 0,
                seq,
                spent_mj,
                budget_mj,
                snapshot,
            };
            let stem = encode_name(&name);
            let ckpt_path = self.root.join(format!("{stem}.ckpt"));
            checkpoint.write_to(&ckpt_path)?;
            let (mut wal, _) = OpLog::open(&self.root.join(format!("{stem}.wal")))?;
            wal.set_sync_policy(self.config.sync);
            let log = Arc::new(Mutex::new(DeploymentLog {
                ckpt_path,
                checkpoint,
                wal,
                records: Vec::new(),
                since_checkpoint: 0,
                dirty: false,
                gapped: false,
                compactions: 0,
            }));
            self.logs
                .lock()
                .expect("store lock poisoned")
                .insert(name, log);
            attached += 1;
        }
        Ok(attached)
    }

    /// Recovery followed by attachment — the one call a restarting (or
    /// freshly promoted) process makes before serving: persisted deployments
    /// are restored into the registry, unpersisted ones are checkpointed at
    /// their current state (a promoted follower thereby **adopts its
    /// replicated sequence number** as the store's new baseline).
    ///
    /// # Errors
    ///
    /// See [`Store::recover`] and `Store::attach`.
    pub fn bootstrap(&self, registry: &LearnerRegistry) -> Result<Vec<RecoveryReport>, StoreError> {
        let reports = self.recover(registry)?;
        self.attach(registry)?;
        Ok(reports)
    }

    /// Overwrites a deployment's durable state with a fresh checkpoint of
    /// the registry's **live** state and starts a new empty log generation.
    /// Called by [`Store::recover`] when the registry is ahead of the store;
    /// only safe before traffic is served (bootstrap time).
    fn reseed(&self, name: &str, registry: &LearnerRegistry) -> Result<(), StoreError> {
        let (seq, snapshot) = registry.snapshot_with_seq(name)?;
        let (spent_mj, budget_mj) = registry.energy_state(name)?;
        let log = self.log_of(name)?;
        let mut log = log.lock().expect("deployment log poisoned");
        let checkpoint = Checkpoint {
            epoch: log.checkpoint.epoch + 1,
            seq,
            spent_mj,
            budget_mj,
            snapshot,
        };
        checkpoint.write_to(&log.ckpt_path)?;
        log.wal.rewrite_with_epoch(&[], checkpoint.epoch)?;
        log.records.clear();
        log.since_checkpoint = 0;
        log.dirty = false;
        log.gapped = false;
        log.checkpoint = checkpoint;
        Ok(())
    }

    /// The fully-replayed durable state of one deployment (checkpoint + WAL).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAttached`] for unknown deployments and
    /// [`StoreError::Codec`] when replay fails.
    pub fn latest_state(&self, name: &str) -> Result<DeploymentState, StoreError> {
        let log = self.log_of(name)?;
        let log = log.lock().expect("deployment log poisoned");
        replay(&log.checkpoint, &log.records)
    }

    /// A cheap replication anchor served **from the store, not the model**:
    /// the latest checkpoint with the (delta-compacted) WAL tail folded in.
    /// Cost is bounded by live classes and never touches the deployment's
    /// model lock — this is what lets a primary re-anchor a far-behind
    /// subscriber without cutting an expensive live snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAttached`] for unknown deployments,
    /// [`StoreError::Gapped`] when the log is missing a commit (the caller
    /// must fall back to a live snapshot — the store's anchor would lag the
    /// live sequence line forever), and [`StoreError::Codec`] when replay
    /// fails.
    pub fn replication_anchor(&self, name: &str) -> Result<DeploymentState, StoreError> {
        let log = self.log_of(name)?;
        let log = log.lock().expect("deployment log poisoned");
        if log.gapped {
            return Err(StoreError::Gapped(name.to_string()));
        }
        replay(&log.checkpoint, &compact_records(&log.records))
    }

    /// Journals one record, checkpointing when the interval is reached. A
    /// failed append **gaps** the log: the in-memory commit is missing from
    /// durable state, so every further append for this deployment is refused
    /// (replaying later deltas on the missing base would produce a
    /// plausible-but-wrong state) until a restart recovers the durable
    /// prefix. The failed request itself is reported to its client, so a
    /// gap only ever covers unacknowledged commits.
    fn journal(&self, name: &str, record: WalRecord) -> Result<(), StoreError> {
        let log = self.log_of(name)?;
        let mut log = log.lock().expect("deployment log poisoned");
        if log.gapped {
            return Err(StoreError::Gapped(name.to_string()));
        }
        let (kind, body) = record.encode();
        if let Err(e) = log.wal.append(kind, &body) {
            log.gapped = true;
            return Err(e);
        }
        log.records.push(record);
        log.since_checkpoint += 1;
        log.dirty = true;
        if log.since_checkpoint >= self.config.checkpoint_interval {
            checkpoint_locked(&mut log)?;
        }
        Ok(())
    }

    /// Journals a full explicit-memory install (migration import, restore):
    /// the wire server calls this after a successful `Import`, with the
    /// post-install sequence number and meter state.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAttached`] for unknown deployments and
    /// [`StoreError::Io`] when the append fails.
    pub fn journal_import(
        &self,
        name: &str,
        seq: u64,
        snapshot: &[u8],
        spent_mj: f64,
        budget_mj: Option<f64>,
    ) -> Result<(), StoreError> {
        self.journal(
            name,
            WalRecord::Import {
                seq,
                snapshot: snapshot.to_vec(),
                spent_mj,
                budget_mj,
            },
        )
    }

    /// Rolls a deployment's WAL into a fresh full-snapshot checkpoint and
    /// truncates the log. Returns the checkpoint's sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAttached`] for unknown deployments, a codec
    /// error when replay fails, and [`StoreError::Io`] on write failures.
    pub fn checkpoint(&self, name: &str) -> Result<u64, StoreError> {
        let log = self.log_of(name)?;
        let mut log = log.lock().expect("deployment log poisoned");
        checkpoint_locked(&mut log)?;
        Ok(log.checkpoint.seq)
    }

    /// Delta-compacts one deployment's WAL in place. Returns `true` when the
    /// log shrank (a rewrite happened), `false` when compaction would not
    /// help.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAttached`] for unknown deployments and
    /// [`StoreError::Io`] when the rewrite fails.
    pub(crate) fn compact(&self, name: &str) -> Result<bool, StoreError> {
        let log = self.log_of(name)?;
        let mut log = log.lock().expect("deployment log poisoned");
        // The attempt itself clears the dirty bit: an incompressible log is
        // not retried until new records arrive.
        log.dirty = false;
        let compacted = compact_records(&log.records);
        if compacted.len() >= log.records.len() {
            return Ok(false);
        }
        let raw: Vec<_> = compacted.iter().map(WalRecord::encode).collect();
        log.wal.rewrite(&raw)?;
        log.records = compacted;
        log.compactions += 1;
        Ok(true)
    }

    /// One maintenance sweep: delta-compacts every deployment whose WAL holds
    /// at least [`compact_min_records`](StoreConfig::with_compact_min_records)
    /// records. Returns the number of logs that shrank. This is the body a
    /// background maintenance thread polls (the wire server runs one when
    /// serving with a store).
    ///
    /// # Errors
    ///
    /// Returns the first compaction failure; earlier compactions stand.
    pub fn maintenance(&self) -> Result<u64, StoreError> {
        let mut compacted = 0;
        for name in self.deployments() {
            let needs = {
                let log = self.log_of(&name)?;
                let log = log.lock().expect("deployment log poisoned");
                log.dirty && log.records.len() as u64 >= self.config.compact_min_records
            };
            if needs && self.compact(&name)? {
                compacted += 1;
            }
        }
        Ok(compacted)
    }
}

/// Replays the mirror into a fresh checkpoint, writes it atomically and
/// truncates the WAL. Never touches the deployment's model lock — the store
/// reconstructs the full state from its own log.
fn checkpoint_locked(log: &mut DeploymentLog) -> Result<(), StoreError> {
    if log.records.is_empty() {
        return Ok(());
    }
    let state = replay(&log.checkpoint, &log.records)?;
    // The new generation: checkpoint first (atomic rename), then the empty
    // log stamped with the matching epoch. A crash in between leaves the
    // old-epoch WAL behind, which the next open detects and discards — its
    // records are all folded into the just-renamed checkpoint.
    let checkpoint = Checkpoint {
        epoch: log.checkpoint.epoch + 1,
        seq: state.seq,
        spent_mj: state.spent_mj,
        budget_mj: state.budget_mj,
        snapshot: state.snapshot,
    };
    checkpoint.write_to(&log.ckpt_path)?;
    log.wal.rewrite_with_epoch(&[], checkpoint.epoch)?;
    log.records.clear();
    log.since_checkpoint = 0;
    log.checkpoint = checkpoint;
    Ok(())
}

impl CommitJournal for Store {
    fn journal_learn(
        &self,
        commit: &LearnCommit,
        spent_mj: f64,
        budget_mj: Option<f64>,
    ) -> Result<(), String> {
        let record = WalRecord::Learn {
            seq: commit.seq,
            total_classes: commit.total_classes as u64,
            updates: commit
                .updates
                .iter()
                .map(|(class, prototype)| (*class as u64, prototype.clone()))
                .collect(),
            spent_mj,
            budget_mj,
        };
        self.journal(&commit.deployment, record)
            .map_err(|e| e.to_string())
    }

    fn journal_top_up(
        &self,
        deployment: &str,
        seq: u64,
        spent_mj: f64,
        budget_mj: Option<f64>,
    ) -> Result<(), String> {
        self.journal(
            deployment,
            WalRecord::TopUp {
                seq,
                spent_mj,
                budget_mj,
            },
        )
        .map_err(|e| e.to_string())
    }

    fn durability_stats(&self, deployment: &str) -> Option<DurabilityStats> {
        let log = self.log_of(deployment).ok()?;
        let log = log.lock().expect("deployment log poisoned");
        Some(DurabilityStats {
            wal_records: log.wal.records(),
            wal_bytes: log.wal.bytes(),
            compactions: log.compactions,
            last_checkpoint_seq: log.checkpoint.seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_encoding_roundtrips_hostile_names() {
        for name in [
            "tenant-a",
            "UPPER_case-9",
            "sp ace",
            "sl/ash",
            "uni-ø",
            "%percent",
            "",
        ] {
            let stem = encode_name(name);
            assert!(
                stem.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "stem {stem:?} contains unsafe bytes"
            );
            assert_eq!(decode_name(&stem).as_deref(), Some(name));
        }
        // Distinct names never collide.
        assert_ne!(encode_name("a/b"), encode_name("a%2fb"));
        assert!(decode_name("%zz").is_none());
    }
}
