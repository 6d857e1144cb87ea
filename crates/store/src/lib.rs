//! `ofscil_store` — a durable WAL + checkpoint store for O-FSCIL serving.
//!
//! The paper's whole value proposition is that learned classes are cheap
//! (12 mJ) but precious: prototypes written online from a handful of shots
//! cannot be recomputed if a process dies. Until this crate, every
//! deployment's explicit memory lived only in RAM (plus best-effort
//! snapshots over the wire). This is the log-structured persistence layer
//! underneath the serving stack:
//!
//! * [`OpLog`] — the generic append-only record log (per-record magic-style
//!   framing with an FNV-1a checksum, torn-tail tolerant reads) that both
//!   the WAL and the router's placement journal build on,
//! * [`WalRecord`] — sequence-numbered value-logged operations (`Learn`,
//!   `Import`, `TopUp`), each carrying the post-operation replication
//!   sequence number and energy-meter state,
//! * [`Checkpoint`] / [`replay`] — periodic full-snapshot checkpoints plus
//!   deterministic log replay reconstructing explicit memory, sequence
//!   number and energy budget **bit-exactly**,
//! * [`compact_records`] — delta compaction: runs of records overwriting the
//!   same class slots collapse to the newest prototype per class, bounding
//!   replay cost by live classes instead of total writes,
//! * [`ObsSpill`] — durable spill for `ofscil_obs` timelines: sealed chunk
//!   records with torn-tail tolerance, budget-driven compaction of old
//!   chunks into per-minute rollup records under a bumped epoch, and
//!   [`SpillRecovery::rehydrate_into`] so a restarted shard's timeline
//!   queries answer as if it never died,
//! * [`Store`] — the per-deployment file store: journaling (it implements
//!   `ofscil_serve`'s [`CommitJournal`](ofscil_serve::CommitJournal) hook),
//!   crash [`recovery`](Store::recover), [`bootstrap`](Store::bootstrap) for
//!   restart *and* follower promotion, checkpoint-served
//!   [replication anchors](Store::replication_anchor), and
//!   [`maintenance`](Store::maintenance) sweeps a background thread polls.
//!
//! Crash-consistency contract: a record is flushed before its request is
//! acknowledged, checkpoints are written to a temporary sibling and renamed,
//! and recovery truncates a torn or corrupt WAL **tail** instead of failing
//! (the torn record's operation was never acknowledged as durable). The
//! random-damage property suite in `tests/store_recovery.rs` holds that
//! line.
//!
//! # Example
//!
//! ```no_run
//! use ofscil_core::OFscilModel;
//! use ofscil_nn::models::BackboneKind;
//! use ofscil_serve::{DeploymentSpec, LearnerRegistry};
//! use ofscil_store::Store;
//! use ofscil_tensor::SeedRng;
//!
//! let registry = LearnerRegistry::new();
//! registry
//!     .register(
//!         DeploymentSpec::new("tenant-a", (32, 32)),
//!         OFscilModel::new(BackboneKind::Micro, 32, &mut SeedRng::new(7)),
//!     )
//!     .unwrap();
//! let store = Store::open("/var/lib/ofscil").unwrap();
//! // Restores anything persisted, checkpoints anything new.
//! let recovered = store.bootstrap(&registry).unwrap();
//! println!("recovered {} deployments", recovered.len());
//! // Hand `&store` to `ServeRuntime::run_with` as `ServeHooks::journal` (or
//! // to `WireServer::run_observed`) and every commit is durable.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod obs_spill;
mod oplog;
mod store;
mod wal;

pub use error::StoreError;
pub use obs_spill::{ObsSpill, SpillRecovery, SpillStats, REC_CHUNK, REC_ROLLUP, SPILL_FILE};
pub use oplog::{OpLog, RawRecord, SyncPolicy};
pub use store::{RecoveryReport, Store, StoreConfig};
pub use wal::{compact_records, replay, Checkpoint, DeploymentState, WalRecord};

/// Result alias used across the store crate.
pub type Result<T> = std::result::Result<T, StoreError>;
