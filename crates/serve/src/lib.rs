//! `ofscil_serve` — a multi-tenant serving runtime for online few-shot
//! class-incremental learners.
//!
//! The rest of the workspace exercises O-FSCIL through the one-shot
//! [`run_experiment`](ofscil_core::run_experiment) driver. This crate keeps
//! models **alive**: many independent [`OFscilModel`](ofscil_core::OFscilModel)
//! deployments serve mixed inference and online-learning traffic from
//! concurrent clients, under the paper's energy envelope, across restarts.
//!
//! The pieces:
//!
//! * [`LearnerRegistry`] — named deployments behind sharded `RwLock`s; each
//!   model sits behind its own lock so tenants proceed concurrently,
//! * [`ServeRequest`] / [`ServeResponse`] — the typed request API (`Infer`,
//!   `LearnOnline`, `Snapshot`, `Stats`, `TopUpBudget`), dispatched over
//!   `std::sync::mpsc` channels to a `std::thread::scope` worker pool by
//!   [`ServeRuntime::run`],
//! * one FIFO queue per deployment — the runtime's only queueing structure.
//!   Batches form where they run: a worker that finds an `Infer` at the head
//!   takes the `Infer`s waiting directly behind it (up to
//!   [`ServeConfig::max_batch`]) into a single batched forward pass, so
//!   batch size follows load, and a `LearnOnline`/`Snapshot`/`Stats` ends
//!   the run just by sitting in the queue (the perf ledger's
//!   `serve.batch_gain` is the batched-vs-sequential ratio),
//! * energy-budget admission — every request is priced in millijoules on
//!   the GAP9 cost model ([`LearnerRegistry::pricing`]); once a deployment's
//!   budget is spent, work is rejected or deferred per [`BudgetPolicy`],
//!   turning the paper's 12 mJ/class headline into a runtime policy.
//!   Batches are settled at their **amortized** energy after running: the
//!   batch streams the weights once, so the meter refunds the difference to
//!   `n` independent passes,
//! * [`snapshot`] — the byte layouts of everything this system persists or
//!   replicates: the explicit-memory snapshot (bit-exact round trip for warm
//!   restart), the prototype list of one committed learn, the energy budget,
//! * [`ServeHooks`] — what [`ServeRuntime::run_with`] attaches to a session:
//!   `commits` is called with every committed `LearnOnline` as a
//!   sequence-numbered [`LearnCommit`] (`ofscil_wire` hands each one
//!   straight to its replication hub, and builds follower mode on a runtime
//!   configured [`read_only`](ServeConfig::read_only));
//!   `journal` writes every commit and budget top-up to a [`CommitJournal`]
//!   under the deployment's model lock, so record order provably matches
//!   mutation order (`ofscil_store` implements the trait with a WAL +
//!   checkpoint store and recovers deployments bit-exactly after a crash);
//!   `obs` emits one observability event per unit of work,
//! * backpressure — [`ServeConfig::queue_depth`] bounds the requests
//!   waiting inside the runtime (submitted, not yet taken by a worker nor
//!   answered or parked by the dispatcher) and sheds excess submissions with
//!   [`ServeError::QueueFull`].
//!
//! # Example
//!
//! ```no_run
//! use ofscil_serve::{
//!     DeploymentSpec, LearnerRegistry, ServeConfig, ServeRequest, ServeRuntime,
//! };
//! use ofscil_core::OFscilModel;
//! use ofscil_nn::models::BackboneKind;
//! use ofscil_tensor::{SeedRng, Tensor};
//!
//! let mut rng = SeedRng::new(42);
//! let registry = LearnerRegistry::new();
//! registry
//!     .register(
//!         DeploymentSpec::new("tenant-a", (32, 32)),
//!         OFscilModel::new(BackboneKind::Micro, 32, &mut rng),
//!     )
//!     .unwrap();
//! ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
//!     let response = client.call(ServeRequest::Infer {
//!         deployment: "tenant-a".into(),
//!         image: Tensor::zeros(&[3, 32, 32]),
//!     });
//!     println!("{response:?}");
//! })
//! .unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod error;
mod journal;
mod registry;
mod request;
mod runtime;
pub mod snapshot;
pub mod traffic;

pub use config::ServeConfig;
pub use error::ServeError;
pub use journal::{CommitJournal, DurabilityStats};
pub use registry::{
    BudgetPolicy, DeploymentExport, DeploymentSpec, DeploymentStats, ExportStats, LearnerRegistry,
};
pub use request::{PendingResponse, ServeRequest, ServeResponse};
pub use runtime::{LearnCommit, ServeClient, ServeHooks, ServeRuntime};
pub use snapshot::{
    decode_budget, decode_explicit_memory, decode_prototypes, encode_budget,
    encode_explicit_memory, encode_prototypes, SnapshotError,
};

/// Result alias used across the serve crate.
pub type Result<T> = std::result::Result<T, ServeError>;
