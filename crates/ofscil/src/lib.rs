//! O-FSCIL — Online Few-Shot Class-Incremental Learning, reproduced in Rust.
//!
//! This facade crate re-exports the whole workspace behind a single
//! dependency and provides a [`prelude`] with the types most applications
//! need. See the individual crates for the full APIs:
//!
//! * [`tensor`] — dense tensor math, RNG, initialisers,
//! * [`nn`] — the layer-wise training engine, backbones, losses, optimizers,
//! * [`quant`] — int8 quantization and explicit-memory precision reduction,
//! * [`data`] — the synthetic CIFAR100-like dataset and the FSCIL protocol,
//! * [`core`] — the O-FSCIL method itself (FCR, explicit memory, pretraining,
//!   metalearning, online learning, fine-tuning, the session evaluator),
//! * [`baselines`] — comparison classifier heads,
//! * [`gap9`] — the GAP9-class MCU deployment and energy model (the crate's
//!   module docs walk through the full latency/power/energy pipeline and its
//!   calibration),
//! * [`obs`] — the columnar time-series event store for cluster
//!   observability: non-blocking event sinks on the serving hot path,
//!   chunked time-sorted storage with a byte budget, per-minute rollups
//!   that remember what GC forgot, and range/aggregate timeline queries
//!   (raw, rollup or auto resolution) that merge across shards,
//! * [`serve`] — the multi-tenant serving runtime: request batching,
//!   energy-budget admission and explicit-memory snapshots for long-lived
//!   deployments,
//! * [`store`] — the durable WAL + checkpoint store: per-deployment
//!   write-ahead logs with delta compaction, full-snapshot checkpoints,
//!   bit-exact crash recovery and the bootstrap path follower promotion
//!   rides on,
//! * [`wire`] — cross-process serving: the checksummed binary wire protocol,
//!   the blocking TCP / Unix-socket server and client, and the
//!   snapshot-replicated read-only follower mode,
//! * [`router`] — consistent-hash sharding for multi-process deployments:
//!   one client-facing wire address in front of N backend serving
//!   processes, with pooled connections, shard health probing,
//!   scatter-gather cluster statistics and live explicit-memory migration
//!   between shards,
//! * [`ctrl`] — the self-driving control plane above the router: a
//!   deterministic, tick-driven loop that watches breaker dwell times,
//!   advertised followers and trailing request rates, and auto-heals
//!   (follower promotion, store restart) and auto-rebalances (hot
//!   deployment migration) with hysteresis, cooldowns and bounded retries —
//!   no operator calls.
//!
//! # Quickstart
//!
//! ```no_run
//! use ofscil::prelude::*;
//!
//! // Pretrain + metalearn a micro backbone, then run the incremental
//! // protocol, evaluating after every session.
//! let config = ExperimentConfig::micro(42);
//! let outcome = run_experiment(&config).unwrap();
//! println!("per-session accuracy: {}", outcome.sessions.to_row());
//!
//! // Estimate what one FCR inference costs on the MCU model.
//! let executor = Gap9Executor::new(Gap9Config::default());
//! let cost = executor.fcr_inference(1280, 256, 8).unwrap();
//! println!("FCR inference: {:.2} ms, {:.2} mJ", cost.time_ms, cost.energy_mj);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ofscil_baselines as baselines;
pub use ofscil_core as core;
pub use ofscil_ctrl as ctrl;
pub use ofscil_data as data;
pub use ofscil_gap9 as gap9;
pub use ofscil_nn as nn;
pub use ofscil_obs as obs;
pub use ofscil_quant as quant;
pub use ofscil_router as router;
pub use ofscil_serve as serve;
pub use ofscil_store as store;
pub use ofscil_tensor as tensor;
pub use ofscil_wire as wire;

/// The most commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use ofscil_baselines::{
        run_baseline_protocol, BaselineHead, EtfHead, FeatureSpace, NearestClassMean,
        SimilarityMetric,
    };
    pub use ofscil_core::{
        metalearn, pretrain, run_ablation, run_experiment, run_fscil_protocol, AblationVariant,
        EvalPrecision, ExperimentConfig, ExplicitMemory, FinetuneConfig, OFscilModel,
        SessionResults,
    };
    pub use ofscil_ctrl::{ControlAction, Controller, CtrlConfig, FollowerProcess, StandbyFleet};
    pub use ofscil_data::{Batch, Dataset, FscilBenchmark, FscilConfig, SyntheticCifar};
    pub use ofscil_gap9::{deploy_backbone, deploy_fcr, Gap9Config, Gap9Executor, OperationCost};
    pub use ofscil_nn::models::{BackboneKind, MobileNetVariant};
    pub use ofscil_nn::profile::profile_with_fcr;
    pub use ofscil_nn::{Layer, Mode};
    pub use ofscil_obs::{
        ChunkSpill, Event, EventKind, Obs, ObsConfig, ObsCursor, ObsQuery, ObsStore, Resolution,
        Rollup,
    };
    pub use ofscil_quant::{ExplicitMemoryFootprint, FakeQuant, PrototypePrecision, QuantTensor};
    pub use ofscil_router::{
        ClusterTail, HashRing, PoolConfig, RouterConfig, RouterError, RouterHandle, RouterServer,
    };
    pub use ofscil_serve::{
        decode_explicit_memory, encode_explicit_memory, BudgetPolicy, CommitJournal,
        DeploymentSpec, DeploymentStats, LearnCommit, LearnerRegistry, PendingResponse,
        ServeClient, ServeConfig, ServeError, ServeHooks, ServeRequest, ServeResponse,
        ServeRuntime,
    };
    pub use ofscil_store::{ObsSpill, Store, StoreConfig, SyncPolicy};
    pub use ofscil_tensor::{SeedRng, Tensor};
    pub use ofscil_wire::{
        BoundAddr, Follower, FollowerConfig, ObsTailStream, ReplEvent, WireClient, WireConfig,
        WireError, WireServer,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_entry_points() {
        use crate::prelude::*;
        // Type-level smoke test: constructing the micro config must work from
        // the prelude alone.
        let config = ExperimentConfig::micro(0);
        assert_eq!(config.fscil.num_sessions, 8);
        let _ = Gap9Config::default();
        let _ = SeedRng::new(0);
        let registry = LearnerRegistry::new();
        assert!(registry.is_empty());
        ServeConfig::default().validate().unwrap();
    }
}
