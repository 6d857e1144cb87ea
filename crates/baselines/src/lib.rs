//! Baseline FSCIL classifier heads used for the Table II comparison.
//!
//! The published baselines (C-FSCIL, NC-FSCIL, SAVC, ALICE, LIMIT, MetaFSCIL)
//! cannot be re-run offline, so this crate re-implements the *classifier /
//! memory side* of the most relevant families on top of the same backbone,
//! FCR and data protocol used by O-FSCIL:
//!
//! * [`NearestClassMean`] — prototype averaging with cosine or Euclidean
//!   matching (the classical NCM / ProtoNet head; also C-FSCIL "mode 1" when
//!   run on FCR features),
//! * [`EtfHead`] — an NC-FSCIL-style head: class targets are fixed,
//!   pre-assigned equiangular (simplex-ETF-like) directions and a ridge
//!   regression aligns the base-session features to them; incremental classes
//!   are assigned the next free target without any retraining,
//! * [`run_baseline_protocol`] — runs any [`BaselineHead`] through the same
//!   FSCIL session schedule as the core evaluator, producing per-session
//!   accuracies comparable with O-FSCIL's.
//!
//! # Example
//!
//! ```no_run
//! use ofscil_baselines::{run_baseline_protocol, FeatureSpace, NearestClassMean, SimilarityMetric};
//! use ofscil_core::{ExperimentConfig, OFscilModel};
//! use ofscil_data::FscilBenchmark;
//! use ofscil_tensor::SeedRng;
//!
//! let config = ExperimentConfig::micro(0);
//! let benchmark = FscilBenchmark::generate(&config.fscil, 0).unwrap();
//! let mut rng = SeedRng::new(0);
//! let mut model = OFscilModel::new(config.backbone, config.projection_dim, &mut rng);
//! let mut head = NearestClassMean::new(SimilarityMetric::Cosine);
//! let results = run_baseline_protocol(
//!     &mut model, &benchmark, &mut head, FeatureSpace::Backbone, 32,
//! ).unwrap();
//! println!("{}", results.to_row());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod etf;
mod head;
mod ncm;
mod protocol;
mod ridge;

pub use etf::EtfHead;
pub use head::{BaselineHead, FeatureSpace, SimilarityMetric};
pub use ncm::NearestClassMean;
pub use protocol::run_baseline_protocol;
pub(crate) use ridge::ridge_regression;

/// Result alias used across the baselines crate.
pub type Result<T> = std::result::Result<T, ofscil_core::CoreError>;
