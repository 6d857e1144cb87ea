//! O-FSCIL: Online Few-Shot Class-Incremental Learning.
//!
//! This crate implements the paper's primary contribution on top of the
//! workspace substrates:
//!
//! * the FCR — the Fully Connected Reductor projecting backbone features θ_a
//!   (dimension d_a) to prototypical features θ_p (dimension d_p),
//! * [`ExplicitMemory`] — the expandable prototype store queried by cosine
//!   similarity, with optional reduced-precision storage,
//! * [`OFscilModel`] — backbone + FCR + EM, with *online* (single-pass) new
//!   class learning and batch evaluation,
//! * [`pretrain`] — supervised pretraining on the base session with Mixup /
//!   CutMix feature interpolation and the feature-orthogonality regulariser
//!   (paper Eq. 1–2),
//! * [`metalearn`] — episodic metalearning with ReLU-sharpened cosine logits
//!   and the multi-margin loss (paper Eq. 3–4), or cross entropy for the
//!   ablation,
//! * FCR fine-tuning ([`ExperimentConfig::with_finetune`]) — the optional
//!   on-device fine-tuning against bipolarised prototypes (paper §V-B,
//!   "Mode 2"),
//! * [`run_fscil_protocol`] — the full FSCIL session evaluator producing the
//!   per-session accuracies of Table II,
//! * [`run_ablation`] — the component toggles of Table III.
//!
//! # Example
//!
//! ```no_run
//! use ofscil_core::{ExperimentConfig, run_experiment};
//!
//! let config = ExperimentConfig::micro(7);
//! let outcome = run_experiment(&config).unwrap();
//! println!("average accuracy: {:.2}%", 100.0 * outcome.sessions.average());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod config;
mod cosine;
mod em;
mod error;
mod experiment;
mod fcr;
mod finetune;
mod metalearn;
mod model;
mod pretrain;
mod session;

pub use ablation::{run_ablation, AblationResult, AblationVariant};
pub use config::{EvalPrecision, ExperimentConfig, MetaLoss};
pub use em::ExplicitMemory;
pub use error::CoreError;
pub use experiment::{run_experiment, ExperimentOutcome};
pub(crate) use fcr::Fcr;
pub(crate) use finetune::finetune_fcr;
pub use finetune::FinetuneConfig;
pub use metalearn::{metalearn, MetalearnConfig, MetalearnReport};
pub use model::OFscilModel;
pub use pretrain::{pretrain, PretrainConfig, PretrainReport};
pub use session::{run_fscil_protocol, SessionResults};

/// Result alias used across the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;
