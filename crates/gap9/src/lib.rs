//! GAP9-class multi-core MCU model for the O-FSCIL deployment experiments.
//!
//! The paper deploys O-FSCIL on the GAP9 microcontroller: a fabric controller
//! plus a 9-core RISC-V cluster with SIMD int8 MAC support, a three-level
//! memory hierarchy (L1 shared by the cluster, L2 on chip, L3 external) and
//! DMA engines for asynchronous transfers, running at 240 MHz / 650 mV within
//! a ~50 mW power envelope.
//!
//! Real silicon is not available offline, so this crate reproduces the
//! *measured* quantities of the paper (Table IV latency / power / energy and
//! the Fig. 2 MACs-per-cycle scaling) with a deployment cost model:
//!
//! * [`deploy_backbone`] / [`deploy_fcr`] turn a trained backbone (or the
//!   FCR projection) into a [`NetworkWorkload`]: per-layer MACs, weight and
//!   activation bytes and parallelisable units,
//! * [`estimate_execution`] runs the tiling + latency model: per-layer
//!   compute cycles (SIMD throughput × a parallel-efficiency curve), DMA
//!   cycles from the memory level the weights live in, and per-layer
//!   overheads,
//! * [`PowerModel`] converts an execution estimate into power and energy at
//!   the 650 mV / 240 MHz operating point,
//! * [`Gap9Executor`] assembles the Table IV operations — FCR inference,
//!   backbone inference, EM update (5-shot) and FCR fine-tuning — and the
//!   Fig. 2 core sweep.
//!
//! # Example
//!
//! ```
//! use ofscil_gap9::{deploy_fcr, estimate_execution, Gap9Config};
//!
//! let config = Gap9Config::default();
//! let fcr = deploy_fcr(1280, 256);
//! let estimate = estimate_execution(&fcr, &config, 8, false).unwrap();
//! assert!(estimate.time_ms(&config) > 0.0);
//! ```

//!
//! The section below (included from `src/README.md` so it is readable both
//! on GitHub and in rustdoc) documents the energy model end-to-end: the
//! workload extraction, the latency and power equations, the calibration
//! protocol and the model's limits.
#![doc = ""]
#![doc = include_str!("README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod deploy;
mod error;
mod ops;
mod perf;
mod power;
mod workload;

pub use config::Gap9Config;
pub use deploy::{deploy_backbone, deploy_fcr};
pub use error::Gap9Error;
pub use ops::{Gap9Executor, OperationCost};
pub use perf::{estimate_execution, ExecutionEstimate};
pub use power::PowerModel;
pub use workload::{LayerWorkload, NetworkWorkload};

/// Result alias used across the gap9 crate.
pub type Result<T> = std::result::Result<T, Gap9Error>;
