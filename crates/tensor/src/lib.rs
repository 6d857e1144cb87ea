//! Dense tensor math substrate for the O-FSCIL reproduction.
//!
//! This crate provides the numerical foundation used by every other crate in
//! the workspace: an owned, row-major [`Tensor`] of `f32` values together with
//! the linear-algebra, convolution-lowering, reduction and similarity kernels
//! needed to train and evaluate the O-FSCIL models, plus deterministic random
//! initialization utilities.
//!
//! The design goals, in order, are correctness, determinism (every stochastic
//! routine takes an explicit seed or RNG), and reasonable single-node
//! performance (a K-blocked [`Tensor::matmul`] on the calling thread; the
//! crate starts no threads, so callers choose the parallelism).
//!
//! # Example
//!
//! ```
//! use ofscil_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
mod conv;
mod error;
mod init;
mod linalg;
mod reduce;
mod rng;
mod shape;
mod similarity;
mod tensor;

pub use conv::{col2im, im2col, Conv2dGeometry};
pub use error::TensorError;
pub use init::{Init, Initializer};
pub use linalg::transpose_into;
pub use reduce::Axis;
pub use rng::SeedRng;
pub use shape::Shape;
pub use similarity::{cosine_similarity, l2_norm, log_softmax, softmax};
pub use tensor::Tensor;

/// Result alias used across the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;
