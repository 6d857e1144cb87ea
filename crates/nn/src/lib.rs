//! Layer-wise neural-network engine for the O-FSCIL reproduction.
//!
//! The crate provides everything needed to *pretrain*, *metalearn* and run the
//! paper's backbones from scratch in Rust:
//!
//! * a [`Layer`] trait with explicit forward/backward passes and parameter
//!   visitation (no general autograd tape — every layer derives its own
//!   gradient, which keeps the engine small and auditable),
//! * the layers used by MobileNetV2 and ResNet-12 (standard and depthwise
//!   convolutions, batch normalisation, ReLU/ReLU6, pooling, linear). A
//!   standard convolution multiplies its weights with one `im2col` patch
//!   matrix per image. A 1×1, stride-1, unpadded (pointwise) one is its own
//!   layer: the batch's pixels are the rows of one matmul against a weight
//!   stored `[in, out]`, as [`layers::Linear`] stores its own. A depthwise
//!   convolution is a direct channels-last stencil with no patch matrix or
//!   matmul,
//! * composite blocks (inverted residual, ResNet basic block) and the backbone
//!   model builders with the paper's stride profiles (Table I). Activations
//!   are channels-last, `[batch, h, w, c]`, between every pair of layers: a
//!   backbone changes its NCHW images to that layout once on entry and its
//!   input gradient back once on exit, and only a standard convolution's
//!   per-image patch matrices still read channel planes,
//! * the three losses of the paper — cross entropy (with soft labels for
//!   Mixup/CutMix), the feature-orthogonality regulariser (Eq. 1) and the
//!   multi-margin loss on cosine logits (Eq. 4),
//! * an SGD (momentum + weight decay) optimizer,
//! * MAC / parameter profiling used to regenerate Table I.
//!
//! # Example
//!
//! ```
//! use ofscil_nn::{layers::Linear, Layer, Mode};
//! use ofscil_tensor::{SeedRng, Tensor};
//!
//! let mut layer = Linear::new(4, 2, &mut SeedRng::new(0));
//! let x = Tensor::ones(&[3, 4]);
//! let y = layer.forward(&x, Mode::Eval).unwrap();
//! assert_eq!(y.dims(), &[3, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod error;
mod layer;
pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
mod param;
pub mod profile;

pub use error::NnError;
pub use layer::{Layer, Mode};
pub use param::Parameter;

/// Result alias used across the nn crate.
pub type Result<T> = std::result::Result<T, NnError>;
