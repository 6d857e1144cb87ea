//! Primitive layers: convolutions, batch normalisation, activations, pooling,
//! linear projections and the [`Sequential`] container.

mod activation;
mod batchnorm;
mod conv2d;
mod dwconv;
mod linear;
mod pool;
mod pwconv;
mod sequential;

pub(crate) use activation::{Relu, Relu6};
pub(crate) use batchnorm::BatchNorm;
pub(crate) use conv2d::Conv2d;
pub(crate) use dwconv::DepthwiseConv2d;
pub use linear::Linear;
pub(crate) use pool::{GlobalAvgPool, MaxPool2d};
pub(crate) use pwconv::PointwiseConv2d;
pub use sequential::Sequential;
