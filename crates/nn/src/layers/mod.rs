//! Primitive layers: convolutions, batch normalisation, activations, pooling,
//! linear projections and the [`Sequential`] container.
//!
//! Feature maps are channels-last, `[batch, h, w, c]`, between every pair of
//! layers; flat activations are `[batch, features]`. A backbone changes its
//! NCHW images to channels-last once on entry (`to_channels_last`) and its
//! input gradient back once on exit (`to_nchw`).

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
pub(crate) use sequential::chained_macs;
pub use sequential::Sequential;

use ofscil_tensor::{transpose_into, Tensor};

/// An NCHW batch `[batch, c, h, w]` in the channels-last layout
/// `[batch, h, w, c]` every layer takes: image by image, pixel by pixel, one
/// row of channels per pixel. Callers check the rank first.
pub(crate) fn to_channels_last(nchw: &Tensor) -> Tensor {
    let &[batch, c, h, w] = nchw.dims() else {
        unreachable!("callers check the rank")
    };
    transpose_images(nchw, c, h * w, &[batch, h, w, c])
}

/// A channels-last batch `[batch, h, w, c]` back in NCHW `[batch, c, h, w]`.
pub(crate) fn to_nchw(nhwc: &Tensor) -> Tensor {
    let &[batch, h, w, c] = nhwc.dims() else {
        unreachable!("callers check the rank")
    };
    transpose_images(nhwc, h * w, c, &[batch, c, h, w])
}

/// Transposes each image of `src`, a row-major `[rows, cols]` matrix, into
/// `[cols, rows]`, giving a tensor of `dims`.
fn transpose_images(src: &Tensor, rows: usize, cols: usize, dims: &[usize]) -> Tensor {
    let image = (rows * cols).max(1);
    let mut out = vec![0.0f32; src.len()];
    for (src, dst) in src
        .as_slice()
        .chunks_exact(image)
        .zip(out.chunks_exact_mut(image))
    {
        transpose_into(src, rows, cols, dst);
    }
    Tensor::from_vec(out, dims).expect("same element count")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_an_nchw_batch() {
        // Planes wider and narrower than a tile, and an empty batch.
        for dims in [[2, 3, 2, 5], [1, 40, 6, 7], [3, 5, 9, 4], [0, 4, 2, 2]] {
            let n = dims.iter().product();
            let x = Tensor::from_vec((0..n).map(|v| v as f32).collect(), &dims).unwrap();
            let nhwc = to_channels_last(&x);
            let (c, pixels) = (dims[1], dims[2] * dims[3]);
            assert_eq!(nhwc.dims(), &[dims[0], dims[2], dims[3], c]);
            for (r, row) in nhwc.as_slice().chunks(c).enumerate() {
                let (b, p) = (r / pixels, r % pixels);
                for (ch, &v) in row.iter().enumerate() {
                    assert_eq!(v, x.as_slice()[(b * c + ch) * pixels + p], "{dims:?}");
                }
            }
            assert_eq!(to_nchw(&nhwc), x);
        }
    }
}
