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
pub(crate) use sequential::chained_macs;
pub use sequential::Sequential;

use ofscil_tensor::Tensor;

/// Tile edge of [`transpose_planes`]: a 32×32 f32 tile is 4 KiB.
const TILE: usize = 32;

/// An NCHW batch `[batch, c, h, w]` as pixel-major rows `[batch * h * w, c]`:
/// image by image, pixel by pixel, one row of channels per pixel. Callers
/// check the rank first.
pub(crate) fn nchw_to_rows(input: &Tensor) -> Tensor {
    let (batch, c) = (input.dims()[0], input.dims()[1]);
    let pixels = input.dims()[2] * input.dims()[3];
    let rows = transpose_planes(input.as_slice(), batch, c, pixels);
    Tensor::from_vec(rows, &[batch * pixels, c]).expect("same element count")
}

/// Pixel-major rows `[batch * h * w, c]` back into an NCHW batch
/// `[batch, c, h, w]`.
pub(crate) fn rows_to_nchw(rows: &Tensor, batch: usize, h: usize, w: usize) -> Tensor {
    let c = rows.dims()[1];
    let planes = transpose_planes(rows.as_slice(), batch, h * w, c);
    Tensor::from_vec(planes, &[batch, c, h, w]).expect("same element count")
}

/// Transposes each of the `planes` row-major `[rows, cols]` matrices that
/// `src` holds back to back into `[cols, rows]`, one tile at a time so the
/// strided writes of a tile land in a few cache lines.
fn transpose_planes(src: &[f32], planes: usize, rows: usize, cols: usize) -> Vec<f32> {
    let plane = rows * cols;
    let mut out = vec![0.0f32; planes * plane];
    for p in 0..planes {
        let (src, dst) = (&src[p * plane..][..plane], &mut out[p * plane..][..plane]);
        for i0 in (0..rows).step_by(TILE) {
            for j0 in (0..cols).step_by(TILE) {
                let j1 = (j0 + TILE).min(cols);
                for i in i0..(i0 + TILE).min(rows) {
                    for (j, &v) in (j0..j1).zip(&src[i * cols + j0..i * cols + j1]) {
                        dst[j * rows + i] = v;
                    }
                }
            }
        }
    }
    out
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
            let rows = nchw_to_rows(&x);
            let (c, pixels) = (dims[1], dims[2] * dims[3]);
            assert_eq!(rows.dims(), &[dims[0] * pixels, c]);
            for (r, row) in rows.as_slice().chunks(c).enumerate() {
                let (b, p) = (r / pixels, r % pixels);
                for (ch, &v) in row.iter().enumerate() {
                    assert_eq!(v, x.as_slice()[(b * c + ch) * pixels + p], "{dims:?}");
                }
            }
            assert_eq!(rows_to_nchw(&rows, dims[0], dims[2], dims[3]), x);
        }
    }
}
