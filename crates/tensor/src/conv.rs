//! Convolution lowering: `im2col` / `col2im` and output-geometry helpers.
//!
//! The nn crate's standard convolution multiplies its weights with the patch
//! matrix [`im2col`] builds here and folds patch gradients back with
//! [`col2im`]; a 1×1, stride-1, unpadded convolution skips `im2col`, because
//! the image already is its patch matrix. The depthwise convolution uses only
//! [`Conv2dGeometry`]: it runs as a direct per-channel stencil and builds no
//! patch matrix.

use crate::{Result, Tensor, TensorError};

/// Spatial geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub(crate) kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding along both spatial axes.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a square-kernel geometry.
    pub fn new(in_h: usize, in_w: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dGeometry {
            in_h,
            in_w,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Output height of the convolution.
    pub fn out_h(&self) -> usize {
        conv_out(self.in_h, self.kernel_h, self.stride, self.padding)
    }

    /// Output width of the convolution.
    pub fn out_w(&self) -> usize {
        conv_out(self.in_w, self.kernel_w, self.stride, self.padding)
    }

    /// Number of output pixels (`out_h * out_w`).
    pub fn out_pixels(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Validates that the geometry produces a non-empty output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when the kernel is larger than
    /// the padded input or the stride is zero.
    pub fn validate(&self) -> Result<()> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument(
                "stride must be nonzero".into(),
            ));
        }
        if self.kernel_h == 0 || self.kernel_w == 0 {
            return Err(TensorError::InvalidArgument(
                "kernel must be nonzero".into(),
            ));
        }
        if self.in_h + 2 * self.padding < self.kernel_h
            || self.in_w + 2 * self.padding < self.kernel_w
        {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kernel_h,
                self.kernel_w,
                self.in_h + 2 * self.padding,
                self.in_w + 2 * self.padding
            )));
        }
        Ok(())
    }
}

fn conv_out(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    if input + 2 * padding < kernel || stride == 0 {
        return 0;
    }
    (input + 2 * padding - kernel) / stride + 1
}

/// Lowers one image of shape `[channels, in_h, in_w]` into a patch matrix of
/// shape `[channels * kernel_h * kernel_w, out_h * out_w]`.
///
/// # Errors
///
/// Returns an error when `image` is not rank-3, its spatial extents disagree
/// with `geom`, or the geometry is invalid.
pub fn im2col(image: &Tensor, channels: usize, geom: &Conv2dGeometry) -> Result<Tensor> {
    geom.validate()?;
    if image.dims().len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: image.dims().len(),
            op: "im2col",
        });
    }
    if image.dims() != [channels, geom.in_h, geom.in_w] {
        return Err(TensorError::ShapeMismatch {
            left: image.dims().to_vec(),
            right: vec![channels, geom.in_h, geom.in_w],
            op: "im2col",
        });
    }
    let out_h = geom.out_h();
    let out_w = geom.out_w();
    let patch_len = channels * geom.kernel_h * geom.kernel_w;
    let mut out = vec![0.0f32; patch_len * out_h * out_w];
    let src = image.as_slice();
    let (in_h, in_w) = (geom.in_h as isize, geom.in_w as isize);

    for c in 0..channels {
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let patch_row = (c * geom.kernel_h + kh) * geom.kernel_w + kw;
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                        let dst_idx = patch_row * out_h * out_w + oy * out_w + ox;
                        if iy >= 0 && iy < in_h && ix >= 0 && ix < in_w {
                            out[dst_idx] = src
                                [c * geom.in_h * geom.in_w + iy as usize * geom.in_w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[patch_len, out_h * out_w])
}

/// Accumulates a patch matrix (shape `[channels * kh * kw, out_h * out_w]`)
/// back into an image of shape `[channels, in_h, in_w]` — the adjoint of
/// [`im2col`], used by the convolution backward pass.
///
/// # Errors
///
/// Returns an error when the patch-matrix shape disagrees with `geom` or the
/// geometry is invalid.
pub fn col2im(cols: &Tensor, channels: usize, geom: &Conv2dGeometry) -> Result<Tensor> {
    geom.validate()?;
    let out_h = geom.out_h();
    let out_w = geom.out_w();
    let patch_len = channels * geom.kernel_h * geom.kernel_w;
    if cols.dims() != [patch_len, out_h * out_w] {
        return Err(TensorError::ShapeMismatch {
            left: cols.dims().to_vec(),
            right: vec![patch_len, out_h * out_w],
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; channels * geom.in_h * geom.in_w];
    let src = cols.as_slice();
    let (in_h, in_w) = (geom.in_h as isize, geom.in_w as isize);

    for c in 0..channels {
        for kh in 0..geom.kernel_h {
            for kw in 0..geom.kernel_w {
                let patch_row = (c * geom.kernel_h + kh) * geom.kernel_w + kw;
                for oy in 0..out_h {
                    let iy = (oy * geom.stride + kh) as isize - geom.padding as isize;
                    for ox in 0..out_w {
                        let ix = (ox * geom.stride + kw) as isize - geom.padding as isize;
                        if iy >= 0 && iy < in_h && ix >= 0 && ix < in_w {
                            let dst =
                                c * geom.in_h * geom.in_w + iy as usize * geom.in_w + ix as usize;
                            out[dst] += src[patch_row * out_h * out_w + oy * out_w + ox];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[channels, geom.in_h, geom.in_w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_geometry() {
        let g = Conv2dGeometry::new(32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = Conv2dGeometry::new(32, 32, 3, 2, 1);
        assert_eq!((g.out_h(), g.out_w()), (16, 16));
        let g = Conv2dGeometry::new(7, 7, 7, 1, 0);
        assert_eq!(g.out_pixels(), 1);
        assert!(Conv2dGeometry::new(4, 4, 5, 1, 0).validate().is_err());
        assert!(Conv2dGeometry {
            stride: 0,
            ..Conv2dGeometry::new(4, 4, 3, 1, 1)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: the patch matrix is the image
        // flattened per channel.
        let img = Tensor::from_vec((0..2 * 3 * 3).map(|x| x as f32).collect(), &[2, 3, 3]).unwrap();
        let g = Conv2dGeometry::new(3, 3, 1, 1, 0);
        let cols = im2col(&img, 2, &g).unwrap();
        assert_eq!(cols.dims(), &[2, 9]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_known_values() {
        // Single channel 3x3 image, 2x2 kernel, stride 1, no padding.
        let img = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 3, 3],
        )
        .unwrap();
        let g = Conv2dGeometry {
            kernel_h: 2,
            kernel_w: 2,
            ..Conv2dGeometry::new(3, 3, 2, 1, 0)
        };
        let cols = im2col(&img, 1, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // Patch rows: top-left, top-right, bottom-left, bottom-right of each
        // 2x2 window, windows in row-major output order.
        assert_eq!(cols.row(0).unwrap(), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(cols.row(1).unwrap(), &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(cols.row(2).unwrap(), &[4.0, 5.0, 7.0, 8.0]);
        assert_eq!(cols.row(3).unwrap(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let img = Tensor::ones(&[1, 2, 2]);
        let g = Conv2dGeometry::new(2, 2, 3, 1, 1);
        let cols = im2col(&img, 1, &g).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Centre tap of the kernel always hits the image: row 4 is all ones.
        assert_eq!(cols.row(4).unwrap(), &[1.0, 1.0, 1.0, 1.0]);
        // Top-left tap only hits the image for the bottom-right output pixel.
        assert_eq!(cols.row(0).unwrap(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop requires.
        let mut rng = crate::SeedRng::new(21);
        let g = Conv2dGeometry::new(5, 6, 3, 2, 1);
        let channels = 3;
        let x = Tensor::from_vec(
            (0..channels * 5 * 6).map(|_| rng.normal()).collect(),
            &[channels, 5, 6],
        )
        .unwrap();
        let cols = im2col(&x, channels, &g).unwrap();
        let y =
            Tensor::from_vec((0..cols.len()).map(|_| rng.normal()).collect(), cols.dims()).unwrap();
        let dot = |a: &Tensor, b: &Tensor| -> f32 {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let lhs = dot(&cols, &y);
        let back = col2im(&y, channels, &g).unwrap();
        let rhs = dot(&x, &back);
        assert!((lhs - rhs).abs() < 1e-3, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn shape_mismatches_error() {
        let img = Tensor::ones(&[1, 4, 4]);
        let g = Conv2dGeometry::new(5, 5, 3, 1, 1);
        assert!(im2col(&img, 1, &g).is_err());
        let cols = Tensor::ones(&[9, 9]);
        assert!(col2im(&cols, 1, &g).is_err());
        assert!(im2col(&Tensor::ones(&[4, 4]), 1, &g).is_err());
    }
}
