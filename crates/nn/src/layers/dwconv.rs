//! Depthwise 2-D convolution (channel multiplier 1), the core of the
//! MobileNetV2 inverted-residual block.
//!
//! The convolution runs on channels-last activations `[batch, h, w, c]`,
//! pixel by pixel, one row of channels per pixel. Each output row is a
//! stencil over the input rows its `k x k` taps reach: tap by tap in
//! ascending `(kh, kw)` order, each tap scales a whole input row by its
//! weight row and adds it, so the arithmetic runs along the channels and
//! vectorises however small the plane (2×2 and 4×4 on the late stages of a
//! 32×32 input). Taps whose input falls in the zero padding are left out, so
//! the padding costs nothing. The weight is stored `[k * k, channels]`, one
//! row per tap: drawn in the `[channels, k * k]` order of a per-channel
//! kernel and transposed once.
//!
//! Every output sums the same products in the same order as a per-channel
//! `im2col` + `[1, k²] · [k², n]` matmul would, so the results are bit for
//! bit those of that lowering; the weight gradient sums each image's
//! products in row-major output order and adds the images in order, as
//! that lowering does.
//!
//! Zero taps are skipped, as `Tensor::matmul` skips zero factors, so a
//! non-finite input under a zero tap never turns into NaN. The test is made
//! once per tap row: a row that holds no exact zero runs the plain
//! vectorised loop, and only a row that holds one takes the per-channel
//! skip.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::{Conv2dGeometry, Init, Initializer, SeedRng, Tensor};

/// Depthwise convolution without bias (every caller follows it with
/// `BatchNorm`): every input channel is convolved with its own `k x k`
/// kernel; channel count is preserved.
///
/// * input: `[batch, h, w, channels]`
/// * weight: `[k * k, channels]`
/// * output: `[batch, h', w', channels]`
#[derive(Debug)]
pub(crate) struct DepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Parameter,
    /// The input of the last training forward.
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-normal initialised weights.
    pub(crate) fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeedRng,
    ) -> Self {
        let fan_in = kernel * kernel;
        let mut init = Initializer::new(rng.fork(0xd00d));
        let drawn = init.tensor(&[channels, fan_in], Init::KaimingNormal { fan_in });
        let weight = Parameter::new("weight", drawn.transpose().expect("a rank-2 draw"));
        DepthwiseConv2d {
            channels,
            kernel,
            stride,
            padding,
            weight,
            cached_input: None,
        }
    }

    /// The convolution geometry for a given input height/width.
    pub(crate) fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(in_h, in_w, self.kernel, self.stride, self.padding)
    }

    /// The `(batch, geometry)` of a `[batch, h, w, channels]` input.
    fn check_input(&self, dims: &[usize]) -> Result<(usize, Conv2dGeometry)> {
        match *dims {
            [batch, h, w, c] if c == self.channels => {
                let geom = self.geometry(h, w);
                geom.validate()?;
                Ok((batch, geom))
            }
            _ => Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, h, w, {}]", self.channels),
                actual: dims.to_vec(),
            }),
        }
    }

    /// The input pixel tap `t` of output pixel `(oy, ox)` reads, or `None`
    /// where it falls in the zero padding.
    fn tap_input(&self, geom: &Conv2dGeometry, t: usize, oy: usize, ox: usize) -> Option<usize> {
        let (kh, kw) = (t / self.kernel, t % self.kernel);
        let iy = (oy * self.stride + kh).checked_sub(self.padding)?;
        let ix = (ox * self.stride + kw).checked_sub(self.padding)?;
        (iy < geom.in_h && ix < geom.in_w).then_some(iy * geom.in_w + ix)
    }

    /// For each tap row of the weight, whether it holds an exact zero.
    fn zero_taps(&self) -> Vec<bool> {
        let c = self.channels;
        let weight = self.weight.value.as_slice();
        (0..self.kernel * self.kernel)
            .map(|t| weight[t * c..(t + 1) * c].contains(&0.0))
            .collect()
    }

    /// [`Layer::forward`] on an input the caller hands over, so a training
    /// forward keeps it for the backward without a copy.
    pub(crate) fn forward_owned(&mut self, input: Tensor, mode: Mode) -> Result<Tensor> {
        let (batch, geom) = self.check_input(input.dims())?;
        let c = self.channels;
        let (in_len, out_pixels) = (geom.in_h * geom.in_w * c, geom.out_pixels());
        let weight = self.weight.value.as_slice();
        let zero_taps = self.zero_taps();
        let mut out = vec![0.0f32; batch * out_pixels * c];
        for b in 0..batch {
            let x = &input.as_slice()[b * in_len..][..in_len];
            for o in 0..out_pixels {
                let (oy, ox) = (o / geom.out_w(), o % geom.out_w());
                let y = &mut out[(b * out_pixels + o) * c..][..c];
                for (t, &has_zero) in zero_taps.iter().enumerate() {
                    let Some(i) = self.tap_input(&geom, t, oy, ox) else {
                        continue;
                    };
                    let taps = y.iter_mut().zip(&weight[t * c..][..c]);
                    let products = taps.zip(&x[i * c..][..c]);
                    if has_zero {
                        products
                            .filter(|((_, &w), _)| w != 0.0)
                            .for_each(|((y, &w), &x)| *y += w * x);
                    } else {
                        products.for_each(|((y, &w), &x)| *y += w * x);
                    }
                }
            }
        }
        self.cached_input = mode.is_train().then_some(input);
        Tensor::from_vec(out, &[batch, geom.out_h(), geom.out_w(), c]).map_err(NnError::from)
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> String {
        format!(
            "dwconv2d({}, k{}, s{})",
            self.channels, self.kernel, self.stride
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_owned(input.clone(), mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        let (batch, geom) = self.check_input(input.dims())?;
        let c = self.channels;
        let (in_len, out_pixels) = (geom.in_h * geom.in_w * c, geom.out_pixels());
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        if grad_output.dims() != [batch, out_h, out_w, c] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[{batch}, {out_h}, {out_w}, {c}]"),
                actual: grad_output.dims().to_vec(),
            });
        }
        let taps = self.kernel * self.kernel;
        let weight = self.weight.value.as_slice();
        let zero_taps = self.zero_taps();
        let mut grad_input = vec![0.0f32; input.len()];
        let mut grad_weight = vec![0.0f32; taps * c];
        let mut image_dw = vec![0.0f32; taps * c];
        for b in 0..batch {
            let x = &input.as_slice()[b * in_len..][..in_len];
            let g = &grad_output.as_slice()[b * out_pixels * c..][..out_pixels * c];
            let gx = &mut grad_input[b * in_len..][..in_len];
            image_dw.fill(0.0);
            // Tap by tap, so each input pixel takes its taps' shares in
            // ascending order, as `col2im` would add them.
            for (t, &has_zero) in zero_taps.iter().enumerate() {
                let w = &weight[t * c..][..c];
                let dw = &mut image_dw[t * c..][..c];
                for o in 0..out_pixels {
                    let (oy, ox) = (o / out_w, o % out_w);
                    let Some(i) = self.tap_input(&geom, t, oy, ox) else {
                        continue;
                    };
                    let g = &g[o * c..][..c];
                    // dW sums the image's products in row-major output order
                    // and skips zero output gradients, as `Tensor::matmul` would.
                    dw.iter_mut()
                        .zip(g)
                        .zip(&x[i * c..][..c])
                        .filter(|((_, &g), _)| g != 0.0)
                        .for_each(|((dw, &g), &x)| *dw += g * x);
                    let shares = gx[i * c..][..c].iter_mut().zip(w).zip(g);
                    if has_zero {
                        shares
                            .filter(|((_, &w), _)| w != 0.0)
                            .for_each(|((gx, &w), &g)| *gx += w * g);
                    } else {
                        shares.for_each(|((gx, &w), &g)| *gx += w * g);
                    }
                }
            }
            for (acc, &dw) in grad_weight.iter_mut().zip(&image_dw) {
                *acc += dw;
            }
        }
        self.weight
            .accumulate_grad(&Tensor::from_vec(grad_weight, self.weight.value.dims())?);
        Tensor::from_vec(grad_input, input.dims()).map_err(NnError::from)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let (batch, geom) = self.check_input(input)?;
        Ok(vec![batch, geom.out_h(), geom.out_w(), self.channels])
    }

    fn macs(&self, input: &[usize]) -> u64 {
        // `input` is the batch-less shape [h, w, channels].
        let &[h, w, _] = input else {
            return 0;
        };
        let geom = self.geometry(h, w);
        (self.channels * self.kernel * self.kernel) as u64 * geom.out_pixels() as u64
    }

    fn weight_count(&self) -> u64 {
        (self.channels * self.kernel * self.kernel) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{to_channels_last, to_nchw};
    use ofscil_tensor::{col2im, im2col};

    #[test]
    fn forward_shape_preserves_channels() {
        let mut rng = SeedRng::new(0);
        let mut dw = DepthwiseConv2d::new(4, 3, 2, 1, &mut rng);
        let x = Tensor::ones(&[2, 8, 8, 4]);
        let y = dw.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 4, 4, 4]);
        assert!(dw
            .forward(&Tensor::ones(&[2, 8, 8, 3]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn channels_are_independent() {
        // Zero the kernel for channel 1; its output must be exactly zero while
        // channel 0 stays non-zero.
        let mut rng = SeedRng::new(1);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        // Weight rows are taps: channel 0 is the even column, channel 1 the odd.
        for tap in dw.weight.value.as_mut_slice().chunks_mut(2) {
            tap.copy_from_slice(&[1.0, 0.0]);
        }
        let x = Tensor::ones(&[1, 4, 4, 2]);
        let y = dw.forward(&x, Mode::Eval).unwrap();
        let ch0: f32 = y.as_slice().iter().step_by(2).sum();
        let ch1: f32 = y.as_slice().iter().skip(1).step_by(2).sum();
        assert!(ch0 > 0.0);
        assert_eq!(ch1, 0.0);
    }

    #[test]
    fn gradient_check() {
        let mut rng = SeedRng::new(3);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 2 * 5 * 5)
                .map(|i| ((i % 5) as f32 - 2.0) * 0.4)
                .collect(),
            &[2, 5, 5, 2],
        )
        .unwrap();
        let y = dw.forward(&x, Mode::Train).unwrap();
        let grad_in = dw.backward(&Tensor::ones(y.dims())).unwrap();
        let analytic_w = dw.weight.grad.clone();

        let eps = 1e-2;
        for &idx in &[0usize, 13, 49, 80] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = dw.forward(&xp, Mode::Eval).unwrap().sum();
            let lm = dw.forward(&xm, Mode::Eval).unwrap().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grad_in.as_slice()[idx]).abs() < 0.05);
        }
        for &idx in &[0usize, 10, 17] {
            let orig = dw.weight.value.as_slice()[idx];
            dw.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = dw.forward(&x, Mode::Eval).unwrap().sum();
            dw.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = dw.forward(&x, Mode::Eval).unwrap().sum();
            dw.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - analytic_w.as_slice()[idx]).abs() < 0.05);
        }
    }

    /// The lowering the stencil replaces, on NCHW operands: per (image,
    /// channel) an `im2col` patch matrix and `[1, k²] · [k², n]` products,
    /// `col2im` for the input gradient. Returns output, input and weight
    /// gradients, the first two NCHW.
    fn im2col_reference(dw: &DepthwiseConv2d, x: &Tensor, grad_y: &Tensor) -> [Vec<f32>; 3] {
        let (channels, in_h, in_w) = (x.dims()[1], x.dims()[2], x.dims()[3]);
        let geom = dw.geometry(in_h, in_w);
        let (in_plane, out_plane, taps) = (in_h * in_w, geom.out_pixels(), dw.kernel * dw.kernel);
        let mut y = Vec::new();
        let mut gx = vec![0.0f32; x.len()];
        let mut gw = vec![0.0f32; channels * taps];
        for plane in 0..x.len() / in_plane {
            let c = plane % channels;
            let image = x.as_slice()[plane * in_plane..(plane + 1) * in_plane].to_vec();
            let image = Tensor::from_vec(image, &[1, in_h, in_w]).unwrap();
            let cols = im2col(&image, 1, &geom).unwrap();
            let w: Vec<f32> = (0..taps)
                .map(|t| dw.weight.value.at(&[t, c]).unwrap())
                .collect();
            let w = Tensor::from_vec(w, &[1, taps]).unwrap();
            y.extend_from_slice(w.matmul(&cols).unwrap().as_slice());
            let g = &grad_y.as_slice()[plane * out_plane..(plane + 1) * out_plane];
            let g = Tensor::from_vec(g.to_vec(), &[1, out_plane]).unwrap();
            let gw_c = g.matmul(&cols.transpose().unwrap()).unwrap();
            for (acc, v) in gw[c * taps..(c + 1) * taps].iter_mut().zip(gw_c.as_slice()) {
                *acc += v;
            }
            let img = col2im(&w.transpose().unwrap().matmul(&g).unwrap(), 1, &geom).unwrap();
            let gx_plane = &mut gx[plane * in_plane..(plane + 1) * in_plane];
            for (acc, v) in gx_plane.iter_mut().zip(img.as_slice()) {
                *acc += v;
            }
        }
        [y, gx, gw]
    }

    #[test]
    fn stencil_matches_the_im2col_matmul_lowering_bit_for_bit() {
        fn seeded(rng: &mut SeedRng, dims: &[usize]) -> Tensor {
            // About one value in five is an exact zero.
            let n = dims.iter().product();
            let data = (0..n)
                .map(|_| if rng.chance(0.2) { 0.0 } else { rng.normal() })
                .collect();
            Tensor::from_vec(data, dims).unwrap()
        }
        let mut rng = SeedRng::new(28);
        // (batch, channels, h, w, kernel, stride, padding)
        let shapes = [
            (1, 3, 8, 8, 3, 1, 1),
            (1, 3, 8, 8, 3, 2, 1),
            (2, 2, 7, 7, 3, 1, 0),
            (1, 2, 9, 9, 3, 2, 0),
            (1, 2, 8, 8, 5, 1, 1),
            (2, 3, 9, 7, 5, 2, 1),
            (1, 2, 6, 6, 5, 1, 0),
            (2, 2, 7, 8, 5, 2, 0),
            (2, 4, 5, 6, 3, 1, 1),
            (2, 3, 5, 6, 3, 2, 1),
            (2, 2, 5, 6, 5, 1, 1),
            // Padding wider than the image: some taps reach no pixel at all.
            (1, 2, 1, 1, 5, 1, 2),
            (2, 2, 1, 2, 5, 2, 2),
            // MobileNetV2's late stages on 32×32 inputs, at the learn batch.
            (5, 4, 4, 4, 3, 1, 1),
            (5, 4, 4, 4, 3, 2, 1),
            (5, 4, 2, 2, 3, 1, 1),
            (5, 4, 2, 2, 3, 2, 1),
        ];
        for &(batch, channels, h, w, k, s, p) in &shapes {
            let mut dw = DepthwiseConv2d::new(channels, k, s, p, &mut rng);
            dw.weight.value = seeded(&mut rng, &[k * k, channels]);
            // NCHW operands, fed to the stencil channels-last.
            let x = seeded(&mut rng, &[batch, channels, h, w]);
            let y = to_nchw(&dw.forward(&to_channels_last(&x), Mode::Train).unwrap());
            let grad_y = seeded(&mut rng, y.dims());
            let gx = to_nchw(&dw.backward(&to_channels_last(&grad_y)).unwrap());
            let expected = im2col_reference(&dw, &x, &grad_y);
            let grad_w = dw.weight.grad.transpose().unwrap();
            let got = [y.as_slice(), gx.as_slice(), grad_w.as_slice()];
            let names = ["output", "grad_input", "grad_weight"];
            for (what, (got, expected)) in names.iter().zip(got.iter().zip(&expected)) {
                assert_eq!(got.len(), expected.len(), "{what}");
                let same = got
                    .iter()
                    .zip(expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same,
                    "{what} differs at {:?}",
                    (batch, channels, h, w, k, s, p)
                );
            }
        }
    }

    #[test]
    fn an_infinite_input_under_a_zero_tap_stays_out_of_the_rows() {
        // Channel 1's centre tap is zero, so the centre tap row takes the
        // skip path while every other row runs the plain loop. An infinite
        // pixel at the centre of channel 1 must not turn into NaN.
        let mut rng = SeedRng::new(5);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        dw.weight.value = Tensor::ones(&[9, 2]);
        let centre = 4;
        dw.weight.value.set(&[centre, 1], 0.0).unwrap();
        let (h, w) = (3, 3);
        let mut rows = Tensor::zeros(&[h * w, 2]);
        rows.set(&[centre, 1], f32::INFINITY).unwrap();
        rows.reshape_in_place(&[1, h, w, 2]).unwrap();
        let mut y = dw.forward_owned(rows, Mode::Train).unwrap();
        y.reshape_in_place(&[h * w, 2]).unwrap();
        // Channel 1's centre output reads the infinite pixel only through the
        // zero tap: it stays 0, not NaN. Its other outputs see it through a
        // one and are infinite. Channel 0 never sees it.
        for pixel in 0..h * w {
            let want = if pixel == centre { 0.0 } else { f32::INFINITY };
            assert_eq!(y.at(&[pixel, 1]).unwrap(), want, "pixel {pixel}");
            assert_eq!(y.at(&[pixel, 0]).unwrap(), 0.0, "pixel {pixel}");
        }
        // The backward skips the zero tap the same way: an infinite output
        // gradient at the centre reaches no input pixel through it.
        let mut grad = Tensor::zeros(&[h * w, 2]);
        grad.set(&[centre, 1], f32::INFINITY).unwrap();
        grad.reshape_in_place(&[1, h, w, 2]).unwrap();
        let mut gx = dw.backward(&grad).unwrap();
        gx.reshape_in_place(&[h * w, 2]).unwrap();
        assert_eq!(gx.at(&[centre, 1]).unwrap(), 0.0);
        assert_eq!(gx.at(&[0, 1]).unwrap(), f32::INFINITY);
        assert!(gx.as_slice().iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let mut rng = SeedRng::new(4);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        crate::layer::assert_eval_drops_train_cache(&mut dw, &Tensor::ones(&[1, 4, 4, 2]));
    }

    #[test]
    fn macs_and_params() {
        let mut rng = SeedRng::new(0);
        let mut dw = DepthwiseConv2d::new(32, 3, 1, 1, &mut rng);
        assert_eq!(dw.macs(&[16, 16, 32]), 32 * 9 * 256);
        assert_eq!(dw.param_count(), 32 * 9);
    }
}
