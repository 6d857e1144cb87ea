//! Depthwise 2-D convolution (channel multiplier 1), the core of the
//! MobileNetV2 inverted-residual block.
//!
//! Each channel is a direct stencil over its own plane: the taps of its
//! `k x k` kernel are applied in ascending `(kh, kw)` order, each only to the
//! output pixels whose input lies inside the image, so no patch matrix is
//! built and the zero padding costs nothing. Every output sums the same
//! products in the same order as a per-channel `im2col` + `[1, k²] · [k², n]`
//! matmul would, so the results are bit for bit those of that lowering.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::{Conv2dGeometry, Init, Initializer, SeedRng, Tensor};

/// Depthwise convolution without bias (every caller follows it with
/// `BatchNorm`): every input channel is convolved with its own `k x k`
/// kernel; channel count is preserved.
///
/// * input: `[batch, channels, h, w]`
/// * weight: `[channels, k * k]`
/// * output: `[batch, channels, h', w']`
#[derive(Debug)]
pub(crate) struct DepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Parameter,
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
        let weight = Parameter::new(
            "weight",
            init.tensor(&[channels, fan_in], Init::KaimingNormal { fan_in }),
        );
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

    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize)> {
        if dims.len() != 4 || dims[1] != self.channels {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, {}, h, w]", self.channels),
                actual: dims.to_vec(),
            });
        }
        Ok((dims[0], dims[2], dims[3]))
    }
}

/// The pixels kernel tap `t` reaches on one plane, leaving out those whose
/// input falls in the zero padding: the run length and, per output row, the
/// offsets of the run's first output and first input. A run's outputs are
/// contiguous and its inputs `stride` apart.
fn tap_runs(geom: &Conv2dGeometry, t: usize) -> (usize, impl Iterator<Item = (usize, usize)>) {
    let (s, p, in_w, out_w) = (geom.stride, geom.padding, geom.in_w, geom.out_w());
    // The output coordinates `o` whose input `o * s + tap - p` lies in `0..len`.
    let reach = |tap: usize, len: usize, out: usize| {
        p.saturating_sub(tap).div_ceil(s)..(len + p).saturating_sub(tap).div_ceil(s).min(out)
    };
    let (kh, kw) = (t / geom.kernel_w, t % geom.kernel_w);
    let cols = reach(kw, in_w, out_w);
    let rows = if cols.is_empty() {
        0..0
    } else {
        reach(kh, geom.in_h, geom.out_h())
    };
    let (len, start) = (cols.len(), cols.start);
    (
        len,
        rows.map(move |oy| {
            (
                oy * out_w + start,
                (oy * s + kh - p) * in_w + start * s + kw - p,
            )
        }),
    )
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> String {
        format!(
            "dwconv2d({}, k{}, s{})",
            self.channels, self.kernel, self.stride
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (batch, in_h, in_w) = self.check_input(input.dims())?;
        let geom = self.geometry(in_h, in_w);
        geom.validate()?;
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        let (in_plane, out_plane) = (in_h * in_w, out_h * out_w);
        let (taps, s) = (self.kernel * self.kernel, self.stride);
        let mut out = vec![0.0f32; batch * self.channels * out_plane];
        // A tap's runs depend on the geometry alone: one table serves every plane.
        let table: Vec<(usize, Vec<(usize, usize)>)> = (0..taps)
            .map(|t| {
                let (len, runs) = tap_runs(&geom, t);
                (len, runs.collect())
            })
            .collect();

        for plane in 0..batch * self.channels {
            let c = plane % self.channels;
            let x = &input.as_slice()[plane * in_plane..(plane + 1) * in_plane];
            let y = &mut out[plane * out_plane..(plane + 1) * out_plane];
            let weights = &self.weight.value.as_slice()[c * taps..(c + 1) * taps];
            // Zero taps are skipped, as `Tensor::matmul` skips zero factors:
            // a non-finite input under a zero tap never turns into NaN.
            for (t, &w) in weights.iter().enumerate().filter(|&(_, &w)| w != 0.0) {
                let (len, runs) = (table[t].0, &table[t].1);
                for &(o, i) in runs {
                    let y = &mut y[o..o + len];
                    // Contiguous inputs zip as slices, which vectorises.
                    if s == 1 {
                        y.iter_mut()
                            .zip(&x[i..i + len])
                            .for_each(|(y, &x)| *y += w * x);
                    } else {
                        y.iter_mut()
                            .zip(x[i..].iter().step_by(s))
                            .for_each(|(y, &x)| *y += w * x);
                    }
                }
            }
        }
        self.cached_input = mode.is_train().then(|| input.clone());
        Tensor::from_vec(out, &[batch, self.channels, out_h, out_w]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        let (batch, in_h, in_w) = self.check_input(input.dims())?;
        let geom = self.geometry(in_h, in_w);
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        if grad_output.dims() != [batch, self.channels, out_h, out_w] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[{batch}, {}, {out_h}, {out_w}]", self.channels),
                actual: grad_output.dims().to_vec(),
            });
        }
        let (in_plane, out_plane) = (in_h * in_w, out_h * out_w);
        let (taps, s) = (self.kernel * self.kernel, self.stride);
        let weight = self.weight.value.as_slice();
        let mut grad_input = vec![0.0f32; batch * self.channels * in_plane];
        let mut grad_weight = vec![0.0f32; self.channels * taps];

        for plane in 0..batch * self.channels {
            let c = plane % self.channels;
            let x = &input.as_slice()[plane * in_plane..(plane + 1) * in_plane];
            let g = &grad_output.as_slice()[plane * out_plane..(plane + 1) * out_plane];
            let gx = &mut grad_input[plane * in_plane..(plane + 1) * in_plane];
            for t in 0..taps {
                let (w, (len, runs)) = (weight[c * taps + t], tap_runs(&geom, t));
                // dW sums the plane's products in row-major order and skips
                // zero output gradients, as `Tensor::matmul` would; dx takes
                // each tap's share in ascending tap order, as `col2im` would.
                let mut dw = 0.0f32;
                for (o, i) in runs {
                    let g = &g[o..o + len];
                    let products = g.iter().zip(x[i..].iter().step_by(s));
                    dw = products
                        .filter(|(&g, _)| g != 0.0)
                        .fold(dw, |dw, (g, x)| dw + g * x);
                    if w != 0.0 {
                        gx[i..]
                            .iter_mut()
                            .step_by(s)
                            .zip(g)
                            .for_each(|(gx, g)| *gx += w * g);
                    }
                }
                grad_weight[c * taps + t] += dw;
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
        let (batch, in_h, in_w) = self.check_input(input)?;
        let geom = self.geometry(in_h, in_w);
        geom.validate()?;
        Ok(vec![batch, self.channels, geom.out_h(), geom.out_w()])
    }

    fn macs(&self, input: &[usize]) -> u64 {
        if input.len() != 3 {
            return 0;
        }
        let geom = self.geometry(input[1], input[2]);
        (self.channels * self.kernel * self.kernel) as u64 * geom.out_pixels() as u64
    }

    fn weight_count(&self) -> u64 {
        (self.channels * self.kernel * self.kernel) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::{col2im, im2col};

    #[test]
    fn forward_shape_preserves_channels() {
        let mut rng = SeedRng::new(0);
        let mut dw = DepthwiseConv2d::new(4, 3, 2, 1, &mut rng);
        let x = Tensor::ones(&[2, 4, 8, 8]);
        let y = dw.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 4, 4, 4]);
        assert!(dw
            .forward(&Tensor::ones(&[2, 3, 8, 8]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn channels_are_independent() {
        // Zero the kernel for channel 1; its output must be exactly zero while
        // channel 0 stays non-zero.
        let mut rng = SeedRng::new(1);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        for x in dw.weight.value.as_mut_slice()[9..18].iter_mut() {
            *x = 0.0;
        }
        dw.weight.value.as_mut_slice()[..9].copy_from_slice(&[1.0; 9]);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = dw.forward(&x, Mode::Eval).unwrap();
        let ch0: f32 = y.as_slice()[..16].iter().sum();
        let ch1: f32 = y.as_slice()[16..].iter().sum();
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
            &[2, 2, 5, 5],
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

    /// The lowering the stencil replaces: per (image, channel) an `im2col`
    /// patch matrix and `[1, k²] · [k², n]` products, `col2im` for the input
    /// gradient. Returns output, input and weight gradients.
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
            let w = Tensor::from_vec(dw.weight.value.row(c).unwrap().to_vec(), &[1, taps]).unwrap();
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
            dw.weight.value = seeded(&mut rng, &[channels, k * k]);
            let x = seeded(&mut rng, &[batch, channels, h, w]);
            let y = dw.forward(&x, Mode::Train).unwrap();
            let grad_y = seeded(&mut rng, y.dims());
            let gx = dw.backward(&grad_y).unwrap();
            let expected = im2col_reference(&dw, &x, &grad_y);
            let got = [y.as_slice(), gx.as_slice(), dw.weight.grad.as_slice()];
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
    fn eval_forward_drops_the_train_cache() {
        let mut rng = SeedRng::new(4);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        crate::layer::assert_eval_drops_train_cache(&mut dw, &Tensor::ones(&[1, 2, 4, 4]));
    }

    #[test]
    fn macs_and_params() {
        let mut rng = SeedRng::new(0);
        let mut dw = DepthwiseConv2d::new(32, 3, 1, 1, &mut rng);
        assert_eq!(dw.macs(&[32, 16, 16]), 32 * 9 * 256);
        assert_eq!(dw.param_count(), 32 * 9);
    }
}
