//! Batch normalisation over the channel dimension, the last axis of a
//! channels-last activation.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::Tensor;

/// Batch normalisation.
///
/// Accepts channels-last `[batch, h, w, channels]` activations or flat
/// `[batch, features]` ones. Either way the input is a stack of rows of
/// `channels` values (one per pixel, or one per sample), and each channel's
/// statistics are taken over all rows. The loops run channel-innermost, so
/// they vectorise, and sum each channel over the rows in (image, pixel)
/// order.
///
/// In [`Mode::Train`] batch statistics are used and running statistics are
/// updated with exponential momentum; in [`Mode::Eval`] the running statistics
/// are used.
#[derive(Debug)]
pub(crate) struct BatchNorm {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Parameter,
    beta: Parameter,
    running_mean: Parameter,
    running_var: Parameter,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch-normalisation layer over `channels` channels.
    pub(crate) fn new(channels: usize) -> Self {
        BatchNorm {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Parameter::new("gamma", Tensor::ones(&[channels])),
            beta: Parameter::new("beta", Tensor::zeros(&[channels])),
            running_mean: Parameter::frozen("running_mean", Tensor::zeros(&[channels])),
            running_var: Parameter::frozen("running_var", Tensor::ones(&[channels])),
            cache: None,
        }
    }

    /// The number of rows of a `[batch, channels]` or `[batch, h, w,
    /// channels]` input.
    fn rows(&self, dims: &[usize]) -> Result<usize> {
        match *dims {
            [batch, c] if c == self.channels => Ok(batch),
            [batch, h, w, c] if c == self.channels => Ok(batch * h * w),
            _ => Err(NnError::BadInput {
                layer: self.name(),
                expected: format!(
                    "[batch, {}] or [batch, h, w, {}]",
                    self.channels, self.channels
                ),
                actual: dims.to_vec(),
            }),
        }
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> String {
        format!("batchnorm({})", self.channels)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let count = self.rows(input.dims())? as f32;
        let c = self.channels.max(1);
        let src = input.as_slice();

        let batch_stats = mode.is_train().then(|| {
            let mut mean = vec![0.0f32; self.channels];
            let mut var = vec![0.0f32; self.channels];
            for row in src.chunks_exact(c) {
                for (m, &x) in mean.iter_mut().zip(row) {
                    *m += x;
                }
            }
            for m in &mut mean {
                *m /= count;
            }
            for row in src.chunks_exact(c) {
                for ((v, &x), &m) in var.iter_mut().zip(row).zip(&mean) {
                    let d = x - m;
                    *v += d * d;
                }
            }
            for v in &mut var {
                *v /= count;
            }
            // Update running statistics.
            let running = self.running_mean.value.as_mut_slice().iter_mut();
            for (rm, &m) in running.zip(&mean) {
                *rm = (1.0 - self.momentum) * *rm + self.momentum * m;
            }
            let running = self.running_var.value.as_mut_slice().iter_mut();
            for (rv, &v) in running.zip(&var) {
                *rv = (1.0 - self.momentum) * *rv + self.momentum * v;
            }
            (mean, var)
        });
        let (mean, var) = match &batch_stats {
            Some((mean, var)) => (mean.as_slice(), var.as_slice()),
            None => (
                self.running_mean.value.as_slice(),
                self.running_var.value.as_slice(),
            ),
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        // `out` holds x̂ until the affine pass; only training keeps a copy.
        let mut out = vec![0.0f32; src.len()];
        for (out, src) in out.chunks_exact_mut(c).zip(src.chunks_exact(c)) {
            for (((y, &x), &m), &s) in out.iter_mut().zip(src).zip(mean).zip(&inv_std) {
                *y = (x - m) * s;
            }
        }
        self.cache = match mode {
            Mode::Train => Some(BnCache {
                x_hat: Tensor::from_vec(out.clone(), input.dims())?,
                inv_std,
            }),
            Mode::Eval => None,
        };

        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();
        for out in out.chunks_exact_mut(c) {
            for ((x, &g), &b) in out.iter_mut().zip(gamma).zip(beta) {
                *x = g * *x + b;
            }
        }
        Tensor::from_vec(out, input.dims()).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        if grad_output.dims() != cache.x_hat.dims() {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("{:?}", cache.x_hat.dims()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let count = self.rows(grad_output.dims())? as f32;
        let c = self.channels.max(1);
        let dy = grad_output.as_slice();
        let xh = cache.x_hat.as_slice();

        // Per-channel sums needed by the closed-form BN backward pass.
        let mut sum_dy = vec![0.0f32; self.channels];
        let mut sum_dy_xhat = vec![0.0f32; self.channels];
        for (dy, xh) in dy.chunks_exact(c).zip(xh.chunks_exact(c)) {
            let sums = sum_dy.iter_mut().zip(sum_dy_xhat.iter_mut());
            for ((s, sx), (&dy, &xh)) in sums.zip(dy.iter().zip(xh)) {
                *s += dy;
                *sx += dy * xh;
            }
        }
        self.gamma
            .accumulate_grad(&Tensor::from_slice(&sum_dy_xhat));
        self.beta.accumulate_grad(&Tensor::from_slice(&sum_dy));

        let scale: Vec<f32> = self
            .gamma
            .value
            .as_slice()
            .iter()
            .zip(&cache.inv_std)
            .map(|(g, s)| g * s)
            .collect();
        let mean_dy: Vec<f32> = sum_dy.iter().map(|s| s / count).collect();
        let mut grad_input = vec![0.0f32; dy.len()];
        let rows = grad_input.chunks_exact_mut(c).zip(dy.chunks_exact(c));
        for ((gx, dy), xh) in rows.zip(xh.chunks_exact(c)) {
            let per_channel = scale.iter().zip(&mean_dy).zip(&sum_dy_xhat);
            for ((gx, (&dy, &xh)), ((&scale, &mean_dy), &sum_dy_xhat)) in
                gx.iter_mut().zip(dy.iter().zip(xh)).zip(per_channel)
            {
                *gx = scale * (dy - mean_dy - xh * sum_dy_xhat / count);
            }
        }
        Tensor::from_vec(grad_input, grad_output.dims()).map_err(NnError::from)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
        visitor(&mut self.running_mean);
        visitor(&mut self.running_var);
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        self.rows(input)?;
        Ok(input.to_vec())
    }

    fn weight_count(&self) -> u64 {
        // On-device the scale and shift are folded into the preceding
        // convolution; γ and β still need to be resident.
        2 * self.channels as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    #[test]
    fn train_output_is_normalised() {
        let mut bn = BatchNorm::new(3);
        let mut rng = SeedRng::new(0);
        let x = Tensor::from_vec(
            (0..4 * 4 * 4 * 3)
                .map(|_| rng.normal_with(5.0, 3.0))
                .collect(),
            &[4, 4, 4, 3],
        )
        .unwrap();
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1.
        for ch in 0..3 {
            let mut vals = Vec::new();
            for b in 0..4 {
                for s in 0..16 {
                    vals.push(y.as_slice()[(b * 16 + s) * 3 + ch]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm::new(2);
        let mut rng = SeedRng::new(1);
        // Feed many batches so the running stats converge to the data stats.
        for _ in 0..200 {
            let x = Tensor::from_vec(
                (0..8 * 2).map(|_| rng.normal_with(2.0, 0.5)).collect(),
                &[8, 2],
            )
            .unwrap();
            bn.forward(&x, Mode::Train).unwrap();
        }
        let x = Tensor::full(&[1, 2], 2.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        // An input equal to the running mean must map close to beta (=0).
        assert!(
            y.as_slice().iter().all(|v| v.abs() < 0.2),
            "{:?}",
            y.as_slice()
        );
    }

    #[test]
    fn eval_output_is_bit_identical_to_the_formula() {
        let mut bn = BatchNorm::new(3);
        let mut rng = SeedRng::new(28);
        let mut draw = |lo, hi| {
            Tensor::from_vec((0..3).map(|_| rng.uniform_range(lo, hi)).collect(), &[3]).unwrap()
        };
        bn.gamma.value = draw(-2.0, 2.0);
        bn.beta.value = draw(-1.0, 1.0);
        bn.running_mean.value = draw(-1.0, 1.0);
        bn.running_var.value = draw(0.1, 4.0);
        let x = Tensor::from_vec(
            (0..2 * 5 * 3).map(|_| rng.normal()).collect(),
            &[2, 5, 1, 3],
        )
        .unwrap();
        let y = bn.forward(&x, Mode::Eval).unwrap();
        for (i, (&got, &xv)) in y.as_slice().iter().zip(x.as_slice()).enumerate() {
            let ch = i % 3;
            let m = bn.running_mean.value.as_slice()[ch];
            let x_hat = (xv - m) * (1.0 / (bn.running_var.value.as_slice()[ch] + 1e-5).sqrt());
            let expected = bn.gamma.value.as_slice()[ch] * x_hat + bn.beta.value.as_slice()[ch];
            assert_eq!(got.to_bits(), expected.to_bits(), "element {i}");
        }
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 3, 1, 2]).unwrap();
        crate::layer::assert_eval_drops_train_cache(&mut BatchNorm::new(2), &x);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm::new(4);
        assert!(bn
            .forward(&Tensor::ones(&[2, 4, 4, 3]), Mode::Train)
            .is_err());
        assert!(bn.output_dims(&[2, 3]).is_err());
        assert_eq!(bn.output_dims(&[2, 4]).unwrap(), vec![2, 4]);
        assert_eq!(bn.output_dims(&[2, 3, 5, 4]).unwrap(), vec![2, 3, 5, 4]);
    }

    /// The reference the channels-last rows must match bit for bit: batch
    /// normalisation as per-plane loops over NCHW activations `x`, for a
    /// fresh layer of weight `gamma`. Returns the train output, input
    /// gradient (upstream `dy`), γ and β gradients and running statistics,
    /// then the eval output.
    fn planes_reference(x: &Tensor, dy: &Tensor, gamma: &[f32]) -> [Vec<f32>; 7] {
        let &[batch, c, h, w] = x.dims() else {
            unreachable!("NCHW")
        };
        let spatial = h * w;
        let count = (batch * spatial) as f32;
        let ch = |i: usize| (i / spatial) % c;
        let (x, dy) = (x.as_slice(), dy.as_slice());
        let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
        for (i, &v) in x.iter().enumerate() {
            mean[ch(i)] += v;
        }
        mean.iter_mut().for_each(|m| *m /= count);
        for (i, &v) in x.iter().enumerate() {
            let d = v - mean[ch(i)];
            var[ch(i)] += d * d;
        }
        var.iter_mut().for_each(|v| *v /= count);
        let update = |old: f32, new: &[f32]| -> Vec<f32> {
            new.iter()
                .map(|&n| (1.0 - 0.1f32) * old + 0.1 * n)
                .collect()
        };
        let (running_mean, running_var) = (update(0.0, &mean), update(1.0, &var));
        let normalise = |mean: &[f32], var: &[f32]| -> (Vec<f32>, Vec<f32>) {
            let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + 1e-5).sqrt()).collect();
            let x_hat: Vec<f32> = (0..x.len())
                .map(|i| (x[i] - mean[ch(i)]) * inv_std[ch(i)])
                .collect();
            let y = (0..x.len())
                .map(|i| gamma[ch(i)] * x_hat[i] + 0.0)
                .collect();
            (x_hat, y)
        };
        let (x_hat, y) = normalise(&mean, &var);
        let (mut sum_dy, mut sum_dy_xhat) = (vec![0.0f32; c], vec![0.0f32; c]);
        for i in 0..x.len() {
            sum_dy[ch(i)] += dy[i];
            sum_dy_xhat[ch(i)] += dy[i] * x_hat[i];
        }
        let grad_input = (0..x.len())
            .map(|i| {
                let scale = gamma[ch(i)] * (1.0 / (var[ch(i)] + 1e-5).sqrt());
                scale * (dy[i] - sum_dy[ch(i)] / count - x_hat[i] * sum_dy_xhat[ch(i)] / count)
            })
            .collect();
        let (_, eval) = normalise(&running_mean, &running_var);
        [
            y,
            grad_input,
            sum_dy_xhat,
            sum_dy,
            running_mean,
            running_var,
            eval,
        ]
    }

    #[test]
    fn rows_and_planes_give_the_same_bits() {
        // The same activations as channels-last planes `[batch, h, w, c]` and
        // as rows `[batch * h * w, c]`: every output, running statistic and
        // gradient must agree to the bit with the NCHW per-plane loops,
        // through a training step and an eval forward.
        let mut rng = SeedRng::new(41);
        for (batch, c, h, w) in [(1, 3, 2, 2), (2, 5, 3, 4), (3, 2, 1, 1), (2, 40, 2, 3)] {
            let case = (batch, c, h, w);
            let draw = |rng: &mut SeedRng, dims: &[usize]| {
                let n = dims.iter().product();
                Tensor::from_vec((0..n).map(|_| rng.normal_with(1.0, 2.0)).collect(), dims).unwrap()
            };
            let x = draw(&mut rng, &[batch, c, h, w]);
            let grad = draw(&mut rng, &[batch, c, h, w]);
            let gamma: Vec<f32> = (0..c).map(|i| 0.5 + i as f32).collect();
            let want = planes_reference(&x, &grad, &gamma);
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let planes = |t: &Tensor| {
                let t = t.reshape(&[batch, h, w, c]).unwrap();
                bits(crate::layers::to_nchw(&t).as_slice())
            };
            for dims in [vec![batch, h, w, c], vec![batch * h * w, c]] {
                let layout = |t: &Tensor| {
                    let t = crate::layers::to_channels_last(t);
                    t.reshape(&dims).unwrap()
                };
                let mut bn = BatchNorm::new(c);
                bn.gamma.value = Tensor::from_slice(&gamma);
                let y = bn.forward(&layout(&x), Mode::Train).unwrap();
                assert_eq!(y.dims(), dims.as_slice(), "{case:?}");
                assert_eq!(planes(&y), bits(&want[0]), "train output {case:?} {dims:?}");
                let gx = bn.backward(&layout(&grad)).unwrap();
                assert_eq!(planes(&gx), bits(&want[1]), "grad_input {case:?} {dims:?}");
                let params = [
                    &bn.gamma.grad,
                    &bn.beta.grad,
                    &bn.running_mean.value,
                    &bn.running_var.value,
                ];
                for (what, (p, want)) in ["γ grad", "β grad", "running mean", "running var"]
                    .iter()
                    .zip(params.iter().zip(&want[2..6]))
                {
                    assert_eq!(bits(p.as_slice()), bits(want), "{what} {case:?} {dims:?}");
                }
                let y = bn.forward(&layout(&x), Mode::Eval).unwrap();
                assert_eq!(planes(&y), bits(&want[6]), "eval output {case:?} {dims:?}");
            }
        }
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm::new(2);
        let mut rng = SeedRng::new(5);
        let x = Tensor::from_vec(
            (0..6 * 2).map(|_| rng.normal_with(1.0, 2.0)).collect(),
            &[6, 2],
        )
        .unwrap();
        // Use a non-uniform upstream gradient, otherwise the BN backward is
        // trivially zero (sum of dy is removed by the mean term).
        let upstream = Tensor::from_vec(
            (0..12).map(|i| ((i * 7 % 5) as f32 - 2.0) * 0.3).collect(),
            &[6, 2],
        )
        .unwrap();
        let y = bn.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), x.dims());
        let grad_in = bn.backward(&upstream).unwrap();

        let loss = |bn: &mut BatchNorm, x: &Tensor| -> f32 {
            let y = bn.forward(x, Mode::Train).unwrap();
            y.zip_with(&upstream, "mul", |a, b| a * b).unwrap().sum()
        };
        let eps = 1e-2;
        for &idx in &[0usize, 3, 7, 11] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            // Fresh BN copies so running stats do not drift between probes.
            let mut bn_p = BatchNorm::new(2);
            let mut bn_m = BatchNorm::new(2);
            let numeric = (loss(&mut bn_p, &xp) - loss(&mut bn_m, &xm)) / (2.0 * eps);
            let analytic = grad_in.as_slice()[idx];
            assert!((numeric - analytic).abs() < 0.05, "{numeric} vs {analytic}");
        }
    }

    #[test]
    fn only_gamma_beta_are_trainable() {
        let mut bn = BatchNorm::new(8);
        assert_eq!(bn.param_count(), 16);
        let mut names = Vec::new();
        bn.visit_params(&mut |p| names.push(p.name().to_string()));
        assert_eq!(names, vec!["gamma", "beta", "running_mean", "running_var"]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut bn = BatchNorm::new(2);
        assert!(matches!(
            bn.backward(&Tensor::ones(&[2, 2])),
            Err(NnError::NoForwardCache(_))
        ));
    }
}
