//! Pooling layers, on channels-last feature maps `[batch, h, w, channels]`.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::Tensor;

/// Global average pooling: `[batch, h, w, channels] -> [batch, channels]`.
///
/// Used as the final spatial reduction of both backbones before the FCR.
/// Each channel's pixels are summed in ascending order from the start value
/// of `Iterator::sum`, one pixel row of channels at a time.
#[derive(Debug, Default)]
pub(crate) struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub(crate) fn new() -> Self {
        GlobalAvgPool { cached_dims: None }
    }

    /// The `(batch, h * w, channels)` of a `[batch, h, w, channels]` input.
    /// An empty plane has no average (its mean would be `0 / 0`), so it is
    /// rejected as `Conv2d` rejects it.
    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize)> {
        match *dims {
            [batch, h, w, channels] if h * w > 0 => Ok((batch, h * w, channels)),
            _ => Err(NnError::BadInput {
                layer: self.name(),
                expected: "[batch, h > 0, w > 0, channels]".into(),
                actual: dims.to_vec(),
            }),
        }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> String {
        "global_avg_pool".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let dims = input.dims();
        let (batch, spatial, channels) = self.check_input(dims)?;
        let start: f32 = std::iter::empty::<f32>().sum();
        let mut out = vec![start; batch * channels];
        let c = channels.max(1);
        let images = input.as_slice().chunks_exact(spatial * c);
        for (sums, image) in out.chunks_exact_mut(c).zip(images) {
            for pixel in image.chunks_exact(c) {
                for (s, &x) in sums.iter_mut().zip(pixel) {
                    *s += x;
                }
            }
            for s in sums {
                *s /= spatial as f32;
            }
        }
        self.cached_dims = mode.is_train().then(|| dims.to_vec());
        Tensor::from_vec(out, &[batch, channels]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let dims = self
            .cached_dims
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        let (batch, spatial, channels) = self.check_input(&dims)?;
        if grad_output.dims() != [batch, channels] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[{batch}, {channels}]"),
                actual: grad_output.dims().to_vec(),
            });
        }
        let mut grad = Vec::with_capacity(batch * spatial * channels);
        for g in grad_output.as_slice().chunks_exact(channels.max(1)) {
            let share: Vec<f32> = g.iter().map(|g| g / spatial as f32).collect();
            for _ in 0..spatial {
                grad.extend_from_slice(&share);
            }
        }
        Tensor::from_vec(grad, &dims).map_err(NnError::from)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let (batch, _, channels) = self.check_input(input)?;
        Ok(vec![batch, channels])
    }
}

/// 2×2 max pooling with stride 2: `[batch, h, w, c] -> [batch, h/2, w/2, c]`.
///
/// Used between the stages of the ResNet-12 backbone (the convolutions run at
/// full stage resolution and the pooling performs the downsampling). Each
/// channel scans its window in row-major order and keeps the first maximum,
/// one pixel row of channels at a time.
#[derive(Debug, Default)]
pub(crate) struct MaxPool2d {
    cache: Option<(Vec<usize>, Vec<usize>)>, // (input dims, argmax indices)
}

impl MaxPool2d {
    /// Creates a 2×2 stride-2 max-pooling layer.
    pub(crate) fn new() -> Self {
        MaxPool2d { cache: None }
    }

    fn check(&self, dims: &[usize]) -> Result<(usize, usize, usize, usize)> {
        match *dims {
            [batch, h, w, channels] if h >= 2 && w >= 2 => Ok((batch, h, w, channels)),
            _ => Err(NnError::BadInput {
                layer: self.name(),
                expected: "[batch, h>=2, w>=2, channels]".into(),
                actual: dims.to_vec(),
            }),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        "max_pool2d(2x2)".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (batch, h, w, c) = self.check(input.dims())?;
        let (oh, ow) = (h / 2, w / 2);
        let src = input.as_slice();
        let mut out = vec![0.0f32; batch * oh * ow * c];
        let mut argmax = vec![0usize; out.len()];
        for b in 0..batch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let dst = ((b * oh + oy) * ow + ox) * c;
                    let (best, best_idx) = (&mut out[dst..][..c], &mut argmax[dst..][..c]);
                    let first = ((b * h + 2 * oy) * w + 2 * ox) * c;
                    best.copy_from_slice(&src[first..][..c]);
                    for (ch, idx) in best_idx.iter_mut().enumerate() {
                        *idx = first + ch;
                    }
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let at = ((b * h + 2 * oy + dy) * w + 2 * ox + dx) * c;
                            let window = best.iter_mut().zip(best_idx.iter_mut());
                            for (ch, (best, idx)) in window.enumerate() {
                                if src[at + ch] > *best {
                                    *best = src[at + ch];
                                    *idx = at + ch;
                                }
                            }
                        }
                    }
                }
            }
        }
        self.cache = mode.is_train().then(|| (input.dims().to_vec(), argmax));
        Tensor::from_vec(out, &[batch, oh, ow, c]).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (in_dims, argmax) = self
            .cache
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        if grad_output.len() != argmax.len() {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("{} elements", argmax.len()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let mut grad = vec![0.0f32; in_dims.iter().product()];
        for (g, &idx) in grad_output.as_slice().iter().zip(&argmax) {
            grad[idx] += g;
        }
        Tensor::from_vec(grad, &in_dims).map_err(NnError::from)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let (batch, h, w, channels) = self.check(input)?;
        Ok(vec![batch, h / 2, w / 2, channels])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_selects_maximum() {
        let mut pool = MaxPool2d::new();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 4, 4, 1],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2, 1]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        // Backward routes gradients to the argmax positions only.
        let g = pool.backward(&Tensor::ones(&[1, 2, 2, 1])).unwrap();
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.as_slice()[5], 1.0);
        assert_eq!(g.as_slice()[0], 0.0);
    }

    #[test]
    fn max_pool_rejects_small_inputs() {
        let mut pool = MaxPool2d::new();
        assert!(pool
            .forward(&Tensor::ones(&[1, 1, 4, 1]), Mode::Eval)
            .is_err());
        assert!(pool.output_dims(&[1, 1, 4]).is_err());
        assert!(pool.backward(&Tensor::ones(&[1, 2, 2, 1])).is_err());
    }

    #[test]
    fn averages_spatial_extent() {
        let mut pool = GlobalAvgPool::new();
        // 2 samples × 2×2 spatial × 1 channel.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 2, 2, 1]).unwrap();
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 1]);
        assert_eq!(y.as_slice(), &[1.5, 5.5]);
    }

    #[test]
    fn backward_distributes_uniformly() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::ones(&[1, 2, 2, 2]);
        pool.forward(&x, Mode::Train).unwrap();
        let g = pool
            .backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(g.dims(), &[1, 2, 2, 2]);
        assert_eq!(g.as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn each_mean_keeps_the_bits_of_iterator_sum() {
        // Every mean is its channel's pixels summed by `Iterator::sum`, in
        // ascending pixel order, over the plane size; an all `-0.0` channel
        // keeps the sign that sum's start value gives it.
        let mut rng = ofscil_tensor::SeedRng::new(9);
        let (batch, pixels, c) = (2, 5 * 3, 4);
        let mut data: Vec<f32> = (0..batch * pixels * c).map(|_| rng.normal()).collect();
        for pixel in 0..pixels {
            data[pixel * c + 3] = -0.0;
        }
        let x = Tensor::from_vec(data, &[batch, 5, 3, c]).unwrap();
        let y = GlobalAvgPool::new().forward(&x, Mode::Eval).unwrap();
        for (i, &got) in y.as_slice().iter().enumerate() {
            let (b, ch) = (i / c, i % c);
            let channel = (0..pixels).map(|p| x.as_slice()[(b * pixels + p) * c + ch]);
            let want = channel.sum::<f32>() / pixels as f32;
            assert_eq!(got.to_bits(), want.to_bits(), "image {b} channel {ch}");
        }
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let x = Tensor::ones(&[1, 4, 4, 2]);
        crate::layer::assert_eval_drops_train_cache(&mut GlobalAvgPool::new(), &x);
        crate::layer::assert_eval_drops_train_cache(&mut MaxPool2d::new(), &x);
    }

    #[test]
    fn rejects_bad_rank() {
        let mut pool = GlobalAvgPool::new();
        assert!(pool.forward(&Tensor::ones(&[2, 3]), Mode::Eval).is_err());
        assert!(pool.output_dims(&[2, 3]).is_err());
        assert!(pool.backward(&Tensor::ones(&[1, 2])).is_err());
    }

    #[test]
    fn global_avg_pool_rejects_an_empty_plane() {
        // An empty plane has no mean: it is an input error, not NaN features.
        let mut pool = GlobalAvgPool::new();
        for dims in [[2, 0, 4, 3], [2, 4, 0, 3]] {
            let err = pool.forward(&Tensor::zeros(&dims), Mode::Train);
            assert!(matches!(err, Err(NnError::BadInput { .. })), "{err:?}");
            assert!(pool.output_dims(&dims).is_err());
        }
        // An empty batch of non-empty planes is still fine.
        let y = pool.forward(&Tensor::zeros(&[0, 2, 2, 3]), Mode::Eval);
        assert_eq!(y.unwrap().dims(), &[0, 3]);
    }
}
