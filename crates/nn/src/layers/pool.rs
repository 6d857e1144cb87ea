//! Pooling layers.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::Tensor;

/// Global average pooling: `[batch, channels, h, w] -> [batch, channels]`.
///
/// Used as the final spatial reduction of both backbones before the FCR.
#[derive(Debug, Default)]
pub(crate) struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub(crate) fn new() -> Self {
        GlobalAvgPool { cached_dims: None }
    }

    /// The `(batch, channels, h * w)` of a `[batch, channels, h, w]` input.
    /// An empty plane has no average (its mean would be `0 / 0`), so it is
    /// rejected as `Conv2d` rejects it.
    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize)> {
        match *dims {
            [batch, channels, h, w] if h * w > 0 => Ok((batch, channels, h * w)),
            _ => Err(NnError::BadInput {
                layer: self.name(),
                expected: "[batch, channels, h > 0, w > 0]".into(),
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
        let (batch, channels, spatial) = self.check_input(dims)?;
        let mut out = vec![0.0f32; batch * channels];
        for b in 0..batch {
            for c in 0..channels {
                let base = (b * channels + c) * spatial;
                out[b * channels + c] =
                    input.as_slice()[base..base + spatial].iter().sum::<f32>() / spatial as f32;
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
        let (batch, channels, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        if grad_output.dims() != [batch, channels] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[{batch}, {channels}]"),
                actual: grad_output.dims().to_vec(),
            });
        }
        let spatial = h * w;
        let mut grad = vec![0.0f32; batch * channels * spatial];
        for b in 0..batch {
            for c in 0..channels {
                let g = grad_output.as_slice()[b * channels + c] / spatial as f32;
                let base = (b * channels + c) * spatial;
                for s in 0..spatial {
                    grad[base + s] = g;
                }
            }
        }
        Tensor::from_vec(grad, &dims).map_err(NnError::from)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Parameter)) {}

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let (batch, channels, _) = self.check_input(input)?;
        Ok(vec![batch, channels])
    }
}

/// 2×2 max pooling with stride 2: `[batch, c, h, w] -> [batch, c, h/2, w/2]`.
///
/// Used between the stages of the ResNet-12 backbone (the convolutions run at
/// full stage resolution and the pooling performs the downsampling).
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
        if dims.len() != 4 || dims[2] < 2 || dims[3] < 2 {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: "[batch, channels, h>=2, w>=2]".into(),
                actual: dims.to_vec(),
            });
        }
        Ok((dims[0], dims[1], dims[2], dims[3]))
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        "max_pool2d(2x2)".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (batch, channels, h, w) = self.check(input.dims())?;
        let (oh, ow) = (h / 2, w / 2);
        let src = input.as_slice();
        let mut out = vec![0.0f32; batch * channels * oh * ow];
        let mut argmax = vec![0usize; out.len()];
        for b in 0..batch {
            for c in 0..channels {
                let base = (b * channels + c) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = base + (2 * oy) * w + 2 * ox;
                        let mut best = src[best_idx];
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = base + (2 * oy + dy) * w + (2 * ox + dx);
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let dst = (b * channels + c) * oh * ow + oy * ow + ox;
                        out[dst] = best;
                        argmax[dst] = best_idx;
                    }
                }
            }
        }
        self.cache = mode.is_train().then(|| (input.dims().to_vec(), argmax));
        Tensor::from_vec(out, &[batch, channels, oh, ow]).map_err(NnError::from)
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
        let (batch, channels, h, w) = self.check(input)?;
        Ok(vec![batch, channels, h / 2, w / 2])
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
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
        // Backward routes gradients to the argmax positions only.
        let g = pool.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(g.sum(), 4.0);
        assert_eq!(g.as_slice()[5], 1.0);
        assert_eq!(g.as_slice()[0], 0.0);
    }

    #[test]
    fn max_pool_rejects_small_inputs() {
        let mut pool = MaxPool2d::new();
        assert!(pool
            .forward(&Tensor::ones(&[1, 1, 1, 4]), Mode::Eval)
            .is_err());
        assert!(pool.output_dims(&[1, 1, 4]).is_err());
        assert!(pool.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn averages_spatial_extent() {
        let mut pool = GlobalAvgPool::new();
        // 2 samples × 1 channel × 2×2 spatial.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 1, 2, 2]).unwrap();
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
        assert_eq!(&g.as_slice()[..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&g.as_slice()[4..], &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let x = Tensor::ones(&[1, 2, 4, 4]);
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
        for dims in [[2, 3, 0, 4], [2, 3, 4, 0]] {
            let err = pool.forward(&Tensor::zeros(&dims), Mode::Train);
            assert!(matches!(err, Err(NnError::BadInput { .. })), "{err:?}");
            assert!(pool.output_dims(&dims).is_err());
        }
        // An empty batch of non-empty planes is still fine.
        let y = pool.forward(&Tensor::zeros(&[0, 3, 2, 2]), Mode::Eval);
        assert_eq!(y.unwrap().dims(), &[0, 3]);
    }
}
