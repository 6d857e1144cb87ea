//! Fully connected layer.
//!
//! The weight is stored as `[in_features, out_features]`, the `Wᵀ` the
//! forward multiplies by, so inference never transposes it.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::{Axis, Init, Initializer, SeedRng, Tensor};

/// A fully connected (dense) layer: `y = x · Wᵀ + b`.
///
/// The weight is stored transposed, as `Wᵀ` of shape `[in_features,
/// out_features]`; input shape is `[batch, in_features]`.
#[derive(Debug)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Parameter,
    bias: Parameter,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a new linear layer with Kaiming-normal weights, drawn in
    /// `[out, in]` order and transposed once, and a zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeedRng) -> Self {
        let mut init = Initializer::new(rng.fork(0x11ea));
        let drawn = init.tensor(
            &[out_features, in_features],
            Init::KaimingNormal {
                fan_in: in_features,
            },
        );
        let weight = Parameter::new("weight", drawn.transpose().expect("a rank-2 draw"));
        let bias = Parameter::new("bias", Tensor::zeros(&[out_features]));
        Linear {
            in_features,
            out_features,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight matrix, stored as `Wᵀ` (`[in, out]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.dims().len() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, {}]", self.in_features),
                actual: input.dims().to_vec(),
            });
        }
        Ok(())
    }
}

impl Layer for Linear {
    fn name(&self) -> String {
        format!("linear({}x{})", self.in_features, self.out_features)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.check_input(input)?;
        let mut out = input.matmul(&self.weight.value)?;
        // With no output features there are no rows to add the bias to;
        // `max(1)` only keeps the chunk size legal.
        for row in out.as_mut_slice().chunks_mut(self.out_features.max(1)) {
            for (x, b) in row.iter_mut().zip(self.bias.value.as_slice()) {
                *x += b;
            }
        }
        self.cached_input = mode.is_train().then(|| input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        if grad_output.dims() != [input.dims()[0], self.out_features] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, {}]", self.out_features),
                actual: grad_output.dims().to_vec(),
            });
        }
        // d(Wᵀ) = xᵀ · grad, db = Σ_batch grad, dx = grad · W
        let grad_w = input.transpose()?.matmul(grad_output)?;
        self.weight.accumulate_grad(&grad_w);
        self.bias.accumulate_grad(&grad_output.sum_axis(Axis(0))?);
        Ok(grad_output.matmul(&self.weight.value.transpose()?)?)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        if input.len() != 2 || input[1] != self.in_features {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, {}]", self.in_features),
                actual: input.to_vec(),
            });
        }
        Ok(vec![input[0], self.out_features])
    }

    fn macs(&self, _input: &[usize]) -> u64 {
        (self.in_features * self.out_features) as u64
    }

    fn weight_count(&self) -> u64 {
        ((self.in_features + 1) * self.out_features) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(layer: &mut Linear, x: &Tensor) {
        // Numerical gradient check of dL/dx where L = sum(forward(x)).
        let eps = 1e-3;
        let y = layer.forward(x, Mode::Train).unwrap();
        let grad_in = layer.backward(&Tensor::ones(y.dims())).unwrap();
        for idx in 0..x.len().min(6) {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = layer.forward(&xp, Mode::Eval).unwrap().sum();
            let lm = layer.forward(&xm, Mode::Eval).unwrap().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in.as_slice()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} analytic {}",
                grad_in.as_slice()[idx]
            );
        }
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SeedRng::new(0);
        let mut layer = Linear::new(3, 5, &mut rng);
        let x = Tensor::ones(&[2, 3]);
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 5]);
        assert!(layer.forward(&Tensor::ones(&[2, 4]), Mode::Eval).is_err());
        assert_eq!(layer.output_dims(&[2, 3]).unwrap(), vec![2, 5]);
        assert!(layer.output_dims(&[3]).is_err());
    }

    #[test]
    fn known_small_case() {
        let mut rng = SeedRng::new(0);
        let mut layer = Linear::new(2, 1, &mut rng);
        layer
            .weight
            .value
            .as_mut_slice()
            .copy_from_slice(&[2.0, -1.0]);
        let x = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[2.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = SeedRng::new(0);
        let mut layer = Linear::new(2, 2, &mut rng);
        assert!(matches!(
            layer.backward(&Tensor::ones(&[1, 2])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn eval_forward_drops_the_train_cache() {
        let mut layer = Linear::new(3, 2, &mut SeedRng::new(0));
        crate::layer::assert_eval_drops_train_cache(&mut layer, &Tensor::ones(&[2, 3]));
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = SeedRng::new(3);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = Tensor::from_vec((0..8).map(|i| 0.25 * i as f32 - 1.0).collect(), &[2, 4]).unwrap();
        finite_diff_check(&mut layer, &x);
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = SeedRng::new(5);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5], &[2, 3]).unwrap();
        let y = layer.forward(&x, Mode::Train).unwrap();
        layer.backward(&Tensor::ones(y.dims())).unwrap();
        let analytic = layer.weight.grad.clone();

        let eps = 1e-3;
        for idx in 0..layer.weight.value.len() {
            let orig = layer.weight.value.as_slice()[idx];
            layer.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = layer.forward(&x, Mode::Eval).unwrap().sum();
            layer.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = layer.forward(&x, Mode::Eval).unwrap().sum();
            layer.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[idx]).abs() < 1e-2,
                "numeric {numeric} vs analytic {}",
                analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn param_count_and_macs() {
        let mut rng = SeedRng::new(0);
        let mut layer = Linear::new(10, 4, &mut rng);
        assert_eq!(layer.param_count(), 44);
        assert_eq!(layer.weight_count(), 44);
        assert_eq!(layer.macs(&[10]), 40);
    }

    #[test]
    fn matches_an_out_in_reference_bit_for_bit() {
        // The reference multiplies scalar by scalar on the `[out, in]`
        // layout, summing each output in ascending order: `y = x · Wᵀ + b`,
        // `dW = gradᵀ · x`, `db = Σ_batch grad`, `dx = grad · W`.
        let mut rng = SeedRng::new(34);
        let mut seeded = |n: usize| -> Vec<f32> {
            let draw = |rng: &mut SeedRng| if rng.chance(0.2) { 0.0 } else { rng.normal() };
            (0..n).map(|_| draw(&mut rng)).collect()
        };
        // A one-feature output with several rows checks the bias per row.
        for (d_in, d_out, batch) in [(7, 5, 0), (7, 5, 1), (7, 5, 3), (3, 1, 4)] {
            let mut layer = Linear::new(d_in, d_out, &mut SeedRng::new(batch as u64));
            let w = seeded(d_out * d_in);
            let b = seeded(d_out);
            layer.weight.value = Tensor::from_vec(w.clone(), &[d_out, d_in])
                .unwrap()
                .transpose()
                .unwrap();
            layer.bias.value = Tensor::from_slice(&b);
            let (x, g) = (seeded(batch * d_in), seeded(batch * d_out));
            let (mut y, mut dw, mut db, mut dx) = (vec![], vec![], vec![], vec![]);
            for r in 0..batch {
                for o in 0..d_out {
                    let dot =
                        (0..d_in).fold(0.0f32, |acc, i| acc + x[r * d_in + i] * w[o * d_in + i]);
                    y.push(dot + b[o]);
                }
                for i in 0..d_in {
                    dx.push(
                        (0..d_out).fold(0.0f32, |acc, o| acc + g[r * d_out + o] * w[o * d_in + i]),
                    );
                }
            }
            for o in 0..d_out {
                for i in 0..d_in {
                    dw.push(
                        (0..batch).fold(0.0f32, |acc, r| acc + g[r * d_out + o] * x[r * d_in + i]),
                    );
                }
                db.push((0..batch).fold(0.0f32, |acc, r| acc + g[r * d_out + o]));
            }

            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let case = (d_out, batch);
            let x = Tensor::from_vec(x, &[batch, d_in]).unwrap();
            let out = layer.forward(&x, Mode::Train).unwrap();
            assert_eq!(bits(out.as_slice()), bits(&y), "y {case:?}");
            let g = Tensor::from_vec(g, &[batch, d_out]).unwrap();
            let grad_x = layer.backward(&g).unwrap();
            assert_eq!(bits(grad_x.as_slice()), bits(&dx), "dx {case:?}");
            let grad_w = layer.weight.grad.transpose().unwrap();
            assert_eq!(bits(grad_w.as_slice()), bits(&dw), "dW {case:?}");
            assert_eq!(bits(layer.bias.grad.as_slice()), bits(&db), "db {case:?}");
        }
    }

    #[test]
    fn zero_output_features_give_an_empty_row_per_input() {
        let mut layer = Linear::new(4, 0, &mut SeedRng::new(0));
        let y = layer.forward(&Tensor::ones(&[3, 4]), Mode::Train).unwrap();
        assert_eq!(y.dims(), &[3, 0]);
        let grad_x = layer.backward(&Tensor::zeros(&[3, 0])).unwrap();
        assert_eq!(grad_x, Tensor::zeros(&[3, 4]));
    }
}
