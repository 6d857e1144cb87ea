//! A container running layers in order.

use crate::{Layer, Mode, NnError, Parameter, Result};
use ofscil_tensor::Tensor;

/// A sequence of layers executed in order; the backward pass walks the layers
/// in reverse.
///
/// `Sequential` is itself a [`Layer`], so blocks and whole backbones compose
/// naturally.
#[derive(Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the child layers.
    pub fn iter(&self) -> impl Iterator<Item = &Box<dyn Layer>> {
        self.layers.iter()
    }
}

impl Layer for Sequential {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(input.clone());
        };
        let mut x = first.forward(input, mode)?;
        for layer in rest {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return Err(NnError::InvalidConfig(format!(
                "sequential {} has no layers",
                self.name
            )));
        };
        let mut grad = last.backward(grad_output)?;
        for layer in rest.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(grad)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let mut shape = input.to_vec();
        for layer in &self.layers {
            shape = layer.output_dims(&shape)?;
        }
        Ok(shape)
    }

    fn macs(&self, input: &[usize]) -> u64 {
        chained_macs(self.layers.iter().map(|l| &**l as &dyn Layer), input)
    }

    fn weight_count(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }
}

/// The MACs of running `layers` in order on one sample of batch-less shape
/// `input`, stopping at the first layer that rejects its input.
pub(crate) fn chained_macs<'a>(
    layers: impl IntoIterator<Item = &'a dyn Layer>,
    input: &[usize],
) -> u64 {
    let mut shape = [&[1], input].concat();
    let mut total = 0u64;
    for layer in layers {
        total += layer.macs(&shape[1..]);
        match layer.output_dims(&shape) {
            Ok(next) => shape = next,
            Err(_) => break,
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use ofscil_tensor::SeedRng;

    fn tiny_mlp() -> Sequential {
        let mut rng = SeedRng::new(0);
        Sequential::new("mlp")
            .with(Linear::new(4, 8, &mut rng))
            .with(Relu::new())
            .with(Linear::new(8, 2, &mut rng))
    }

    #[test]
    fn forward_chains_layers() {
        let mut mlp = tiny_mlp();
        let y = mlp.forward(&Tensor::ones(&[3, 4]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[3, 2]);
        assert_eq!(mlp.output_dims(&[3, 4]).unwrap(), vec![3, 2]);
        assert_eq!(mlp.len(), 3);
        assert!(!mlp.is_empty());
    }

    #[test]
    fn backward_chains_in_reverse() {
        let mut mlp = tiny_mlp();
        let x = Tensor::ones(&[2, 4]);
        let y = mlp.forward(&x, Mode::Train).unwrap();
        let g = mlp.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
        // All parameters received gradients.
        let mut any_nonzero = false;
        mlp.visit_params(&mut |p| {
            if p.trainable && p.grad.max_abs() > 0.0 {
                any_nonzero = true;
            }
        });
        assert!(any_nonzero);
    }

    #[test]
    fn empty_sequential_backward_errors() {
        let mut s = Sequential::new("empty");
        assert!(s.backward(&Tensor::ones(&[1])).is_err());
        assert!(s.is_empty());
        // Its forward is the identity, as a copy of the input.
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]).unwrap();
        assert_eq!(s.forward(&x, Mode::Eval).unwrap(), x);
    }

    #[test]
    fn macs_accumulate() {
        let mlp = tiny_mlp();
        assert_eq!(mlp.macs(&[4]), (4 * 8 + 8 * 2) as u64);
    }

    #[test]
    fn zero_grads_resets_all() {
        let mut mlp = tiny_mlp();
        let x = Tensor::ones(&[2, 4]);
        let y = mlp.forward(&x, Mode::Train).unwrap();
        mlp.backward(&Tensor::ones(y.dims())).unwrap();
        mlp.zero_grads();
        mlp.visit_params(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }
}
