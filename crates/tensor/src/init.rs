//! Weight initialization strategies.

use crate::{SeedRng, Tensor};

/// The initialization distribution used when creating parameter tensors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All elements set to the given constant.
    Constant(f32),
    /// Uniform distribution over `[-bound, bound]`.
    Uniform {
        /// Half-width of the distribution.
        bound: f32,
    },
    /// Normal distribution with the given standard deviation.
    Normal {
        /// Standard deviation of the distribution.
        std_dev: f32,
    },
    /// Kaiming/He normal initialization for layers followed by ReLU:
    /// `std = sqrt(2 / fan_in)`.
    KaimingNormal {
        /// Number of input connections per output unit.
        fan_in: usize,
    },
    /// Xavier/Glorot uniform initialization:
    /// `bound = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform {
        /// Number of input connections per output unit.
        fan_in: usize,
        /// Number of output connections per input unit.
        fan_out: usize,
    },
}

/// Creates initialized parameter tensors from an [`Init`] specification.
///
/// # Example
///
/// ```
/// use ofscil_tensor::{Init, Initializer, SeedRng};
///
/// let mut init = Initializer::new(SeedRng::new(0));
/// let w = init.tensor(&[16, 8], Init::KaimingNormal { fan_in: 8 });
/// assert_eq!(w.dims(), &[16, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Initializer {
    rng: SeedRng,
}

impl Initializer {
    /// Creates an initializer drawing randomness from `rng`.
    pub fn new(rng: SeedRng) -> Self {
        Initializer { rng }
    }

    /// Creates a tensor with the given shape and initialization.
    pub fn tensor(&mut self, dims: &[usize], init: Init) -> Tensor {
        let volume: usize = dims.iter().product();
        let data: Vec<f32> = match init {
            Init::Constant(c) => vec![c; volume],
            Init::Uniform { bound } => (0..volume)
                .map(|_| self.rng.uniform_range(-bound, bound))
                .collect(),
            Init::Normal { std_dev } => (0..volume)
                .map(|_| self.rng.normal_with(0.0, std_dev))
                .collect(),
            Init::KaimingNormal { fan_in } => {
                let std_dev = (2.0 / fan_in.max(1) as f32).sqrt();
                (0..volume)
                    .map(|_| self.rng.normal_with(0.0, std_dev))
                    .collect()
            }
            Init::XavierUniform { fan_in, fan_out } => {
                let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                (0..volume)
                    .map(|_| self.rng.uniform_range(-bound, bound))
                    .collect()
            }
        };
        Tensor::from_vec(data, dims).expect("volume matches by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_fill() {
        let mut init = Initializer::new(SeedRng::new(0));
        let t = init.tensor(&[4, 4], Init::Constant(0.5));
        assert!(t.as_slice().iter().all(|&x| x == 0.5));
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut init = Initializer::new(SeedRng::new(1));
        let wide = init.tensor(&[64, 1024], Init::KaimingNormal { fan_in: 1024 });
        let narrow = init.tensor(&[64, 4], Init::KaimingNormal { fan_in: 4 });
        let std = |t: &Tensor| (t.norm_sq() / t.len() as f32).sqrt();
        assert!(std(&wide) < std(&narrow));
        assert!((std(&wide) - (2.0f32 / 1024.0).sqrt()).abs() < 0.01);
    }

    #[test]
    fn uniform_respects_bound() {
        let mut init = Initializer::new(SeedRng::new(2));
        let t = init.tensor(&[1000], Init::Uniform { bound: 0.25 });
        assert!(t.as_slice().iter().all(|x| x.abs() <= 0.25));
    }

    #[test]
    fn xavier_respects_bound() {
        let mut init = Initializer::new(SeedRng::new(3));
        let t = init.tensor(
            &[500],
            Init::XavierUniform {
                fan_in: 10,
                fan_out: 20,
            },
        );
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(t.as_slice().iter().all(|x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Initializer::new(SeedRng::new(9));
        let mut b = Initializer::new(SeedRng::new(9));
        let ta = a.tensor(&[32], Init::Normal { std_dev: 1.0 });
        let tb = b.tensor(&[32], Init::Normal { std_dev: 1.0 });
        assert_eq!(ta, tb);
    }
}
