//! Procedural CIFAR100-like image generator.
//!
//! Each class owns a small set of low-frequency texture components (random
//! spatial frequencies, phases and per-channel amplitudes drawn from a
//! class-specific RNG stream). A sample of that class renders those
//! components with per-sample phase jitter, amplitude scaling, a random
//! spatial shift, and additive pixel noise. Classes therefore form compact
//! but overlapping clusters in image space — the property the FSCIL pipeline
//! actually relies on — while remaining cheap to generate and fully
//! deterministic given a seed.

use crate::{Dataset, Result, Sample};
use ofscil_tensor::{SeedRng, Tensor};

/// Configuration of the synthetic CIFAR-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Total number of classes.
    pub num_classes: usize,
    /// Square image side length.
    pub image_size: usize,
    /// Number of texture components per class.
    pub(crate) components_per_class: usize,
    /// Per-sample phase jitter amplitude (radians); larger = harder classes.
    pub(crate) phase_jitter: f32,
    /// Additive Gaussian pixel-noise standard deviation.
    pub(crate) pixel_noise: f32,
    /// Maximum per-sample spatial shift in pixels.
    pub(crate) max_shift: usize,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_classes: 100,
            image_size: 32,
            components_per_class: 6,
            phase_jitter: 0.35,
            pixel_noise: 0.06,
            max_shift: 2,
        }
    }
}

/// One texture component of a class prototype.
#[derive(Debug, Clone, Copy)]
struct Component {
    freq_x: f32,
    freq_y: f32,
    phase: f32,
    amplitude: [f32; 3],
}

/// The stable, per-class appearance: texture components plus a mean colour
/// offset. Both survive the per-sample jitter, giving classes a learnable
/// signature.
#[derive(Debug, Clone)]
struct ClassSignature {
    components: Vec<Component>,
    color_offset: [f32; 3],
}

/// Deterministic procedural image generator with CIFAR100-like class
/// structure.
///
/// # Example
///
/// ```
/// use ofscil_data::{SyntheticCifar, SyntheticConfig};
///
/// let mut config = SyntheticConfig::default();
/// config.image_size = 16;
/// let gen = SyntheticCifar::new(config, 1);
/// let ds = gen.generate_split(&[0, 1, 2], 5, 100).unwrap();
/// assert_eq!(ds.len(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticCifar {
    config: SyntheticConfig,
    seed: u64,
    signatures: Vec<ClassSignature>,
}

impl SyntheticCifar {
    /// Creates a generator; the class prototypes are derived from `seed`.
    pub fn new(config: SyntheticConfig, seed: u64) -> Self {
        let mut signatures = Vec::with_capacity(config.num_classes);
        for class in 0..config.num_classes {
            let mut rng = SeedRng::new(seed ^ (0xC1A5_5000 + class as u64).wrapping_mul(0x9E37));
            let components = (0..config.components_per_class)
                .map(|_| Component {
                    freq_x: rng.uniform_range(0.2, 1.6),
                    freq_y: rng.uniform_range(0.2, 1.6),
                    phase: rng.uniform_range(0.0, std::f32::consts::TAU),
                    amplitude: [
                        rng.uniform_range(-1.0, 1.0),
                        rng.uniform_range(-1.0, 1.0),
                        rng.uniform_range(-1.0, 1.0),
                    ],
                })
                .collect();
            let color_offset = [
                rng.uniform_range(-0.18, 0.18),
                rng.uniform_range(-0.18, 0.18),
                rng.uniform_range(-0.18, 0.18),
            ];
            signatures.push(ClassSignature {
                components,
                color_offset,
            });
        }
        SyntheticCifar {
            config,
            seed,
            signatures,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Renders one image of `class`; `sample_id` and `stream` select the
    /// per-sample randomness (train and test splits use different streams so
    /// they never share samples).
    ///
    /// # Errors
    ///
    /// Returns an error when `class` is out of range.
    pub fn render(&self, class: usize, sample_id: usize, stream: u64) -> Result<Tensor> {
        let signature = self
            .signatures
            .get(class)
            .ok_or(crate::DataError::OutOfRange {
                what: "class".into(),
                value: class,
                bound: self.config.num_classes,
            })?;
        let components = &signature.components;
        let size = self.config.image_size;
        let mut rng = SeedRng::new(
            self.seed
                ^ stream.wrapping_mul(0x517C_C1B7_2722_0A95)
                ^ ((class as u64) << 32 | sample_id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let jitter: Vec<f32> = components
            .iter()
            .map(|_| rng.uniform_range(-self.config.phase_jitter, self.config.phase_jitter))
            .collect();
        let scale = rng.uniform_range(0.85, 1.15);
        let shift_x =
            rng.below(2 * self.config.max_shift + 1) as f32 - self.config.max_shift as f32;
        let shift_y =
            rng.below(2 * self.config.max_shift + 1) as f32 - self.config.max_shift as f32;

        let mut data = vec![0.0f32; 3 * size * size];
        let freq_scale = 8.0 / size as f32;
        for y in 0..size {
            for x in 0..size {
                let xf = x as f32 + shift_x;
                let yf = y as f32 + shift_y;
                for (component, &j) in components.iter().zip(&jitter) {
                    let angle = component.freq_x * xf * freq_scale
                        + component.freq_y * yf * freq_scale
                        + component.phase
                        + j;
                    let v = scale * angle.sin();
                    for ch in 0..3 {
                        data[ch * size * size + y * size + x] += component.amplitude[ch] * v;
                    }
                }
            }
        }
        // Normalise roughly into [0, 1], add the class colour offset and pixel
        // noise.
        let norm = (components.len() as f32).sqrt().max(1.0);
        for (idx, v) in data.iter_mut().enumerate() {
            let ch = idx / (size * size);
            *v = 0.5
                + 0.35 * (*v / norm)
                + signature.color_offset[ch]
                + rng.normal_with(0.0, self.config.pixel_noise);
            *v = v.clamp(0.0, 1.0);
        }
        Ok(Tensor::from_vec(data, &[3, size, size])?)
    }

    /// Generates a dataset with `per_class` samples for each listed class.
    /// `stream` decorrelates splits (use different streams for train / test).
    ///
    /// # Errors
    ///
    /// Returns an error when any class id is out of range.
    pub fn generate_split(
        &self,
        classes: &[usize],
        per_class: usize,
        stream: u64,
    ) -> Result<Dataset> {
        let size = self.config.image_size;
        let mut dataset = Dataset::new(&[3, size, size]);
        for &class in classes {
            for sample_id in 0..per_class {
                dataset.push(Sample {
                    image: self.render(class, sample_id, stream)?,
                    label: class,
                })?;
            }
        }
        Ok(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::cosine_similarity;

    /// A small configuration for fast tests: 20 classes of 16×16 images.
    fn tiny() -> SyntheticConfig {
        SyntheticConfig {
            num_classes: 20,
            image_size: 16,
            components_per_class: 4,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_rendering() {
        let gen_a = SyntheticCifar::new(tiny(), 9);
        let gen_b = SyntheticCifar::new(tiny(), 9);
        let a = gen_a.render(3, 0, 0).unwrap();
        let b = gen_b.render(3, 0, 0).unwrap();
        assert_eq!(a, b);
        // Different seed => different image.
        let gen_c = SyntheticCifar::new(tiny(), 10);
        let c = gen_c.render(3, 0, 0).unwrap();
        assert!(a.max_abs_diff(&c).unwrap() > 1e-3);
    }

    #[test]
    fn pixel_range_is_valid() {
        let generator = SyntheticCifar::new(tiny(), 0);
        let img = generator.render(0, 0, 0).unwrap();
        assert_eq!(img.dims(), &[3, 16, 16]);
        assert!(img.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn intra_class_more_similar_than_inter_class() {
        // The whole point of the generator: two samples of one class correlate
        // more than samples of different classes, on average.
        let generator = SyntheticCifar::new(tiny(), 4);
        let mut intra = 0.0f32;
        let mut inter = 0.0f32;
        let mut n = 0;
        for class in 0..8usize {
            let a = generator.render(class, 0, 0).unwrap();
            let b = generator.render(class, 1, 0).unwrap();
            let other = generator.render((class + 1) % 8, 1, 0).unwrap();
            let center = |t: &Tensor| t.map(|x| x - t.mean());
            intra += cosine_similarity(center(&a).as_slice(), center(&b).as_slice()).unwrap();
            inter += cosine_similarity(center(&a).as_slice(), center(&other).as_slice()).unwrap();
            n += 1;
        }
        intra /= n as f32;
        inter /= n as f32;
        assert!(
            intra > inter + 0.1,
            "intra-class similarity {intra} should exceed inter-class {inter}"
        );
    }

    #[test]
    fn split_generation_counts() {
        let generator = SyntheticCifar::new(tiny(), 0);
        let ds = generator.generate_split(&[0, 3, 7], 4, 0).unwrap();
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.classes(), vec![0, 3, 7]);
        assert!(generator.generate_split(&[99], 1, 0).is_err());
        assert!(generator.render(50, 0, 0).is_err());
    }

    #[test]
    fn different_streams_produce_different_samples() {
        let generator = SyntheticCifar::new(tiny(), 0);
        let train = generator.render(2, 0, 0).unwrap();
        let test = generator.render(2, 0, 1).unwrap();
        assert!(train.max_abs_diff(&test).unwrap() > 1e-3);
    }
}
