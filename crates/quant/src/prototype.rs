//! Explicit-memory prototype precision reduction (paper §V-B and Fig. 3).
//!
//! On GAP9 a class prototype is accumulated over the S shots as a sum of int8
//! feature vectors — a 17-bit integer is sufficient to avoid overflow for
//! d_p = 256 — and then reduced by a bit-shift division to the storage
//! precision. Because the cosine-similarity classifier only depends on the
//! *direction* of the prototype, aggressive reductions (down to 3 bits, even
//! 1 bit = sign) preserve accuracy while shrinking the explicit memory to a
//! few kilobytes.

use crate::{QuantError, Result};

/// Quantizer simulating prototype storage at a reduced bit width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrototypePrecision {
    bits: u8,
}

impl PrototypePrecision {
    /// Creates a prototype quantizer for `bits` ∈ {1..=8, 32}; 32 means full
    /// floating-point storage (no reduction).
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported bit widths.
    pub fn new(bits: u8) -> Result<Self> {
        if bits == 32 || (1..=8).contains(&bits) {
            Ok(PrototypePrecision { bits })
        } else {
            Err(QuantError::UnsupportedBits { bits })
        }
    }

    /// The storage bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The bit widths swept in the paper's Fig. 3.
    pub fn figure3_sweep() -> Vec<PrototypePrecision> {
        let mut sweep = vec![PrototypePrecision { bits: 32 }];
        sweep.extend((1..=8).rev().map(|bits| PrototypePrecision { bits }));
        sweep
    }

    /// Quantizes a prototype vector to the storage precision and returns the
    /// dequantized values the classifier will actually compare against.
    ///
    /// The direction of the vector is preserved (symmetric scaling by the
    /// max-abs element); at 1 bit only the element signs survive.
    pub fn quantize(&self, prototype: &[f32]) -> Vec<f32> {
        if self.bits == 32 {
            return prototype.to_vec();
        }
        let max_abs = prototype.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
        if max_abs < 1e-12 {
            return prototype.to_vec();
        }
        if self.bits == 1 {
            // Sign-only storage (bipolarised prototype).
            return prototype
                .iter()
                .map(|&v| if v >= 0.0 { max_abs } else { -max_abs })
                .collect();
        }
        let levels = ((1i32 << (self.bits - 1)) - 1) as f32;
        // Pick the clipping threshold (a fraction of max-abs) that minimises
        // the quantization MSE — the static equivalent of the learned TQT
        // threshold, and a good model of the bit-shift division on GAP9 which
        // trades saturation of a few large elements for finer resolution of
        // the bulk of the vector.
        let mut best_scale = max_abs / levels;
        let mut best_mse = f32::INFINITY;
        for clip_ratio in [1.0f32, 0.8, 0.6, 0.45, 0.3, 0.2] {
            let scale = (max_abs * clip_ratio / levels).max(1e-12);
            let mse: f32 = prototype
                .iter()
                .map(|&v| {
                    let q = (v / scale).round().clamp(-levels, levels) * scale;
                    (v - q) * (v - q)
                })
                .sum();
            if mse < best_mse {
                best_mse = mse;
                best_scale = scale;
            }
        }
        prototype
            .iter()
            .map(|&v| (v / best_scale).round().clamp(-levels, levels) * best_scale)
            .collect()
    }
}

/// Size accounting for an explicit memory holding `num_classes` prototypes of
/// dimension `dim` stored at `bits` per element — the x-axis annotations of
/// the paper's Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplicitMemoryFootprint {
    /// Number of stored class prototypes.
    pub(crate) num_classes: usize,
    /// Prototype dimensionality d_p.
    pub(crate) dim: usize,
    /// Storage bits per element.
    pub bits: u8,
}

impl ExplicitMemoryFootprint {
    /// Creates a footprint descriptor.
    pub fn new(num_classes: usize, dim: usize, bits: u8) -> Self {
        ExplicitMemoryFootprint {
            num_classes,
            dim,
            bits,
        }
    }

    /// Total storage in bytes.
    pub fn bytes(&self) -> f64 {
        self.num_classes as f64 * self.dim as f64 * self.bits as f64 / 8.0
    }

    /// Total storage in kilobytes (decimal, matching the paper's 9.6 kB).
    pub fn kilobytes(&self) -> f64 {
        self.bytes() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::cosine_similarity;
    use ofscil_tensor::SeedRng;

    #[test]
    fn unsupported_bits_rejected() {
        assert!(PrototypePrecision::new(0).is_err());
        assert!(PrototypePrecision::new(16).is_err());
        assert!(PrototypePrecision::new(32).is_ok());
        assert!(PrototypePrecision::new(3).is_ok());
    }

    #[test]
    fn fp32_is_identity() {
        let p = PrototypePrecision::new(32).unwrap();
        let proto = vec![0.5, -0.25, 0.0];
        assert_eq!(p.quantize(&proto), proto);
    }

    #[test]
    fn direction_is_preserved_at_low_precision() {
        let mut rng = SeedRng::new(4);
        let proto: Vec<f32> = (0..256).map(|_| rng.normal()).collect();
        for bits in [8u8, 5, 3, 2] {
            let p = PrototypePrecision::new(bits).unwrap();
            let q = p.quantize(&proto);
            let cos = cosine_similarity(&proto, &q).unwrap();
            // Even 2-bit storage keeps the direction broadly aligned; 3 bits
            // and above stay very close — the Fig. 3 claim.
            let floor = if bits >= 3 { 0.97 } else { 0.85 };
            assert!(cos > floor, "bits {bits}: cosine {cos}");
        }
    }

    #[test]
    fn one_bit_is_sign_only() {
        let p = PrototypePrecision::new(1).unwrap();
        let q = p.quantize(&[0.4, -0.2, 0.0, 1.0]);
        assert_eq!(q.iter().filter(|v| **v > 0.0).count(), 3);
        assert_eq!(q.iter().filter(|v| **v < 0.0).count(), 1);
        // All magnitudes identical.
        let mags: Vec<f32> = q.iter().map(|v| v.abs()).collect();
        assert!(mags.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6));
    }

    #[test]
    fn zero_prototype_is_unchanged() {
        let p = PrototypePrecision::new(3).unwrap();
        assert_eq!(p.quantize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn figure3_sweep_order() {
        let sweep = PrototypePrecision::figure3_sweep();
        assert_eq!(sweep.len(), 9);
        assert_eq!(sweep[0].bits(), 32);
        assert_eq!(sweep[1].bits(), 8);
        assert_eq!(sweep.last().unwrap().bits(), 1);
    }

    #[test]
    fn paper_footprint_numbers() {
        // 100 classes × 256 dims × 3 bits = 9.6 kB (paper abstract / Fig. 3).
        let f3 = ExplicitMemoryFootprint::new(100, 256, 3);
        assert!((f3.kilobytes() - 9.6).abs() < 1e-9);
        // 32-bit storage is 102.4 kB, 8-bit is 25.6 kB (Fig. 3 x-axis).
        assert!((ExplicitMemoryFootprint::new(100, 256, 32).kilobytes() - 102.4).abs() < 1e-9);
        assert!((ExplicitMemoryFootprint::new(100, 256, 8).kilobytes() - 25.6).abs() < 1e-9);
    }
}
