//! Quantize–dequantize ("fake quantization") simulation of int8 inference.
//!
//! The INT8 rows of Table II are produced by running the floating-point model
//! with weights and activations passed through an int8
//! quantize–dequantize step, which reproduces the numerics of the deployed
//! integer network while reusing the f32 execution engine. This is the same
//! simulation quantization-aware-training frameworks (including Quantlab/TQT
//! used by the paper) rely on.

use crate::{calibrate_power_of_two, Result};
use ofscil_nn::Layer;
use ofscil_tensor::Tensor;

/// An activation fake-quantizer: clamps to a per-tensor threshold and rounds
/// to the configured number of levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FakeQuant {
    bits: u8,
}

impl FakeQuant {
    /// Creates a fake quantizer for the given bit width (1..=8).
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported bit widths.
    pub fn new(bits: u8) -> Result<Self> {
        if !(1..=8).contains(&bits) {
            return Err(crate::QuantError::UnsupportedBits { bits });
        }
        Ok(FakeQuant { bits })
    }

    /// The simulated bit width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of positive quantization levels (`2^(bits-1) - 1`).
    pub(crate) fn positive_levels(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Applies quantize–dequantize to a tensor using a per-tensor max-abs
    /// scale. A 1-bit quantizer degenerates to `sign(x) * max_abs` as in the
    /// paper's Fig. 3 sweep.
    pub fn apply(&self, tensor: &Tensor) -> Tensor {
        let max_abs = tensor.max_abs();
        if max_abs < 1e-12 {
            return tensor.clone();
        }
        let levels = self.positive_levels().max(1) as f32;
        let scale = max_abs / levels;
        tensor.map(|v| (v / scale).round().clamp(-levels, levels) * scale)
    }
}

/// Fake-quantizes every trainable parameter of a layer (or whole model) in
/// place using TQT-style power-of-two thresholds, simulating int8 weight
/// storage. Returns the number of quantized parameters.
pub fn quantize_layer_weights(layer: &mut dyn Layer, bits: u8) -> Result<u64> {
    let quantizer = FakeQuant::new(bits)?;
    let mut count = 0u64;
    let mut calibration_failed = false;
    layer.visit_params(&mut |param| {
        if !param.trainable || param.is_empty() {
            return;
        }
        match calibrate_power_of_two(param.value.as_slice()) {
            Ok((_, qp)) => {
                let levels = quantizer.positive_levels() as f32;
                // Rescale the int8 step to the requested bit width.
                let scale = qp.scale * (127.0 / levels);
                param
                    .value
                    .map_in_place(|v| (v / scale).round().clamp(-levels, levels) * scale);
                count += param.len() as u64;
            }
            Err(_) => calibration_failed = true,
        }
    });
    if calibration_failed {
        return Err(crate::QuantError::EmptyCalibration);
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_nn::layers::Linear;
    use ofscil_nn::models::{mobilenet_v2, MobileNetVariant};
    use ofscil_nn::{Layer, Mode};
    use ofscil_tensor::{SeedRng, Tensor};

    /// A rank-2 weight quantized on its own, through a `Linear` carrying it.
    fn quantize_alone(value: &Tensor) -> Tensor {
        let (rows, cols) = (value.dims()[0], value.dims()[1]);
        let mut carrier = Linear::new(rows, cols, &mut SeedRng::new(0));
        carrier.visit_params(&mut |p| {
            if p.name() == "weight" {
                p.value = value.clone();
            }
        });
        quantize_layer_weights(&mut carrier, 8).unwrap();
        carrier.weight().clone()
    }

    #[test]
    fn weights_quantize_alike_in_either_layout() {
        // Calibration sums squared errors in storage order, and the
        // pointwise convolutions and the FCR store `[in, out]` where they
        // once stored `[out, in]`. Every rank-2 weight of MobileNetV2 (its
        // pointwise layers among them) and the FCR must quantize to the same
        // values in both orders, at the ledger's seed 1 and simbench's seed 7.
        for seed in [1, 7] {
            let mut rng = SeedRng::new(seed);
            let backbone = mobilenet_v2(MobileNetVariant::X1, &mut rng).net;
            let fcr = Linear::new(1280, 256, &mut rng);
            let mut checked = 0;
            for mut layer in [Box::new(backbone) as Box<dyn Layer>, Box::new(fcr)] {
                let mut before = Vec::new();
                layer.visit_params(&mut |p| before.push(p.value.clone()));
                quantize_layer_weights(layer.as_mut(), 8).unwrap();
                let mut before = before.into_iter();
                layer.visit_params(&mut |p| {
                    let value = before.next().unwrap();
                    if value.dims().len() == 2 {
                        let other = quantize_alone(&value.transpose().unwrap());
                        assert_eq!(p.value, other.transpose().unwrap(), "seed {seed}");
                        checked += 1;
                    }
                });
            }
            // 34 pointwise + 17 depthwise + the stem, and the FCR.
            assert_eq!(checked, 53, "seed {seed}");
        }
    }

    #[test]
    fn rejects_bad_bit_widths() {
        assert!(FakeQuant::new(0).is_err());
        assert!(FakeQuant::new(9).is_err());
        assert!(FakeQuant::new(8).is_ok());
        assert_eq!(FakeQuant::new(3).unwrap().positive_levels(), 3);
    }

    #[test]
    fn eight_bit_error_is_small_three_bit_is_larger() {
        let mut rng = SeedRng::new(0);
        let t = Tensor::from_vec((0..512).map(|_| rng.normal()).collect(), &[512]).unwrap();
        let q8 = FakeQuant::new(8).unwrap().apply(&t);
        let q3 = FakeQuant::new(3).unwrap().apply(&t);
        let e8 = t.max_abs_diff(&q8).unwrap();
        let e3 = t.max_abs_diff(&q3).unwrap();
        assert!(e8 < e3);
        assert!(e8 < 0.05 * t.max_abs());
    }

    #[test]
    fn one_bit_keeps_only_signs() {
        let t = Tensor::from_slice(&[0.2, -0.7, 1.5, -0.01]);
        let q = FakeQuant::new(1).unwrap().apply(&t);
        for (orig, quant) in t.as_slice().iter().zip(q.as_slice()) {
            assert_eq!(orig.signum(), quant.signum());
            assert!((quant.abs() - 1.5).abs() < 1e-6 || *quant == 0.0);
        }
    }

    #[test]
    fn zero_tensor_unchanged() {
        let t = Tensor::zeros(&[16]);
        assert_eq!(FakeQuant::new(4).unwrap().apply(&t), t);
    }

    #[test]
    fn layer_weights_change_little_at_int8() {
        let mut rng = SeedRng::new(1);
        let mut layer = Linear::new(16, 8, &mut rng);
        let before = layer.weight().clone();
        let x = Tensor::ones(&[2, 16]);
        let before_out = layer.forward(&x, Mode::Eval).unwrap();
        let count = quantize_layer_weights(&mut layer, 8).unwrap();
        assert_eq!(count, 16 * 8 + 8);
        let after_out = layer.forward(&x, Mode::Eval).unwrap();
        assert!(layer.weight().max_abs_diff(&before).unwrap() > 0.0);
        // The functional change at int8 is small relative to the output scale.
        let rel = before_out.max_abs_diff(&after_out).unwrap() / before_out.max_abs().max(1e-6);
        assert!(rel < 0.1, "relative change {rel}");
    }
}
