//! TQT-style threshold calibration.
//!
//! Trained Quantization Thresholds (Jain et al., 2020) learn power-of-two
//! clipping thresholds. Offline we reproduce the essential behaviour with a
//! grid search over power-of-two thresholds minimising the quantization mean
//! squared error on calibration data — the fixed point TQT converges to for a
//! static distribution.

use crate::{QuantError, QuantParams, Result};

/// Returns the power-of-two threshold `t = 2^k` (k ∈ [-16, 16]) whose
/// symmetric int8 quantization minimises the MSE over `values`, together with
/// the corresponding [`QuantParams`].
///
/// # Errors
///
/// Returns [`QuantError::EmptyCalibration`] when `values` is empty.
pub(crate) fn calibrate_power_of_two(values: &[f32]) -> Result<(f32, QuantParams)> {
    if values.is_empty() {
        return Err(QuantError::EmptyCalibration);
    }
    let mut best_threshold = 1.0f32;
    let mut best_mse = f32::INFINITY;
    for k in -16i32..=16 {
        let threshold = (2.0f32).powi(k);
        let scale = threshold / 127.0;
        let mse: f32 = values
            .iter()
            .map(|&v| {
                let q = (v / scale).round().clamp(-127.0, 127.0);
                let err = v - q * scale;
                err * err
            })
            .sum::<f32>()
            / values.len() as f32;
        if mse < best_mse {
            best_mse = mse;
            best_threshold = threshold;
        }
    }
    Ok((
        best_threshold,
        QuantParams {
            scale: best_threshold / 127.0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    #[test]
    fn empty_calibration_is_rejected() {
        assert!(calibrate_power_of_two(&[]).is_err());
    }

    #[test]
    fn threshold_is_a_power_of_two() {
        let mut rng = SeedRng::new(0);
        let values: Vec<f32> = (0..512).map(|_| rng.normal_with(0.0, 0.3)).collect();
        let (threshold, params) = calibrate_power_of_two(&values).unwrap();
        let log = threshold.log2();
        assert!(
            (log - log.round()).abs() < 1e-6,
            "threshold {threshold} not a power of two"
        );
        assert!(params.scale > 0.0);
    }

    #[test]
    fn threshold_tracks_data_range() {
        let small: Vec<f32> = (0..64).map(|i| (i as f32 / 64.0) * 0.01).collect();
        let large: Vec<f32> = (0..64).map(|i| (i as f32 / 64.0) * 10.0).collect();
        let (t_small, _) = calibrate_power_of_two(&small).unwrap();
        let (t_large, _) = calibrate_power_of_two(&large).unwrap();
        assert!(t_small < t_large);
    }

    #[test]
    fn calibrated_quantization_has_low_error() {
        let mut rng = SeedRng::new(7);
        let values: Vec<f32> = (0..1024).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let (_, params) = calibrate_power_of_two(&values).unwrap();
        let mse: f32 = values
            .iter()
            .map(|&v| {
                let q = params.dequantize(params.quantize(v));
                (v - q).powi(2)
            })
            .sum::<f32>()
            / values.len() as f32;
        // int8 on a unit Gaussian: MSE well below 1e-3.
        assert!(mse < 1e-3, "mse {mse}");
    }

    #[test]
    fn max_abs_calibration_covers_range() {
        let params = QuantParams::from_max_abs(3.0);
        assert_eq!(params.quantize(3.0), 127);
        assert_eq!(params.quantize(-3.0), -127);
    }
}
