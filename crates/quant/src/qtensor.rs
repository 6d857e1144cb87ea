//! Symmetric int8 tensors and integer matrix multiplication.

use crate::{QuantError, Result};
use ofscil_tensor::Tensor;

/// Symmetric per-tensor quantization parameters: `real ≈ scale * q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QuantParams {
    /// Scale factor mapping integer values back to real values.
    pub scale: f32,
}

impl QuantParams {
    /// Derives parameters from the maximum absolute value to represent.
    /// The scale is clamped away from zero so all-zero tensors stay valid.
    pub(crate) fn from_max_abs(max_abs: f32) -> Self {
        QuantParams {
            scale: (max_abs / 127.0).max(1e-12),
        }
    }

    /// Quantizes one real value to i8 with saturation.
    pub(crate) fn quantize(&self, value: f32) -> i8 {
        (value / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantizes one i8 value.
    pub(crate) fn dequantize(&self, value: i8) -> f32 {
        value as f32 * self.scale
    }
}

/// A dense int8 tensor with a shared symmetric scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    data: Vec<i8>,
    dims: Vec<usize>,
    params: QuantParams,
}

impl QuantTensor {
    /// Quantizes a real tensor with the given parameters.
    pub(crate) fn quantize(tensor: &Tensor, params: QuantParams) -> Self {
        QuantTensor {
            data: tensor
                .as_slice()
                .iter()
                .map(|&v| params.quantize(v))
                .collect(),
            dims: tensor.dims().to_vec(),
            params,
        }
    }

    /// Quantizes a real tensor, deriving the scale from its max-abs value.
    pub fn quantize_auto(tensor: &Tensor) -> Self {
        Self::quantize(tensor, QuantParams::from_max_abs(tensor.max_abs()))
    }

    /// Dequantizes back to a real tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.data
                .iter()
                .map(|&q| self.params.dequantize(q))
                .collect(),
            &self.dims,
        )
        .expect("dims match data by construction")
    }

    /// The tensor dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Storage size in bytes at int8.
    pub fn bytes(&self) -> usize {
        self.data.len()
    }

    /// Integer matrix multiplication `self · other` with i32 accumulation,
    /// returning a real-valued tensor scaled by both operand scales — the
    /// arithmetic performed by a SIMD int8 MAC unit.
    ///
    /// # Errors
    ///
    /// Returns an error when either operand is not a matrix or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &QuantTensor) -> Result<Tensor> {
        if self.dims.len() != 2 || other.dims.len() != 2 || self.dims[1] != other.dims[0] {
            return Err(QuantError::ShapeMismatch {
                left: self.dims.clone(),
                right: other.dims.clone(),
            });
        }
        let (m, k) = (self.dims[0], self.dims[1]);
        let n = other.dims[1];
        let mut out = vec![0.0f32; m * n];
        let combined_scale = self.params.scale * other.params.scale;
        for i in 0..m {
            for j in 0..n {
                let mut acc: i32 = 0;
                for kk in 0..k {
                    acc += self.data[i * k + kk] as i32 * other.data[kk * n + j] as i32;
                }
                out[i * n + j] = acc as f32 * combined_scale;
            }
        }
        Ok(Tensor::from_vec(out, &[m, n])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_tensor::SeedRng;

    #[test]
    fn quantize_round_trip_error_is_bounded() {
        let mut rng = SeedRng::new(0);
        let t = Tensor::from_vec(
            (0..256).map(|_| rng.uniform_range(-2.0, 2.0)).collect(),
            &[256],
        )
        .unwrap();
        let q = QuantTensor::quantize_auto(&t);
        let back = q.dequantize();
        // Max error is half a quantization step.
        let step = q.params.scale;
        assert!(t.max_abs_diff(&back).unwrap() <= 0.51 * step);
        assert_eq!(q.bytes(), 256);
        assert!(!q.is_empty());
        assert_eq!(q.len(), 256);
    }

    #[test]
    fn saturation_clamps_to_127() {
        let params = QuantParams::from_max_abs(1.0);
        assert_eq!(params.quantize(10.0), 127);
        assert_eq!(params.quantize(-10.0), -127);
        assert_eq!(params.quantize(0.0), 0);
    }

    #[test]
    fn zero_tensor_is_representable() {
        let t = Tensor::zeros(&[8]);
        let q = QuantTensor::quantize_auto(&t);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn integer_matmul_matches_float_matmul() {
        let mut rng = SeedRng::new(3);
        let a = Tensor::from_vec(
            (0..6 * 8).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
            &[6, 8],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..8 * 5).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
            &[8, 5],
        )
        .unwrap();
        let qa = QuantTensor::quantize_auto(&a);
        let qb = QuantTensor::quantize_auto(&b);
        let qc = qa.matmul(&qb).unwrap();
        let c = a.matmul(&b).unwrap();
        // int8 quantization error over an inner dimension of 8 stays small.
        assert!(
            c.max_abs_diff(&qc).unwrap() < 0.15,
            "{}",
            c.max_abs_diff(&qc).unwrap()
        );
    }

    #[test]
    fn matmul_shape_errors() {
        let a = QuantTensor::quantize_auto(&Tensor::ones(&[2, 3]));
        let b = QuantTensor::quantize_auto(&Tensor::ones(&[4, 2]));
        assert!(a.matmul(&b).is_err());
        let v = QuantTensor::quantize_auto(&Tensor::ones(&[3]));
        assert!(v.matmul(&a).is_err());
    }
}
