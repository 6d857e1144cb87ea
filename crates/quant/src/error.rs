//! Error type for the quant crate.

use ofscil_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error returned by quantization operations.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// The requested bit width is unsupported.
    UnsupportedBits {
        /// The offending bit width.
        bits: u8,
    },
    /// Shapes of quantized operands disagree.
    ShapeMismatch {
        /// Left operand dims.
        left: Vec<usize>,
        /// Right operand dims.
        right: Vec<usize>,
    },
    /// Calibration received no data.
    EmptyCalibration,
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::Tensor(e) => write!(f, "tensor error: {e}"),
            QuantError::UnsupportedBits { bits } => {
                write!(
                    f,
                    "unsupported quantization bit width {bits} (expected 1..=8 or 32)"
                )
            }
            QuantError::ShapeMismatch { left, right } => {
                write!(f, "quantized shape mismatch: {left:?} vs {right:?}")
            }
            QuantError::EmptyCalibration => write!(f, "calibration requires at least one value"),
        }
    }
}

impl Error for QuantError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QuantError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for QuantError {
    fn from(e: TensorError) -> Self {
        QuantError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_bits() {
        let e = QuantError::UnsupportedBits { bits: 13 };
        assert!(e.to_string().contains("13"));
        assert!(QuantError::EmptyCalibration
            .to_string()
            .contains("calibration"));
    }
}
