//! Error type shared by all tensor operations.

use std::error::Error;
use std::fmt;

/// Error returned by fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the product of the shape dims.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two shapes that must agree do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Vec<usize>,
        /// Shape of the right-hand operand.
        right: Vec<usize>,
        /// Operation that was attempted.
        op: &'static str,
    },
    /// The tensor does not have the expected rank.
    RankMismatch {
        /// Rank required by the operation.
        expected: usize,
        /// Rank of the provided tensor.
        actual: usize,
        /// Operation that was attempted.
        op: &'static str,
    },
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// An axis argument exceeded the tensor rank.
    InvalidAxis {
        /// The offending axis.
        axis: usize,
        /// The tensor rank.
        rank: usize,
    },
    /// An operation received an empty tensor where data is required.
    Empty(&'static str),
    /// A configuration value was invalid (e.g. zero-sized kernel).
    InvalidArgument(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
            TensorError::ShapeMismatch { left, right, op } => {
                write!(f, "shape mismatch in {op}: {left:?} vs {right:?}")
            }
            TensorError::RankMismatch {
                expected,
                actual,
                op,
            } => {
                write!(
                    f,
                    "rank mismatch in {op}: expected rank {expected}, got {actual}"
                )
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidAxis { axis, rank } => {
                write!(f, "axis {axis} is invalid for tensor of rank {rank}")
            }
            TensorError::Empty(op) => write!(f, "operation {op} requires a non-empty tensor"),
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = TensorError::LengthMismatch {
            expected: 4,
            actual: 3,
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains('3'));

        let err = TensorError::ShapeMismatch {
            left: vec![2, 3],
            right: vec![4, 5],
            op: "matmul",
        };
        assert!(err.to_string().contains("matmul"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
