//! Error type for the nn crate.

use ofscil_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error returned by fallible neural-network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// The input to a layer had an unexpected shape.
    BadInput {
        /// Layer that rejected the input.
        layer: String,
        /// Human-readable description of the expectation.
        expected: String,
        /// The offending shape.
        actual: Vec<usize>,
    },
    /// `backward` was called before `forward` (no cached activations).
    NoForwardCache(String),
    /// A configuration value was invalid.
    InvalidConfig(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::BadInput {
                layer,
                expected,
                actual,
            } => {
                write!(f, "layer {layer} expected {expected}, got shape {actual:?}")
            }
            NnError::NoForwardCache(layer) => {
                write!(f, "backward called on {layer} before forward")
            }
            NnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = NnError::from(TensorError::Empty("max"));
        assert!(e.to_string().contains("tensor error"));
        assert!(e.source().is_some());
        let e = NnError::NoForwardCache("conv1".into());
        assert!(e.to_string().contains("conv1"));
    }
}
