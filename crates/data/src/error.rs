//! Error type for the data crate.

use ofscil_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error returned by dataset construction and sampling operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// The requested configuration is inconsistent (e.g. more base classes
    /// than total classes).
    InvalidConfig(String),
    /// A sample index or class id was out of range.
    OutOfRange {
        /// Description of the offending value.
        what: String,
        /// The offending value.
        value: usize,
        /// The exclusive upper bound.
        bound: usize,
    },
    /// The operation requires a non-empty dataset or batch.
    Empty(&'static str),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Tensor(e) => write!(f, "tensor error: {e}"),
            DataError::InvalidConfig(msg) => write!(f, "invalid dataset configuration: {msg}"),
            DataError::OutOfRange { what, value, bound } => {
                write!(f, "{what} {value} out of range (bound {bound})")
            }
            DataError::Empty(op) => write!(f, "{op} requires a non-empty dataset"),
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for DataError {
    fn from(e: TensorError) -> Self {
        DataError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DataError::from(TensorError::Empty("max"));
        assert!(e.source().is_some());
        let e = DataError::OutOfRange {
            what: "class".into(),
            value: 7,
            bound: 5,
        };
        assert!(e.to_string().contains('7'));
    }
}
