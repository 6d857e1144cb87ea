//! Error type for the gap9 crate.

use std::error::Error;
use std::fmt;

/// Error returned by the GAP9 deployment and cost models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gap9Error {
    /// The requested core count is not available on the modelled cluster.
    InvalidCoreCount {
        /// The requested number of cores.
        requested: usize,
        /// The number of cluster cores available.
        available: usize,
    },
    /// A workload or configuration value was invalid.
    InvalidConfig(String),
}

impl fmt::Display for Gap9Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gap9Error::InvalidCoreCount {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} cores but the cluster has {available}"
                )
            }
            Gap9Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for Gap9Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_counts() {
        let e = Gap9Error::InvalidCoreCount {
            requested: 16,
            available: 8,
        };
        assert!(e.to_string().contains("16"));
        assert!(e.to_string().contains('8'));
    }
}
