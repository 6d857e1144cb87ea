//! Error type of the durable store.

use ofscil_serve::ServeError;
use std::error::Error;
use std::fmt;
use std::io;

/// Error returned by the WAL + checkpoint store.
///
/// A **torn or corrupt WAL tail is deliberately not an error**: recovery
/// truncates the log at the first damaged record and replays the intact
/// prefix (the torn record's commit was never acknowledged as durable). The
/// variants here cover failures that cannot be repaired that way — I/O
/// errors, a damaged checkpoint, or state that contradicts itself.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io(io::Error),
    /// A checkpoint file is damaged beyond the torn-tail repair the WAL
    /// enjoys: without its full-snapshot base the log cannot be replayed.
    CorruptCheckpoint {
        /// Deployment whose checkpoint is damaged.
        deployment: String,
        /// What exactly failed to parse.
        detail: String,
    },
    /// A log file's fixed header (magic/version) is not a store log.
    BadLogHeader {
        /// Path of the offending file.
        path: String,
        /// What exactly is wrong with the header.
        detail: String,
    },
    /// The deployment has no persisted state and was never attached.
    NotAttached(String),
    /// A previous WAL append for this deployment failed, so the log is
    /// missing an acknowledged-in-memory commit. Further journaling is
    /// refused — appending deltas on a missing base would replay to a
    /// plausible-but-wrong state — until the process restarts (recovery
    /// then restores the last durable prefix; the gap's commits were
    /// reported as failed to their clients).
    Gapped(String),
    /// Encoding or decoding an explicit-memory snapshot failed (the store
    /// reuses the `ofscil_serve` snapshot codec for checkpoints and replay).
    Codec(ServeError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::CorruptCheckpoint { deployment, detail } => {
                write!(
                    f,
                    "checkpoint for deployment {deployment:?} is corrupt: {detail}"
                )
            }
            StoreError::BadLogHeader { path, detail } => {
                write!(f, "log file {path} has a bad header: {detail}")
            }
            StoreError::NotAttached(name) => write!(
                f,
                "deployment {name:?} is not attached to the store; call Store::attach \
                 (or bootstrap) before journaling"
            ),
            StoreError::Gapped(name) => write!(
                f,
                "deployment {name:?}'s journal is gapped by an earlier failed append; \
                 journaling is refused until the process restarts and recovers the \
                 durable prefix"
            ),
            StoreError::Codec(e) => write!(f, "snapshot codec error during replay: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ServeError> for StoreError {
    fn from(e: ServeError) -> Self {
        StoreError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e: StoreError = io::Error::from(io::ErrorKind::NotFound).into();
        assert!(e.source().is_some());
        let e = StoreError::NotAttached("t".into());
        assert!(e.to_string().contains("attach"));
        assert!(e.source().is_none());
        let e = StoreError::Gapped("t".into());
        assert!(e.to_string().contains("gapped"));
        assert!(e.source().is_none());
        let e = StoreError::CorruptCheckpoint {
            deployment: "t".into(),
            detail: "magic".into(),
        };
        assert!(e.to_string().contains("corrupt"));
        let e: StoreError = ServeError::InvalidRequest("dim".into()).into();
        assert!(matches!(e, StoreError::Codec(_)));
        assert!(e.source().is_some());
        let e = StoreError::BadLogHeader {
            path: "x.wal".into(),
            detail: "short".into(),
        };
        assert!(e.to_string().contains("x.wal"));
    }
}
