//! Error type of the routing layer.

use ofscil_serve::ServeError;
use ofscil_wire::WireError;
use std::error::Error;
use std::fmt;

/// Error returned by the router: placement, pool and shard-side failures.
#[derive(Debug)]
pub enum RouterError {
    /// The shard owning the request cannot be reached (connect refused after
    /// bounded retries, connection died mid-request, or the shard is inside
    /// its failure cooldown). This is the router-local form of the typed
    /// [`ServeError::ShardUnavailable`] a wire client receives.
    ShardUnavailable {
        /// Shard id on the ring.
        shard: usize,
        /// The shard's address, for operators.
        addr: String,
        /// What failed.
        detail: String,
    },
    /// No shard with the given id exists.
    UnknownShard(usize),
    /// The ring has no shards left to place deployments on.
    EmptyRing,
    /// The router configuration is inconsistent.
    InvalidConfig(String),
    /// A shard answered an admin operation (export, import, stats) with a
    /// serve-side refusal.
    Remote(ServeError),
    /// A wire-level failure outside the per-shard pool (e.g. binding the
    /// client-facing listener).
    Wire(WireError),
    /// Reading or appending the persistent placement journal failed. The
    /// in-memory placement stays consistent; only its durability is at risk
    /// until the journal recovers.
    PlacementLog(String),
}

impl RouterError {
    /// The typed serve error a wire client should receive for this failure —
    /// `ShardUnavailable` survives structurally, everything else folds into
    /// its display form.
    pub(crate) fn to_serve_error(&self) -> ServeError {
        match self {
            RouterError::ShardUnavailable {
                shard,
                addr,
                detail,
            } => ServeError::ShardUnavailable {
                shard: format!("{shard} ({addr})"),
                detail: detail.clone(),
            },
            RouterError::Remote(error) => ServeError::Execution(error.to_string()),
            other => ServeError::Execution(other.to_string()),
        }
    }
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::ShardUnavailable {
                shard,
                addr,
                detail,
            } => {
                write!(f, "shard {shard} ({addr}) is unavailable: {detail}")
            }
            RouterError::UnknownShard(shard) => write!(f, "no shard with id {shard}"),
            RouterError::EmptyRing => write!(f, "the hash ring has no shards"),
            RouterError::InvalidConfig(msg) => {
                write!(f, "invalid router configuration: {msg}")
            }
            RouterError::Remote(e) => write!(f, "shard-side error: {e}"),
            RouterError::Wire(e) => write!(f, "wire error: {e}"),
            RouterError::PlacementLog(msg) => {
                write!(f, "placement journal error: {msg}")
            }
        }
    }
}

impl Error for RouterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RouterError::Remote(e) => Some(e),
            RouterError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for RouterError {
    fn from(e: WireError) -> Self {
        RouterError::Wire(e)
    }
}

impl From<std::io::Error> for RouterError {
    fn from(e: std::io::Error) -> Self {
        RouterError::Wire(WireError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_sources_and_serve_mapping() {
        let e = RouterError::ShardUnavailable {
            shard: 2,
            addr: "tcp://127.0.0.1:9".into(),
            detail: "connection refused".into(),
        };
        assert!(e.to_string().contains("shard 2"));
        assert!(e.source().is_none());
        match e.to_serve_error() {
            ServeError::ShardUnavailable { shard, detail } => {
                assert!(shard.contains("tcp://127.0.0.1:9"));
                assert_eq!(detail, "connection refused");
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = RouterError::Remote(ServeError::UnknownDeployment("t".into()));
        assert!(e.source().is_some());
        assert!(matches!(e.to_serve_error(), ServeError::Execution(_)));
        let e: RouterError = std::io::Error::from(std::io::ErrorKind::TimedOut).into();
        assert!(matches!(e, RouterError::Wire(_)));
        assert!(RouterError::EmptyRing.to_string().contains("no shards"));
        assert!(RouterError::UnknownShard(7).to_string().contains('7'));
    }
}
