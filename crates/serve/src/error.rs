//! Error type for the serving runtime.

use crate::snapshot::SnapshotError;
use ofscil_core::CoreError;
use ofscil_gap9::Gap9Error;
use ofscil_tensor::bytes::{put_f64, put_str, put_u64, DecodeError, Reader};
use ofscil_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error returned by the serving runtime, registry and snapshot codec.
#[derive(Debug)]
pub enum ServeError {
    /// No deployment with the given name is registered.
    UnknownDeployment(String),
    /// A deployment with the given name is already registered.
    DuplicateDeployment(String),
    /// The deployment's energy budget cannot cover the request.
    BudgetExhausted {
        /// Deployment whose budget ran out.
        deployment: String,
        /// Energy the request would have cost in millijoules.
        required_mj: f64,
        /// Energy remaining in the budget in millijoules.
        remaining_mj: f64,
    },
    /// The request payload is malformed for the target deployment (e.g. an
    /// image whose shape does not match what the deployment was registered
    /// with). Rejected at admission so one bad request can never poison a
    /// coalesced batch.
    InvalidRequest(String),
    /// As many requests as the configured depth limit
    /// ([`ServeConfig::queue_depth`](crate::ServeConfig)) already wait for a
    /// worker; the request was shed at submission instead of buffering
    /// without bound.
    QueueFull {
        /// The configured queue depth limit.
        depth: usize,
    },
    /// The runtime serves a read-only replica: state-mutating requests
    /// (`LearnOnline`, `TopUpBudget`) are rejected. Replica state changes
    /// only by tailing its primary's snapshot stream.
    ReadOnlyReplica {
        /// Deployment the write was addressed to.
        deployment: String,
    },
    /// A replication subscriber fell behind the primary's bounded commit
    /// queue and was dropped. Typed so a follower can tell this recoverable
    /// condition (resubscribe for a fresh full-snapshot anchor) apart from a
    /// genuine execution failure.
    ReplicationLagged {
        /// Deployment whose subscription was dropped.
        deployment: String,
    },
    /// The backend shard that owns the deployment cannot be reached. Emitted
    /// by a routing layer (`ofscil_router`) sitting in front of several
    /// serving processes — it travels the wire typed so clients can
    /// distinguish "the shard is down" from a request-level failure.
    ShardUnavailable {
        /// Human-readable shard identity (index and address).
        shard: String,
        /// What failed when the shard was contacted.
        detail: String,
    },
    /// The runtime configuration is inconsistent.
    InvalidConfig(String),
    /// Executing a request against the model failed. Carries the formatted
    /// underlying error so a batched failure can be delivered to every
    /// affected requester.
    Execution(String),
    /// The runtime is shutting down (or already gone) and the request will
    /// not be served.
    ShuttingDown,
    /// Encoding or decoding an explicit-memory snapshot failed.
    Snapshot(SnapshotError),
    /// A model operation failed outside the request path (registration,
    /// direct registry access).
    Core(CoreError),
    /// Pricing a deployment on the GAP9 cost model failed.
    Gap9(Gap9Error),
    /// A tensor operation failed outside the request path.
    Tensor(TensorError),
}

// Byte tags of the variants that cross a wire structurally.
const TAG_UNKNOWN_DEPLOYMENT: u8 = 0;
const TAG_DUPLICATE_DEPLOYMENT: u8 = 1;
const TAG_BUDGET_EXHAUSTED: u8 = 2;
const TAG_INVALID_REQUEST: u8 = 3;
const TAG_INVALID_CONFIG: u8 = 4;
const TAG_EXECUTION: u8 = 5;
const TAG_SHUTTING_DOWN: u8 = 6;
const TAG_QUEUE_FULL: u8 = 7;
const TAG_READ_ONLY_REPLICA: u8 = 8;
const TAG_SHARD_UNAVAILABLE: u8 = 9;
const TAG_REPLICATION_LAGGED: u8 = 10;

impl ServeError {
    /// Appends the error: a tag byte, then the variant's fields. The variants
    /// a client acts on programmatically survive structurally; wrapped
    /// library errors (snapshot codec, model, device pricing, tensor) are
    /// folded into [`ServeError::Execution`] with their display string.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let tagged = |out: &mut Vec<u8>, tag: u8, text: &str| {
            out.push(tag);
            put_str(out, text);
        };
        match self {
            ServeError::UnknownDeployment(name) => tagged(out, TAG_UNKNOWN_DEPLOYMENT, name),
            ServeError::DuplicateDeployment(name) => tagged(out, TAG_DUPLICATE_DEPLOYMENT, name),
            ServeError::BudgetExhausted {
                deployment,
                required_mj,
                remaining_mj,
            } => {
                tagged(out, TAG_BUDGET_EXHAUSTED, deployment);
                put_f64(out, *required_mj);
                put_f64(out, *remaining_mj);
            }
            ServeError::InvalidRequest(msg) => tagged(out, TAG_INVALID_REQUEST, msg),
            ServeError::InvalidConfig(msg) => tagged(out, TAG_INVALID_CONFIG, msg),
            ServeError::Execution(msg) => tagged(out, TAG_EXECUTION, msg),
            ServeError::ShuttingDown => out.push(TAG_SHUTTING_DOWN),
            ServeError::QueueFull { depth } => {
                out.push(TAG_QUEUE_FULL);
                put_u64(out, *depth as u64);
            }
            ServeError::ReadOnlyReplica { deployment } => {
                tagged(out, TAG_READ_ONLY_REPLICA, deployment)
            }
            ServeError::ShardUnavailable { shard, detail } => {
                tagged(out, TAG_SHARD_UNAVAILABLE, shard);
                put_str(out, detail);
            }
            ServeError::ReplicationLagged { deployment } => {
                tagged(out, TAG_REPLICATION_LAGGED, deployment)
            }
            ServeError::Snapshot(_)
            | ServeError::Core(_)
            | ServeError::Gap9(_)
            | ServeError::Tensor(_) => tagged(out, TAG_EXECUTION, &self.to_string()),
        }
    }

    /// Inverse of [`ServeError::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BadTag`] for an unknown variant tag.
    pub fn decode(r: &mut Reader<'_>) -> std::result::Result<ServeError, DecodeError> {
        Ok(match r.u8()? {
            TAG_UNKNOWN_DEPLOYMENT => ServeError::UnknownDeployment(r.str()?),
            TAG_DUPLICATE_DEPLOYMENT => ServeError::DuplicateDeployment(r.str()?),
            TAG_BUDGET_EXHAUSTED => ServeError::BudgetExhausted {
                deployment: r.str()?,
                required_mj: r.f64()?,
                remaining_mj: r.f64()?,
            },
            TAG_INVALID_REQUEST => ServeError::InvalidRequest(r.str()?),
            TAG_INVALID_CONFIG => ServeError::InvalidConfig(r.str()?),
            TAG_EXECUTION => ServeError::Execution(r.str()?),
            TAG_SHUTTING_DOWN => ServeError::ShuttingDown,
            TAG_QUEUE_FULL => ServeError::QueueFull {
                depth: r.usize("depth")?,
            },
            TAG_READ_ONLY_REPLICA => ServeError::ReadOnlyReplica {
                deployment: r.str()?,
            },
            TAG_SHARD_UNAVAILABLE => ServeError::ShardUnavailable {
                shard: r.str()?,
                detail: r.str()?,
            },
            TAG_REPLICATION_LAGGED => ServeError::ReplicationLagged {
                deployment: r.str()?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    field: "serve error",
                    tag,
                })
            }
        })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownDeployment(name) => {
                write!(f, "no deployment named {name:?} is registered")
            }
            ServeError::DuplicateDeployment(name) => {
                write!(f, "a deployment named {name:?} is already registered")
            }
            ServeError::BudgetExhausted {
                deployment,
                required_mj,
                remaining_mj,
            } => write!(
                f,
                "deployment {deployment:?} energy budget exhausted: request needs \
                 {required_mj:.3} mJ but only {remaining_mj:.3} mJ remain"
            ),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::QueueFull { depth } => {
                write!(
                    f,
                    "dispatcher queue is full ({depth} requests queued); load shed"
                )
            }
            ServeError::ReadOnlyReplica { deployment } => write!(
                f,
                "deployment {deployment:?} is served by a read-only replica; \
                 writes must go to the primary"
            ),
            ServeError::ReplicationLagged { deployment } => write!(
                f,
                "replication subscriber for {deployment:?} lagged behind the primary's \
                 bounded commit queue and was dropped; resubscribe for a fresh snapshot \
                 anchor"
            ),
            ServeError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} is unavailable: {detail}")
            }
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::Execution(msg) => write!(f, "request execution failed: {msg}"),
            ServeError::ShuttingDown => write!(f, "the serving runtime is shutting down"),
            ServeError::Snapshot(e) => write!(f, "snapshot codec error: {e}"),
            ServeError::Core(e) => write!(f, "model error: {e}"),
            ServeError::Gap9(e) => write!(f, "deployment pricing error: {e}"),
            ServeError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Snapshot(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Gap9(e) => Some(e),
            ServeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<Gap9Error> for ServeError {
    fn from(e: Gap9Error) -> Self {
        ServeError::Gap9(e)
    }
}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = ServeError::UnknownDeployment("tenant-a".into());
        assert!(e.to_string().contains("tenant-a"));
        assert!(e.source().is_none());
        let e = ServeError::BudgetExhausted {
            deployment: "t".into(),
            required_mj: 12.0,
            remaining_mj: 1.5,
        };
        assert!(e.to_string().contains("12.000"));
        let e: ServeError = CoreError::UnknownClass(3).into();
        assert!(e.source().is_some());
        let e: ServeError = Gap9Error::InvalidCoreCount {
            requested: 16,
            available: 8,
        }
        .into();
        assert!(e.to_string().contains("16"));
        let e = ServeError::ShardUnavailable {
            shard: "2 (tcp://127.0.0.1:4102)".into(),
            detail: "connection refused".into(),
        };
        assert!(e.to_string().contains("unavailable"));
        assert!(e.source().is_none());
        let e = ServeError::ReplicationLagged {
            deployment: "t".into(),
        };
        assert!(e.to_string().contains("resubscribe"));
    }
}
