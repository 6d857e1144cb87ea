//! The typed request/response API of the serving runtime.

use crate::registry::DeploymentStats;
use crate::{Result, ServeError};
use ofscil_data::Batch;
use ofscil_tensor::Tensor;
use std::sync::mpsc;

/// A request submitted to a [`ServeRuntime`](crate::ServeRuntime).
///
/// Every request names its target deployment; the dispatcher resolves the
/// name, prices the work on the deployment's energy budget and routes it to
/// the worker pool.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Classify one image. `Infer` requests waiting next to each other in a
    /// deployment's queue run as a single batched forward pass.
    Infer {
        /// Target deployment.
        deployment: String,
        /// Image of shape `[channels, height, width]` matching the
        /// deployment's registered input shape.
        image: Tensor,
    },
    /// Learn the classes present in a support batch online (single pass, the
    /// paper's EM update).
    LearnOnline {
        /// Target deployment.
        deployment: String,
        /// Support samples; every class in the batch gets its prototype
        /// (re)computed.
        batch: Batch,
    },
    /// Serialize the deployment's explicit memory with the snapshot codec.
    Snapshot {
        /// Target deployment.
        deployment: String,
    },
    /// Read the deployment's statistics.
    Stats {
        /// Target deployment.
        deployment: String,
    },
    /// Raise the deployment's energy budget and release deferred requests.
    TopUpBudget {
        /// Target deployment.
        deployment: String,
        /// Budget increment in millijoules.
        energy_mj: f64,
    },
}

impl ServeRequest {
    /// The deployment the request targets.
    pub fn deployment(&self) -> &str {
        match self {
            ServeRequest::Infer { deployment, .. }
            | ServeRequest::LearnOnline { deployment, .. }
            | ServeRequest::Snapshot { deployment }
            | ServeRequest::Stats { deployment }
            | ServeRequest::TopUpBudget { deployment, .. } => deployment,
        }
    }

    /// Returns `true` when the request mutates deployment state (learning or
    /// budget changes) — the requests a read-only replica rejects.
    pub(crate) fn is_write(&self) -> bool {
        matches!(
            self,
            ServeRequest::LearnOnline { .. } | ServeRequest::TopUpBudget { .. }
        )
    }
}

/// A successful response to a [`ServeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// Answer to `Infer`.
    Prediction {
        /// Most similar stored class.
        class: usize,
        /// Cosine similarity to that class's prototype.
        similarity: f32,
        /// Size of the batched forward pass this request rode in (1 when it
        /// ran alone).
        batched_with: usize,
    },
    /// Answer to `LearnOnline`.
    Learned {
        /// Classes whose prototypes were written, ascending.
        classes: Vec<usize>,
        /// Total classes now stored in the explicit memory.
        total_classes: usize,
    },
    /// Answer to `Snapshot`.
    Snapshot {
        /// The encoded explicit memory.
        bytes: Vec<u8>,
    },
    /// Answer to `Stats`.
    Stats(DeploymentStats),
    /// Answer to `TopUpBudget`.
    Budget {
        /// Energy admitted so far in millijoules.
        spent_mj: f64,
        /// Remaining budget in millijoules; `None` when unlimited.
        remaining_mj: Option<f64>,
    },
}

/// The reply channel of one in-flight request.
pub(crate) type Reply = mpsc::Sender<Result<ServeResponse>>;

/// A request plus its reply channel, as it travels to the dispatcher,
/// which turns it into a job in its deployment's FIFO.
pub(crate) struct Envelope {
    pub request: ServeRequest,
    pub reply: Reply,
}

impl Envelope {
    /// Fails the request; a receiver that gave up is not an error.
    pub(crate) fn reject(self, error: ServeError) {
        let _ = self.reply.send(Err(error));
    }
}

/// The response side of a submitted request.
///
/// Dropping a `PendingResponse` abandons the request: it still executes (and
/// still spends budget) but the reply is discarded.
#[derive(Debug)]
pub struct PendingResponse {
    pub(crate) rx: mpsc::Receiver<Result<ServeResponse>>,
}

impl PendingResponse {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns the request's error, or [`ServeError::ShuttingDown`] when the
    /// runtime terminated without serving it.
    pub fn wait(self) -> Result<ServeResponse> {
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_accessor_covers_all_variants() {
        let requests = [
            ServeRequest::Infer {
                deployment: "d".into(),
                image: Tensor::zeros(&[1, 2, 2]),
            },
            ServeRequest::Snapshot {
                deployment: "d".into(),
            },
            ServeRequest::Stats {
                deployment: "d".into(),
            },
            ServeRequest::TopUpBudget {
                deployment: "d".into(),
                energy_mj: 1.0,
            },
        ];
        for request in &requests {
            assert_eq!(request.deployment(), "d");
        }
    }

    #[test]
    fn write_classification_matches_replica_semantics() {
        assert!(ServeRequest::LearnOnline {
            deployment: "d".into(),
            batch: ofscil_data::Batch {
                images: Tensor::zeros(&[1, 3, 2, 2]),
                labels: vec![0]
            },
        }
        .is_write());
        assert!(ServeRequest::TopUpBudget {
            deployment: "d".into(),
            energy_mj: 1.0
        }
        .is_write());
        assert!(!ServeRequest::Infer {
            deployment: "d".into(),
            image: Tensor::zeros(&[3, 2, 2])
        }
        .is_write());
        assert!(!ServeRequest::Snapshot {
            deployment: "d".into()
        }
        .is_write());
        assert!(!ServeRequest::Stats {
            deployment: "d".into()
        }
        .is_write());
    }

    #[test]
    fn dropped_runtime_yields_shutting_down() {
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let pending = PendingResponse { rx };
        assert!(matches!(pending.wait(), Err(ServeError::ShuttingDown)));
    }
}
