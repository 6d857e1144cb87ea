//! The per-deployment FIFO work queue — serve's only queueing structure.
//!
//! The dispatcher appends every admitted request to its deployment's
//! [`WorkQueue`] as one [`DeploymentJob`], in admission order. The global
//! queue carries *deployment tokens*: a worker that picks a token drains
//! that deployment's jobs from the head, and a deployment is never scheduled
//! on two workers at once. Different deployments still run fully in
//! parallel.
//!
//! Batches form where they run. A worker that finds an `Infer` at the head
//! takes the consecutive `Infer`s queued behind it, up to `max_batch`, and
//! runs them as one deployment-lock acquisition and one batched backbone +
//! FCR forward (the perf ledger's `serve.batch_gain` measures what that
//! buys). Batch size therefore follows load by itself: an idle deployment
//! serves batches of one, a backlog is served `max_batch` at a time.
//!
//! Ordering holds by construction: a `LearnOnline`, `Snapshot` or `Stats`
//! job ends a run of `Infer`s simply by sitting in the FIFO, so it observes
//! every inference admitted before it and none admitted after.

use crate::request::Reply;
use ofscil_data::Batch;
use ofscil_tensor::Tensor;
use std::collections::VecDeque;

/// One admitted `Infer` request.
pub(crate) struct InferItem {
    pub image: Tensor,
    pub reply: Reply,
}

/// One admitted request in a deployment's FIFO queue.
pub(crate) enum DeploymentJob {
    /// A single inference; a worker batches it with its neighbours.
    Infer(InferItem),
    /// A single-pass online learning request.
    Learn { batch: Batch, reply: Reply },
    /// An explicit-memory snapshot request.
    Snapshot { reply: Reply },
    /// A statistics read.
    Stats { reply: Reply },
}

/// The per-deployment job queue plus its scheduling flag. `scheduled` is
/// true while a token for this deployment sits in the global queue or a
/// worker is draining it — both states mean "do not schedule again", which
/// is what serializes a deployment onto at most one worker.
#[derive(Default)]
pub(crate) struct WorkQueue {
    pub(crate) jobs: VecDeque<DeploymentJob>,
    pub(crate) scheduled: bool,
}

impl WorkQueue {
    /// Pops the head job only when it is an `Infer`.
    pub(crate) fn pop_infer(&mut self) -> Option<InferItem> {
        match self.jobs.pop_front()? {
            DeploymentJob::Infer(item) => Some(item),
            other => {
                self.jobs.push_front(other);
                None
            }
        }
    }
}
