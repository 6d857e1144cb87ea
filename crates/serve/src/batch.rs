//! Request coalescing and per-deployment work queues.
//!
//! The dispatcher drains every envelope queued at the moment it wakes up and
//! feeds admitted `Infer` requests through a [`Coalescer`]. Requests for the
//! same deployment accumulate until either the configured `max_batch` is
//! reached, an ordering barrier for that deployment arrives (a `LearnOnline`
//! or `Snapshot` must observe every inference admitted before it), or the
//! drain cycle ends. One coalesced job costs one deployment-lock acquisition
//! and one batched backbone + FCR forward instead of `n` (the perf ledger's
//! `serve.batch_gain` measures what that buys).
//!
//! Ordering is enforced by construction, not by luck of the worker race:
//! jobs land in a per-deployment FIFO [`WorkQueue`], and the global queue
//! carries *deployment tokens* — a worker that picks a token drains that
//! deployment's jobs in admission order, and a deployment is never scheduled
//! on two workers at once. Different deployments still run fully in
//! parallel.

use crate::registry::Deployment;
use crate::request::Reply;
use ofscil_data::Batch;
use ofscil_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One admitted `Infer` request waiting to be batched.
pub(crate) struct InferItem {
    pub image: Tensor,
    pub reply: Reply,
}

/// A unit of work in a deployment's FIFO queue.
pub(crate) enum DeploymentJob {
    /// A coalesced batch of inference requests.
    InferBatch(Vec<InferItem>),
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
    pub jobs: VecDeque<DeploymentJob>,
    pub scheduled: bool,
}

/// Groups admitted inference requests per deployment up to a batch cap.
pub(crate) struct Coalescer {
    max_batch: usize,
    pending: HashMap<String, (Arc<Deployment>, Vec<InferItem>)>,
}

impl Coalescer {
    pub fn new(max_batch: usize) -> Self {
        Coalescer { max_batch: max_batch.max(1), pending: HashMap::new() }
    }

    /// Queues an admitted inference; returns a full batch once the
    /// deployment's pending batch reaches `max_batch`.
    pub fn push(
        &mut self,
        deployment: Arc<Deployment>,
        item: InferItem,
    ) -> Option<(Arc<Deployment>, DeploymentJob)> {
        let name = deployment.name.clone();
        let entry = self
            .pending
            .entry(name.clone())
            .or_insert_with(|| (deployment, Vec::new()));
        entry.1.push(item);
        if entry.1.len() >= self.max_batch {
            self.pending
                .remove(&name)
                .map(|(deployment, items)| (deployment, DeploymentJob::InferBatch(items)))
        } else {
            None
        }
    }

    /// Flushes the pending batch of one deployment — the ordering barrier in
    /// front of that deployment's learn / snapshot jobs.
    pub fn flush_deployment(
        &mut self,
        name: &str,
    ) -> Option<(Arc<Deployment>, DeploymentJob)> {
        self.pending
            .remove(name)
            .map(|(deployment, items)| (deployment, DeploymentJob::InferBatch(items)))
    }

    /// Flushes every pending batch at the end of a dispatch cycle.
    pub fn flush_all(&mut self) -> Vec<(Arc<Deployment>, DeploymentJob)> {
        self.pending
            .drain()
            .map(|(_, (deployment, items))| (deployment, DeploymentJob::InferBatch(items)))
            .collect()
    }
}
