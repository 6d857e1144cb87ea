//! The serving runtime: dispatcher, admission control and the worker pool.
//!
//! Architecture (all `std`, no async runtime):
//!
//! ```text
//!  clients ──mpsc──▶ dispatcher ──deployment tokens──▶ workers (scoped pool)
//!                     │  resolve deployment (sharded registry lookup)
//!                     │  validate payload shape
//!                     │  price on the GAP9 energy model + admit/defer/reject
//!                     │  append one job per request to the deployment's
//!                     │  FIFO work queue
//!                     ▼
//!                  deferred queues (released by TopUpBudget)
//! ```
//!
//! The global queue carries *deployment tokens*, not jobs: a worker that
//! claims a token drains that deployment's work queue in admission order,
//! and the `scheduled` flag keeps a deployment off two workers at once — so
//! per-deployment request order is a guarantee, while distinct deployments
//! run fully in parallel. A worker that finds an `Infer` at the head of the
//! queue runs it together with the `Infer`s waiting directly behind it (up
//! to `max_batch`) as one batched forward (`batch.rs`).
//!
//! Every submitted request receives exactly one reply: a successful response,
//! an admission error, an execution error, or — for requests still parked in
//! a deferred queue at shutdown — a final [`ServeError::BudgetExhausted`].

use crate::batch::{DeploymentJob, InferItem};
use crate::journal::CommitJournal;
use crate::registry::{BudgetPolicy, Deployment, LearnerRegistry};
use crate::request::{Envelope, PendingResponse, Reply, ServeRequest, ServeResponse};
use crate::snapshot::encode_explicit_memory;
use crate::{Result, ServeConfig, ServeError};
use ofscil_nn::Mode;
use ofscil_obs::{Event, EventKind, EventSink};
use ofscil_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// One committed `LearnOnline`, as delivered to a replication sink (see
/// [`ServeHooks::commits`]).
///
/// The sequence number is assigned under the deployment's model lock, so for
/// one deployment commits are numbered in exactly the order their memory
/// mutations happened: a follower that applies deltas in sequence order
/// reconstructs the primary's explicit memory bit-exactly. `updates` carries
/// the post-commit prototypes of the classes the batch touched, read back
/// from the explicit memory after quantization — the bit patterns a replica
/// must store verbatim (via `restore_prototype`).
#[derive(Debug, Clone)]
pub struct LearnCommit {
    /// Deployment the learn ran on.
    pub deployment: String,
    /// 1-based commit sequence number; a full snapshot taken at sequence `s`
    /// already contains every commit numbered `<= s`.
    pub seq: u64,
    /// `(class, stored prototype)` pairs, ascending by class.
    pub updates: Vec<(usize, Vec<f32>)>,
    /// Total classes stored after the commit.
    pub total_classes: usize,
}

/// Counts the requests waiting inside the runtime against the configured
/// depth limit (`usize::MAX` when unbounded): a request counts from `submit`
/// until a worker takes it off its deployment's FIFO, or until the
/// dispatcher settles it itself — answers it (top-up, validation error,
/// budget reject) or parks it under `BudgetPolicy::Defer`.
#[derive(Debug)]
struct DepthGauge {
    queued: AtomicUsize,
    limit: usize,
}

/// A handle for submitting requests to a running [`ServeRuntime`].
///
/// Cloneable and sendable: hand one clone to each client thread. The runtime
/// shuts down once every clone has been dropped (the body of
/// [`ServeRuntime::run`] returning drops the original).
#[derive(Debug, Clone)]
pub struct ServeClient {
    tx: mpsc::Sender<Envelope>,
    gauge: Arc<DepthGauge>,
}

impl ServeClient {
    /// Submits a request without waiting; pair with
    /// [`PendingResponse::wait`].
    ///
    /// When the runtime was configured with a bounded queue
    /// ([`ServeConfig::queue_depth`]) and that many requests are already
    /// waiting for a worker, the request is shed immediately: the returned
    /// handle yields [`ServeError::QueueFull`] without the request ever
    /// entering the queue.
    pub fn submit(&self, request: ServeRequest) -> PendingResponse {
        let (reply, rx) = mpsc::channel();
        if self.gauge.queued.fetch_add(1, Ordering::AcqRel) >= self.gauge.limit {
            self.gauge.queued.fetch_sub(1, Ordering::AcqRel);
            let _ = reply.send(Err(ServeError::QueueFull {
                depth: self.gauge.limit,
            }));
            return PendingResponse { rx };
        }
        // A failed send means the dispatcher is gone; the reply sender is
        // dropped with the envelope and `wait` reports `ShuttingDown`.
        let _ = self.tx.send(Envelope { request, reply });
        PendingResponse { rx }
    }

    /// Submits a request and blocks for the response.
    ///
    /// # Errors
    ///
    /// Returns the request's admission or execution error, or
    /// [`ServeError::ShuttingDown`] when the runtime terminated first.
    pub fn call(&self, request: ServeRequest) -> Result<ServeResponse> {
        self.submit(request).wait()
    }
}

/// The embedded serving runtime.
///
/// [`ServeRuntime::run`] spawns the dispatcher and worker pool inside a
/// [`std::thread::scope`], hands the body a [`ServeClient`], and tears the
/// pool down when the body returns — no detached threads, no shared global
/// state, deterministic shutdown.
///
/// # Example
///
/// ```no_run
/// use ofscil_serve::{
///     DeploymentSpec, LearnerRegistry, ServeConfig, ServeRequest, ServeRuntime,
/// };
/// use ofscil_core::OFscilModel;
/// use ofscil_nn::models::BackboneKind;
/// use ofscil_tensor::{SeedRng, Tensor};
///
/// let mut rng = SeedRng::new(0);
/// let registry = LearnerRegistry::new();
/// registry
///     .register(
///         DeploymentSpec::new("tenant-a", (8, 8)),
///         OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
///     )
///     .unwrap();
/// let _stats = ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
///     client.call(ServeRequest::Stats { deployment: "tenant-a".into() })
/// })
/// .unwrap();
/// ```
#[derive(Debug)]
pub struct ServeRuntime;

/// The optional outputs of a serving session: where committed learns are
/// streamed, where durable state changes are journaled, and where
/// observability events are emitted. `ServeHooks::default()` attaches none.
#[derive(Clone, Copy, Default)]
pub struct ServeHooks<'a> {
    /// Every committed `LearnOnline` is handed here as a sequence-numbered
    /// [`LearnCommit`] — the hook a replication frontend uses to stream
    /// snapshot deltas to followers. Called on the worker that ran the
    /// learn, after the model lock is released and before the reply is
    /// sent. A deployment runs on one worker at a time, so one deployment's
    /// commits arrive in sequence order. The call must not block: it
    /// holds up that deployment's queue.
    pub commits: Option<&'a (dyn Fn(LearnCommit) + Sync)>,
    /// Every committed `LearnOnline` and budget top-up is written here
    /// before its reply is sent — commits **under the deployment's model
    /// lock**, so the journal's record order provably matches the order of
    /// memory mutations. `ofscil_store` implements [`CommitJournal`] with a
    /// per-deployment WAL + checkpoint store that recovers every deployment
    /// bit-exactly after a crash. A failed journal write fails the request
    /// it was part of (the client must not believe an unjournaled commit is
    /// durable) but leaves the runtime serving.
    pub journal: Option<&'a dyn CommitJournal>,
    /// One observability [`Event`] per unit of work is emitted here: an
    /// `Infer` per served item (amortized batch energy, batch latency,
    /// prediction similarity as the accuracy proxy), a `Learn` per commit
    /// (with its replication sequence number), a `Reject` per admission
    /// refusal, and a `TopUp` per accepted budget top-up. The sink is
    /// **never waited on**: emission is a `try_send` into a bounded channel,
    /// and a full channel drops the event and counts it
    /// ([`EventSink::dropped`]) instead of stalling the hot path.
    pub obs: Option<&'a EventSink>,
}

impl ServeRuntime {
    /// Runs a serving session: workers and dispatcher live for exactly the
    /// duration of `body`, which receives the client handle. Returns the
    /// body's value once every in-flight request has been settled.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the configuration is
    /// invalid; the body itself is infallible from the runtime's view.
    pub fn run<T, F>(registry: &LearnerRegistry, config: &ServeConfig, body: F) -> Result<T>
    where
        F: FnOnce(&ServeClient) -> T,
    {
        ServeRuntime::run_with(registry, config, ServeHooks::default(), body)
    }

    /// Like [`ServeRuntime::run`], with replication, durability and
    /// observability attached through `hooks` (see [`ServeHooks`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the configuration is
    /// invalid; the body itself is infallible from the runtime's view.
    pub fn run_with<T, F>(
        registry: &LearnerRegistry,
        config: &ServeConfig,
        hooks: ServeHooks<'_>,
        body: F,
    ) -> Result<T>
    where
        F: FnOnce(&ServeClient) -> T,
    {
        config.validate()?;
        let (tx, rx) = mpsc::channel::<Envelope>();
        let queue = JobQueue::new();
        let gauge = Arc::new(DepthGauge {
            queued: AtomicUsize::new(0),
            limit: config.queue_depth.unwrap_or(usize::MAX),
        });

        let value = std::thread::scope(|scope| {
            let (queue, depth) = (&queue, &*gauge);
            for _ in 0..config.workers {
                scope.spawn(move || worker_loop(queue, depth, config.max_batch, hooks));
            }
            scope.spawn(move || dispatch_loop(rx, registry, config, queue, depth, hooks));

            let client = ServeClient {
                tx,
                gauge: Arc::clone(&gauge),
            };
            body(&client)
            // `client` (the last envelope sender) drops here; the dispatcher
            // drains the channel, fails whatever is still deferred and
            // closes the job queue, which releases the workers once the
            // FIFOs are empty. The scope then joins everything.
        });
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

fn dispatch_loop(
    rx: mpsc::Receiver<Envelope>,
    registry: &LearnerRegistry,
    config: &ServeConfig,
    queue: &JobQueue,
    gauge: &DepthGauge,
    hooks: ServeHooks<'_>,
) {
    let mut deferred: HashMap<String, VecDeque<Envelope>> = HashMap::new();

    while let Ok(envelope) = rx.recv() {
        // A request the dispatcher settled itself stops counting against the
        // depth limit here; one that went into a deployment's FIFO keeps
        // counting until a worker takes it.
        if !route(
            envelope,
            registry,
            config,
            queue,
            gauge,
            &mut deferred,
            hooks,
        ) {
            gauge.queued.fetch_sub(1, Ordering::AcqRel);
        }
    }

    // Shutdown: nothing can top budgets up any more, so deferred requests
    // are settled with the admission error they would otherwise wait on
    // forever — every submitted request gets exactly one reply.
    for (name, parked) in deferred {
        if let Ok(deployment) = registry.resolve(&name) {
            for envelope in parked {
                let required_mj = price(&deployment, &envelope.request);
                let (_, remaining) = deployment.meter.state();
                // A deferral that never released is ultimately a rejection;
                // the counters must say so.
                count_rejection(&deployment, &envelope.request, hooks.obs);
                envelope.reject(ServeError::BudgetExhausted {
                    deployment: name.clone(),
                    required_mj,
                    remaining_mj: remaining.unwrap_or(0.0),
                });
            }
        }
    }
    queue.close();
}

/// Energy price of a request on a deployment's *current* price list, in
/// millijoules (the list is re-derived when a deployment converts to int8).
fn price(deployment: &Deployment, request: &ServeRequest) -> f64 {
    match request {
        ServeRequest::Infer { .. } => deployment.infer_mj(),
        ServeRequest::LearnOnline { batch, .. } => deployment.infer_mj() * batch.len() as f64,
        _ => 0.0,
    }
}

/// Shape-validates a request payload against the deployment's registered
/// input geometry, so one malformed request can never poison a coalesced
/// batch or reach a worker.
fn validate(deployment: &Deployment, request: &ServeRequest) -> Result<()> {
    match request {
        ServeRequest::Infer { image, .. } if image.dims() != deployment.image_dims.as_slice() => {
            return Err(ServeError::InvalidRequest(format!(
                "image shape {:?} does not match deployment input shape {:?}",
                image.dims(),
                deployment.image_dims
            )));
        }
        ServeRequest::LearnOnline { batch, .. } => {
            if batch.is_empty() {
                return Err(ServeError::InvalidRequest(
                    "cannot learn from an empty batch".into(),
                ));
            }
            let dims = batch.images.dims();
            let expected: Vec<usize> = std::iter::once(batch.len())
                .chain(deployment.image_dims.iter().copied())
                .collect();
            if dims != expected.as_slice() {
                return Err(ServeError::InvalidRequest(format!(
                    "support batch shape {dims:?} does not match {expected:?} \
                     ({} labels, registered input shape {:?})",
                    batch.len(),
                    deployment.image_dims
                )));
            }
        }
        // A NaN increment would make the budget NaN and every admission
        // comparison false — admission control silently disabled.
        ServeRequest::TopUpBudget { energy_mj, .. }
            if !energy_mj.is_finite() || *energy_mj < 0.0 =>
        {
            return Err(ServeError::InvalidRequest(format!(
                "budget top-up must be a finite non-negative amount, got {energy_mj}"
            )));
        }
        _ => {}
    }
    Ok(())
}

/// The deployment a request may run on, or the error that settles it before
/// admission.
fn target(
    registry: &LearnerRegistry,
    config: &ServeConfig,
    request: &ServeRequest,
) -> Result<Arc<Deployment>> {
    // A read-only replica rejects writes before even resolving the
    // deployment: its state changes only by tailing the primary's snapshot
    // stream, never through its own request path.
    if config.read_only && request.is_write() {
        return Err(ServeError::ReadOnlyReplica {
            deployment: request.deployment().to_string(),
        });
    }
    let deployment = registry.resolve(request.deployment())?;
    validate(&deployment, request)?;
    Ok(deployment)
}

/// Routes one request. Returns `true` when it was appended to its
/// deployment's FIFO (a worker will answer it), `false` when the dispatcher
/// settled it: answered it or parked it in `deferred`.
fn route(
    envelope: Envelope,
    registry: &LearnerRegistry,
    config: &ServeConfig,
    queue: &JobQueue,
    gauge: &DepthGauge,
    deferred: &mut HashMap<String, VecDeque<Envelope>>,
    hooks: ServeHooks<'_>,
) -> bool {
    let deployment = match target(registry, config, &envelope.request) {
        Ok(deployment) => deployment,
        Err(error) => {
            envelope.reject(error);
            return false;
        }
    };
    // Budget top-ups are answered by the dispatcher itself, then unblock as
    // much deferred work as the new budget covers, oldest first.
    if let ServeRequest::TopUpBudget { energy_mj, .. } = envelope.request {
        let journaled = match hooks.journal {
            Some(journal) => {
                // Learns journal their meter state under the model lock;
                // holding it here too makes the two meter-read + append
                // pairs mutually exclusive, so WAL meter states land in
                // true order (a stale read can otherwise be appended after
                // a newer one and win the replay). Top-ups are rare
                // control-plane operations, so briefly parking the
                // dispatcher behind a learn in flight is acceptable.
                let tenant = deployment.tenant.lock().expect("model lock poisoned");
                deployment.meter.top_up(energy_mj);
                let (spent_mj, budget_mj) = deployment.meter.spent_and_budget();
                journal.journal_top_up(&deployment.name, tenant.seq, spent_mj, budget_mj)
            }
            None => {
                deployment.meter.top_up(energy_mj);
                Ok(())
            }
        };
        match journaled {
            Ok(()) => {
                let (spent_mj, remaining_mj) = deployment.meter.state();
                let _ = envelope.reply.send(Ok(ServeResponse::Budget {
                    spent_mj,
                    remaining_mj,
                }));
                if let Some(obs) = hooks.obs {
                    obs.emit(
                        Event::new(EventKind::TopUp, &deployment.name).with_energy_mj(energy_mj),
                    );
                }
            }
            // The budget did move; the caller just must not believe the
            // change is durable.
            Err(e) => envelope.reject(ServeError::Execution(format!(
                "budget raised but journaling failed: {e}"
            ))),
        }
        release_deferred(&deployment, queue, gauge, deferred);
        return false;
    }

    match admit(&deployment, &envelope.request) {
        Admission::Granted => {
            enqueue(&deployment, envelope, queue);
            true
        }
        Admission::Refused {
            required_mj,
            remaining_mj,
        } => {
            match deployment.policy {
                BudgetPolicy::Reject => {
                    count_rejection(&deployment, &envelope.request, hooks.obs);
                    envelope.reject(ServeError::BudgetExhausted {
                        deployment: deployment.name.clone(),
                        required_mj,
                        remaining_mj,
                    });
                }
                BudgetPolicy::Defer => {
                    deployment
                        .stats
                        .lock()
                        .expect("stats lock poisoned")
                        .deferred += 1;
                    deferred
                        .entry(deployment.name.clone())
                        .or_default()
                        .push_back(envelope);
                }
            }
            false
        }
    }
}

enum Admission {
    Granted,
    Refused { required_mj: f64, remaining_mj: f64 },
}

/// Records an admission refusal in the per-type rejection counters. Only
/// priced request types (`Infer`, `LearnOnline`) can be refused; the split
/// keeps the throughput counters (`infer_requests` / `learn_requests`)
/// measuring **accepted** work only. With observability enabled, each
/// refusal is also a `Reject` event priced at what admission demanded.
fn count_rejection(deployment: &Deployment, request: &ServeRequest, obs: Option<&EventSink>) {
    let mut stats = deployment.stats.lock().expect("stats lock poisoned");
    match request {
        ServeRequest::Infer { .. } => stats.rejected_infer += 1,
        ServeRequest::LearnOnline { .. } => stats.rejected_learn += 1,
        _ => {}
    }
    drop(stats);
    if let Some(obs) = obs {
        obs.emit(
            Event::new(EventKind::Reject, &deployment.name)
                .with_energy_mj(price(deployment, request)),
        );
    }
}

fn admit(deployment: &Deployment, request: &ServeRequest) -> Admission {
    let required_mj = price(deployment, request);
    if required_mj <= 0.0 {
        return Admission::Granted;
    }
    match deployment.meter.try_spend(required_mj) {
        Ok(()) => Admission::Granted,
        Err(remaining_mj) => Admission::Refused {
            required_mj,
            remaining_mj,
        },
    }
}

/// Appends an admitted request to its deployment's FIFO work queue as one
/// job and schedules the deployment on the worker pool unless a token for
/// it is already out. Per-deployment execution order is this append order,
/// enforced by the token scheduling.
fn enqueue(deployment: &Arc<Deployment>, envelope: Envelope, queue: &JobQueue) {
    let Envelope { request, reply } = envelope;
    let job = match request {
        ServeRequest::Infer { image, .. } => DeploymentJob::Infer(InferItem { image, reply }),
        ServeRequest::LearnOnline { batch, .. } => DeploymentJob::Learn { batch, reply },
        ServeRequest::Snapshot { .. } => DeploymentJob::Snapshot { reply },
        ServeRequest::Stats { .. } => DeploymentJob::Stats { reply },
        // Handled by `route` before admission.
        ServeRequest::TopUpBudget { .. } => unreachable!("top-ups are dispatcher-local"),
    };
    let needs_token = {
        let mut work = deployment.work.lock().expect("work queue lock poisoned");
        work.jobs.push_back(job);
        !std::mem::replace(&mut work.scheduled, true)
    };
    if needs_token {
        queue.push(Arc::clone(deployment));
    }
}

/// Re-admits a deployment's parked requests after a top-up, oldest first,
/// for as long as the new budget covers them.
fn release_deferred(
    deployment: &Arc<Deployment>,
    queue: &JobQueue,
    gauge: &DepthGauge,
    deferred: &mut HashMap<String, VecDeque<Envelope>>,
) {
    let Some(parked) = deferred.get_mut(&deployment.name) else {
        return;
    };
    while let Some(envelope) = parked.pop_front() {
        match admit(deployment, &envelope.request) {
            Admission::Granted => {
                // Parking took the request off the depth gauge; back in a
                // FIFO it counts again until a worker takes it.
                gauge.queued.fetch_add(1, Ordering::AcqRel);
                enqueue(deployment, envelope, queue);
            }
            Admission::Refused { .. } => {
                // Budget ran dry again; keep FIFO order and stop.
                parked.push_front(envelope);
                break;
            }
        }
    }
    if parked.is_empty() {
        deferred.remove(&deployment.name);
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(queue: &JobQueue, gauge: &DepthGauge, max_batch: usize, hooks: ServeHooks<'_>) {
    while let Some(deployment) = queue.pop() {
        // Drain this deployment's queue in FIFO order. The `scheduled` flag
        // is cleared under the same lock that proves the queue empty, so a
        // concurrent `enqueue` either sees the flag still set (and this loop
        // picks its job up) or re-schedules the deployment itself.
        loop {
            let (job, behind) = {
                let mut work = deployment.work.lock().expect("work queue lock poisoned");
                let Some(job) = work.jobs.pop_front() else {
                    work.scheduled = false;
                    break;
                };
                // A batch forms here, when a worker is free to run it, from
                // what is waiting at that moment: the head `Infer` plus the
                // `Infer`s directly behind it, up to `max_batch`. Any other
                // job ends the run by sitting in the FIFO.
                let behind: Vec<InferItem> = match job {
                    DeploymentJob::Infer(_) => std::iter::from_fn(|| work.pop_infer())
                        .take(max_batch - 1)
                        .collect(),
                    _ => Vec::new(),
                };
                (job, behind)
            };
            gauge.queued.fetch_sub(1 + behind.len(), Ordering::AcqRel);
            match job {
                DeploymentJob::Infer(first) => {
                    let items = std::iter::once(first).chain(behind).collect();
                    run_infer_batch(&deployment, items, hooks.obs)
                }
                DeploymentJob::Learn { batch, reply } => {
                    run_learn(&deployment, &batch, &reply, hooks)
                }
                DeploymentJob::Snapshot { reply } => run_snapshot(&deployment, &reply),
                DeploymentJob::Stats { reply } => {
                    let mut stats = deployment.stats_snapshot();
                    if let Some(journal) = hooks.journal {
                        stats.durability = journal.durability_stats(&deployment.name);
                    }
                    let _ = reply.send(Ok(ServeResponse::Stats(stats)));
                }
            }
        }
    }
}

fn run_infer_batch(deployment: &Deployment, items: Vec<InferItem>, obs: Option<&EventSink>) {
    let n = items.len();
    // The latency timer only runs when someone is listening.
    let started = obs.map(|_| std::time::Instant::now());
    let images: Vec<&Tensor> = items.iter().map(|item| &item.image).collect();
    // One lock acquisition and one batched forward for the whole batch; the
    // per-row cosine classification reuses the already-projected features.
    let outcome = Tensor::stack(&images)
        .map_err(|e| e.to_string())
        .and_then(|batch| {
            let mut tenant = deployment.tenant.lock().expect("model lock poisoned");
            let model = &mut tenant.model;
            let theta_p = model
                .extract_features(&batch, Mode::Eval)
                .map_err(|e| e.to_string())?;
            let d_p = theta_p.dims()[1];
            let mut predictions = Vec::with_capacity(n);
            for row in 0..n {
                let query = &theta_p.as_slice()[row * d_p..(row + 1) * d_p];
                predictions.push(model.em().classify(query).map_err(|e| e.to_string())?);
            }
            Ok(predictions)
        });
    match outcome {
        Ok(predictions) => {
            // Counters and the amortized-price settlement land *before* the
            // replies: a client that observes its response must also observe
            // the request in the statistics and the settled energy spend.
            {
                let mut stats = deployment.stats.lock().expect("stats lock poisoned");
                stats.infer_requests += n as u64;
                stats.infer_batches += 1;
                stats.largest_batch = stats.largest_batch.max(n as u64);
            }
            // Admission charged n single-sample passes before the batch
            // formed; settle the spend at the batch's amortized cost.
            deployment.meter.refund(deployment.batch_refund_mj(n));
            // One Infer event per item: the batch's settled energy amortized
            // per item, the batch's latency, the prediction's similarity as
            // the accuracy proxy.
            let per_item_mj = deployment.batch_mj(n) / n as f64;
            let latency_us = started.map_or(0, |started| started.elapsed().as_micros() as u64);
            for (item, (class, similarity)) in items.into_iter().zip(predictions) {
                if let Some(obs) = obs {
                    obs.emit(
                        Event::new(EventKind::Infer, &deployment.name)
                            .with_energy_mj(per_item_mj)
                            .with_latency_us(latency_us)
                            .with_accuracy(similarity),
                    );
                }
                let _ = item.reply.send(Ok(ServeResponse::Prediction {
                    class,
                    similarity,
                    batched_with: n,
                }));
            }
        }
        Err(message) => {
            for item in items {
                let _ = item.reply.send(Err(ServeError::Execution(message.clone())));
            }
        }
    }
}

fn run_learn(
    deployment: &Deployment,
    batch: &ofscil_data::Batch,
    reply: &Reply,
    hooks: ServeHooks<'_>,
) {
    let ServeHooks {
        commits,
        journal,
        obs,
    } = hooks;
    let started = obs.map(|_| std::time::Instant::now());
    // The commit (sequence number + post-commit prototypes) is assembled —
    // and journaled — while the model lock is still held, so replication and
    // the write-ahead log see mutations in exactly the order they happened,
    // with the exact stored bit patterns.
    let outcome = {
        let mut tenant = deployment.tenant.lock().expect("model lock poisoned");
        tenant
            .model
            .learn_classes_online(batch)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                let mut classes = batch.labels.clone();
                classes.sort_unstable();
                classes.dedup();
                let total_classes = tenant.model.em().num_classes();
                tenant.seq += 1;
                let seq = tenant.seq;
                // Admission charged batch.len() single-sample passes, but the
                // batch's forwards stream the weights once. Settle the meter
                // before the journal reads it, so the journaled energy state
                // is the post-commit truth.
                deployment
                    .meter
                    .refund(deployment.batch_refund_mj(batch.len()));
                let commit = (commits.is_some() || journal.is_some()).then(|| LearnCommit {
                    deployment: deployment.name.clone(),
                    seq,
                    updates: classes
                        .iter()
                        .map(|&class| {
                            let prototype = tenant
                                .model
                                .em()
                                .prototype(class)
                                .expect("class was just learned")
                                .to_vec();
                            (class, prototype)
                        })
                        .collect(),
                    total_classes,
                });
                if let (Some(journal), Some(commit)) = (journal, commit.as_ref()) {
                    let (spent_mj, budget_mj) = deployment.meter.spent_and_budget();
                    journal
                        .journal_learn(commit, spent_mj, budget_mj)
                        .map_err(|e| format!("commit applied but journaling failed: {e}"))?;
                }
                Ok((classes, total_classes, seq, commit))
            })
    };
    match outcome {
        Ok((classes, total_classes, seq, commit)) => {
            deployment
                .stats
                .lock()
                .expect("stats lock poisoned")
                .learn_requests += 1;
            if let Some(obs) = obs {
                obs.emit(
                    Event::new(EventKind::Learn, &deployment.name)
                        .with_seq(seq)
                        .with_energy_mj(deployment.batch_mj(batch.len()))
                        .with_latency_us(
                            started.map_or(0, |started| started.elapsed().as_micros() as u64),
                        ),
                );
            }
            if let (Some(forward), Some(commit)) = (commits, commit) {
                forward(commit);
            }
            let _ = reply.send(Ok(ServeResponse::Learned {
                classes,
                total_classes,
            }));
        }
        Err(message) => {
            let _ = reply.send(Err(ServeError::Execution(message)));
        }
    }
}

fn run_snapshot(deployment: &Deployment, reply: &Reply) {
    let bytes = {
        let tenant = deployment.tenant.lock().expect("model lock poisoned");
        encode_explicit_memory(tenant.model.em())
    };
    deployment
        .stats
        .lock()
        .expect("stats lock poisoned")
        .snapshots += 1;
    let _ = reply.send(Ok(ServeResponse::Snapshot { bytes }));
}

// ---------------------------------------------------------------------------
// Job queue
// ---------------------------------------------------------------------------

/// A blocking MPMC queue of deployment tokens: the dispatcher pushes, every
/// worker pops.
///
/// `std::sync::mpsc` receivers cannot be shared between workers without
/// holding a lock across the blocking `recv` (which would serialize the
/// pool), so the pool uses the classic `Mutex<VecDeque> + Condvar` shape.
struct JobQueue {
    inner: Mutex<JobQueueInner>,
    ready: Condvar,
}

struct JobQueueInner {
    tokens: VecDeque<Arc<Deployment>>,
    closed: bool,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                tokens: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, token: Arc<Deployment>) {
        let mut inner = self.inner.lock().expect("job queue lock poisoned");
        inner.tokens.push_back(token);
        drop(inner);
        self.ready.notify_one();
    }

    /// Blocks until a token is available; returns `None` once the queue is
    /// closed and drained.
    fn pop(&self) -> Option<Arc<Deployment>> {
        let mut inner = self.inner.lock().expect("job queue lock poisoned");
        loop {
            if let Some(token) = inner.tokens.pop_front() {
                return Some(token);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue lock poisoned");
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().expect("job queue lock poisoned");
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DeploymentSpec;
    use ofscil_core::OFscilModel;
    use ofscil_nn::models::BackboneKind;
    use ofscil_tensor::SeedRng;

    fn registry_with(names: &[&str]) -> LearnerRegistry {
        let registry = LearnerRegistry::new();
        for (i, name) in names.iter().enumerate() {
            let mut rng = SeedRng::new(i as u64);
            registry
                .register(
                    DeploymentSpec::new(name, (8, 8)),
                    OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
                )
                .unwrap();
        }
        registry
    }

    fn class_image(class: usize, jitter: f32) -> Tensor {
        crate::traffic::class_image(8, class, jitter)
    }

    fn support_batch(classes: &[usize], shots: usize) -> ofscil_data::Batch {
        crate::traffic::support_batch(8, classes, shots)
    }

    #[test]
    fn learn_then_infer_roundtrip() {
        let registry = registry_with(&["t"]);
        let prediction = ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            let learned = client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[0, 1, 2], 3),
                })
                .unwrap();
            match learned {
                ServeResponse::Learned {
                    classes,
                    total_classes,
                } => {
                    assert_eq!(classes, vec![0, 1, 2]);
                    assert_eq!(total_classes, 3);
                }
                other => panic!("unexpected response {other:?}"),
            }
            client
                .call(ServeRequest::Infer {
                    deployment: "t".into(),
                    image: class_image(1, 0.02),
                })
                .unwrap()
        })
        .unwrap();
        match prediction {
            ServeResponse::Prediction {
                class,
                similarity,
                batched_with,
            } => {
                assert_eq!(class, 1);
                assert!(similarity > 0.5);
                assert_eq!(batched_with, 1);
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Counters survive the runtime (they live in the registry).
        let stats = registry.stats("t").unwrap();
        assert_eq!(stats.infer_requests, 1);
        assert_eq!(stats.learn_requests, 1);
        assert_eq!(stats.classes, 3);
    }

    #[test]
    fn observed_runtime_emits_one_event_per_unit_of_work() {
        use ofscil_obs::{Obs, ObsConfig, ObsQuery};

        let registry = LearnerRegistry::new();
        let mut rng = SeedRng::new(0);
        registry
            .register(
                // A budget too small for the first learn forces one
                // observable rejection before the top-up.
                DeploymentSpec::new("t", (8, 8)).with_energy_budget(0.0001, BudgetPolicy::Reject),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        let obs = Obs::new(ObsConfig::default());
        ServeRuntime::run_with(
            &registry,
            &ServeConfig::default(),
            ServeHooks {
                obs: Some(obs.sink()),
                ..ServeHooks::default()
            },
            |client| {
                let err = client
                    .call(ServeRequest::LearnOnline {
                        deployment: "t".into(),
                        batch: support_batch(&[0, 1, 2], 3),
                    })
                    .unwrap_err();
                assert!(matches!(err, ServeError::BudgetExhausted { .. }));
                client
                    .call(ServeRequest::TopUpBudget {
                        deployment: "t".into(),
                        energy_mj: 500.0,
                    })
                    .unwrap();
                client
                    .call(ServeRequest::LearnOnline {
                        deployment: "t".into(),
                        batch: support_batch(&[0, 1, 2], 3),
                    })
                    .unwrap();
                for _ in 0..3 {
                    client
                        .call(ServeRequest::Infer {
                            deployment: "t".into(),
                            image: class_image(1, 0.02),
                        })
                        .unwrap();
                }
            },
        )
        .unwrap();

        let count_of = |kind: EventKind| {
            obs.query(&ObsQuery::deployment("t").with_kinds(&[kind]))
                .aggregates
                .matched
        };
        assert_eq!(count_of(EventKind::Reject), 1);
        assert_eq!(count_of(EventKind::TopUp), 1);
        assert_eq!(count_of(EventKind::Learn), 1);
        assert_eq!(count_of(EventKind::Infer), 3);
        let result = obs.query(&ObsQuery::deployment("t"));
        assert_eq!(result.dropped, 0);
        // The learn carries its replication sequence number; infers carry a
        // finite accuracy proxy and a real energy price.
        let learns = obs.query(&ObsQuery::deployment("t").with_kinds(&[EventKind::Learn]));
        assert_eq!(learns.events[0].seq, 1);
        let infers = obs.query(&ObsQuery::deployment("t").with_kinds(&[EventKind::Infer]));
        assert_eq!(infers.aggregates.accuracy.count, 3);
        assert!(infers.aggregates.energy_mj.min > 0.0);
        // Every served infer's latency landed in the kind-masked histogram.
        assert_eq!(infers.latency_hist.total(), 3);
    }

    #[test]
    fn unknown_deployment_and_bad_shape_are_rejected() {
        let registry = registry_with(&["t"]);
        ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            let err = client
                .call(ServeRequest::Infer {
                    deployment: "ghost".into(),
                    image: class_image(0, 0.0),
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::UnknownDeployment(_)));
            let err = client
                .call(ServeRequest::Infer {
                    deployment: "t".into(),
                    image: Tensor::zeros(&[3, 4, 4]),
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::InvalidRequest(_)));
            let err = client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: ofscil_data::Batch {
                        images: Tensor::zeros(&[0, 3, 8, 8]),
                        labels: vec![],
                    },
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::InvalidRequest(_)));
        })
        .unwrap();
    }

    #[test]
    fn snapshot_via_request_matches_registry_snapshot() {
        let registry = registry_with(&["t"]);
        registry
            .with_model("t", |model| {
                model.em_mut().set_prototype(3, &[0.5; 16]).unwrap();
            })
            .unwrap();
        let bytes = ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            match client
                .call(ServeRequest::Snapshot {
                    deployment: "t".into(),
                })
                .unwrap()
            {
                ServeResponse::Snapshot { bytes } => bytes,
                other => panic!("unexpected response {other:?}"),
            }
        })
        .unwrap();
        assert_eq!(bytes, registry.snapshot_with_seq("t").unwrap().1);
        assert_eq!(registry.stats("t").unwrap().snapshots, 1);
    }

    #[test]
    fn per_deployment_order_holds_without_waiting() {
        // Submit learn → infer → snapshot back-to-back with no intermediate
        // waits: the per-deployment FIFO guarantees the snapshot observes
        // the learn (and the infer finds a populated memory) even with a
        // full worker pool racing.
        let registry = registry_with(&["t"]);
        let (inferred, snapshot) =
            ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
                let learn = client.submit(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[0, 1], 2),
                });
                let infer = client.submit(ServeRequest::Infer {
                    deployment: "t".into(),
                    image: class_image(0, 0.03),
                });
                let stats = client.submit(ServeRequest::Stats {
                    deployment: "t".into(),
                });
                let snapshot = client.submit(ServeRequest::Snapshot {
                    deployment: "t".into(),
                });
                learn.wait().unwrap();
                match stats.wait().unwrap() {
                    ServeResponse::Stats(stats) => {
                        // The stats read is itself ordered: it must count the
                        // infer admitted before it.
                        assert_eq!(stats.infer_requests, 1);
                        assert_eq!(stats.learn_requests, 1);
                    }
                    other => panic!("unexpected response {other:?}"),
                }
                (infer.wait(), snapshot.wait().unwrap())
            })
            .unwrap();
        assert!(
            inferred.is_ok(),
            "infer ran before the learn it followed: {inferred:?}"
        );
        match snapshot {
            ServeResponse::Snapshot { bytes } => {
                let em = crate::snapshot::decode_explicit_memory(&bytes).unwrap();
                assert_eq!(em.classes(), vec![0, 1]);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Polls until `cond` holds. The queue tests below force their
    /// interleaving by observing queue state, never by sleeping; the
    /// deadline only turns a hang into a failure.
    fn wait_until(cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "condition never held");
            std::thread::yield_now();
        }
    }

    /// Parks the pool's only worker: holds the model lock and waits until
    /// the worker has taken a `Stats` job that blocks on it. Everything
    /// submitted afterwards queues up until the returned guard drops.
    fn park_worker<'a>(
        client: &ServeClient,
        deployment: &'a Deployment,
    ) -> (
        std::sync::MutexGuard<'a, crate::registry::Tenant>,
        PendingResponse,
    ) {
        let held = deployment.tenant.lock().unwrap();
        let parked = client.submit(ServeRequest::Stats {
            deployment: deployment.name.clone(),
        });
        wait_until(|| client.gauge.queued.load(Ordering::Acquire) == 0);
        (held, parked)
    }

    fn queued_jobs(deployment: &Deployment) -> usize {
        deployment.work.lock().unwrap().jobs.len()
    }

    fn registry_with_two_classes() -> LearnerRegistry {
        let registry = registry_with(&["t"]);
        registry
            .with_model("t", |model| {
                model.learn_classes_online(&support_batch(&[0, 1], 2))
            })
            .unwrap()
            .unwrap();
        registry
    }

    fn infer(class: usize) -> ServeRequest {
        ServeRequest::Infer {
            deployment: "t".into(),
            image: class_image(class, 0.01),
        }
    }

    fn prediction(response: Result<ServeResponse>) -> (usize, usize) {
        match response.unwrap() {
            ServeResponse::Prediction {
                class,
                batched_with,
                ..
            } => (class, batched_with),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn a_backlog_of_infers_runs_in_full_batches() {
        // 10 inferences waiting behind a parked worker, max_batch 4: the
        // batches form when the worker gets to them, so exactly
        // ceil(10 / 4) = 3 forwards run, sized 4, 4, 2.
        let registry = registry_with_two_classes();
        let deployment = registry.resolve("t").unwrap();
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
        .with_max_batch(4);
        let sizes = ServeRuntime::run(&registry, &config, |client| {
            let (held, parked) = park_worker(client, &deployment);
            let pending: Vec<_> = (0..10).map(|i| client.submit(infer(i % 2))).collect();
            wait_until(|| queued_jobs(&deployment) == 10);
            drop(held);
            parked.wait().unwrap();
            pending
                .into_iter()
                .map(|p| prediction(p.wait()).1)
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(sizes, vec![4, 4, 4, 4, 4, 4, 4, 4, 2, 2]);
        let stats = registry.stats("t").unwrap();
        assert_eq!(stats.infer_requests, 10);
        assert_eq!(stats.infer_batches, 3);
        assert_eq!(stats.largest_batch, 4);
    }

    #[test]
    fn a_run_of_infers_never_spans_a_learn() {
        // Infer×3, Learn(class 2), Infer×3 all waiting at once with room for
        // all seven in one batch: the learn still splits them into two
        // forwards, and the second three see the class it added.
        let registry = registry_with_two_classes();
        let deployment = registry.resolve("t").unwrap();
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (before, after) = ServeRuntime::run(&registry, &config, |client| {
            let (held, parked) = park_worker(client, &deployment);
            let before: Vec<_> = (0..3).map(|_| client.submit(infer(2))).collect();
            let learn = client.submit(ServeRequest::LearnOnline {
                deployment: "t".into(),
                batch: support_batch(&[2], 2),
            });
            let after: Vec<_> = (0..3).map(|_| client.submit(infer(2))).collect();
            wait_until(|| queued_jobs(&deployment) == 7);
            drop(held);
            parked.wait().unwrap();
            learn.wait().unwrap();
            let classes = |pending: Vec<PendingResponse>| {
                pending
                    .into_iter()
                    .map(|p| prediction(p.wait()))
                    .collect::<Vec<_>>()
            };
            (classes(before), classes(after))
        })
        .unwrap();
        assert!(before
            .iter()
            .all(|&(class, batched_with)| class != 2 && batched_with == 3));
        assert!(after
            .iter()
            .all(|&(class, batched_with)| class == 2 && batched_with == 3));
        assert_eq!(registry.stats("t").unwrap().infer_batches, 2);
    }

    #[test]
    fn deferred_requests_released_by_a_top_up_keep_fifo_order() {
        // Learn then infer, both parked under `Defer`: the top-up re-admits
        // them oldest first, so the infer finds the class the learn stored.
        let registry = LearnerRegistry::new();
        let mut rng = SeedRng::new(0);
        registry
            .register(
                DeploymentSpec::new("t", (8, 8)).with_energy_budget(0.0, BudgetPolicy::Defer),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        let (class, waiting) = ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            let learn = client.submit(ServeRequest::LearnOnline {
                deployment: "t".into(),
                batch: support_batch(&[1], 2),
            });
            let infer = client.submit(infer(1));
            client
                .call(ServeRequest::TopUpBudget {
                    deployment: "t".into(),
                    energy_mj: 1e6,
                })
                .unwrap();
            learn.wait().unwrap();
            let (class, _) = prediction(infer.wait());
            // Parked requests left the depth gauge and re-entered it on
            // release; with every reply in, nothing is waiting.
            (class, client.gauge.queued.load(Ordering::Acquire))
        })
        .unwrap();
        assert_eq!(class, 1);
        assert_eq!(waiting, 0);
        assert_eq!(registry.stats("t").unwrap().deferred, 2);
    }

    #[test]
    fn queue_depth_bounds_the_backlog_behind_a_busy_worker() {
        // The only worker is busy and two inferences already wait in the
        // deployment's FIFO: with depth 2 the third is shed, however fast
        // the dispatcher emptied the channel.
        let registry = registry_with_two_classes();
        let deployment = registry.resolve("t").unwrap();
        let config = ServeConfig {
            workers: 1,
            queue_depth: Some(2),
            ..ServeConfig::default()
        }
        .with_max_batch(1);
        ServeRuntime::run(&registry, &config, |client| {
            let (held, parked) = park_worker(client, &deployment);
            let first = client.submit(infer(0));
            let second = client.submit(infer(1));
            wait_until(|| queued_jobs(&deployment) == 2);
            // Shedding answers inside `submit`, so the reply is already there.
            let shed = client.submit(infer(0));
            assert!(matches!(
                shed.rx.try_recv(),
                Ok(Err(ServeError::QueueFull { depth: 2 }))
            ));
            // Released, the runtime works the backlog off and serves again.
            drop(held);
            parked.wait().unwrap();
            assert_eq!(prediction(first.wait()), (0, 1));
            assert_eq!(prediction(second.wait()), (1, 1));
            assert_eq!(prediction(client.call(infer(1))), (1, 1));
        })
        .unwrap();
    }

    #[test]
    fn nan_top_up_is_rejected_before_touching_the_meter() {
        let registry = LearnerRegistry::new();
        let mut rng = SeedRng::new(0);
        registry
            .register(
                DeploymentSpec::new("t", (8, 8)).with_energy_budget(1e6, BudgetPolicy::Reject),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            let err = client
                .call(ServeRequest::TopUpBudget {
                    deployment: "t".into(),
                    energy_mj: f64::NAN,
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::InvalidRequest(_)));
            let err = client
                .call(ServeRequest::TopUpBudget {
                    deployment: "t".into(),
                    energy_mj: -1.0,
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::InvalidRequest(_)));
            // The budget survived untouched and still admits work.
            client
                .call(ServeRequest::Infer {
                    deployment: "t".into(),
                    image: class_image(0, 0.0),
                })
                .unwrap_err(); // empty memory -> execution error, but admitted
        })
        .unwrap();
        let stats = registry.stats("t").unwrap();
        assert_eq!(stats.energy_budget_mj, Some(1e6));
        assert!(stats.energy_spent_mj > 0.0);
    }

    #[test]
    fn read_only_runtime_rejects_writes_but_serves_reads() {
        let registry = registry_with(&["t"]);
        registry
            .with_model("t", |model| {
                model.em_mut().set_prototype(0, &[1.0; 16]).unwrap();
            })
            .unwrap();
        let config = ServeConfig {
            read_only: true,
            ..ServeConfig::default()
        };
        ServeRuntime::run(&registry, &config, |client| {
            let err = client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[1], 2),
                })
                .unwrap_err();
            assert!(
                matches!(err, ServeError::ReadOnlyReplica { ref deployment } if deployment == "t")
            );
            let err = client
                .call(ServeRequest::TopUpBudget {
                    deployment: "t".into(),
                    energy_mj: 1.0,
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::ReadOnlyReplica { .. }));
            // Reads still flow.
            client
                .call(ServeRequest::Infer {
                    deployment: "t".into(),
                    image: class_image(0, 0.0),
                })
                .unwrap();
            client
                .call(ServeRequest::Stats {
                    deployment: "t".into(),
                })
                .unwrap();
            client
                .call(ServeRequest::Snapshot {
                    deployment: "t".into(),
                })
                .unwrap();
        })
        .unwrap();
        // The replica's memory was never touched by the rejected write.
        assert_eq!(
            registry.with_model("t", |m| m.em().classes()).unwrap(),
            vec![0]
        );
    }

    #[test]
    fn bounded_queue_sheds_load_with_queue_full() {
        // No dispatcher behind the channel: submissions stay queued, so the
        // depth limit trips deterministically.
        let (tx, _rx) = mpsc::channel();
        let client = ServeClient {
            tx,
            gauge: Arc::new(DepthGauge {
                queued: AtomicUsize::new(0),
                limit: 2,
            }),
        };
        let first = client.submit(ServeRequest::Stats {
            deployment: "t".into(),
        });
        let second = client.submit(ServeRequest::Stats {
            deployment: "t".into(),
        });
        let shed = client.submit(ServeRequest::Stats {
            deployment: "t".into(),
        });
        assert!(matches!(
            shed.wait(),
            Err(ServeError::QueueFull { depth: 2 })
        ));
        // The first two were accepted (their replies are still pending).
        drop(_rx);
        assert!(matches!(first.wait(), Err(ServeError::ShuttingDown)));
        assert!(matches!(second.wait(), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn bounded_queue_recovers_once_the_dispatcher_catches_up() {
        let registry = registry_with(&["t"]);
        let config = ServeConfig {
            queue_depth: Some(64),
            ..ServeConfig::default()
        };
        ServeRuntime::run(&registry, &config, |client| {
            for _ in 0..4 {
                client
                    .call(ServeRequest::Stats {
                        deployment: "t".into(),
                    })
                    .unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn replicated_run_streams_sequence_numbered_commits() {
        let registry = registry_with(&["t"]);
        let (sink, commits) = mpsc::channel();
        let forward = move |commit| sink.send(commit).unwrap();
        let hooks = ServeHooks {
            commits: Some(&forward),
            ..ServeHooks::default()
        };
        ServeRuntime::run_with(&registry, &ServeConfig::default(), hooks, |client| {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[0, 1], 2),
                })
                .unwrap();
            client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[2], 2),
                })
                .unwrap();
        })
        .unwrap();
        let commits: Vec<LearnCommit> = commits.try_iter().collect();
        assert_eq!(commits.len(), 2);
        assert_eq!(commits[0].seq, 1);
        assert_eq!(commits[1].seq, 2);
        assert_eq!(
            commits[0]
                .updates
                .iter()
                .map(|(c, _)| *c)
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(commits[1].updates[0].0, 2);
        assert_eq!(commits[1].total_classes, 3);
        // The streamed prototypes are the exact stored bit patterns.
        for commit in &commits {
            for (class, streamed) in &commit.updates {
                let stored = registry
                    .with_model("t", |m| m.em().prototype(*class).unwrap().to_vec())
                    .unwrap();
                assert!(streamed
                    .iter()
                    .zip(&stored)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
        // The snapshot anchor reports the last committed sequence number.
        let (seq, _) = registry.snapshot_with_seq("t").unwrap();
        assert_eq!(seq, 2);
    }

    /// `(kind, deployment, seq, spent_mj, budget_mj)` of one journaled op.
    type JournalEvent = (String, String, u64, f64, Option<f64>);

    #[derive(Default)]
    struct MemJournal {
        events: Mutex<Vec<JournalEvent>>,
        fail: std::sync::atomic::AtomicBool,
    }

    impl CommitJournal for MemJournal {
        fn journal_learn(
            &self,
            commit: &LearnCommit,
            spent_mj: f64,
            budget_mj: Option<f64>,
        ) -> std::result::Result<(), String> {
            if self.fail.load(Ordering::Acquire) {
                return Err("disk full".into());
            }
            self.events.lock().unwrap().push((
                "learn".into(),
                commit.deployment.clone(),
                commit.seq,
                spent_mj,
                budget_mj,
            ));
            Ok(())
        }

        fn journal_top_up(
            &self,
            deployment: &str,
            seq: u64,
            spent_mj: f64,
            budget_mj: Option<f64>,
        ) -> std::result::Result<(), String> {
            self.events.lock().unwrap().push((
                "topup".into(),
                deployment.to_string(),
                seq,
                spent_mj,
                budget_mj,
            ));
            Ok(())
        }

        fn durability_stats(&self, _deployment: &str) -> Option<crate::DurabilityStats> {
            Some(crate::DurabilityStats {
                wal_records: self.events.lock().unwrap().len() as u64,
                ..Default::default()
            })
        }
    }

    #[test]
    fn journaled_run_records_commits_in_order_and_surfaces_durability() {
        let registry = LearnerRegistry::new();
        let mut rng = SeedRng::new(0);
        registry
            .register(
                DeploymentSpec::new("t", (8, 8)).with_energy_budget(1e6, BudgetPolicy::Reject),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        let journal = MemJournal::default();
        let hooks = ServeHooks {
            journal: Some(&journal),
            ..ServeHooks::default()
        };
        let stats = ServeRuntime::run_with(&registry, &ServeConfig::default(), hooks, |client| {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[0, 1], 2),
                })
                .unwrap();
            client
                .call(ServeRequest::TopUpBudget {
                    deployment: "t".into(),
                    energy_mj: 5.0,
                })
                .unwrap();
            client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[2], 2),
                })
                .unwrap();
            match client
                .call(ServeRequest::Stats {
                    deployment: "t".into(),
                })
                .unwrap()
            {
                ServeResponse::Stats(stats) => stats,
                other => panic!("unexpected response {other:?}"),
            }
        })
        .unwrap();

        let events = journal.events.lock().unwrap();
        let kinds: Vec<(&str, u64)> = events
            .iter()
            .map(|(k, _, seq, _, _)| (k.as_str(), *seq))
            .collect();
        // Learn seq 1, top-up at seq 1 (top-ups do not advance), learn seq 2.
        assert_eq!(kinds, vec![("learn", 1), ("topup", 1), ("learn", 2)]);
        // The journaled meter state is the settled post-commit truth: the
        // final learn's spent matches the registry's meter exactly.
        let (spent, budget) = registry.energy_state("t").unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.3.to_bits(), spent.to_bits());
        assert_eq!(last.4.map(f64::to_bits), budget.map(f64::to_bits));
        // Stats surfaced the journal's durability counters.
        assert_eq!(stats.durability.unwrap().wal_records, 3);
    }

    #[test]
    fn failed_journal_write_fails_the_request_but_not_the_runtime() {
        let registry = registry_with(&["t"]);
        let journal = MemJournal::default();
        journal.fail.store(true, Ordering::Release);
        let hooks = ServeHooks {
            journal: Some(&journal),
            ..ServeHooks::default()
        };
        ServeRuntime::run_with(&registry, &ServeConfig::default(), hooks, |client| {
            let err = client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[0], 2),
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::Execution(ref msg) if msg.contains("journal")));
            // The runtime keeps serving; reads are unaffected.
            client
                .call(ServeRequest::Stats {
                    deployment: "t".into(),
                })
                .unwrap();
        })
        .unwrap();
    }

    #[test]
    fn learn_batches_are_settled_at_the_amortized_price() {
        let registry = registry_with(&["t"]);
        let deployment = registry.resolve("t").unwrap();
        let single = deployment.infer_mj();
        let shots = 4usize;
        let classes = 2usize;
        let n = shots * classes;
        ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: support_batch(&[0, 1], shots),
                })
                .unwrap();
        })
        .unwrap();
        // Admission charged n single-sample passes; the settled spend is the
        // batch's amortized energy (weights streamed once).
        let (spent, _) = deployment.meter.state();
        let amortized = deployment.batch_mj(n);
        assert!(
            (spent - amortized).abs() < 1e-9,
            "spent {spent} mJ, expected amortized {amortized} mJ"
        );
        assert!(spent < single * n as f64);
    }

    #[test]
    fn coalesced_batches_are_settled_at_the_amortized_price() {
        let registry = registry_with(&["t"]);
        registry
            .with_model("t", |model| {
                model.learn_classes_online(&support_batch(&[0, 1], 2))
            })
            .unwrap()
            .unwrap();
        let deployment = registry.resolve("t").unwrap();
        let single = deployment.infer_mj();
        let n = 6;

        // Simulate admission: n requests each charged the single-sample rate.
        for _ in 0..n {
            deployment.meter.try_spend(single).unwrap();
        }
        let items: Vec<InferItem> = (0..n)
            .map(|i| {
                let (reply, _rx) = mpsc::channel();
                InferItem {
                    image: class_image(i % 2, 0.01),
                    reply,
                }
            })
            .collect();
        run_infer_batch(&deployment, items, None);

        // The spend settled at the batch's amortized energy, not n passes.
        let (spent, _) = deployment.meter.state();
        let amortized = deployment.batch_mj(n);
        assert!(
            (spent - amortized).abs() < 1e-9,
            "spent {spent} mJ, expected amortized {amortized} mJ"
        );
        assert!(spent < single * n as f64);
    }

    #[test]
    fn reject_policy_surfaces_budget_errors() {
        let registry = LearnerRegistry::new();
        let mut rng = SeedRng::new(0);
        registry
            .register(
                DeploymentSpec::new("t", (8, 8)).with_energy_budget(0.0, BudgetPolicy::Reject),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            let err = client
                .call(ServeRequest::Infer {
                    deployment: "t".into(),
                    image: class_image(0, 0.0),
                })
                .unwrap_err();
            assert!(matches!(err, ServeError::BudgetExhausted { .. }));
            // Free requests are always admitted.
            client
                .call(ServeRequest::Stats {
                    deployment: "t".into(),
                })
                .unwrap();
        })
        .unwrap();
        let stats = registry.stats("t").unwrap();
        // The refusal lands in the per-type rejection counter, never in the
        // accepted-throughput counters.
        assert_eq!(stats.rejected_infer, 1);
        assert_eq!(stats.rejected_learn, 0);
        assert_eq!(stats.rejected(), 1);
        assert_eq!(stats.infer_requests, 0);
    }

    #[test]
    fn defer_policy_parks_until_top_up_and_fails_at_shutdown() {
        let registry = LearnerRegistry::new();
        let mut rng = SeedRng::new(0);
        registry
            .register(
                DeploymentSpec::new("t", (8, 8)).with_energy_budget(0.0, BudgetPolicy::Defer),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        registry
            .with_model("t", |model| {
                model.em_mut().set_prototype(0, &[1.0; 16]).unwrap();
            })
            .unwrap();

        // Released by a top-up: the deferred inference completes.
        let released = ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
            let parked = client.submit(ServeRequest::Infer {
                deployment: "t".into(),
                image: class_image(0, 0.0),
            });
            client
                .call(ServeRequest::TopUpBudget {
                    deployment: "t".into(),
                    energy_mj: 1e6,
                })
                .unwrap();
            parked.wait()
        })
        .unwrap();
        assert!(released.is_ok(), "released request failed: {released:?}");

        // Never topped up: the deferred request is settled at shutdown.
        let registry2 = LearnerRegistry::new();
        let mut rng = SeedRng::new(1);
        registry2
            .register(
                DeploymentSpec::new("t", (8, 8)).with_energy_budget(0.0, BudgetPolicy::Defer),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        let parked = ServeRuntime::run(&registry2, &ServeConfig::default(), |client| {
            client.submit(ServeRequest::Infer {
                deployment: "t".into(),
                image: class_image(0, 0.0),
            })
        })
        .unwrap();
        assert!(matches!(
            parked.wait(),
            Err(ServeError::BudgetExhausted { .. })
        ));
        let stats = registry2.stats("t").unwrap();
        assert_eq!(stats.deferred, 1);
        // A deferral that was never released is ultimately a rejection.
        assert_eq!(stats.rejected_infer, 1);
        assert_eq!(stats.infer_requests, 0);
    }
}
