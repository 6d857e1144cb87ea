//! The multi-tenant learner registry: named [`OFscilModel`] deployments
//! behind sharded locks, each with its own energy budget and statistics.

use crate::snapshot::{
    decode_budget, decode_explicit_memory, encode_budget, encode_explicit_memory,
};
use crate::{Result, ServeError};
use ofscil_core::OFscilModel;
use ofscil_gap9::{
    deploy_backbone, deploy_fcr, estimate_execution, Gap9Config, NetworkWorkload, PowerModel,
};
use ofscil_tensor::bytes::{fnv1a64, put_bytes, put_f64, put_str, put_u64, DecodeError, Reader};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// What happens to a request once a deployment's energy budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Over-budget requests are rejected with
    /// [`ServeError::BudgetExhausted`].
    Reject,
    /// Over-budget requests are parked in a per-deployment deferred queue and
    /// released in FIFO order when the budget is topped up
    /// (`ServeRequest::TopUpBudget`). Requests still deferred at shutdown are
    /// failed with [`ServeError::BudgetExhausted`] so no response is lost.
    Defer,
}

/// Registration-time description of one deployment.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Unique deployment (tenant) name.
    pub name: String,
    /// Input image height and width the deployment serves. Requests are
    /// validated against this shape at admission.
    pub(crate) image_hw: (usize, usize),
    /// Energy budget in millijoules; `None` means unlimited.
    pub(crate) energy_budget_mj: Option<f64>,
    /// Policy applied once the budget is spent.
    pub(crate) budget_policy: BudgetPolicy,
    /// Device model used for pricing.
    pub gap9: Gap9Config,
}

impl DeploymentSpec {
    /// Creates a spec with an unlimited budget and the default device model.
    pub fn new(name: &str, image_hw: (usize, usize)) -> Self {
        DeploymentSpec {
            name: name.to_string(),
            image_hw,
            energy_budget_mj: None,
            budget_policy: BudgetPolicy::Reject,
            gap9: Gap9Config::default(),
        }
    }

    /// Sets an energy budget and the policy applied once it is spent
    /// (builder style).
    #[must_use]
    pub fn with_energy_budget(mut self, budget_mj: f64, policy: BudgetPolicy) -> Self {
        self.energy_budget_mj = Some(budget_mj);
        self.budget_policy = policy;
        self
    }
}

/// Cluster cores assumed when pricing requests on the GAP9 model: the full
/// 8-core cluster.
const PRICING_CORES: usize = 8;

/// Bytes moved per parameter/activation at fp32 relative to the int8
/// deployment the GAP9 workload descriptors assume.
const FP32_BYTES_PER_INT8: u64 = 4;

/// Scales an int8-deployed workload to fp32 byte traffic: weights and
/// activations are four bytes each instead of one, so every DMA transfer
/// quadruples. Compute (MAC count) is unchanged — on the modelled device the
/// dominant fp32 penalty is the memory traffic, which is exactly what the
/// latency model prices.
fn scale_workload_to_fp32(workload: &mut NetworkWorkload) {
    for layer in &mut workload.layers {
        layer.weight_bytes *= FP32_BYTES_PER_INT8;
        layer.input_bytes *= FP32_BYTES_PER_INT8;
        layer.output_bytes *= FP32_BYTES_PER_INT8;
    }
}

/// Energy of one backbone + FCR forward pass on the device model, in
/// millijoules.
fn pass_energy_mj(
    backbone: &NetworkWorkload,
    fcr: &NetworkWorkload,
    gap9: &Gap9Config,
) -> Result<f64> {
    let power = PowerModel::new(gap9.clone());
    let energy_mj = |workload| -> Result<f64> {
        Ok(power.energy_mj(&estimate_execution(workload, gap9, PRICING_CORES, false)?))
    };
    Ok(energy_mj(backbone)? + energy_mj(fcr)?)
}

/// Scales a single-sample workload to a coalesced batch of `batch` samples:
/// MACs, activation traffic and parallel work all grow with the batch, while
/// the weight traffic is paid **once** — the weights stream through the DMA a
/// single time and every sample in the batch reuses them. That one-time
/// weight cost is where batched inference undercuts `batch` independent
/// passes.
fn scale_workload_to_batch(workload: &mut NetworkWorkload, batch: usize) {
    let batch = batch as u64;
    for layer in &mut workload.layers {
        layer.macs *= batch;
        layer.input_bytes *= batch;
        layer.output_bytes *= batch;
        layer.parallel_units *= batch;
    }
}

/// One deployment's energy prices on the GAP9 cost model, at the model's
/// current execution precision. This is the paper's 12 mJ/class headline
/// turned into an admission-control price list. Int8 conversion builds a
/// new table and swaps it in whole.
#[derive(Debug)]
struct PriceTable {
    /// Deployed backbone workload: fp32 byte traffic until the model
    /// converts to int8, the quantized rate after.
    backbone: NetworkWorkload,
    /// Deployed FCR workload, at the same precision.
    fcr: NetworkWorkload,
    /// The device model the workloads are priced on.
    gap9: Gap9Config,
    /// Energy of one backbone + FCR forward pass in millijoules: the price
    /// of one inference, and of each support sample of a learn (the
    /// prototype accumulation is negligible next to the pass).
    infer_mj: f64,
    /// Memoized batch prices by pass count.
    batched_mj: HashMap<usize, f64>,
}

impl PriceTable {
    /// Prices `model` for `[channels, height, width]` inputs on `gap9`: an
    /// fp32 model pays fp32 byte traffic, an int8 model the quantized rate.
    fn new(model: &OFscilModel, image_dims: &[usize], gap9: Gap9Config) -> Result<PriceTable> {
        let mut backbone = deploy_backbone(model.backbone(), image_dims[1], image_dims[2]);
        let mut fcr = deploy_fcr(model.backbone().feature_dim, model.projection_dim());
        if !model.is_int8() {
            scale_workload_to_fp32(&mut backbone);
            scale_workload_to_fp32(&mut fcr);
        }
        let infer_mj = pass_energy_mj(&backbone, &fcr, &gap9)?;
        Ok(PriceTable {
            backbone,
            fcr,
            gap9,
            infer_mj,
            batched_mj: HashMap::new(),
        })
    }

    /// See [`Deployment::batch_mj`].
    fn batch_mj(&mut self, n: usize) -> f64 {
        if n <= 1 {
            return self.infer_mj;
        }
        if let Some(&mj) = self.batched_mj.get(&n) {
            return mj;
        }
        let passes = self.infer_mj * n as f64;
        let (mut backbone, mut fcr) = (self.backbone.clone(), self.fcr.clone());
        scale_workload_to_batch(&mut backbone, n);
        scale_workload_to_batch(&mut fcr, n);
        let mj = pass_energy_mj(&backbone, &fcr, &self.gap9)
            .unwrap_or(passes)
            .min(passes);
        self.batched_mj.insert(n, mj);
        mj
    }
}

/// Throughput counters carried inside a [`DeploymentExport`], mirroring the
/// per-deployment statistics: a migration adopts them on the target so the
/// tenant's accepted/rejected history survives the move instead of resetting
/// to zero (the same zero-loss property the energy meter gets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExportStats {
    /// Individual `Infer` requests served.
    pub infer_requests: u64,
    /// Batched forward passes those requests were coalesced into.
    pub infer_batches: u64,
    /// Largest coalesced batch observed.
    pub largest_batch: u64,
    /// `LearnOnline` requests served.
    pub learn_requests: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// `Infer` requests refused by admission control.
    pub rejected_infer: u64,
    /// `LearnOnline` requests refused by admission control.
    pub rejected_learn: u64,
    /// Requests deferred by admission control.
    pub deferred: u64,
}

impl ExportStats {
    /// Appends the eight counters, declaration order.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        for counter in [
            self.infer_requests,
            self.infer_batches,
            self.largest_batch,
            self.learn_requests,
            self.snapshots,
            self.rejected_infer,
            self.rejected_learn,
            self.deferred,
        ] {
            put_u64(out, counter);
        }
    }

    /// Inverse of [`ExportStats::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] for a short body.
    pub(crate) fn decode(r: &mut Reader<'_>) -> std::result::Result<ExportStats, DecodeError> {
        Ok(ExportStats {
            infer_requests: r.u64()?,
            infer_batches: r.u64()?,
            largest_batch: r.u64()?,
            learn_requests: r.u64()?,
            snapshots: r.u64()?,
            rejected_infer: r.u64()?,
            rejected_learn: r.u64()?,
            deferred: r.u64()?,
        })
    }
}

/// A deployment's migratable serving state, as produced by
/// [`LearnerRegistry::export_deployment`] and consumed by
/// [`LearnerRegistry::import_deployment`]: the bit-exact explicit-memory
/// snapshot, the replication sequence number it was taken at, and the
/// billing state (energy meter + throughput counters) so a migrated tenant
/// keeps its spend history and budget on the new shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeploymentExport {
    /// Deployment name (must be registered on the importing side).
    pub name: String,
    /// Replication sequence number the snapshot was taken at.
    pub seq: u64,
    /// `ofscil_serve::snapshot` codec bytes.
    pub snapshot: Vec<u8>,
    /// Energy admitted against the budget at export time, in millijoules.
    pub spent_mj: f64,
    /// The configured energy budget in millijoules, if any.
    pub budget_mj: Option<f64>,
    /// Throughput/admission counters at export time.
    pub stats: ExportStats,
}

impl DeploymentExport {
    /// Appends the export: name first (the routing key a router peeks),
    /// sequence number, snapshot bytes, then the billing state — meter and
    /// lifetime counters — so a live migration moves them with the model.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.name.len() + self.snapshot.len() + 96);
        put_str(out, &self.name);
        put_u64(out, self.seq);
        put_bytes(out, &self.snapshot);
        put_f64(out, self.spent_mj);
        encode_budget(self.budget_mj, out);
        self.stats.encode(out);
    }

    /// Inverse of [`DeploymentExport::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`]; the snapshot length is proved
    /// against the body before it is copied.
    pub fn decode(r: &mut Reader<'_>) -> std::result::Result<DeploymentExport, DecodeError> {
        Ok(DeploymentExport {
            name: r.str()?,
            seq: r.u64()?,
            snapshot: r.bytes("snapshot")?,
            spent_mj: r.f64()?,
            budget_mj: decode_budget(r)?,
            stats: ExportStats::decode(r)?,
        })
    }
}

/// Point-in-time statistics of one deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentStats {
    /// Deployment name.
    pub name: String,
    /// Classes currently stored in the explicit memory.
    pub classes: usize,
    /// Individual `Infer` requests served.
    pub infer_requests: u64,
    /// Batched forward passes those requests were coalesced into.
    pub infer_batches: u64,
    /// Largest coalesced batch observed.
    pub largest_batch: usize,
    /// `LearnOnline` requests served.
    pub learn_requests: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// `Infer` requests refused by admission control. Kept separate from
    /// [`DeploymentStats::infer_requests`], which counts **accepted** work
    /// only — a budget-exhaustion storm must not inflate the throughput
    /// counters it was refused by.
    pub rejected_infer: u64,
    /// `LearnOnline` requests refused by admission control (same split as
    /// [`DeploymentStats::rejected_infer`]).
    pub rejected_learn: u64,
    /// Requests deferred by admission control (may since have been released).
    pub deferred: u64,
    /// Energy admitted against the budget so far, in millijoules.
    pub energy_spent_mj: f64,
    /// The configured energy budget in millijoules, if any.
    pub energy_budget_mj: Option<f64>,
    /// Durability counters of the deployment's write-ahead log; `None` when
    /// the runtime serves without a [`CommitJournal`](crate::CommitJournal).
    pub durability: Option<crate::DurabilityStats>,
}

impl DeploymentStats {
    /// Mean coalesced batch size over all served `Infer` requests.
    pub fn mean_batch(&self) -> f64 {
        if self.infer_batches == 0 {
            0.0
        } else {
            self.infer_requests as f64 / self.infer_batches as f64
        }
    }

    /// Total requests refused by admission control, across request types.
    pub fn rejected(&self) -> u64 {
        self.rejected_infer + self.rejected_learn
    }

    /// Total requests accepted and served, across request types.
    pub fn accepted(&self) -> u64 {
        self.infer_requests + self.learn_requests
    }

    /// Appends the statistics: name, counters, meter, then the optional
    /// durability counters behind a 0/1 tag.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        put_u64(out, self.classes as u64);
        put_u64(out, self.infer_requests);
        put_u64(out, self.infer_batches);
        put_u64(out, self.largest_batch as u64);
        put_u64(out, self.learn_requests);
        put_u64(out, self.snapshots);
        put_u64(out, self.rejected_infer);
        put_u64(out, self.rejected_learn);
        put_u64(out, self.deferred);
        put_f64(out, self.energy_spent_mj);
        encode_budget(self.energy_budget_mj, out);
        out.push(u8::from(self.durability.is_some()));
        if let Some(d) = &self.durability {
            put_u64(out, d.wal_records);
            put_u64(out, d.wal_bytes);
            put_u64(out, d.compactions);
            put_u64(out, d.last_checkpoint_seq);
        }
    }

    /// Inverse of [`DeploymentStats::encode`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`].
    pub fn decode(r: &mut Reader<'_>) -> std::result::Result<DeploymentStats, DecodeError> {
        Ok(DeploymentStats {
            name: r.str()?,
            classes: r.usize("classes")?,
            infer_requests: r.u64()?,
            infer_batches: r.u64()?,
            largest_batch: r.usize("largest_batch")?,
            learn_requests: r.u64()?,
            snapshots: r.u64()?,
            rejected_infer: r.u64()?,
            rejected_learn: r.u64()?,
            deferred: r.u64()?,
            energy_spent_mj: r.f64()?,
            energy_budget_mj: decode_budget(r)?,
            durability: if r.flag("durability")? {
                Some(crate::DurabilityStats {
                    wal_records: r.u64()?,
                    wal_bytes: r.u64()?,
                    compactions: r.u64()?,
                    last_checkpoint_seq: r.u64()?,
                })
            } else {
                None
            },
        })
    }
}

/// The energy budget meter of one deployment.
#[derive(Debug)]
pub(crate) struct EnergyMeter {
    inner: Mutex<MeterInner>,
}

#[derive(Debug)]
struct MeterInner {
    budget_mj: Option<f64>,
    spent_mj: f64,
}

impl EnergyMeter {
    fn new(budget_mj: Option<f64>) -> Self {
        EnergyMeter {
            inner: Mutex::new(MeterInner {
                budget_mj,
                spent_mj: 0.0,
            }),
        }
    }

    /// Admits `cost_mj` against the budget. Returns the remaining budget on
    /// refusal.
    pub(crate) fn try_spend(&self, cost_mj: f64) -> std::result::Result<(), f64> {
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        match inner.budget_mj {
            Some(budget) if inner.spent_mj + cost_mj > budget => {
                Err((budget - inner.spent_mj).max(0.0))
            }
            _ => {
                inner.spent_mj += cost_mj;
                Ok(())
            }
        }
    }

    /// Returns `mj` to the meter: the spend drops (never below zero), the
    /// budget itself is untouched. This is how amortized batch pricing is
    /// settled — admission conservatively charges the single-sample rate per
    /// request, and once a coalesced batch has actually run, the difference
    /// to the batch's cheaper amortized cost is handed back.
    pub(crate) fn refund(&self, mj: f64) {
        if !mj.is_finite() || mj <= 0.0 {
            return;
        }
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        inner.spent_mj = (inner.spent_mj - mj).max(0.0);
    }

    /// Raises the budget by `mj` (a no-op for unlimited deployments).
    pub(crate) fn top_up(&self, mj: f64) {
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        if let Some(budget) = inner.budget_mj.as_mut() {
            *budget += mj;
        }
    }

    /// Returns `(spent, remaining)`; remaining is `None` for unlimited.
    pub(crate) fn state(&self) -> (f64, Option<f64>) {
        let inner = self.inner.lock().expect("meter lock poisoned");
        (
            inner.spent_mj,
            inner.budget_mj.map(|b| (b - inner.spent_mj).max(0.0)),
        )
    }

    /// Returns `(spent, budget)` — the raw pair a durable journal records
    /// and crash recovery restores (unlike [`EnergyMeter::state`], which
    /// reports the *remaining* budget).
    pub(crate) fn spent_and_budget(&self) -> (f64, Option<f64>) {
        let inner = self.inner.lock().expect("meter lock poisoned");
        (inner.spent_mj, inner.budget_mj)
    }

    /// Overwrites the meter with journaled state — crash recovery only.
    pub(crate) fn recover(&self, spent_mj: f64, budget_mj: Option<f64>) {
        let mut inner = self.inner.lock().expect("meter lock poisoned");
        inner.spent_mj = spent_mj;
        inner.budget_mj = budget_mj;
    }
}

/// A deployment's model together with its replication sequence number,
/// behind one lock: the sequence order matches the order of memory
/// mutations because both only change while that lock is held.
#[derive(Debug)]
pub(crate) struct Tenant {
    pub model: OFscilModel,
    /// Incremented once per committed `LearnOnline` (and per other memory
    /// mutation); a snapshot taken at `seq` contains every mutation
    /// numbered `<= seq`.
    pub seq: u64,
}

/// One registered deployment: five locks, one per piece of state (the
/// tenant, the FIFO work queue, the counters, the meter and the prices),
/// plus the immutable admission metadata the dispatcher reads without
/// locking. Code that holds the tenant lock together with another takes the
/// tenant lock first.
pub(crate) struct Deployment {
    pub name: String,
    pub tenant: Mutex<Tenant>,
    pub work: Mutex<crate::batch::WorkQueue>,
    /// Lifetime counters, in the form a migration exports them.
    pub stats: Mutex<ExportStats>,
    pub(crate) meter: EnergyMeter,
    /// Current prices; swapped whole when the deployment converts to int8
    /// and is re-priced at the cheaper quantized rate.
    prices: Mutex<PriceTable>,
    pub policy: BudgetPolicy,
    /// `[channels, height, width]` every `Infer` image must match.
    pub(crate) image_dims: Vec<usize>,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("image_dims", &self.image_dims)
            .finish_non_exhaustive()
    }
}

impl Deployment {
    fn prices(&self) -> std::sync::MutexGuard<'_, PriceTable> {
        self.prices.lock().expect("prices lock poisoned")
    }

    /// Energy of one forward pass in millijoules: the price of one
    /// inference, and of each support sample of a learn.
    pub(crate) fn infer_mj(&self) -> f64 {
        self.prices().infer_mj
    }

    /// Device-model energy of `n` forward passes run as one batch, in
    /// millijoules: a coalesced inference batch, or the support samples of
    /// one learn. Activations and MACs scale with the batch while the
    /// weight traffic is paid once, so this undercuts `n` single passes —
    /// the amortization the budget meter settles after the batch runs.
    /// Clamped to at most `n` single passes (refunds can never go negative)
    /// and memoized per batch size. Never takes the model lock.
    pub(crate) fn batch_mj(&self, n: usize) -> f64 {
        self.prices().batch_mj(n)
    }

    /// Energy to hand back once a batch of `n` passes has run: admission
    /// charged `n` single passes, the batch actually cost
    /// [`Deployment::batch_mj`]. Zero for a single pass.
    pub(crate) fn batch_refund_mj(&self, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let mut prices = self.prices();
        (prices.infer_mj * n as f64 - prices.batch_mj(n)).max(0.0)
    }

    pub(crate) fn stats_snapshot(&self) -> DeploymentStats {
        let classes = self
            .tenant
            .lock()
            .expect("model lock poisoned")
            .model
            .em()
            .num_classes();
        let stats = self.stats.lock().expect("stats lock poisoned");
        let (spent, budget) = self.meter.spent_and_budget();
        DeploymentStats {
            name: self.name.clone(),
            classes,
            infer_requests: stats.infer_requests,
            infer_batches: stats.infer_batches,
            largest_batch: usize::try_from(stats.largest_batch).unwrap_or(usize::MAX),
            learn_requests: stats.learn_requests,
            snapshots: stats.snapshots,
            rejected_infer: stats.rejected_infer,
            rejected_learn: stats.rejected_learn,
            deferred: stats.deferred,
            energy_spent_mj: spent,
            energy_budget_mj: budget,
            durability: None,
        }
    }
}

/// Lock shards of a [`LearnerRegistry`].
const SHARDS: usize = 8;

/// FNV-1a over a name — the shard selector.
fn shard_of(name: &str, shards: usize) -> usize {
    (fnv1a64(name.as_bytes()) % shards as u64) as usize
}

/// A sharded registry of independent [`OFscilModel`] deployments.
///
/// Each shard is an `RwLock` over a name → deployment map; each deployment
/// holds its model behind its own `Mutex`. Lookups take a shard read lock
/// only long enough to clone the `Arc`, so tenants on different deployments
/// infer and learn fully concurrently, and tenants on different shards even
/// register concurrently.
#[derive(Debug)]
pub struct LearnerRegistry {
    shards: Vec<RwLock<HashMap<String, Arc<Deployment>>>>,
}

impl Default for LearnerRegistry {
    fn default() -> Self {
        LearnerRegistry::new()
    }
}

impl LearnerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        LearnerRegistry {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// Registers a deployment. The request price list is derived from the
    /// model's backbone and FCR on the spec's GAP9 device model **at the
    /// model's current execution precision** (fp32 pays fp32 byte traffic;
    /// int8 the quantized rate), so the energy budget is enforced in the
    /// same millijoules the paper reports.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateDeployment`] when the name is taken and
    /// a pricing error when the spec's device model cannot price the model.
    pub fn register(&self, spec: DeploymentSpec, model: OFscilModel) -> Result<()> {
        let (height, width) = spec.image_hw;
        let image_dims = vec![model.backbone().in_channels, height, width];
        let prices = PriceTable::new(&model, &image_dims, spec.gap9)?;

        let deployment = Arc::new(Deployment {
            name: spec.name.clone(),
            tenant: Mutex::new(Tenant { model, seq: 0 }),
            work: Mutex::new(crate::batch::WorkQueue::default()),
            stats: Mutex::new(ExportStats::default()),
            meter: EnergyMeter::new(spec.energy_budget_mj),
            prices: Mutex::new(prices),
            policy: spec.budget_policy,
            image_dims,
        });

        let shard = &self.shards[shard_of(&spec.name, self.shards.len())];
        let mut map = shard.write().expect("shard lock poisoned");
        if map.contains_key(&spec.name) {
            return Err(ServeError::DuplicateDeployment(spec.name));
        }
        map.insert(spec.name, deployment);
        Ok(())
    }

    /// Resolves a deployment handle by name.
    pub(crate) fn resolve(&self, name: &str) -> Result<Arc<Deployment>> {
        let shard = &self.shards[shard_of(name, self.shards.len())];
        shard
            .read()
            .expect("shard lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownDeployment(name.to_string()))
    }

    /// The sorted list of registered deployment names.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("shard lock poisoned")
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered deployments.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// Returns `true` when no deployment is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs a closure with exclusive access to a deployment's model — the
    /// out-of-band management path (pre-loading classes, converting to int8)
    /// used before or between serving runs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names.
    pub fn with_model<T>(&self, name: &str, f: impl FnOnce(&mut OFscilModel) -> T) -> Result<T> {
        let deployment = self.resolve(name)?;
        let mut tenant = deployment.tenant.lock().expect("model lock poisoned");
        Ok(f(&mut tenant.model))
    }

    /// Point-in-time statistics of a deployment.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names.
    pub fn stats(&self, name: &str) -> Result<DeploymentStats> {
        Ok(self.resolve(name)?.stats_snapshot())
    }

    /// Serializes a deployment's explicit memory together with its current
    /// replication sequence number, read atomically under the model lock.
    /// This is the anchor a follower's snapshot stream starts from: deltas
    /// with a sequence number at or below the returned one are already part
    /// of the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names.
    pub fn snapshot_with_seq(&self, name: &str) -> Result<(u64, Vec<u8>)> {
        let deployment = self.resolve(name)?;
        let tenant = deployment.tenant.lock().expect("model lock poisoned");
        Ok((tenant.seq, encode_explicit_memory(tenant.model.em())))
    }

    /// Exports a deployment's migratable serving state: the explicit-memory
    /// snapshot plus the replication sequence number it was taken at, read
    /// atomically under the model lock. Backbone and FCR weights are
    /// load-time artifacts every process shares; the explicit memory is the
    /// online-learned state, and it is tiny — which is exactly what makes
    /// live migration between serving processes cheap.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names.
    pub fn export_deployment(&self, name: &str) -> Result<DeploymentExport> {
        let deployment = self.resolve(name)?;
        let (seq, snapshot) = self.snapshot_with_seq(name)?;
        let (spent_mj, budget_mj) = deployment.meter.spent_and_budget();
        let stats = *deployment.stats.lock().expect("stats lock poisoned");
        Ok(DeploymentExport {
            name: name.to_string(),
            seq,
            snapshot,
            spent_mj,
            budget_mj,
            stats,
        })
    }

    /// Installs an exported deployment state: the snapshot is restored
    /// **bit-exactly** and the export's replication sequence number is
    /// adopted, so the imported deployment's own snapshot anchors keep their
    /// "seq `s` contains every mutation `<= s`" meaning. The sequence never
    /// moves backwards — when this deployment's local history already ran
    /// past the export's number, the import advances it by one instead
    /// (like [`LearnerRegistry::restore`]). Either way a subscriber that
    /// was already tailing this deployment observes a forward sequence jump
    /// on the next commit and resyncs from a fresh anchor instead of
    /// silently skipping deltas. The export's billing state (energy meter +
    /// throughput counters) is adopted exactly, so a migration carries the
    /// tenant's spend history with it. Returns the number of restored
    /// classes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names, a codec
    /// error for malformed snapshot bytes, and
    /// [`ServeError::InvalidRequest`] on a projection-dimension mismatch.
    pub fn import_deployment(&self, export: &DeploymentExport) -> Result<usize> {
        self.import_deployment_with(export, |_, _, _| ())
            .map(|(classes, ())| classes)
    }

    /// Like [`LearnerRegistry::import_deployment`], but invokes `f` with the
    /// post-install `(seq, spent_mj, budget_mj)` **while the model lock is
    /// still held** — the journaling hook. Learns journal under the same
    /// lock, so the import's WAL record and any racing learn's are appended
    /// in true sequence order; journaling after the lock is released can
    /// interleave (a learn at seq S+1 lands before the import's record at
    /// seq S, and replay then skips the import entirely).
    ///
    /// # Errors
    ///
    /// See [`LearnerRegistry::import_deployment`].
    pub fn import_deployment_with<T>(
        &self,
        export: &DeploymentExport,
        f: impl FnOnce(u64, f64, Option<f64>) -> T,
    ) -> Result<(usize, T)> {
        self.install(&export.name, &export.snapshot, |deployment, seq| {
            *seq = export.seq.max(*seq + 1);
            // Billing state rides the export: the meter and throughput
            // counters are adopted exactly, so a controller-driven migration
            // preserves the tenant's spend history and budget instead of
            // resetting them.
            deployment.meter.recover(export.spent_mj, export.budget_mj);
            *deployment.stats.lock().expect("stats lock poisoned") = export.stats;
            f(*seq, export.spent_mj, export.budget_mj)
        })
    }

    /// The one install body behind restore, import and recovery. Decodes
    /// `snapshot`, checks it against the deployment's projection head, swaps
    /// it in as the explicit memory bit-exactly, and hands the deployment and
    /// its sequence number to `after` **while the model lock is still held**
    /// — so the sequence number, meter state and counters the caller adopts
    /// become visible together with the memory they describe. Returns the
    /// number of restored classes and `after`'s value.
    fn install<T>(
        &self,
        name: &str,
        snapshot: &[u8],
        after: impl FnOnce(&Deployment, &mut u64) -> T,
    ) -> Result<(usize, T)> {
        let em = decode_explicit_memory(snapshot)?;
        let deployment = self.resolve(name)?;
        let mut tenant = deployment.tenant.lock().expect("model lock poisoned");
        if em.dim() != tenant.model.projection_dim() {
            return Err(ServeError::InvalidRequest(format!(
                "snapshot dimension {} does not match deployment projection dimension {}",
                em.dim(),
                tenant.model.projection_dim()
            )));
        }
        let classes = em.num_classes();
        *tenant.model.em_mut() = em;
        Ok((classes, after(&deployment, &mut tenant.seq)))
    }

    /// A deployment's current replication sequence number — the cheap
    /// seq-only read (no snapshot serialization) bootstrap paths use. Takes
    /// the model lock, which orders it against every mutation.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names.
    pub fn replication_seq(&self, name: &str) -> Result<u64> {
        let deployment = self.resolve(name)?;
        let seq = deployment.tenant.lock().expect("model lock poisoned").seq;
        Ok(seq)
    }

    /// Applies a replication delta: stores each `(class, prototype)` pair
    /// bit-exactly via [`ExplicitMemory::restore_prototype`], bypassing the
    /// storage quantizer (the values were quantized on the primary). Returns
    /// the number of classes now stored.
    ///
    /// [`ExplicitMemory::restore_prototype`]: ofscil_core::ExplicitMemory::restore_prototype
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names and a
    /// model error when a prototype's dimensionality does not match the
    /// deployment's projection head.
    pub fn apply_prototype_updates(
        &self,
        name: &str,
        updates: &[(usize, Vec<f32>)],
    ) -> Result<usize> {
        let deployment = self.resolve(name)?;
        let mut tenant = deployment.tenant.lock().expect("model lock poisoned");
        for (class, prototype) in updates {
            tenant.model.em_mut().restore_prototype(*class, prototype)?;
        }
        // Every explicit-memory mutation advances the replication sequence,
        // so this deployment's own snapshot anchor keeps its "seq s contains
        // every mutation <= s" meaning.
        tenant.seq += 1;
        Ok(tenant.model.em().num_classes())
    }

    /// The deployment's current price of one forward pass in millijoules:
    /// one inference, or each support sample of a learn. Derived from the
    /// backbone and FCR on the GAP9 cost model — the paper's 12 mJ/class
    /// headline turned into an admission-control price.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names.
    pub fn pricing(&self, name: &str) -> Result<f64> {
        Ok(self.resolve(name)?.infer_mj())
    }

    /// Converts a deployment's model to simulated int8 execution and
    /// re-prices it at the quantized rate, so the energy-budget meter
    /// charges subsequent requests the cheaper int8 price. Returns the new
    /// price of one forward pass in millijoules.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names, a model
    /// error when weight calibration fails, and a pricing error when the
    /// device model no longer validates.
    pub fn convert_to_int8(&self, name: &str) -> Result<f64> {
        let deployment = self.resolve(name)?;
        let mut tenant = deployment.tenant.lock().expect("model lock poisoned");
        if !tenant.model.is_int8() {
            tenant.model.convert_to_int8()?;
        }
        let mut prices = deployment.prices();
        *prices = PriceTable::new(&tenant.model, &deployment.image_dims, prices.gap9.clone())?;
        Ok(prices.infer_mj)
    }

    /// Restores a deployment's explicit memory from snapshot bytes (warm
    /// restart / replication). Returns the number of restored classes.
    ///
    /// Restoring counts as a mutation: the replication sequence number
    /// advances, so a subscriber that was tailing this deployment observes a
    /// sequence gap on the next commit and halts loudly (its state can no
    /// longer be proven exact) instead of silently diverging.
    ///
    /// # Errors
    ///
    /// Returns a codec error for malformed bytes and
    /// [`ServeError::InvalidRequest`] when the snapshot's dimensionality does
    /// not match the deployment's projection head.
    pub fn restore(&self, name: &str, bytes: &[u8]) -> Result<usize> {
        self.install(name, bytes, |_, seq| *seq += 1)
            .map(|(classes, ())| classes)
    }

    /// Like [`LearnerRegistry::restore`], but adopts `seq` as the
    /// deployment's replication sequence number **exactly** instead of
    /// advancing the local one. This is how a follower applies a
    /// full-snapshot anchor: its registry then counts in the *primary's*
    /// sequence line, so a later promotion (follower → writable primary)
    /// continues that line and re-attached subscribers resume consistently.
    ///
    /// # Errors
    ///
    /// Returns a codec error for malformed bytes and
    /// [`ServeError::InvalidRequest`] when the snapshot's dimensionality does
    /// not match the deployment's projection head.
    pub fn restore_at(&self, name: &str, bytes: &[u8], seq: u64) -> Result<usize> {
        self.install(name, bytes, |_, s| *s = seq)
            .map(|(classes, ())| classes)
    }

    /// Returns a deployment's raw `(spent, budget)` energy-meter state — the
    /// pair a durable journal checkpoints and crash recovery restores.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names.
    pub fn energy_state(&self, name: &str) -> Result<(f64, Option<f64>)> {
        Ok(self.resolve(name)?.meter.spent_and_budget())
    }

    /// Installs a deployment's durable state after a crash: the explicit
    /// memory is restored bit-exactly, and — unlike [`LearnerRegistry::restore`],
    /// which treats restoring as a live mutation and advances the sequence —
    /// the journaled replication sequence number and energy-meter state are
    /// adopted **exactly**, because recovery recreates history rather than
    /// extending it. Returns the number of restored classes.
    ///
    /// Only a durable store should call this, on a freshly constructed
    /// registry, before any traffic is served.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names, a codec
    /// error for malformed snapshot bytes, and
    /// [`ServeError::InvalidRequest`] on a projection-dimension mismatch.
    pub fn recover_deployment(
        &self,
        name: &str,
        snapshot: &[u8],
        seq: u64,
        spent_mj: f64,
        budget_mj: Option<f64>,
    ) -> Result<usize> {
        self.install(name, snapshot, |deployment, s| {
            *s = seq;
            deployment.meter.recover(spent_mj, budget_mj);
        })
        .map(|(classes, ())| classes)
    }

    /// Raises a deployment's energy budget by `mj` out-of-band. Budget
    /// top-ups submitted through the runtime (`ServeRequest::TopUpBudget`)
    /// additionally release deferred requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownDeployment`] for unknown names and
    /// [`ServeError::InvalidRequest`] for non-finite or negative amounts
    /// (which would otherwise corrupt the budget meter — a NaN budget admits
    /// everything forever).
    pub fn top_up(&self, name: &str, mj: f64) -> Result<()> {
        if !mj.is_finite() || mj < 0.0 {
            return Err(ServeError::InvalidRequest(format!(
                "budget top-up must be a finite non-negative amount, got {mj}"
            )));
        }
        self.resolve(name)?.meter.top_up(mj);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofscil_nn::models::BackboneKind;
    use ofscil_tensor::SeedRng;

    fn micro_model(seed: u64) -> OFscilModel {
        let mut rng = SeedRng::new(seed);
        OFscilModel::new(BackboneKind::Micro, 16, &mut rng)
    }

    #[test]
    fn register_resolve_and_duplicates() {
        let registry = LearnerRegistry::new();
        assert!(registry.is_empty());
        registry
            .register(DeploymentSpec::new("tenant-a", (8, 8)), micro_model(0))
            .unwrap();
        registry
            .register(DeploymentSpec::new("tenant-b", (8, 8)), micro_model(1))
            .unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(
            registry.names(),
            vec!["tenant-a".to_string(), "tenant-b".to_string()]
        );
        let err = registry
            .register(DeploymentSpec::new("tenant-a", (8, 8)), micro_model(2))
            .unwrap_err();
        assert!(matches!(err, ServeError::DuplicateDeployment(_)));
        assert!(matches!(
            registry.stats("nope").unwrap_err(),
            ServeError::UnknownDeployment(_)
        ));
    }

    #[test]
    fn pricing_is_positive_and_device_derived() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("t", (8, 8)), micro_model(0))
            .unwrap();
        let deployment = registry.resolve("t").unwrap();
        assert!(deployment.infer_mj() > 0.0);
        assert_eq!(deployment.image_dims, vec![3, 8, 8]);
    }

    #[test]
    fn int8_conversion_reprices_at_the_cheaper_quantized_rate() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("t", (8, 8)), micro_model(0))
            .unwrap();
        let fp32 = registry.pricing("t").unwrap();
        let int8 = registry.convert_to_int8("t").unwrap();
        assert!(
            int8 < fp32,
            "int8 price {int8} must undercut fp32 price {fp32}"
        );
        assert_eq!(registry.pricing("t").unwrap(), int8);
        assert!(registry.with_model("t", |m| m.is_int8()).unwrap());
        // Converting again is idempotent: same price, no double quantization.
        let again = registry.convert_to_int8("t").unwrap();
        assert_eq!(again, int8);
        // A model registered already-converted gets the int8 rate up front.
        let mut pre = micro_model(1);
        pre.convert_to_int8().unwrap();
        registry
            .register(DeploymentSpec::new("pre", (8, 8)), pre)
            .unwrap();
        let pre_pricing = registry.pricing("pre").unwrap();
        assert!((pre_pricing - int8).abs() < 1e-12);
    }

    #[test]
    fn budget_rejected_at_fp32_price_admits_after_int8_conversion() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("t", (8, 8)), micro_model(0))
            .unwrap();
        let fp32 = registry.pricing("t").unwrap();
        let int8_estimate = fp32 / FP32_BYTES_PER_INT8 as f64;
        // A budget below the fp32 price but comfortably above the int8 one.
        let registry = LearnerRegistry::new();
        registry
            .register(
                DeploymentSpec::new("t", (8, 8))
                    .with_energy_budget(fp32 * 0.9, BudgetPolicy::Reject),
                micro_model(0),
            )
            .unwrap();
        let deployment = registry.resolve("t").unwrap();
        assert!(deployment
            .meter
            .try_spend(registry.pricing("t").unwrap())
            .is_err());
        let int8 = registry.convert_to_int8("t").unwrap();
        assert!(int8 < fp32 * 0.9);
        assert!(
            int8 > int8_estimate * 0.5,
            "sanity: int8 price in plausible range"
        );
        deployment.meter.try_spend(int8).unwrap();
    }

    #[test]
    fn snapshot_with_seq_and_prototype_updates_roundtrip() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("a", (8, 8)), micro_model(0))
            .unwrap();
        let (seq, bytes) = registry.snapshot_with_seq("a").unwrap();
        assert_eq!(seq, 0);
        let encoded = registry
            .with_model("a", |m| encode_explicit_memory(m.em()))
            .unwrap();
        assert_eq!(bytes, encoded);
        let proto: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let classes = registry
            .apply_prototype_updates("a", &[(3, proto.clone()), (7, proto.clone())])
            .unwrap();
        assert_eq!(classes, 2);
        let stored = registry
            .with_model("a", |m| m.em().prototype(3).unwrap().to_vec())
            .unwrap();
        assert!(stored
            .iter()
            .zip(&proto)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // Wrong dimensionality is a typed error, not a panic.
        assert!(registry
            .apply_prototype_updates("a", &[(0, vec![1.0; 3])])
            .is_err());
        assert!(matches!(
            registry.snapshot_with_seq("ghost").unwrap_err(),
            ServeError::UnknownDeployment(_)
        ));
    }

    #[test]
    fn batched_inference_is_cheaper_than_independent_passes() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("t", (8, 8)), micro_model(0))
            .unwrap();
        let deployment = registry.resolve("t").unwrap();
        let single = deployment.infer_mj();
        // n == 1 is exactly the single-sample price, refund zero.
        assert!((deployment.batch_mj(1) - single).abs() < 1e-12);
        assert_eq!(deployment.batch_refund_mj(1), 0.0);
        // A real batch amortizes the weight traffic: strictly cheaper than n
        // independent passes, and the per-sample price keeps falling with n.
        let batch8 = deployment.batch_mj(8);
        assert!(
            batch8 < 8.0 * single,
            "batch of 8 ({batch8}) must undercut {}",
            8.0 * single
        );
        assert!(batch8 / 8.0 < deployment.batch_mj(2) / 2.0);
        let refund = deployment.batch_refund_mj(8);
        assert!((refund - (8.0 * single - batch8)).abs() < 1e-9);
        // Memoized: the second call returns the identical value.
        assert_eq!(deployment.batch_mj(8), batch8);
        // Int8 conversion re-derives the cache at the quantized rate.
        let int8 = registry.convert_to_int8("t").unwrap();
        let int8_batch8 = deployment.batch_mj(8);
        assert!(
            int8_batch8 < batch8,
            "int8 batch must be cheaper than fp32 batch"
        );
        assert!(int8_batch8 < 8.0 * int8);
        // A batch of one is the single-pass price, bit for bit.
        assert_eq!(deployment.batch_mj(1).to_bits(), int8.to_bits());
        assert_eq!(
            deployment.batch_mj(1).to_bits(),
            registry.pricing("t").unwrap().to_bits()
        );
    }

    #[test]
    fn batch_mj_answers_while_the_model_lock_is_held() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("t", (8, 8)), micro_model(0))
            .unwrap();
        let deployment = registry.resolve("t").unwrap();
        let held = deployment.tenant.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let deployment = &deployment;
            // 7 passes: no batch price is memoized yet, so this derives one.
            scope.spawn(move || tx.send(deployment.batch_mj(7)).unwrap());
            let answered = rx.recv_timeout(std::time::Duration::from_secs(10));
            // Release before asserting, so a failure reports instead of
            // leaving the pricing thread blocked on the lock forever.
            drop(held);
            let mj = answered.expect("batch_mj must not wait for the model lock");
            assert!(mj > 0.0 && mj < 7.0 * deployment.infer_mj());
        });
    }

    #[test]
    fn meter_refund_settles_amortized_spend() {
        let meter = EnergyMeter::new(Some(100.0));
        meter.try_spend(40.0).unwrap();
        meter.refund(15.0);
        let (spent, remaining) = meter.state();
        assert!((spent - 25.0).abs() < 1e-12);
        assert!((remaining.unwrap() - 75.0).abs() < 1e-12);
        // Refunds clamp at zero and ignore junk amounts.
        meter.refund(1e9);
        assert_eq!(meter.state().0, 0.0);
        meter.refund(f64::NAN);
        meter.refund(-3.0);
        assert_eq!(meter.state().0, 0.0);
    }

    #[test]
    fn export_import_moves_state_bit_exactly_and_adopts_seq() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("a", (8, 8)), micro_model(0))
            .unwrap();
        registry
            .register(DeploymentSpec::new("b", (8, 8)), micro_model(1))
            .unwrap();
        let proto: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        registry
            .apply_prototype_updates("a", &[(2, proto.clone())])
            .unwrap();
        registry
            .apply_prototype_updates("a", &[(5, proto.clone())])
            .unwrap();

        let export = registry.export_deployment("a").unwrap();
        assert_eq!(export.name, "a");
        assert_eq!(export.seq, 2);
        let classes = registry
            .import_deployment(&DeploymentExport {
                name: "b".into(),
                ..export.clone()
            })
            .unwrap();
        assert_eq!(classes, 2);
        // The imported side answers with identical snapshot bytes and carries
        // the exported sequence number forward.
        assert_eq!(
            registry.snapshot_with_seq("a").unwrap().1,
            registry.snapshot_with_seq("b").unwrap().1
        );
        let (seq, _) = registry.snapshot_with_seq("b").unwrap();
        assert_eq!(seq, 2);

        // An import can never move a deployment's sequence backwards: when
        // the local history already ran past the export's number, the seq
        // advances by one instead, so a tailing subscriber sees a forward
        // jump (gap → resync), never a silent skip.
        for _ in 0..3 {
            registry
                .apply_prototype_updates("b", &[(9, proto.clone())])
                .unwrap();
        }
        assert_eq!(registry.snapshot_with_seq("b").unwrap().0, 5);
        registry
            .import_deployment(&DeploymentExport {
                name: "b".into(),
                ..export.clone()
            })
            .unwrap();
        assert_eq!(registry.snapshot_with_seq("b").unwrap().0, 6);

        // Unknown target and dimension mismatches are typed errors.
        assert!(matches!(
            registry
                .import_deployment(&DeploymentExport {
                    name: "ghost".into(),
                    ..export.clone()
                })
                .unwrap_err(),
            ServeError::UnknownDeployment(_)
        ));
        let foreign = ofscil_core::ExplicitMemory::new(99);
        let bad = DeploymentExport {
            name: "b".into(),
            seq: 9,
            snapshot: encode_explicit_memory(&foreign),
            ..DeploymentExport::default()
        };
        assert!(matches!(
            registry.import_deployment(&bad).unwrap_err(),
            ServeError::InvalidRequest(_)
        ));
    }

    #[test]
    fn export_import_preserves_billing_state() {
        let registry = LearnerRegistry::new();
        registry
            .register(
                DeploymentSpec::new("a", (8, 8)).with_energy_budget(80.0, BudgetPolicy::Reject),
                micro_model(0),
            )
            .unwrap();
        registry
            .register(DeploymentSpec::new("b", (8, 8)), micro_model(0))
            .unwrap();
        let source = registry.resolve("a").unwrap();
        source.meter.try_spend(12.25).unwrap();
        {
            let mut stats = source.stats.lock().unwrap();
            stats.infer_requests = 7;
            stats.learn_requests = 3;
            stats.rejected_infer = 2;
            stats.largest_batch = 4;
        }

        let export = registry.export_deployment("a").unwrap();
        assert_eq!(export.spent_mj.to_bits(), 12.25f64.to_bits());
        assert_eq!(export.budget_mj.map(f64::to_bits), Some(80.0f64.to_bits()));
        assert_eq!(export.stats.infer_requests, 7);
        assert_eq!(export.stats.largest_batch, 4);

        registry
            .import_deployment(&DeploymentExport {
                name: "b".into(),
                ..export
            })
            .unwrap();
        // The target adopts the exported meter and counters exactly: the
        // tenant's billing history survives the migration.
        let (spent, budget) = registry.energy_state("b").unwrap();
        assert_eq!(spent.to_bits(), 12.25f64.to_bits());
        assert_eq!(budget.map(f64::to_bits), Some(80.0f64.to_bits()));
        let stats = registry.stats("b").unwrap();
        assert_eq!(stats.infer_requests, 7);
        assert_eq!(stats.learn_requests, 3);
        assert_eq!(stats.rejected_infer, 2);
        assert_eq!(stats.largest_batch, 4);
    }

    #[test]
    fn recover_deployment_adopts_seq_and_meter_exactly() {
        let registry = LearnerRegistry::new();
        registry
            .register(
                DeploymentSpec::new("a", (8, 8)).with_energy_budget(50.0, BudgetPolicy::Reject),
                micro_model(0),
            )
            .unwrap();
        let proto: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        registry
            .apply_prototype_updates("a", &[(3, proto.clone())])
            .unwrap();
        let snapshot = registry.snapshot_with_seq("a").unwrap().1;

        // A second registry plays the post-crash fresh process.
        let registry2 = LearnerRegistry::new();
        registry2
            .register(DeploymentSpec::new("a", (8, 8)), micro_model(0))
            .unwrap();
        let classes = registry2
            .recover_deployment("a", &snapshot, 17, 12.5, Some(99.0))
            .unwrap();
        assert_eq!(classes, 1);
        // Unlike restore(), recovery adopts the journaled seq *exactly*.
        assert_eq!(registry2.snapshot_with_seq("a").unwrap().0, 17);
        let (spent, budget) = registry2.energy_state("a").unwrap();
        assert_eq!(spent.to_bits(), 12.5f64.to_bits());
        assert_eq!(budget.map(f64::to_bits), Some(99.0f64.to_bits()));
        assert_eq!(registry2.snapshot_with_seq("a").unwrap().1, snapshot);

        // Mismatched dimensionality stays a typed error.
        let foreign = ofscil_core::ExplicitMemory::new(99);
        assert!(matches!(
            registry2
                .recover_deployment("a", &encode_explicit_memory(&foreign), 1, 0.0, None)
                .unwrap_err(),
            ServeError::InvalidRequest(_)
        ));
    }

    #[test]
    fn meter_spends_tops_up_and_refuses() {
        let meter = EnergyMeter::new(Some(10.0));
        meter.try_spend(6.0).unwrap();
        let remaining = meter.try_spend(6.0).unwrap_err();
        assert!((remaining - 4.0).abs() < 1e-12);
        meter.top_up(5.0);
        meter.try_spend(6.0).unwrap();
        let (spent, remaining) = meter.state();
        assert!((spent - 12.0).abs() < 1e-12);
        assert!((remaining.unwrap() - 3.0).abs() < 1e-12);
        // Unlimited meters never refuse and ignore top-ups.
        let unlimited = EnergyMeter::new(None);
        unlimited.try_spend(1e9).unwrap();
        unlimited.top_up(1.0);
        assert_eq!(unlimited.state().1, None);
    }

    #[test]
    fn top_up_rejects_nan_and_negative_amounts() {
        let registry = LearnerRegistry::new();
        let spec = DeploymentSpec::new("t", (8, 8)).with_energy_budget(1.0, BudgetPolicy::Reject);
        registry.register(spec, micro_model(0)).unwrap();
        assert!(matches!(
            registry.top_up("t", f64::NAN).unwrap_err(),
            ServeError::InvalidRequest(_)
        ));
        assert!(matches!(
            registry.top_up("t", -5.0).unwrap_err(),
            ServeError::InvalidRequest(_)
        ));
        registry.top_up("t", 2.0).unwrap();
        let stats = registry.stats("t").unwrap();
        assert_eq!(stats.energy_budget_mj, Some(3.0));
    }

    #[test]
    fn snapshot_restore_roundtrip_through_registry() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("a", (8, 8)), micro_model(0))
            .unwrap();
        registry
            .register(DeploymentSpec::new("b", (8, 8)), micro_model(1))
            .unwrap();
        registry
            .with_model("a", |model| {
                let proto: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
                model.em_mut().set_prototype(4, &proto).unwrap();
            })
            .unwrap();
        let (_, bytes) = registry.snapshot_with_seq("a").unwrap();
        let restored = registry.restore("b", &bytes).unwrap();
        assert_eq!(restored, 1);
        let classes = registry
            .with_model("b", |model| model.em().classes())
            .unwrap();
        assert_eq!(classes, vec![4]);
    }

    #[test]
    fn restore_rejects_dimension_mismatch() {
        let registry = LearnerRegistry::new();
        registry
            .register(DeploymentSpec::new("a", (8, 8)), micro_model(0))
            .unwrap();
        let foreign = ofscil_core::ExplicitMemory::new(99);
        let err = registry
            .restore("a", &encode_explicit_memory(&foreign))
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest(_)));
    }
}
