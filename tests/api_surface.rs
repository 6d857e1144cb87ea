//! Compile-only pin of the API surface the perf ledger (`benchmark/`)
//! builds against, item for item as `benchmark/README.md` § "API surface"
//! lists it (the `ofscil_simbench` items are pinned in that crate's own
//! `tests/api_surface.rs`). Making one of these items crate-private, or
//! renaming it, fails this test's build under `cargo test`, not only the
//! benchmark's separate build. Functions are named as values, types as
//! `Option<T>`, fields and variants through closures that never run.

use ofscil::core::{ExplicitMemory, OFscilModel};
use ofscil::data::Batch;
use ofscil::gap9::{deploy_backbone, Gap9Executor, OperationCost};
use ofscil::nn::models::{mobilenet_v2, Backbone, BackboneKind, MobileNetVariant};
use ofscil::nn::Mode;
use ofscil::obs::{Event, EventKind, EventSink, Obs, ObsConfig, ObsQuery, ObsStore};
use ofscil::quant::{FakeQuant, PrototypePrecision, QuantTensor};
use ofscil::router::harness::ShardProcess;
use ofscil::router::{HashRing, RouterConfig, RouterHandle, RouterServer, ShardStats};
use ofscil::serve::{
    CommitJournal, DeploymentSpec, DeploymentStats, LearnCommit, LearnerRegistry, PendingResponse,
    ServeClient, ServeConfig, ServeRequest, ServeResponse, ServeRuntime,
};
use ofscil::store::{DeploymentState, Store};
use ofscil::tensor::{im2col, Conv2dGeometry, SeedRng, Tensor};
use ofscil::wire::codec::{decode_request, encode_request};
use ofscil::wire::frame::parse_frame;
use ofscil::wire::{
    peek_request, WireClient, WireConfig, WireHandle, WireRequest, WireServer, DEFAULT_MAX_PAYLOAD,
};

#[test]
fn tensor_nn_core_data_items_stay_public() {
    let _ = Tensor::from_vec;
    let _ = Tensor::stack;
    let _ = Tensor::reshape;
    let _ = Tensor::reshape_in_place;
    let _ = Tensor::matmul;
    let _ = Tensor::dims;
    let _ = Tensor::as_slice;
    let _ = im2col;
    let _ = Conv2dGeometry::new;
    let _ = Conv2dGeometry::out_h;
    let _ = SeedRng::new;
    let _ = SeedRng::normal;
    let _ = SeedRng::uniform;
    let _ = SeedRng::below;

    let _ = BackboneKind::MobileNetV2;
    let _ = BackboneKind::Micro;
    let _ = BackboneKind::build;
    let _ = Backbone::forward;
    let _ = Backbone::macs;
    let _ = |backbone: &Backbone| backbone.feature_dim;
    let _ = Mode::Eval;
    let _ = mobilenet_v2;
    let _: Option<MobileNetVariant> = None;

    let _ = OFscilModel::new;
    let _ = OFscilModel::predict;
    let _ = OFscilModel::learn_classes_online;
    let _ = OFscilModel::em_mut;
    let _ = OFscilModel::backbone;
    let _ = OFscilModel::backbone_mut;
    let _ = ExplicitMemory::new;
    let _ = ExplicitMemory::set_prototype;
    let _ = ExplicitMemory::classify;
    let _ = ExplicitMemory::update_class;

    let _ = |batch: Batch| {
        let Batch { images, labels } = batch;
        (images, labels)
    };
}

#[test]
fn quant_and_gap9_items_stay_public() {
    let _ = PrototypePrecision::new;
    let _ = PrototypePrecision::quantize;
    let _ = FakeQuant::new;
    let _ = FakeQuant::apply;
    let _ = QuantTensor::quantize_auto;
    let _ = QuantTensor::matmul;

    let _ = <Gap9Executor as Default>::default;
    let _ = Gap9Executor::fcr_inference;
    let _ = Gap9Executor::backbone_inference;
    let _ = Gap9Executor::em_update;
    let _ = Gap9Executor::fcr_finetune;
    let _ = deploy_backbone;
    let _ = |cost: &OperationCost| cost.energy_mj;
}

#[test]
fn serve_and_store_items_stay_public() {
    let _ = LearnerRegistry::new;
    let _ = LearnerRegistry::register;
    let _ = |registry: &LearnerRegistry| registry.with_model("t", |_model| ());
    let _ = LearnerRegistry::names;
    let _ = LearnerRegistry::stats;
    let _ = LearnerRegistry::snapshot_with_seq;
    let _ = DeploymentSpec::new;
    let _ = <ServeConfig as Default>::default;
    let _ = ServeConfig::with_max_batch;
    let _ = |registry: &LearnerRegistry, config: &ServeConfig| {
        ServeRuntime::run(registry, config, |_client: &ServeClient| ())
    };
    let _ = ServeClient::submit;
    let _ = ServeClient::call;
    let _ = PendingResponse::wait;
    let _ = |request: &ServeRequest| {
        matches!(
            request,
            ServeRequest::Infer { .. }
                | ServeRequest::LearnOnline { .. }
                | ServeRequest::Snapshot { .. }
        )
    };
    let _ = |response: &ServeResponse| {
        matches!(
            response,
            ServeResponse::Prediction { .. }
                | ServeResponse::Learned { .. }
                | ServeResponse::Snapshot { .. }
        )
    };
    let _ = |stats: &DeploymentStats| {
        (
            stats.infer_requests,
            stats.infer_batches,
            stats.learn_requests,
            stats.energy_spent_mj,
            stats.rejected(),
        )
    };
    let _ = |commit: &LearnCommit| {
        let LearnCommit { .. } = commit;
    };
    let _ = |journal: &dyn CommitJournal, commit: &LearnCommit| {
        (
            journal.journal_learn(commit, 0.0, None),
            journal.durability_stats("t"),
        )
    };

    let _ = |dir: &str| Store::open(dir);
    let _ = Store::bootstrap;
    let _ = Store::latest_state;
    let _ = Store::checkpoint;
    let _ = |state: &DeploymentState| (state.seq, state.snapshot.len());
}

#[test]
fn wire_router_obs_items_stay_public() {
    let _ = |registry: &LearnerRegistry, config: &WireConfig| {
        WireServer::run_observed(registry, config, None, None, |handle: &WireHandle| {
            handle.addr().clone()
        })
    };
    let _ = WireConfig::tcp_loopback;
    let _ = WireConfig::with_serve;
    let _ = WireClient::connect;
    let _ = WireClient::call;
    let _ = WireRequest::Serve;
    let _ = encode_request;
    let _ = decode_request;
    let _ = parse_frame;
    let _ = peek_request;
    let _: usize = DEFAULT_MAX_PAYLOAD;

    let _ = |config: &RouterConfig| {
        RouterServer::run(config, |router: &RouterHandle| {
            (router.addr().clone(), router.cluster_stats().len())
        })
    };
    let _ = RouterConfig::tcp_loopback;
    let _ = RouterConfig::with_deployments;
    let _ = RouterConfig::with_obs;
    let _ = |stats: &ShardStats| {
        (
            stats.deployments.len(),
            stats.obs_dropped,
            stats.error.is_some(),
        )
    };
    let _ = HashRing::new;
    let _ = HashRing::shard_for;
    let _ = ShardProcess::spawn_observed;
    let _ = ShardProcess::spawn_durable_observed;
    let _ = ShardProcess::addr;

    let _ = Obs::new;
    let _ = Obs::sink;
    let _ = Obs::store;
    let _ = Obs::flush;
    let _ = Obs::counters;
    let _ = <ObsConfig as Default>::default;
    let _ = EventSink::emit;
    let _ = ObsStore::new;
    let _ = ObsStore::append;
    let _ = ObsStore::query;
    let _ = ObsQuery::all;
    let _ = Event::new;
    let _ = Event::with_latency_us;
    let _ = Event::with_energy_mj;
    let _ = EventKind::Infer;
}
