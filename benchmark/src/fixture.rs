//! Set-up: builds the program side of a workload — models, registries,
//! servers, store, connections — teaches the base classes, replays the
//! warm-up, and hands the caller an [`Endpoint`] ready for the first timed
//! request. The time all of that takes is `setup_s`.
//!
//! Defaults are used everywhere the sizing table does not say otherwise
//! (`ServeConfig::default()` workers, `StoreConfig::default()` sync policy,
//! `ObsConfig::default()` queues), so no number depends on a knob this file
//! invented.

use crate::drive::{Endpoint, Target};
use crate::gen::{tenant_name, Request, World};
use crate::workloads::{Path as EntryPath, Sizing};
use ofscil::prelude::*;
use ofscil::router::harness::ShardProcess;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Seed of tenant 0's weights; tenant `t` uses `MODEL_SEED + t`. Weights are
/// part of the program, not of its input, so they do not follow `--seed`.
const MODEL_SEED: u64 = 1000;
/// Shards behind the router.
pub const SHARDS: usize = 2;

/// Formats an error with what was being attempted.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The untimed traffic of one set-up, generated before its clock starts.
#[derive(Debug, Clone)]
pub struct Prep {
    /// One `LearnOnline` per tenant teaching its base classes.
    pub base: Vec<Request>,
    /// The warm-up, one lane per generator thread.
    pub warmup: Vec<Vec<Request>>,
}

/// A freshly initialised model for tenant `tenant`, with the synthetic base
/// prototypes of `new_classes` workloads already in its explicit memory.
pub fn tenant_model(world: &World, tenant: usize) -> Result<OFscilModel, String> {
    let sizing = world.sizing();
    let mut rng = SeedRng::new(MODEL_SEED + tenant as u64);
    let mut model = OFscilModel::new(sizing.backbone, sizing.d_p, &mut rng);
    for (class, prototype) in world.synthetic_prototypes().iter().enumerate() {
        model
            .em_mut()
            .set_prototype(class, prototype)
            .map_err(ctx("synthetic prototype"))?;
    }
    Ok(model)
}

/// A registry holding every tenant of the workload.
pub fn tenant_registry(world: &World) -> Result<LearnerRegistry, String> {
    let sizing = world.sizing();
    let registry = LearnerRegistry::new();
    for tenant in 0..sizing.tenants {
        registry
            .register(
                DeploymentSpec::new(&tenant_name(tenant), (sizing.side, sizing.side)),
                tenant_model(world, tenant)?,
            )
            .map_err(ctx("register tenant"))?;
    }
    Ok(registry)
}

/// `ServeConfig::default()` with the sizing table's `max_batch`.
pub fn serve_config(sizing: &Sizing) -> ServeConfig {
    ServeConfig::default().with_max_batch(sizing.max_batch)
}

/// A fresh, bootstrapped store under `dir` (anything a previous set-up left
/// there is removed first).
pub fn fresh_store(dir: &Path, registry: &LearnerRegistry) -> Result<Store, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(ctx("clear store directory"))?;
    }
    let store = Store::open(dir).map_err(ctx("open store"))?;
    store.bootstrap(registry).map_err(ctx("bootstrap store"))?;
    Ok(store)
}

/// A router on loopback in front of `shards`, managing every tenant of the
/// workload and recording into `obs`.
pub fn router_config(sizing: &Sizing, shards: &[ShardProcess], obs: &Obs) -> RouterConfig {
    let names: Vec<String> = (0..sizing.tenants).map(tenant_name).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    RouterConfig::tcp_loopback(shards.iter().map(|s| s.addr().clone()).collect())
        .with_deployments(&names)
        .with_obs(obs.clone())
}

fn connect(addr: &BoundAddr, connections: usize) -> Result<Vec<WireClient>, String> {
    (0..connections)
        .map(|_| WireClient::connect(addr).map_err(ctx("connect")))
        .collect()
}

/// What a fixture hands back once its body returned and its gates passed.
#[derive(Debug)]
pub struct Built<T> {
    /// The body's value.
    pub value: T,
    /// Wall time from the start of construction to the end of warm-up.
    pub setup_s: f64,
    /// Requests sent during set-up (base learns + warm-up).
    pub setup_attempted: u64,
    /// Set-up requests that failed.
    pub setup_failed: u64,
}

/// Replays base learns and warm-up; returns `(attempted, failed)`.
fn prepare(endpoint: &mut Endpoint<'_>, prep: Prep) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    // Base learns go down one connection: they are set-up, not load.
    let mut lanes: Vec<Vec<Request>> = vec![Vec::new(); prep.warmup.len()];
    lanes[0] = prep.base;
    for traffic in [lanes, prep.warmup] {
        let samples = endpoint.run(traffic);
        attempted += samples.attempted();
        failed += samples.failed;
    }
    (attempted, failed)
}

/// Builds the workload's fixture, runs `body` against it, checks the
/// workload's gate and tears everything down.
///
/// `scratch` is a directory inside the checkout the durable path may write
/// its store to.
///
/// # Errors
///
/// Returns a description of whatever could not be built, and of any gate
/// the run violated.
pub fn with_fixture<T>(
    world: &World,
    prep: Prep,
    scratch: &Path,
    body: impl FnOnce(&mut Endpoint<'_>) -> T,
) -> Result<Built<T>, String> {
    let sizing = world.sizing();
    let run = |endpoint: &mut Endpoint<'_>, started: Instant| {
        let (setup_attempted, setup_failed) = prepare(endpoint, prep);
        let setup_s = started.elapsed().as_secs_f64();
        Built {
            value: body(endpoint),
            setup_s,
            setup_attempted,
            setup_failed,
        }
    };
    match sizing.path {
        EntryPath::Direct => {
            let started = Instant::now();
            let model = tenant_model(world, 0)?;
            Ok(run(
                &mut Endpoint::new(Target::Model(Box::new(model))),
                started,
            ))
        }
        EntryPath::Serve => {
            let started = Instant::now();
            let registry = tenant_registry(world)?;
            ServeRuntime::run(&registry, &serve_config(sizing), |client| {
                let target = Target::Serve {
                    client,
                    in_flight: sizing.in_flight,
                };
                run(&mut Endpoint::new(target), started)
            })
            .map_err(ctx("serve runtime"))
        }
        EntryPath::Wire => {
            let store_dir = scratch.join("store");
            let started = Instant::now();
            let registry = tenant_registry(world)?;
            let store = fresh_store(&store_dir, &registry)?;
            let obs = Obs::new(ObsConfig::default());
            let config = WireConfig::tcp_loopback().with_serve(serve_config(sizing));
            let built =
                WireServer::run_observed(&registry, &config, Some(&store), Some(&obs), |server| {
                    let clients = connect(server.addr(), sizing.connections)?;
                    let built = run(&mut Endpoint::new(Target::Wire(clients)), started);
                    durable_state_gate(&store, &registry).map(|()| built)
                })
                .map_err(ctx("wire server"))?;
            std::fs::remove_dir_all(&store_dir).map_err(ctx("remove store directory"))?;
            built
        }
        EntryPath::Routed => {
            let started = Instant::now();
            let router_obs = Obs::new(ObsConfig::default());
            let mut shards = Vec::with_capacity(SHARDS);
            for _ in 0..SHARDS {
                // Every shard holds every tenant's weights; the ring decides
                // which one holds a tenant's explicit memory.
                let registry = Arc::new(tenant_registry(world)?);
                let config = WireConfig::tcp_loopback().with_serve(serve_config(sizing));
                let obs = Obs::new(ObsConfig::default());
                shards.push(
                    ShardProcess::spawn_observed(registry, config, Some(obs))
                        .map_err(ctx("spawn shard"))?,
                );
            }
            let config = router_config(sizing, &shards, &router_obs);
            RouterServer::run(&config, |router| {
                let clients = connect(router.addr(), sizing.connections)?;
                let mut endpoint = Endpoint::new(Target::Wire(clients));
                let built = run(&mut endpoint, started);
                accounting_gate(router, &router_obs, endpoint.sent).map(|()| built)
            })
            .map_err(ctx("router"))?
        }
    }
}

/// After the durable workload: what the store would recover must be, bit
/// for bit, what the registry holds.
fn durable_state_gate(store: &Store, registry: &LearnerRegistry) -> Result<(), String> {
    for name in registry.names() {
        let durable = store.latest_state(&name).map_err(ctx("latest_state"))?;
        let live = registry
            .snapshot_with_seq(&name)
            .map_err(ctx("live snapshot"))?;
        if (durable.seq, &durable.snapshot) != (live.0, &live.1) {
            return Err(format!(
                "gate: durable state of {name} (seq {}) differs from the live registry (seq {})",
                durable.seq, live.0
            ));
        }
    }
    Ok(())
}

/// After the routed workload: the shards' own request counters must add up
/// to what the generator sent, and no observability event may have been
/// dropped (a dropped event is work the program skipped).
fn accounting_gate(router: &RouterHandle<'_>, router_obs: &Obs, sent: u64) -> Result<(), String> {
    let mut served = 0;
    let mut dropped = router_obs.counters().dropped;
    for slice in router.cluster_stats() {
        if let Some(error) = slice.error {
            return Err(format!("gate: shard {} unreachable: {error}", slice.shard));
        }
        served += slice
            .deployments
            .iter()
            .map(|d| d.infer_requests + d.learn_requests)
            .sum::<u64>();
        dropped += slice.obs_dropped;
    }
    if served != sent {
        return Err(format!(
            "gate: shards served {served} requests, generator sent {sent}"
        ));
    }
    if dropped != 0 {
        return Err(format!("gate: {dropped} observability events dropped"));
    }
    Ok(())
}
