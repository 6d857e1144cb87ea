//! The adversarial workload scenarios.
//!
//! Each scenario drives real serving machinery — the in-process
//! [`ServeRuntime`], a socket-backed [`WireServer`], or a router in front of
//! two shard processes — with a deterministic seeded trace, asserts its own
//! invariants inline (a hostile frame that gets *accepted* fails the run,
//! it does not become a data point), and returns a [`ScenarioReport`] of
//! metrics for the trajectory line.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ofscil::prelude::*;
use ofscil::router::harness::ShardProcess;
use ofscil::serve::traffic;
use ofscil::wire::codec::{decode_response, encode_request, WireRequest};
use ofscil::wire::frame::{parse_frame, DEFAULT_MAX_PAYLOAD, HEADER_LEN};

use crate::record::Gate;
use crate::samplers::{Diurnal, DriftSchedule, Zipfian};
use crate::scenario::{sim_err, Ctx, ScenarioCtx, ScenarioReport, SimResult};

/// Image side used by the traffic-helper scenarios (matches the serving
/// examples and the router test suite).
const SIDE: usize = 8;
/// Projection dimension of the scenario models.
const PROJ: usize = 16;
/// Weight seed shared by every scenario deployment: shards must agree on
/// weights so migrated/replicated state stays bit-identical.
const WEIGHT_SEED: u64 = 11;

fn scenario_model() -> OFscilModel {
    let mut rng = SeedRng::new(WEIGHT_SEED);
    OFscilModel::new(BackboneKind::Micro, PROJ, &mut rng)
}

fn registry_with(names: &[&str]) -> SimResult<Arc<LearnerRegistry>> {
    let registry = LearnerRegistry::new();
    for name in names {
        registry
            .register(DeploymentSpec::new(name, (SIDE, SIDE)), scenario_model())
            .ctx("register deployment")?;
    }
    Ok(Arc::new(registry))
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

fn predicted(response: ServeResponse) -> SimResult<usize> {
    match response {
        ServeResponse::Prediction { class, .. } => Ok(class),
        other => Err(sim_err(format!("expected a prediction, got {other:?}"))),
    }
}

/// Zipfian tenant popularity over mixed infer/learn traffic against the
/// in-process runtime: the hot tenant's share must track the analytic
/// distribution, every accepted request must land in the throughput
/// counters, and predictions on the separable traffic classes must be
/// correct. The runtime runs with an observability sink attached, and the
/// event-store counters ride along in the trajectory record — dropped
/// events in a non-adversarial run are a regression.
pub(crate) fn zipf_mixed(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const TENANTS: [&str; 4] = ["tenant-0", "tenant-1", "tenant-2", "tenant-3"];
    const TICKS: usize = 400;
    let registry = registry_with(&TENANTS)?;
    let zipf = Zipfian::new(TENANTS.len(), 1.1);
    let mut rng = SeedRng::new(ctx.rng_seed());
    let obs = Obs::new(ObsConfig::default());

    let mut per_tenant = [0u64; 4];
    let mut learns = 0u64;
    let mut infers = 0u64;
    let mut correct = 0u64;
    ServeRuntime::run_with(
        &registry,
        &serve_config(),
        ServeHooks {
            obs: Some(obs.sink()),
            ..ServeHooks::default()
        },
        |client| -> SimResult<()> {
            for tenant in TENANTS {
                client
                    .call(ServeRequest::LearnOnline {
                        deployment: tenant.into(),
                        batch: traffic::support_batch(SIDE, &[0, 1, 2], 3),
                    })
                    .ctx("seed tenant classes")?;
                learns += 1;
            }
            for _ in 0..TICKS {
                let tenant = zipf.sample(&mut rng);
                per_tenant[tenant] += 1;
                let deployment = TENANTS[tenant].to_string();
                if rng.chance(0.2) {
                    let class = rng.below(3);
                    client
                        .call(ServeRequest::LearnOnline {
                            deployment,
                            batch: traffic::support_batch(SIDE, &[class], 2),
                        })
                        .ctx("tick learn")?;
                    learns += 1;
                } else {
                    let class = rng.below(3);
                    let response = client
                        .call(ServeRequest::Infer {
                            deployment,
                            image: traffic::class_image(SIDE, class, 0.01),
                        })
                        .ctx("tick infer")?;
                    infers += 1;
                    if predicted(response)? == class {
                        correct += 1;
                    }
                }
            }
            Ok(())
        },
    )
    .ctx("serve runtime")??;

    // Conservation: what the workload offered is exactly what the per-tenant
    // throughput counters recorded — nothing lost, nothing double-counted.
    let mut counted = 0u64;
    for tenant in TENANTS {
        let stats = registry.stats(tenant).ctx("tenant stats")?;
        counted += stats.accepted();
        if stats.rejected() != 0 {
            return Err(sim_err(format!(
                "unlimited-budget tenant {tenant} rejected work"
            )));
        }
    }
    if counted != learns + infers {
        return Err(sim_err(format!(
            "accepted counters {counted} != offered {}",
            learns + infers
        )));
    }

    // Every accepted request emitted exactly one event; the sink's queue
    // comfortably outsizes this trace, so a single shed event is a bug.
    if !obs.flush(Duration::from_secs(5)) {
        return Err(sim_err("obs collector failed to drain the event queue"));
    }
    let obs_counters = obs.counters();
    if obs_counters.appended != learns + infers {
        return Err(sim_err(format!(
            "obs store appended {} events, expected one per accepted request ({})",
            obs_counters.appended,
            learns + infers
        )));
    }

    let mut report = ScenarioReport::new("zipf_mixed");
    report.int("requests", (learns + infers) as i64, Gate::Exact);
    report.int("learns", learns as i64, Gate::Exact);
    report.int("infers", infers as i64, Gate::Exact);
    report.int("hot_tenant_requests", per_tenant[0] as i64, Gate::Exact);
    report.float(
        "hot_tenant_share",
        per_tenant[0] as f64 / TICKS as f64,
        Gate::None,
    );
    report.float(
        "hot_tenant_share_expected",
        zipf.expected_share(0),
        Gate::None,
    );
    report.float(
        "accuracy",
        correct as f64 / infers as f64,
        Gate::AtLeast { slack: 0.02 },
    );
    report.int("obs_events", obs_counters.appended as i64, Gate::Exact);
    report.int("obs_dropped", obs_counters.dropped as i64, Gate::Exact);
    Ok(report)
}

/// A raised-cosine daily load curve against a socket-backed wire server:
/// offered load per tick follows the curve, and the realized mean must match
/// the closed-form mean of the sampler.
pub(crate) fn diurnal(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const TICKS: u64 = 48;
    let registry = registry_with(&["diurnal"])?;
    let curve = Diurnal {
        floor: 1.0,
        peak: 6.0,
        period: 24.0,
    };
    let mut rng = SeedRng::new(ctx.rng_seed());

    let mut offered = 0u64;
    let mut peak_tick = 0u64;
    let mut correct = 0u64;
    let config = WireConfig::tcp_loopback();
    WireServer::run_observed(&registry, &config, None, None, |handle| -> SimResult<()> {
        let mut client = WireClient::connect(handle.addr()).ctx("connect")?;
        client
            .call(ServeRequest::LearnOnline {
                deployment: "diurnal".into(),
                batch: traffic::support_batch(SIDE, &[0, 1, 2], 3),
            })
            .ctx("seed classes")?;
        for t in 0..TICKS {
            let load = curve.requests_at(t);
            peak_tick = peak_tick.max(load);
            for _ in 0..load {
                let class = rng.below(3);
                let response = client
                    .call(ServeRequest::Infer {
                        deployment: "diurnal".into(),
                        image: traffic::class_image(SIDE, class, 0.01),
                    })
                    .ctx("diurnal infer")?;
                offered += 1;
                if predicted(response)? == class {
                    correct += 1;
                }
            }
        }
        Ok(())
    })
    .ctx("wire server")??;

    let measured_mean = offered as f64 / TICKS as f64;
    // Two full periods of integer-rounded draws: the realized mean must sit
    // within one request/tick of the closed form.
    if (measured_mean - curve.mean_level()).abs() > 1.0 {
        return Err(sim_err(format!(
            "diurnal mean drifted: measured {measured_mean}, analytic {}",
            curve.mean_level()
        )));
    }
    let mut report = ScenarioReport::new("diurnal");
    report.int("ticks", TICKS as i64, Gate::Exact);
    report.int("offered", offered as i64, Gate::Exact);
    report.int("peak_tick_load", peak_tick as i64, Gate::Exact);
    report.float("mean_per_tick", measured_mean, Gate::None);
    report.float("mean_level_analytic", curve.mean_level(), Gate::None);
    report.float(
        "accuracy",
        correct as f64 / offered as f64,
        Gate::AtLeast { slack: 0.02 },
    );
    Ok(report)
}

/// Bursty learn-storms against a wire server: storms of redundant learns on
/// a growing class set, with snapshot-size monotonicity and replication-
/// sequence bookkeeping checked between bursts.
pub(crate) fn learn_storm(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const STORMS: usize = 6;
    const LEARNS_PER_STORM: usize = 8;
    const INFERS_PER_LULL: usize = 10;
    let registry = registry_with(&["storm"])?;
    let mut rng = SeedRng::new(ctx.rng_seed());

    let mut learns = 0u64;
    let mut infers = 0u64;
    let mut snapshot_sizes = Vec::new();
    let config = WireConfig::tcp_loopback();
    WireServer::run_observed(&registry, &config, None, None, |handle| -> SimResult<()> {
        let mut client = WireClient::connect(handle.addr()).ctx("connect")?;
        for storm in 0..STORMS {
            // Each storm introduces three new classes, then hammers them
            // with redundant learns (the bursty part).
            let classes = [3 * storm, 3 * storm + 1, 3 * storm + 2];
            for _ in 0..LEARNS_PER_STORM {
                client
                    .call(ServeRequest::LearnOnline {
                        deployment: "storm".into(),
                        batch: traffic::support_batch(SIDE, &classes, 2),
                    })
                    .ctx("storm learn")?;
                learns += 1;
            }
            for _ in 0..INFERS_PER_LULL {
                let class = classes[rng.below(classes.len())];
                client
                    .call(ServeRequest::Infer {
                        deployment: "storm".into(),
                        image: traffic::class_image(SIDE, class, 0.01),
                    })
                    .ctx("lull infer")?;
                infers += 1;
            }
            let response = client
                .call(ServeRequest::Snapshot {
                    deployment: "storm".into(),
                })
                .ctx("storm snapshot")?;
            match response {
                ServeResponse::Snapshot { bytes } => snapshot_sizes.push(bytes.len()),
                other => return Err(sim_err(format!("expected snapshot, got {other:?}"))),
            }
        }
        Ok(())
    })
    .ctx("wire server")??;

    if !snapshot_sizes.windows(2).all(|w| w[0] < w[1]) {
        return Err(sim_err(format!(
            "snapshot sizes must grow with the class set: {snapshot_sizes:?}"
        )));
    }
    let seq = registry.replication_seq("storm").ctx("replication seq")?;
    if seq != learns {
        return Err(sim_err(format!(
            "replication seq {seq} != committed learns {learns}"
        )));
    }
    let stats = registry.stats("storm").ctx("storm stats")?;
    let mut report = ScenarioReport::new("learn_storm");
    report.int("storms", STORMS as i64, Gate::Exact);
    report.int("learns", learns as i64, Gate::Exact);
    report.int("infers", infers as i64, Gate::Exact);
    report.int("classes_final", stats.classes as i64, Gate::Exact);
    report.int("repl_seq_final", seq as i64, Gate::Exact);
    report.int(
        "snapshot_bytes_final",
        *snapshot_sizes.last().expect("at least one storm") as i64,
        Gate::Exact,
    );
    Ok(report)
}

/// Class-distribution drift on real FSCIL data: classes onboard in phases
/// (base classes, then one session's worth at a time) while query traffic
/// concentrates on the newest classes — measuring whether accuracy survives
/// the moving distribution.
pub fn drift(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const QUERIES_PER_PHASE: usize = 60;
    let mut config = FscilConfig::micro();
    config.synthetic.num_classes = 9;
    config.num_base_classes = 3;
    config.num_sessions = 3;
    config.ways = 2;
    config.base_train_per_class = 8;
    config.test_per_class = 4;
    let side = config.synthetic.image_size;
    let benchmark = FscilBenchmark::generate(&config, ctx.rng_seed()).ctx("benchmark")?;

    let registry = LearnerRegistry::new();
    let mut weight_rng = SeedRng::new(WEIGHT_SEED);
    registry
        .register(
            DeploymentSpec::new("drift", (side, side)),
            OFscilModel::new(BackboneKind::Micro, PROJ, &mut weight_rng),
        )
        .ctx("register drift deployment")?;

    let mut phases = vec![benchmark.base_train().classes()];
    for session in benchmark.sessions() {
        phases.push(session.classes.clone());
    }
    let schedule = DriftSchedule::new(phases, 0.7);
    let mut rng = SeedRng::new(ctx.rng_seed() ^ 1);
    let test = benchmark.test();

    let mut queries = 0u64;
    let mut correct = 0u64;
    let mut hot_hits = 0u64;
    let mut phase_accuracies = Vec::new();
    ServeRuntime::run(&registry, &serve_config(), |client| -> SimResult<()> {
        for phase in 0..schedule.num_phases() {
            // Onboard this phase's classes: per-class batches for the base
            // phase (mirroring the FSCIL protocol), the session's support
            // batch afterwards.
            if phase == 0 {
                let base = benchmark.base_train();
                for class in base.classes() {
                    let batch = base
                        .batch(&base.indices_of_class(class))
                        .ctx("base batch")?;
                    client
                        .call(ServeRequest::LearnOnline {
                            deployment: "drift".into(),
                            batch,
                        })
                        .ctx("base learn")?;
                }
            } else {
                let support = benchmark.sessions()[phase - 1]
                    .support
                    .full_batch()
                    .ctx("support")?;
                client
                    .call(ServeRequest::LearnOnline {
                        deployment: "drift".into(),
                        batch: support,
                    })
                    .ctx("session learn")?;
            }
            // Query traffic for this phase, recency-weighted.
            let mut phase_correct = 0u64;
            for _ in 0..QUERIES_PER_PHASE {
                let class = schedule.sample_class(phase, &mut rng);
                if schedule.introduced(phase).contains(&class) {
                    hot_hits += 1;
                }
                let indices = test.indices_of_class(class);
                let sample = test
                    .get(indices[rng.below(indices.len())])
                    .ctx("test sample")?;
                let response = client
                    .call(ServeRequest::Infer {
                        deployment: "drift".into(),
                        image: sample.image.clone(),
                    })
                    .ctx("drift infer")?;
                queries += 1;
                if predicted(response)? == sample.label {
                    phase_correct += 1;
                    correct += 1;
                }
            }
            phase_accuracies.push(phase_correct as f64 / QUERIES_PER_PHASE as f64);
        }
        Ok(())
    })
    .ctx("serve runtime")??;

    let stats = registry.stats("drift").ctx("drift stats")?;
    let mut report = ScenarioReport::new("drift");
    report.int("phases", schedule.num_phases() as i64, Gate::Exact);
    report.int("queries", queries as i64, Gate::Exact);
    report.int("classes_final", stats.classes as i64, Gate::Exact);
    report.float(
        "hot_query_fraction",
        hot_hits as f64 / queries as f64,
        Gate::None,
    );
    report.float(
        "accuracy_overall",
        correct as f64 / queries as f64,
        Gate::AtLeast { slack: 0.05 },
    );
    report.float(
        "accuracy_final_phase",
        *phase_accuracies.last().expect("at least one phase"),
        Gate::None,
    );
    Ok(report)
}

/// Applies one seeded hostile mutation to a valid frame. Every mutation
/// guarantees the result is not a prefix-valid frame stream: a parser that
/// accepts any of these has a bug.
fn mutate_frame(frame: &[u8], rng: &mut SeedRng) -> (&'static str, Vec<u8>) {
    let mut bytes = frame.to_vec();
    match rng.below(4) {
        0 => {
            // Single bit flip anywhere in the frame.
            let byte = rng.below(bytes.len());
            bytes[byte] ^= 1 << rng.below(8);
            ("bitflip", bytes)
        }
        1 => {
            // Truncate mid-frame (never empty — that is just a clean EOF).
            let keep = 1 + rng.below(bytes.len() - 1);
            bytes.truncate(keep);
            ("truncate", bytes)
        }
        2 => {
            // Tamper with the declared payload length.
            let fake = rng.next_u32();
            bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&fake.to_le_bytes());
            ("length_tamper", bytes)
        }
        _ => {
            // Corrupt the magic so the stream is garbage from byte 0.
            bytes[rng.below(4)] ^= 0xff;
            ("bad_magic", bytes)
        }
    }
}

/// Writes one hostile byte blob to the router and returns `true` when the
/// server rejected it (closed the connection or answered with a typed error
/// frame — never a successful response).
fn deliver_hostile(addr: &std::net::SocketAddr, blob: &[u8]) -> SimResult<bool> {
    let mut stream = TcpStream::connect(addr).ctx("connect hostile")?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ctx("read timeout")?;
    // Ignore write errors: the server may have already torn the connection
    // down after the first corrupt bytes, which is exactly the defense this
    // scenario verifies.
    let _ = stream.write_all(blob);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    // Parse whatever came back: any decodable *successful* response frame
    // means the hostile frame was accepted.
    let mut rest = &response[..];
    while !rest.is_empty() {
        let Ok((kind, payload)) = parse_frame(rest, DEFAULT_MAX_PAYLOAD) else {
            // A half-written reply before the close is still a rejection.
            break;
        };
        match decode_response(kind, payload) {
            Ok(ofscil::wire::WireResponse::Error(_)) | Err(_) => {}
            Ok(_) => return Ok(false),
        }
        let consumed = HEADER_LEN + payload.len() + 4;
        rest = &rest[consumed..];
    }
    Ok(true)
}

/// Byzantine clients against a router + 2-shard topology: seeded mutations
/// of valid frames (bit flips, truncations, length tampering, magic
/// corruption) must all be rejected at the wire layer, while a well-behaved
/// client keeps getting correct answers on the same address — and none of
/// the hostile traffic may leak into the cluster's accepted counters. Both
/// shards run observed, so the barrage doubles as a check that hostile
/// frames never reach the event stores either: the appended count must
/// equal the valid requests exactly, with zero drops.
pub(crate) fn byzantine_frames(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const HOSTILE_FRAMES: usize = 40;
    const VALID_AFTER: usize = 10;
    const DEPLOYMENTS: [&str; 2] = ["alpha", "beta"];
    let registries = [registry_with(&DEPLOYMENTS)?, registry_with(&DEPLOYMENTS)?];
    let shard_obs = [
        Obs::new(ObsConfig::default()),
        Obs::new(ObsConfig::default()),
    ];
    let shards: Vec<ShardProcess> = registries
        .iter()
        .zip(&shard_obs)
        .map(|(r, obs)| {
            ShardProcess::spawn_observed(
                Arc::clone(r),
                WireConfig::tcp_loopback(),
                Some(obs.clone()),
            )
        })
        .collect::<Result<_, _>>()
        .ctx("spawn shards")?;
    let config = RouterConfig::tcp_loopback(shards.iter().map(|s| s.addr().clone()).collect())
        .with_deployments(&DEPLOYMENTS);

    let mut rng = SeedRng::new(ctx.rng_seed());
    let outcome = RouterServer::run(&config, |router| -> SimResult<ScenarioReport> {
        let BoundAddr::Tcp(addr) = router.addr().clone() else {
            return Err(sim_err("router must bind tcp for the byzantine scenario"));
        };
        let mut client = WireClient::connect(router.addr()).ctx("connect valid client")?;
        let mut valid_ok = 0u64;
        for deployment in DEPLOYMENTS {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: deployment.into(),
                    batch: traffic::support_batch(SIDE, &[0, 1, 2], 3),
                })
                .ctx("seed classes")?;
            valid_ok += 1;
        }

        // Templates covering the three frame shapes clients actually send.
        let templates: Vec<Vec<u8>> = vec![
            encode_request(&WireRequest::Serve(ServeRequest::Stats {
                deployment: "alpha".into(),
            })),
            encode_request(&WireRequest::Serve(ServeRequest::Infer {
                deployment: "beta".into(),
                image: traffic::class_image(SIDE, 1, 0.0),
            })),
            encode_request(&WireRequest::Serve(ServeRequest::LearnOnline {
                deployment: "alpha".into(),
                batch: traffic::support_batch(SIDE, &[1], 1),
            })),
        ];
        let mut rejected = 0u64;
        for _ in 0..HOSTILE_FRAMES {
            let template = &templates[rng.below(templates.len())];
            let (mutation, blob) = mutate_frame(template, &mut rng);
            let ok = deliver_hostile(&addr, &blob)?;
            if !ok {
                return Err(sim_err(format!(
                    "hostile frame ({mutation}) elicited a successful response"
                )));
            }
            rejected += 1;
        }

        // The same address still serves a well-behaved client correctly.
        let mut correct = 0u64;
        for i in 0..VALID_AFTER {
            let class = i % 3;
            let deployment = DEPLOYMENTS[i % 2];
            let response = client
                .call(ServeRequest::Infer {
                    deployment: deployment.into(),
                    image: traffic::class_image(SIDE, class, 0.01),
                })
                .ctx("valid infer after barrage")?;
            valid_ok += 1;
            if predicted(response)? == class {
                correct += 1;
            }
        }

        // Hostile frames must not have leaked into the accepted counters:
        // the cluster saw exactly the well-behaved client's requests. The
        // end-of-scenario `cluster_stats` snapshot also lands in the
        // trajectory record — a shard marked unreachable here is a bug.
        let slices = router.cluster_stats();
        let reachable = slices.iter().filter(|slice| slice.reachable).count();
        let accepted: u64 = slices
            .iter()
            .flat_map(|slice| slice.deployments.iter())
            .map(|d| d.accepted())
            .sum();
        if accepted != valid_ok {
            return Err(sim_err(format!(
                "cluster accepted {accepted} requests, expected only the {valid_ok} valid ones"
            )));
        }

        let mut report = ScenarioReport::new("byzantine_frames");
        report.int("hostile_sent", HOSTILE_FRAMES as i64, Gate::Exact);
        report.int("hostile_rejected", rejected as i64, Gate::Exact);
        report.int("valid_requests", valid_ok as i64, Gate::Exact);
        report.int("cluster_accepted", accepted as i64, Gate::Exact);
        report.int("shards_reachable", reachable as i64, Gate::Exact);
        report.float(
            "valid_accuracy",
            correct as f64 / VALID_AFTER as f64,
            Gate::AtLeast { slack: 0.02 },
        );
        Ok(report)
    })
    .ctx("router")??;
    for shard in shards {
        shard.stop();
    }

    // Sum the per-shard event stores: exactly one event per valid request,
    // none for the hostile barrage, and nothing shed by the bounded sinks.
    let mut obs_events = 0u64;
    let mut obs_dropped = 0u64;
    for obs in &shard_obs {
        if !obs.flush(Duration::from_secs(5)) {
            return Err(sim_err("shard obs collector failed to drain"));
        }
        let counters = obs.counters();
        obs_events += counters.appended;
        obs_dropped += counters.dropped;
    }
    let mut outcome = outcome;
    outcome.int("obs_events", obs_events as i64, Gate::Exact);
    outcome.int("obs_dropped", obs_dropped as i64, Gate::Exact);
    Ok(outcome)
}

/// A budget-exhaustion attack through the router: deployments carry an
/// exactly-sized energy budget, the attacker floods past it, and the
/// admission counters must conserve — every offered request is either in
/// the accepted throughput counters or the per-type rejection counters,
/// never both, never neither.
pub(crate) fn budget_exhaustion(_ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const DEPLOYMENTS: [&str; 2] = ["alpha", "beta"];
    let make_registry = || -> SimResult<Arc<LearnerRegistry>> {
        let registry = LearnerRegistry::new();
        for name in DEPLOYMENTS {
            registry
                .register(
                    DeploymentSpec::new(name, (SIDE, SIDE))
                        .with_energy_budget(0.0, BudgetPolicy::Reject),
                    scenario_model(),
                )
                .ctx("register budgeted deployment")?;
        }
        Ok(Arc::new(registry))
    };
    let registries = [make_registry()?, make_registry()?];
    let shards: Vec<ShardProcess> = registries
        .iter()
        .map(|r| ShardProcess::spawn_observed(Arc::clone(r), WireConfig::tcp_loopback(), None))
        .collect::<Result<_, _>>()
        .ctx("spawn shards")?;
    let config = RouterConfig::tcp_loopback(shards.iter().map(|s| s.addr().clone()).collect())
        .with_deployments(&DEPLOYMENTS);

    let outcome = RouterServer::run(&config, |router| -> SimResult<ScenarioReport> {
        let mut client = WireClient::connect(router.addr()).ctx("connect")?;
        let mut offered = 0u64;
        for name in DEPLOYMENTS {
            let owner = router.shard_for(name).ctx("owner")?;
            let pass_mj = registries[owner].pricing(name).ctx("pricing")?;
            // Admit exactly two single-sample learns and two infers, one
            // pass each; the 0.4-pass slack absorbs float noise without
            // admitting a fifth.
            let budget = 2.0 * pass_mj + 2.4 * pass_mj;
            registries[owner].top_up(name, budget).ctx("top up")?;

            let learn = |client: &mut WireClient, class: usize| {
                client.call(ServeRequest::LearnOnline {
                    deployment: name.into(),
                    batch: traffic::support_batch(SIDE, &[class], 1),
                })
            };
            let infer = |client: &mut WireClient| {
                client.call(ServeRequest::Infer {
                    deployment: name.into(),
                    image: traffic::class_image(SIDE, 0, 0.0),
                })
            };
            // Two learns and two infers are admitted…
            learn(&mut client, 0).ctx("admitted learn")?;
            learn(&mut client, 1).ctx("admitted learn")?;
            infer(&mut client).ctx("admitted infer")?;
            infer(&mut client).ctx("admitted infer")?;
            offered += 4;
            // …then the attack flood is refused with typed errors.
            for expect_learn in [false, true] {
                let err = if expect_learn {
                    learn(&mut client, 2).err()
                } else {
                    infer(&mut client).err()
                };
                offered += 1;
                match err {
                    Some(WireError::Remote(ServeError::BudgetExhausted { .. })) => {}
                    other => {
                        return Err(sim_err(format!(
                            "expected BudgetExhausted past the budget, got {other:?}"
                        )))
                    }
                }
            }
        }

        let slices = router.cluster_stats();
        let mut accepted = 0u64;
        let mut rejected_infer = 0u64;
        let mut rejected_learn = 0u64;
        for name in DEPLOYMENTS {
            let stats = slices
                .iter()
                .flat_map(|slice| slice.deployments.iter())
                .find(|d| d.name == name && d.accepted() + d.rejected() > 0)
                .ok_or_else(|| sim_err(format!("no active stats for {name}")))?;
            if stats.infer_requests != 2
                || stats.learn_requests != 2
                || stats.rejected_infer != 1
                || stats.rejected_learn != 1
            {
                return Err(sim_err(format!(
                    "admission split off for {name}: {stats:?}"
                )));
            }
            accepted += stats.accepted();
            rejected_infer += stats.rejected_infer;
            rejected_learn += stats.rejected_learn;
        }
        // Conservation across the cluster.
        if accepted + rejected_infer + rejected_learn != offered {
            return Err(sim_err(format!(
                "offered {offered} != accepted {accepted} + rejected \
                 {rejected_infer}+{rejected_learn}"
            )));
        }

        let mut report = ScenarioReport::new("budget_exhaustion");
        report.int("offered", offered as i64, Gate::Exact);
        report.int("accepted", accepted as i64, Gate::Exact);
        report.int("rejected_infer", rejected_infer as i64, Gate::Exact);
        report.int("rejected_learn", rejected_learn as i64, Gate::Exact);
        report.int("conservation_ok", 1, Gate::Exact);
        Ok(report)
    })
    .ctx("router")??;
    for shard in shards {
        shard.stop();
    }
    Ok(outcome)
}

/// Scratch directory for the chaos-recovery standby store (wiped on entry so
/// reruns in the same process tree start clean).
fn chaos_store_dir() -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ofscil-simbench-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Chaos recovery through the self-driving control plane: three shards
/// behind the router, a follower tailing (and advertised for) the shard
/// that owns the first tenant, a Zipf-skewed mixed burst — and then that
/// shard is killed mid-burst. Nobody calls `migrate` or `promote`: the
/// controller has to notice the breaker dwell crossing its threshold,
/// promote the advertised follower and re-point the ring on its own. The
/// scenario then proves every deployment serves reads AND writes again and
/// that the recovery timeline (breaker-open before the stamped promotion)
/// reconstructs from a single routed observability query.
pub(crate) fn chaos_recovery(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const TENANTS: [&str; 4] = ["cam-0", "cam-1", "cam-2", "cam-3"];
    const BURST: usize = 60;

    // One shared observability pipeline: shards, router, the promoted
    // primary and the controller all stamp into the same timeline.
    let obs = Obs::new(ObsConfig::default());
    let mut shards: Vec<Option<ShardProcess>> = Vec::new();
    for _ in 0..3 {
        let shard = ShardProcess::spawn_observed(
            registry_with(&TENANTS)?,
            WireConfig::tcp_loopback(),
            Some(obs.clone()),
        )
        .ctx("spawn shard")?;
        shards.push(Some(shard));
    }
    let addrs = shards
        .iter()
        .map(|s| s.as_ref().expect("live").addr().clone())
        .collect();
    let config = RouterConfig::tcp_loopback(addrs)
        .with_deployments(&TENANTS)
        .with_obs(obs.clone());

    let zipf = Zipfian::new(TENANTS.len(), 1.1);
    let mut rng = SeedRng::new(ctx.rng_seed());
    let outcome = RouterServer::run(&config, |router| -> SimResult<ScenarioReport> {
        // The victim is whichever shard serves the first tenant; a replica
        // tails its tenants and advertises itself as a promotion candidate.
        let victim = router.shard_for(TENANTS[0]).ctx("victim shard")?;
        let tailed: Vec<&str> = TENANTS
            .iter()
            .copied()
            .filter(|t| router.shard_for(t).map(|s| s == victim).unwrap_or(false))
            .collect();
        let replica_registry = registry_with(&TENANTS)?;
        let follower = FollowerProcess::spawn(
            Arc::clone(&replica_registry),
            FollowerConfig::new(router.shard_addr(victim).ctx("victim addr")?, &tailed)
                .with_advertise(router.addr().clone()),
        )
        .ctx("spawn follower")?;

        // Seed every tenant, then the first half of the burst.
        let mut client = WireClient::connect(router.addr()).ctx("connect")?;
        let mut learns_per = [0u64; 4];
        let mut burst_requests = 0u64;
        for (i, tenant) in TENANTS.iter().enumerate() {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: (*tenant).into(),
                    batch: traffic::support_batch(SIDE, &[0, 1, 2], 3),
                })
                .ctx("seed tenant")?;
            learns_per[i] += 1;
            burst_requests += 1;
        }
        let mut infers = 0u64;
        let mut correct = 0u64;
        for _ in 0..BURST {
            let tenant = zipf.sample(&mut rng);
            let deployment = TENANTS[tenant].to_string();
            if rng.chance(0.25) {
                let class = rng.below(3);
                client
                    .call(ServeRequest::LearnOnline {
                        deployment,
                        batch: traffic::support_batch(SIDE, &[class], 2),
                    })
                    .ctx("burst learn")?;
                learns_per[tenant] += 1;
            } else {
                let class = rng.below(3);
                let response = client
                    .call(ServeRequest::Infer {
                        deployment,
                        image: traffic::class_image(SIDE, class, 0.01),
                    })
                    .ctx("burst infer")?;
                infers += 1;
                if predicted(response)? == class {
                    correct += 1;
                }
            }
            burst_requests += 1;
        }

        // The replica must have caught up on the victim's tenants before
        // the murder, or the promoted primary would serve stale memory.
        let deadline = Instant::now() + Duration::from_secs(30);
        for tenant in &tailed {
            let idx = TENANTS
                .iter()
                .position(|t| t == tenant)
                .expect("known tenant");
            while replica_registry.replication_seq(tenant).unwrap_or(0) < learns_per[idx] {
                if Instant::now() >= deadline {
                    return Err(sim_err(format!("replica never caught up on {tenant}")));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }

        // Hand the standby resources to the control plane and kill the
        // shard mid-burst. No migrate/promote calls below this line.
        let mut fleet = StandbyFleet::new(Some(obs.clone()));
        fleet.add_follower(victim, follower);
        fleet.add_store(victim, chaos_store_dir(), registry_with(&TENANTS)?);
        let mut controller = Controller::new(
            router,
            fleet,
            CtrlConfig::default()
                .with_dwell_threshold(Duration::from_millis(50))
                .with_cooldown_ticks(2)
                // Recovery only: rebalancing would make the executed-action
                // trace load-dependent, and this trace must stay exact.
                .with_rebalance_floor(u64::MAX)
                .with_retries(3, Duration::from_millis(5)),
        );
        shards[victim].take().expect("victim still alive").stop();

        let deadline = Instant::now() + Duration::from_secs(60);
        let mut promoted = false;
        loop {
            let report = controller.tick();
            for action in &report.executed {
                match action {
                    ControlAction::PromoteFollower { shard, .. } if *shard == victim => {
                        promoted = true;
                    }
                    other => return Err(sim_err(format!("unexpected control action {other}"))),
                }
            }
            if !report.failures.is_empty() {
                return Err(sim_err(format!("executor failures: {:?}", report.failures)));
            }
            if promoted && report.quiescent() {
                break;
            }
            if Instant::now() >= deadline {
                return Err(sim_err("cluster never converged back to serving"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let promotions = controller.driver().recovered() as i64;

        // Second half of the burst: every tenant must serve reads AND
        // writes again, with predictions still correct.
        let mut client = WireClient::connect(router.addr()).ctx("reconnect")?;
        let mut tenants_serving = 0u64;
        for tenant in TENANTS {
            let class = rng.below(3);
            let response = client
                .call(ServeRequest::Infer {
                    deployment: tenant.into(),
                    image: traffic::class_image(SIDE, class, 0.01),
                })
                .ctx("post-recovery infer")?;
            infers += 1;
            if predicted(response)? == class {
                correct += 1;
            }
            client
                .call(ServeRequest::LearnOnline {
                    deployment: tenant.into(),
                    batch: traffic::support_batch(SIDE, &[3], 2),
                })
                .ctx("post-recovery learn")?;
            burst_requests += 2;
            tenants_serving += 1;
        }

        // One routed query reconstructs the whole recovery.
        if !obs.flush(Duration::from_secs(5)) {
            return Err(sim_err("obs collector failed to drain"));
        }
        let timeline = router.obs_query(&ObsQuery::deployment(&format!("shard:{victim}")));
        let open_at = timeline
            .events
            .iter()
            .find(|e| e.kind == EventKind::BreakerOpen)
            .map(|e| e.time_us);
        let promo_at = timeline
            .events
            .iter()
            .find(|e| e.kind == EventKind::CtrlPromote)
            .map(|e| e.time_us);
        let ordered = matches!((open_at, promo_at), (Some(o), Some(p)) if o <= p);
        if !ordered {
            return Err(sim_err(format!(
                "recovery timeline incoherent: breaker-open {open_at:?}, promotion {promo_at:?}"
            )));
        }

        let mut report = ScenarioReport::new("chaos_recovery");
        report.int("tenants", TENANTS.len() as i64, Gate::Exact);
        report.int("burst_requests", burst_requests as i64, Gate::Exact);
        report.int("promotions", promotions, Gate::Exact);
        report.int("manual_recovery_calls", 0, Gate::Exact);
        report.int(
            "breaker_open_seen",
            i64::from(open_at.is_some()),
            Gate::Exact,
        );
        report.int("timeline_ordered", i64::from(ordered), Gate::Exact);
        report.int("tenants_serving_after", tenants_serving as i64, Gate::Exact);
        report.float(
            "accuracy",
            correct as f64 / infers as f64,
            Gate::AtLeast { slack: 0.05 },
        );
        Ok(report)
    })
    .ctx("router")??;
    for shard in shards.into_iter().flatten() {
        shard.stop();
    }

    // Nothing shed by the bounded sinks across the whole storm + recovery.
    let mut outcome = outcome;
    outcome.int("obs_dropped", obs.counters().dropped as i64, Gate::Exact);
    Ok(outcome)
}

/// A stale-replay attack on the migration/import path: an attacker who
/// captured an old deployment export re-imports it after further learning.
/// The defense under test is sequence monotonicity — the replication
/// sequence must never move backwards, so followers detect the jump and
/// resync instead of silently serving stale deltas — plus typed rejection
/// of corrupted snapshots.
pub(crate) fn stale_replay(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    let registry = registry_with(&["replay"])?;
    let mut rng = SeedRng::new(ctx.rng_seed());

    let report = ServeRuntime::run(
        &registry,
        &serve_config(),
        |client| -> SimResult<ScenarioReport> {
            let learn = |class: usize| {
                client
                    .call(ServeRequest::LearnOnline {
                        deployment: "replay".into(),
                        batch: traffic::support_batch(SIDE, &[class], 2),
                    })
                    .ctx("learn")
            };
            for class in 0..3 {
                learn(class)?;
            }
            let export = registry.export_deployment("replay").ctx("export")?;
            let seq_at_export = export.seq;
            for class in 3..6 {
                learn(class)?;
            }
            let seq_before_replay = registry.replication_seq("replay").ctx("seq")?;

            // Attack 1: replay the stale export verbatim. The import itself is a
            // legitimate operation (it is how migration works); the invariant is
            // that the sequence jumps *forward* so subscribers resync.
            let classes_after_replay = registry.import_deployment(&export).ctx("stale import")?;
            let seq_after_replay = registry.replication_seq("replay").ctx("seq")?;
            if seq_after_replay <= seq_before_replay {
                return Err(sim_err(format!(
                    "replication seq moved backwards: {seq_before_replay} -> {seq_after_replay}"
                )));
            }

            // Attack 2: a corrupted snapshot must be rejected with a typed error
            // and leave the state untouched.
            let mut corrupt = export.clone();
            let victim = rng.below(corrupt.snapshot.len());
            corrupt.snapshot[victim] ^= 0xa5;
            corrupt.seq = seq_after_replay + 100;
            let corrupt_rejected = registry.import_deployment(&corrupt).is_err();
            let seq_after_corrupt = registry.replication_seq("replay").ctx("seq")?;

            // The deployment recovers by re-learning what the replay clobbered.
            for class in 3..6 {
                learn(class)?;
            }
            let response = client
                .call(ServeRequest::Infer {
                    deployment: "replay".into(),
                    image: traffic::class_image(SIDE, 1, 0.01),
                })
                .ctx("post-recovery infer")?;
            let recovered_prediction_ok = predicted(response)? == 1;
            let classes_recovered = registry.stats("replay").ctx("stats")?.classes;

            let mut report = ScenarioReport::new("stale_replay");
            report.int("seq_at_export", seq_at_export as i64, Gate::Exact);
            report.int("seq_before_replay", seq_before_replay as i64, Gate::Exact);
            report.int("seq_after_replay", seq_after_replay as i64, Gate::Exact);
            report.int("seq_monotonic", 1, Gate::Exact);
            report.int(
                "classes_after_replay",
                classes_after_replay as i64,
                Gate::Exact,
            );
            report.int("classes_recovered", classes_recovered as i64, Gate::Exact);
            report.int(
                "corrupt_import_rejected",
                i64::from(corrupt_rejected),
                Gate::Exact,
            );
            report.int(
                "seq_unchanged_by_corrupt_import",
                i64::from(seq_after_corrupt == seq_after_replay),
                Gate::Exact,
            );
            report.int(
                "recovered_prediction_ok",
                i64::from(recovered_prediction_ok),
                Gate::Exact,
            );
            if !corrupt_rejected {
                return Err(sim_err("corrupted snapshot import was accepted"));
            }
            Ok(report)
        },
    )
    .ctx("serve runtime")??;
    Ok(report)
}

/// Scratch directory for the obs-soak spill log (wiped on entry so reruns in
/// the same process tree start clean).
fn obs_soak_dir() -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ofscil-simbench-obs-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// A durability soak on the observability pipeline itself: a seeded event
/// stream (explicit timestamps — no wall clock anywhere, so every counter
/// in this scenario is `Exact`-gated) is appended through an [`ObsStore`]
/// whose sealed chunks spill into an [`ObsSpill`] log with a budget small
/// enough that the log's own GC must fold old chunks into rollup records
/// mid-soak. The scenario checks the rollup contract on the live store
/// (raw, rollup and auto resolutions must agree exactly), then kills the
/// store mid-chunk, tears garbage onto the spill log's tail, reopens it,
/// and requires the rehydrated store to account for **every sealed event**
/// — through a raw chunk if it survived the spill GC, through a rollup
/// cell if it did not — with aggregates identical to a reference store
/// that never died.
pub(crate) fn obs_soak(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    use ofscil::obs::ROLLUP_BUCKET_US;
    const CHUNK: usize = 32;
    const TOTAL: usize = 1_500;
    const BUCKETS: usize = 20;
    /// A few KiB: forces the spill log's budget GC to compact during the
    /// soak, so recovery exercises the rollup-record path too.
    const SPILL_BUDGET: u64 = 8 * 1024;

    let dir = obs_soak_dir();
    let spill_path = dir.join("obs.spill");
    let (spill, fresh) = ObsSpill::open_with(&spill_path, SPILL_BUDGET).ctx("open spill")?;
    if !fresh.chunks.is_empty() || !fresh.rollups.is_empty() {
        return Err(sim_err("fresh spill log was not empty"));
    }
    let store = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    store.set_spill(Arc::new(spill));

    // The reference never dies and sees exactly the events that will have
    // been sealed (and therefore spilled) when the kill lands.
    let sealed_events = TOTAL / CHUNK * CHUNK;
    let reference = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));

    let mut rng = SeedRng::new(ctx.rng_seed());
    let bucket = ROLLUP_BUCKET_US as usize;
    for seq in 0..TOTAL {
        let kind = EventKind::ALL[rng.below(EventKind::ALL.len())];
        // Exact binary fractions: sums stay bit-identical no matter how
        // chunks and rollup cells regroup them.
        let accuracy = if rng.below(4) == 0 {
            f32::NAN
        } else {
            rng.below(65) as f32 / 64.0
        };
        let event = Event::new(kind, &format!("cam-{}", rng.below(3)))
            .with_seq(seq as u64)
            .with_time_us((rng.below(BUCKETS) * bucket + rng.below(bucket)) as u64)
            .with_energy_mj(rng.below(256) as f64 * 0.25)
            .with_latency_us(rng.below(5_000) as u64)
            .with_accuracy(accuracy)
            .with_wal_bytes(rng.below(1 << 20) as u64);
        store.append(&event);
        if seq < sealed_events {
            reference.append(&event);
        }
    }

    // The rollup contract on the live store: every resolution answers the
    // same aggregates, and the cell counts cover every matched row.
    let mut matched_total = 0u64;
    let mut rollup_cells = 0u64;
    for query in [
        ObsQuery::all(),
        ObsQuery::deployment("cam-0"),
        ObsQuery::all().with_kinds(&[EventKind::Learn, EventKind::CtrlPromote]),
    ] {
        let raw = store.query(&query.clone().with_resolution(Resolution::Raw));
        let rolled = store.query(&query.clone().with_resolution(Resolution::Rollup));
        let auto = store.query(&query.clone().with_resolution(Resolution::Auto));
        if rolled.aggregates != raw.aggregates || auto.aggregates != raw.aggregates {
            return Err(sim_err(format!("resolutions disagree for {query:?}")));
        }
        if rolled.rollups.iter().map(|r| r.values.matched).sum::<u64>() != raw.aggregates.matched {
            return Err(sim_err(format!("rollup cells lost rows for {query:?}")));
        }
        matched_total += raw.aggregates.matched;
        rollup_cells += rolled.rollups.len() as u64;
    }
    let pre_kill = store.counters();
    if pre_kill.appended != TOTAL as u64 {
        return Err(sim_err(format!(
            "store appended {} != {TOTAL}",
            pre_kill.appended
        )));
    }

    // The kill: the active chunk dies unsealed with the process, and the
    // spill log gets garbage torn onto its tail mid-write.
    drop(store);
    let mut bytes = std::fs::read(&spill_path).ctx("read spill")?;
    bytes.extend_from_slice(&[0x01, 0xff, 0xff, 0x00, 0xde, 0xad]);
    std::fs::write(&spill_path, &bytes).ctx("tear spill tail")?;

    // Recovery: reopen, rehydrate into a brand-new store.
    let (spill, recovery) = ObsSpill::open_with(&spill_path, SPILL_BUDGET).ctx("reopen spill")?;
    if recovery.epoch == 0 {
        return Err(sim_err("spill GC never compacted despite the tight budget"));
    }
    let rehydrated = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    recovery.rehydrate_into(&rehydrated);
    rehydrated.set_spill(Arc::new(spill));

    // Every sealed event is still accounted for, and the downsampled
    // history is identical to the reference that never died.
    let want = reference.query(&ObsQuery::all().with_resolution(Resolution::Rollup));
    let got = rehydrated.query(&ObsQuery::all().with_resolution(Resolution::Rollup));
    if got.aggregates != want.aggregates {
        return Err(sim_err(format!(
            "rehydrated aggregates diverged: {:?} != {:?}",
            got.aggregates, want.aggregates
        )));
    }
    if got.aggregates.matched != sealed_events as u64 {
        return Err(sim_err(format!(
            "rehydrated store accounts for {} of {sealed_events} sealed events",
            got.aggregates.matched
        )));
    }

    let _ = std::fs::remove_dir_all(&dir);
    let mut report = ScenarioReport::new("obs_soak");
    report.int("events", TOTAL as i64, Gate::Exact);
    report.int("sealed_events", sealed_events as i64, Gate::Exact);
    report.int(
        "spilled_chunks",
        pre_kill.spilled_chunks as i64,
        Gate::Exact,
    );
    report.int("rollup_rows", pre_kill.rollup_rows as i64, Gate::Exact);
    report.int("matched_total", matched_total as i64, Gate::Exact);
    report.int("rollup_cells", rollup_cells as i64, Gate::Exact);
    report.int(
        "recovered_chunks",
        recovery.chunks.len() as i64,
        Gate::Exact,
    );
    report.int(
        "recovered_chunk_events",
        recovery.events() as i64,
        Gate::Exact,
    );
    report.int(
        "recovered_rollup_cells",
        recovery.rollups.len() as i64,
        Gate::Exact,
    );
    report.int("spill_epoch", recovery.epoch as i64, Gate::Exact);
    report.int(
        "corrupt_records",
        recovery.corrupt_records as i64,
        Gate::Exact,
    );
    report.int(
        "rehydrated_matched",
        got.aggregates.matched as i64,
        Gate::Exact,
    );
    report.int("sealed_window_identical", 1, Gate::Exact);
    Ok(report)
}

/// A soak on the live-tail streaming path, in three passes, every counter
/// `Exact`-gated because nothing in it touches a wall clock:
///
/// 1. **Shed**: a subscriber that never drains sits on a tiny channel while
///    a seeded event stream floods past it. Delivery is drop-and-count, so
///    the split is exact — `depth` rows delivered, the rest shed — and the
///    clean→overflow transition must stamp exactly one
///    [`SinkOverflow`](EventKind::SinkOverflow) marker, not one per drop.
/// 2. **Resume**: a subscriber drains a prefix live, disconnects, misses a
///    block of appends, then resubscribes from its `(time_us, seq)` cursor.
///    The back-fill must contain exactly the missed rows — strictly after
///    the cursor — and the splice of drained-prefix + back-fill must equal
///    one post-hoc store query bit-for-bit (NaN bits included).
/// 3. **Cluster**: an `ObsSubscribe` frame against a router over two
///    observed shards, opened before any traffic; a deterministic burst is
///    then streamed back through the per-shard legs and the merged stream
///    must converge to the post-hoc routed query as an exact multiset of
///    rows, with zero shard-side sheds.
pub(crate) fn stream_soak(ctx: &ScenarioCtx) -> SimResult<ScenarioReport> {
    const SHED_EVENTS: usize = 500;
    const SHED_DEPTH: usize = 64;
    const RESUME_PREFIX: usize = 200;
    const RESUME_MISSED: usize = 300;
    const TENANTS: [&str; 4] = ["cam-0", "cam-1", "cam-2", "cam-3"];
    const STEPS: usize = 3;
    const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

    /// Bit-exact row identity (NaN accuracy must equal itself here).
    fn bits(event: &Event) -> (String, u8, u64, u64, u64, u64, u32, u64) {
        (
            event.deployment.clone(),
            event.kind.code(),
            event.seq,
            event.time_us,
            event.energy_mj.to_bits(),
            event.latency_us,
            event.accuracy.to_bits(),
            event.wal_bytes,
        )
    }

    let mut rng = SeedRng::new(ctx.rng_seed());
    let mut synth = |seq: usize| -> Event {
        let kind = if rng.below(4) == 0 {
            EventKind::Learn
        } else {
            EventKind::Infer
        };
        let accuracy = if rng.below(4) == 0 {
            f32::NAN
        } else {
            rng.below(65) as f32 / 64.0
        };
        Event::new(kind, &format!("cam-{}", rng.below(3)))
            .with_seq(seq as u64)
            .with_time_us(1_000 * seq as u64)
            .with_energy_mj(rng.below(256) as f64 * 0.25)
            .with_latency_us(rng.below(5_000) as u64)
            .with_accuracy(accuracy)
            .with_wal_bytes(rng.below(1 << 20) as u64)
    };

    // Pass 1 — shed: the hot path never waits on the full channel, it
    // drops-and-counts, and the overflow marker is transition-only.
    let store = ObsStore::new(ObsConfig::default());
    let tail = store.subscribe(ObsQuery::all(), None, SHED_DEPTH);
    if !tail.backfill.events.is_empty() {
        return Err(sim_err("fresh store back-fill was not empty"));
    }
    for seq in 0..SHED_EVENTS {
        let event = synth(seq);
        store.append(&event);
    }
    let (shed_delivered, shed_dropped) = (tail.delivered(), tail.dropped());
    if shed_delivered != SHED_DEPTH as u64 {
        return Err(sim_err(format!(
            "shed pass delivered {shed_delivered}, expected the channel depth {SHED_DEPTH}"
        )));
    }
    let overflow_markers = store
        .query(&ObsQuery::all().with_kinds(&[EventKind::SinkOverflow]))
        .aggregates
        .matched;
    if overflow_markers != 1 {
        return Err(sim_err(format!(
            "overflow must mark the clean->overflow transition once, got {overflow_markers}"
        )));
    }
    // Every shed row is accounted: the synthetic rows plus the marker's own
    // fan-out attempt against the still-full channel.
    if shed_delivered + shed_dropped != SHED_EVENTS as u64 + overflow_markers {
        return Err(sim_err(format!(
            "shed conservation broke: {shed_delivered} + {shed_dropped} != \
             {SHED_EVENTS} + {overflow_markers}"
        )));
    }
    drop(tail);

    // Pass 2 — resume: drain a prefix, disconnect, miss a block, then
    // splice the cursor back-fill onto the prefix gap-free.
    let store = ObsStore::new(ObsConfig::default().with_chunk_events(32));
    let raw = ObsQuery::all().with_resolution(Resolution::Raw);
    let tail = store.subscribe(raw.clone(), None, RESUME_PREFIX + RESUME_MISSED);
    for seq in 0..RESUME_PREFIX {
        let event = synth(seq);
        store.append(&event);
    }
    let mut cursor = ObsCursor::start();
    let mut spliced: Vec<Event> = Vec::new();
    while let Some(event) = tail.try_next() {
        cursor.advance(event.order_key());
        spliced.push(event);
    }
    if spliced.len() != RESUME_PREFIX {
        return Err(sim_err(format!(
            "drained {} of {RESUME_PREFIX} live rows before the disconnect",
            spliced.len()
        )));
    }
    let resume_dropped = tail.dropped();
    drop(tail);
    for seq in RESUME_PREFIX..RESUME_PREFIX + RESUME_MISSED {
        let event = synth(seq);
        store.append(&event);
    }
    let resumed_tail = store.subscribe(raw.clone(), Some(cursor), RESUME_PREFIX);
    let backfill_rows = resumed_tail.backfill.events.len();
    if backfill_rows != RESUME_MISSED || resumed_tail.backfill.truncated {
        return Err(sim_err(format!(
            "resume back-fill returned {backfill_rows} rows (truncated: {}), expected \
             exactly the {RESUME_MISSED} missed rows",
            resumed_tail.backfill.truncated
        )));
    }
    if resumed_tail
        .backfill
        .events
        .iter()
        .any(|e| e.order_key() <= cursor.key())
    {
        return Err(sim_err(
            "back-fill leaked a row at or before the resume cursor",
        ));
    }
    spliced.extend(resumed_tail.backfill.events.iter().cloned());
    let reference = store.query(&raw);
    if reference.truncated || reference.events.len() != RESUME_PREFIX + RESUME_MISSED {
        return Err(sim_err(
            "post-hoc reference query did not cover the full range",
        ));
    }
    let splice_bitexact = spliced.iter().map(bits).collect::<Vec<_>>()
        == reference.events.iter().map(bits).collect::<Vec<_>>();
    if !splice_bitexact {
        return Err(sim_err("splice diverged from the post-hoc query"));
    }
    drop(resumed_tail);

    // Pass 3 — cluster: subscribe through the router before any traffic,
    // then require the merged per-shard stream to converge to the post-hoc
    // routed query as an exact multiset.
    let shards: Vec<ShardProcess> = (0..2)
        .map(|_| {
            ShardProcess::spawn_observed(
                registry_with(&TENANTS)?,
                WireConfig::tcp_loopback(),
                Some(Obs::new(ObsConfig::default())),
            )
            .ctx("spawn observed shard")
        })
        .collect::<SimResult<_>>()?;
    let config = RouterConfig::tcp_loopback(shards.iter().map(|s| s.addr().clone()).collect())
        .with_deployments(&TENANTS)
        .with_obs(Obs::new(ObsConfig::default()));
    let (cluster_requests, cluster_events, cluster_dropped) =
        RouterServer::run(&config, |router| -> SimResult<(u64, u64, u64)> {
            let sub = WireClient::connect(router.addr()).ctx("subscriber connect")?;
            sub.set_read_timeout(Some(Duration::from_millis(20)))
                .ctx("read timeout")?;
            let mut stream = sub
                .obs_subscribe(&ObsQuery::all(), None)
                .ctx("obs subscribe")?;

            let mut client = WireClient::connect(router.addr()).ctx("connect")?;
            let mut requests = 0u64;
            for step in 0..STEPS {
                for tenant in TENANTS {
                    client
                        .call(ServeRequest::LearnOnline {
                            deployment: tenant.into(),
                            batch: traffic::support_batch(SIDE, &[2 * step, 2 * step + 1], 3),
                        })
                        .ctx("burst learn")?;
                    requests += 1;
                    for _ in 0..2 {
                        let response = client
                            .call(ServeRequest::Infer {
                                deployment: tenant.into(),
                                image: traffic::class_image(SIDE, 2 * step, 0.01),
                            })
                            .ctx("burst infer")?;
                        requests += 1;
                        // Any prediction will do — accuracy is other
                        // scenarios' business; this one gates the stream.
                        predicted(response)?;
                    }
                }
            }

            // Traffic has quiesced; one routed query is the ground truth.
            let reference = router.obs_query(&ObsQuery::all());
            if reference.shards_err != 0 || reference.truncated {
                return Err(sim_err("reference query did not cover every shard"));
            }
            let mut expected: Vec<_> = reference.events.iter().map(bits).collect();
            expected.sort_unstable();

            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    std::thread::sleep(DRAIN_DEADLINE);
                    stop.store(true, std::sync::atomic::Ordering::Release);
                });
            }
            let mut streamed: Vec<_> = Vec::new();
            let mut dropped = 0u64;
            loop {
                let mut sorted = streamed.clone();
                sorted.sort_unstable();
                if sorted == expected {
                    break;
                }
                match stream.next_batch(Some(&stop)).ctx("next batch")? {
                    Some(batch) => {
                        dropped = batch.dropped;
                        streamed.extend(batch.events.iter().map(bits));
                    }
                    None => {
                        return Err(sim_err(format!(
                            "stream went silent at {} of {} rows",
                            sorted.len(),
                            expected.len()
                        )))
                    }
                }
            }
            Ok((requests, reference.events.len() as u64, dropped))
        })
        .ctx("router")??;
    for shard in shards {
        shard.stop();
    }

    let mut report = ScenarioReport::new("stream_soak");
    report.int("shed_events", SHED_EVENTS as i64, Gate::Exact);
    report.int("shed_delivered", shed_delivered as i64, Gate::Exact);
    report.int("shed_dropped", shed_dropped as i64, Gate::Exact);
    report.int("overflow_markers", overflow_markers as i64, Gate::Exact);
    report.int("resume_prefix", RESUME_PREFIX as i64, Gate::Exact);
    report.int("resume_backfill", backfill_rows as i64, Gate::Exact);
    report.int("resume_dropped", resume_dropped as i64, Gate::Exact);
    report.int("resumed", 1, Gate::Exact);
    report.int("splice_bitexact", i64::from(splice_bitexact), Gate::Exact);
    report.int("cluster_requests", cluster_requests as i64, Gate::Exact);
    report.int("cluster_events", cluster_events as i64, Gate::Exact);
    report.int("cluster_dropped", cluster_dropped as i64, Gate::Exact);
    report.int("cluster_matched", 1, Gate::Exact);
    Ok(report)
}
