//! `--trace 1`: the per-layer pass. Single-threaded, sequential, batch 1.
//!
//! Two parts share the `--seconds` budget:
//!
//! * **micro-timings** — each layer's own public functions called in a loop
//!   on operands of the workload's shape (`time_us`), and
//! * **the ladder** — the workload's request stream replayed through every
//!   entry point from the bare kernels up to the router, one span per call.
//!   A layer's `self_us` is its rung's median minus the median of the rung
//!   beneath it. Rounds of `trace_slice` requests repeat until the budget is
//!   used, each round visiting every rung, so slow drift of the sandbox hits
//!   all rungs alike.
//!
//! Every rung runs on every workload, at that workload's shape — also the
//! rungs the workload's own path bypasses. README.md says which end-to-end
//! number each line is expected to move, and where.

use crate::drive::{call_model, reply_is_correct, Endpoint, Target};
use crate::fixture::{
    ctx, fresh_store, router_config, serve_config, tenant_model, tenant_registry, SHARDS,
};
use crate::gen::{tenant_name, Request, World};
use crate::kernels::{random_tensor, Replay};
use crate::report::Metric;
use crate::spans::{self_times_ns, Recorder};
use crate::stats::median;
use crate::workloads::{scaled, Sizing};
use ofscil::nn::models::{mobilenet_v2, MobileNetVariant};
use ofscil::prelude::*;
use ofscil::quant::QuantTensor;
use ofscil::router::harness::ShardProcess;
use ofscil::wire::codec::{decode_request, encode_request};
use ofscil::wire::frame::parse_frame;
use ofscil::wire::{peek_request, WireRequest, DEFAULT_MAX_PAYLOAD};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the pass produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Requests replayed (each counted once per rung it went through).
    pub attempted: u64,
    /// Replies that were wrong or missing.
    pub failed: u64,
    /// Rounds of the ladder completed.
    pub rounds: usize,
    /// Median harness time per traced request outside the program's calls:
    /// the cost of tracing itself.
    pub harness_self_us: f64,
    /// Spans written to the span file.
    pub spans: usize,
}

/// Virtual nodes per shard — `RouterConfig::tcp_loopback`'s default, so the
/// ring built here places tenants exactly as the router does.
const VNODES: usize = 64;
/// Share of `--seconds` one micro-timing may use.
const MICRO_SHARE: f64 = 0.012;
/// Records journaled for the `store.*` timings; below the store's default
/// checkpoint interval, so no inline checkpoint lands in the sample.
const JOURNALED: u64 = 32;
/// Requests the saturated burst keeps in flight, as `serve_saturate` does.
const BURST_IN_FLIGHT: usize = 64;
/// Precision of the quantized paths timed under `quant.*`.
const QUANT_BITS: u8 = 8;

/// Paper Table IV energies (mJ): FCR, BB inference ×3, EM update ×3, FCR
/// fine-tune ×3, for the M / M2 / M4 backbones.
const TABLE4_PAPER_MJ: [f64; 10] = [
    0.15, 2.12, 2.40, 4.40, 11.35, 12.75, 22.75, 310.35, 311.75, 321.75,
];

/// Median time of one call of `f`, microseconds. Calls are timed in batches
/// long enough for the clock to resolve, for about `budget`; a call longer
/// than the budget is timed once.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    let first = started.elapsed();
    if first >= budget {
        return first.as_nanos() as f64 / 1e3;
    }
    let batch = (200_000 / first.as_nanos().max(1) + 1) as u32;
    let mut samples = Vec::new();
    while started.elapsed() < budget || samples.is_empty() {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / 1e3 / f64::from(batch));
    }
    median(&samples)
}

/// Runs the per-layer pass for one workload and writes its span file into
/// `out_dir`; the stores of the durable rungs live under `scratch`.
///
/// # Errors
///
/// Returns a description of whatever could not be built or written.
pub fn run(
    sizing: &Sizing,
    seed: u64,
    seconds: f64,
    scale: f64,
    out_dir: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let world = World::new(sizing, seed);
    let mut metrics = Vec::new();
    let mut push = |name, value, unit| metrics.push(Metric { name, value, unit });

    // The full stack at the workload's shape: two shard registries holding
    // every tenant, each tenant's base classes taught on the shard the ring
    // assigns it to.
    let ring = HashRing::new(SHARDS, VNODES);
    let owner = |tenant: usize| {
        ring.shard_for(&tenant_name(tenant))
            .expect("non-empty ring")
    };
    let registries: Vec<Arc<LearnerRegistry>> = (0..SHARDS)
        .map(|_| tenant_registry(&world).map(Arc::new))
        .collect::<Result<_, _>>()?;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    for r in world.base_learns() {
        let ok = registries[owner(r.tenant)]
            .with_model(&tenant_name(r.tenant), |m| {
                call_model(m, r.request, r.label)
            })
            .map_err(ctx("base learn"))?;
        attempted += 1;
        failed += u64::from(!ok);
    }

    let budget = Duration::from_secs_f64(seconds * MICRO_SHARE);
    let mut rng = SeedRng::new(seed ^ 0x7ace);
    let (side, d_p) = (sizing.side, sizing.d_p);
    let mut model = tenant_model(&world, 0)?;
    let d_a = model.backbone().feature_dim;

    // --- tensor -----------------------------------------------------------
    let paper_kernels = Replay::new(BackboneKind::MobileNetV2, 32);
    let matmul_us = time_us(budget, || paper_kernels.matmul_only());
    push(
        "tensor.matmul_gmacs_per_s",
        paper_kernels.macs as f64 / (matmul_us * 1e3),
        "GMAC/s",
    );
    push(
        "tensor.im2col_us",
        time_us(budget, || paper_kernels.im2col_only()),
        "us",
    );
    let small_kernels = Replay::new(BackboneKind::Micro, 8);
    push(
        "tensor.matmul_small_us",
        time_us(budget, || small_kernels.matmul_only()),
        "us",
    );
    let images: Vec<Tensor> = (0..32)
        .map(|_| random_tensor(&mut rng, &[3, side, side]))
        .collect();
    let refs: Vec<&Tensor> = images.iter().collect();
    push(
        "tensor.stack_us",
        time_us(budget, || {
            black_box(Tensor::stack(black_box(&refs)).expect("uniform shapes"));
        }),
        "us",
    );

    // --- nn (batched forward; the batch-1 rung comes from the ladder) -----
    let batch32 = Tensor::stack(&refs).expect("uniform shapes");
    let forward_b32_us = time_us(budget, || {
        black_box(
            model
                .backbone_mut()
                .forward(&batch32, Mode::Eval)
                .expect("forward"),
        );
    }) / 32.0;
    push("nn.forward_b32_us_per_image", forward_b32_us, "us");
    let macs = model.backbone().macs(side, side) + (d_a * d_p) as u64;
    push("nn.macs_per_infer", macs as f64, "count");

    // --- core (explicit memory at the workload's classes × d_p) -----------
    let mut em = ExplicitMemory::new(d_p);
    for class in 0..sizing.base_classes {
        let prototype: Vec<f32> = (0..d_p).map(|_| rng.normal()).collect();
        em.set_prototype(class, &prototype)
            .map_err(ctx("fill explicit memory"))?;
    }
    let query: Vec<f32> = (0..d_p).map(|_| rng.normal()).collect();
    push(
        "core.em_score_us",
        time_us(budget, || {
            black_box(em.classify(black_box(&query)).expect("non-empty memory"));
        }),
        "us",
    );
    let shots: Vec<Vec<f32>> = (0..sizing.learn_shots)
        .map(|_| (0..d_p).map(|_| rng.normal()).collect())
        .collect();
    let shot_refs: Vec<&[f32]> = shots.iter().map(Vec::as_slice).collect();
    push(
        "core.em_update_us",
        time_us(budget, || {
            em.update_class(0, black_box(&shot_refs))
                .expect("matching dimension")
        }),
        "us",
    );

    // --- quant ------------------------------------------------------------
    let precision = PrototypePrecision::new(QUANT_BITS).map_err(ctx("prototype precision"))?;
    push(
        "quant.proto_quantize_us",
        time_us(budget, || {
            black_box(precision.quantize(black_box(&query)));
        }),
        "us",
    );
    let theta_a = random_tensor(&mut rng, &[1, d_a]);
    let fake = FakeQuant::new(QUANT_BITS).map_err(ctx("fake quantizer"))?;
    push(
        "quant.fake_apply_us",
        time_us(budget, || {
            black_box(fake.apply(black_box(&theta_a)));
        }),
        "us",
    );
    let q_theta = QuantTensor::quantize_auto(&theta_a);
    let q_fcr = QuantTensor::quantize_auto(&random_tensor(&mut rng, &[d_a, d_p]));
    push(
        "quant.qmatmul_us",
        time_us(budget, || {
            black_box(
                q_theta
                    .matmul(black_box(&q_fcr))
                    .expect("conforming shapes"),
            );
        }),
        "us",
    );

    // --- gap9 -------------------------------------------------------------
    let executor = Gap9Executor::default();
    push(
        "gap9.price_us",
        time_us(budget, || {
            let workload = deploy_backbone(model.backbone(), side, side);
            black_box(executor.backbone_inference(&workload, 8).expect("8 cores"));
            black_box(
                executor
                    .em_update(&workload, d_a, d_p, sizing.learn_shots, 8)
                    .expect("8 cores"),
            );
        }),
        "us",
    );
    let table4 = table4_energies_mj(&executor)?;
    push("gap9.em_update_mj", table4[4], "mJ");
    let error: f64 = table4
        .iter()
        .zip(TABLE4_PAPER_MJ)
        .map(|(ours, paper)| (ours - paper).abs() / paper)
        .sum::<f64>()
        / TABLE4_PAPER_MJ.len() as f64;
    push("gap9.table4_err_pct", error * 100.0, "%");

    // --- store ------------------------------------------------------------
    let name0 = tenant_name(0);
    let store_dir = scratch.join("store");
    let store = fresh_store(&store_dir, &registries[owner(0)])?;
    let prototype: Vec<f32> = precision.quantize(&query);
    let wal_before = store
        .durability_stats(&name0)
        .ok_or("tenant not journaled")?
        .wal_bytes;
    let commit = |seq: u64| LearnCommit {
        deployment: name0.clone(),
        seq,
        updates: vec![(seq as usize % sizing.base_classes, prototype.clone())],
        total_classes: sizing.base_classes,
    };
    let mut journal_us = Vec::new();
    for seq in 1..=JOURNALED {
        let commit = commit(seq);
        let t = Instant::now();
        store
            .journal_learn(&commit, 0.0, None)
            .map_err(ctx("journal_learn"))?;
        journal_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let wal_after = store
        .durability_stats(&name0)
        .ok_or("tenant not journaled")?
        .wal_bytes;
    push("store.journal_learn_us", median(&journal_us), "us");
    push(
        "store.wal_bytes_per_learn",
        (wal_after - wal_before) as f64 / JOURNALED as f64,
        "count",
    );
    push(
        "store.replay_us",
        time_us(budget, || {
            black_box(store.latest_state(&name0).expect("attached"));
        }),
        "us",
    );
    // A checkpoint of a clean log is a no-op, so each timed checkpoint folds
    // one freshly journaled record.
    let mut checkpoint_us = Vec::new();
    for seq in JOURNALED + 1..=JOURNALED + 16 {
        let commit = commit(seq);
        store
            .journal_learn(&commit, 0.0, None)
            .map_err(ctx("journal_learn"))?;
        let t = Instant::now();
        store.checkpoint(&name0).map_err(ctx("checkpoint"))?;
        checkpoint_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    push("store.checkpoint_us", median(&checkpoint_us), "us");
    drop(store);
    std::fs::remove_dir_all(&store_dir).map_err(ctx("remove store directory"))?;

    // --- wire / router codecs on the workload's Infer frame ---------------
    let infer = WireRequest::Serve(ServeRequest::Infer {
        deployment: name0.clone(),
        image: images[0].clone(),
    });
    let frame = encode_request(&infer);
    push(
        "wire.encode_us",
        time_us(budget, || {
            black_box(encode_request(black_box(&infer)));
        }),
        "us",
    );
    push(
        "wire.decode_us",
        time_us(budget, || {
            let (kind, payload) =
                parse_frame(black_box(&frame), DEFAULT_MAX_PAYLOAD).expect("own frame");
            black_box(decode_request(kind, payload).expect("own payload"));
        }),
        "us",
    );
    push("wire.frame_bytes", frame.len() as f64, "count");
    let (kind, payload) =
        parse_frame(&frame, DEFAULT_MAX_PAYLOAD).map_err(ctx("parse own frame"))?;
    push(
        "router.peek_us",
        time_us(budget, || {
            black_box(peek_request(kind, black_box(payload)).expect("own payload"));
        }),
        "us",
    );
    push(
        "router.ring_lookup_us",
        time_us(budget, || {
            black_box(ring.shard_for(black_box(&name0)));
        }),
        "us",
    );

    // --- obs --------------------------------------------------------------
    let obs = Obs::new(ObsConfig::default());
    let event = Event::new(EventKind::Infer, &name0)
        .with_latency_us(100)
        .with_energy_mj(1.0);
    // Emit in bursts well under the sink's queue depth and let the collector
    // drain between bursts, so the timed path is the accepting one, not the
    // cheaper drop-and-count one.
    let mut emit_us = Vec::new();
    let emit_started = Instant::now();
    while emit_started.elapsed() < budget || emit_us.is_empty() {
        let t = Instant::now();
        for _ in 0..1024 {
            obs.sink().emit(black_box(event.clone()));
        }
        emit_us.push(t.elapsed().as_nanos() as f64 / 1e3 / 1024.0);
        obs.flush(Duration::from_secs(1));
    }
    push("obs.emit_us", median(&emit_us), "us");
    let obs_store = ObsStore::new(ObsConfig::default());
    push(
        "obs.append_us",
        time_us(budget, || obs_store.append(black_box(&event))),
        "us",
    );

    // --- the ladder -------------------------------------------------------
    let kernels = Replay::new(sizing.backbone, side);
    let mut rec = Recorder::new();
    let mut lane = world.lane(0);
    let mut ladder = Ladder::default();
    let mut rounds = 0;
    loop {
        let round_started = Instant::now();
        let slice = lane.take_requests(scaled(sizing.trace_slice, scale, 1));
        let env = Env {
            sizing,
            registries: &registries,
            owner: &owner,
            scratch,
        };
        direct_phase(&env, &kernels, &slice, &mut rec, &mut ladder)?;
        serve_phase(&env, &slice, scale, &mut rec, &mut ladder)?;
        remote_phase(&env, &slice, &mut rec, &mut ladder)?;
        rounds += 1;
        if started.elapsed() + round_started.elapsed() > Duration::from_secs_f64(seconds) {
            break;
        }
    }
    attempted += ladder.attempted;
    failed += ladder.failed;

    let rung = |name: &str| {
        rec.median_us(name)
            .ok_or(format!("no {name} span recorded"))
    };
    let replay_us = rung("tensor.replay")?;
    let forward_us = rung("nn.forward")?;
    let predict_us = rung("core.predict")?;
    let serve_us = rung("serve.call")?;
    let wire_us = rung("wire.call")?;
    let router_us = rung("router.call")?;
    push("nn.forward_us", forward_us, "us");
    push("nn.batch_gain", forward_us / forward_b32_us, "ratio");
    push("nn.self_us", forward_us - replay_us, "us");
    push("core.predict_us", predict_us, "us");
    push("core.learn_us", rung("core.learn")?, "us");
    push("core.self_us", predict_us - forward_us, "us");
    push("serve.call_us", serve_us, "us");
    push("serve.self_us", serve_us - predict_us, "us");
    push("serve.submit_us", rung("serve.submit")?, "us");
    push("serve.snapshot_us", rung("serve.snapshot")?, "us");
    push("serve.mean_batch", median(&ladder.mean_batch), "count");
    push(
        "serve.batch_gain",
        serve_us / median(&ladder.burst_us_per_request),
        "ratio",
    );
    push("serve.rejected", ladder.rejected as f64, "count");
    push(
        "gap9.infer_mj_mean",
        ladder.energy_mj / ladder.metered_infers.max(1) as f64,
        "mJ",
    );
    push("wire.call_us", wire_us, "us");
    push("wire.self_us", wire_us - serve_us, "us");
    push("router.call_us", router_us, "us");
    push("router.self_us", router_us - wire_us, "us");
    push("router.shard_imbalance", ladder.shard_imbalance, "ratio");
    push("obs.query_us", median(&ladder.obs_query_us), "us");
    push(
        "obs.dropped",
        (ladder.obs_dropped + obs.counters().dropped) as f64,
        "count",
    );

    // Tracing overhead: what the harness itself spends per traced request,
    // i.e. the self time of the per-request root spans.
    let own = self_times_ns(rec.spans());
    let roots: Vec<f64> = rec
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name.starts_with("trace."))
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect();

    std::fs::create_dir_all(out_dir).map_err(ctx("create output directory"))?;
    let file = out_dir.join(format!("{}.trace.json", sizing.name));
    let text = crate::spans::to_json(sizing.name, seed, rec.spans()).render();
    std::fs::write(&file, text).map_err(ctx("write span file"))?;

    Ok(Outcome {
        metrics,
        attempted,
        failed,
        rounds,
        harness_self_us: median(&roots),
        spans: rec.spans().len(),
    })
}

/// The ten Table IV energy rows as the device model reproduces them, in the
/// order of [`TABLE4_PAPER_MJ`].
fn table4_energies_mj(executor: &Gap9Executor) -> Result<Vec<f64>, String> {
    let mut rng = SeedRng::new(0);
    let workloads: Vec<_> = [
        MobileNetVariant::X1,
        MobileNetVariant::X2,
        MobileNetVariant::X4,
    ]
    .into_iter()
    .map(|variant| deploy_backbone(&mobilenet_v2(variant, &mut rng), 32, 32))
    .collect();
    let (d_a, d_p, shots, cores) = (1280, 256, 5, 8);
    let mut rows = vec![
        executor
            .fcr_inference(d_a, d_p, cores)
            .map_err(ctx("price FCR"))?
            .energy_mj,
    ];
    for w in &workloads {
        rows.push(
            executor
                .backbone_inference(w, cores)
                .map_err(ctx("price backbone"))?
                .energy_mj,
        );
    }
    for w in &workloads {
        rows.push(
            executor
                .em_update(w, d_a, d_p, shots, cores)
                .map_err(ctx("price EM update"))?
                .energy_mj,
        );
    }
    for w in &workloads {
        rows.push(
            executor
                .fcr_finetune(&w.name, d_a, d_p, 60, 100, cores)
                .map_err(ctx("price fine-tune"))?
                .energy_mj,
        );
    }
    Ok(rows)
}

/// What the rounds of the ladder accumulate besides spans.
#[derive(Debug, Default)]
struct Ladder {
    attempted: u64,
    failed: u64,
    mean_batch: Vec<f64>,
    burst_us_per_request: Vec<f64>,
    rejected: u64,
    energy_mj: f64,
    metered_infers: u64,
    shard_imbalance: f64,
    obs_query_us: Vec<f64>,
    obs_dropped: u64,
}

impl Ladder {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

struct Env<'a> {
    sizing: &'a Sizing,
    registries: &'a [Arc<LearnerRegistry>],
    owner: &'a dyn Fn(usize) -> usize,
    scratch: &'a Path,
}

fn infer_image(request: &Request) -> Option<&Tensor> {
    match &request.request {
        ServeRequest::Infer { image, .. } => Some(image),
        _ => None,
    }
}

/// Rungs 1–3 on the owning shard's model: kernel replay, `Backbone::forward`,
/// `OFscilModel::predict`; `LearnOnline`s run here (and only here — the
/// registries are shared with the rungs above, which then see the class).
fn direct_phase(
    env: &Env<'_>,
    kernels: &Replay,
    slice: &[Request],
    rec: &mut Recorder,
    ladder: &mut Ladder,
) -> Result<(), String> {
    for (i, r) in slice.iter().enumerate() {
        let id = i as u32;
        let ok = env.registries[(env.owner)(r.tenant)]
            .with_model(&tenant_name(r.tenant), |model| {
                rec.span("trace.direct", id, None, |rec, root| match infer_image(r) {
                    None => rec.span("core.learn", id, Some(root), |_, _| {
                        call_model(model, r.request.clone(), r.label)
                    }),
                    Some(image) => {
                        let mut dims = vec![1];
                        dims.extend_from_slice(image.dims());
                        let batch = image.reshape(&dims).expect("same element count");
                        rec.span("tensor.replay", id, Some(root), |_, _| kernels.run());
                        rec.span("nn.forward", id, Some(root), |_, _| {
                            black_box(model.backbone_mut().forward(&batch, Mode::Eval).is_ok())
                        }) && rec.span("core.predict", id, Some(root), |_, _| {
                            matches!(model.predict(&batch).as_deref(), Ok([class]) if *class == r.label)
                        })
                    }
                })
            })
            .map_err(ctx("direct rung"))?;
        ladder.check(ok);
    }
    Ok(())
}

/// Rung 4: `ServeClient::call` into an in-process runtime per shard
/// registry, then a saturated burst over the same `Infer`s for the batching
/// numbers, and a few `Snapshot`s.
fn serve_phase(
    env: &Env<'_>,
    slice: &[Request],
    scale: f64,
    rec: &mut Recorder,
    ladder: &mut Ladder,
) -> Result<(), String> {
    let config = serve_config(env.sizing);
    let stats = |field: &dyn Fn(&DeploymentStats) -> f64| -> f64 {
        env.registries
            .iter()
            .flat_map(|registry| {
                registry
                    .names()
                    .into_iter()
                    .map(move |n| registry.stats(&n))
            })
            .filter_map(Result::ok)
            .map(|s| field(&s))
            .sum()
    };
    ServeRuntime::run(&env.registries[0], &config, |shard0| {
        ServeRuntime::run(&env.registries[1], &config, |shard1| {
            let client = |tenant: usize| {
                if (env.owner)(tenant) == 0 {
                    shard0
                } else {
                    shard1
                }
            };
            let infers: Vec<&Request> = slice.iter().filter(|r| !r.is_learn()).collect();
            for (i, r) in infers.iter().enumerate() {
                let id = i as u32;
                let reply = rec.span("trace.serve", id, None, |rec, root| {
                    let request = r.request.clone();
                    rec.span("serve.call", id, Some(root), |rec, call| {
                        let pending = rec.span("serve.submit", id, Some(call), |_, _| {
                            client(r.tenant).submit(request)
                        });
                        pending.wait()
                    })
                });
                ladder.check(reply_is_correct(&reply, r.label));
            }

            let burst = scaled(env.sizing.trace_burst, scale, 1);
            let (requests_before, batches_before) = (
                stats(&|s| s.infer_requests as f64),
                stats(&|s| s.infer_batches as f64),
            );
            // One runtime at a time, through the plain run's own driver.
            let mut burst_s = 0.0;
            for (shard, client) in [shard0, shard1].into_iter().enumerate() {
                let lane: Vec<Request> = infers
                    .iter()
                    .cycle()
                    .take(burst)
                    .filter(|r| (env.owner)(r.tenant) == shard)
                    .map(|&r| r.clone())
                    .collect();
                let target = Target::Serve {
                    client,
                    in_flight: BURST_IN_FLIGHT,
                };
                let samples = Endpoint::new(target).run(vec![lane]);
                ladder.attempted += samples.attempted();
                ladder.failed += samples.failed;
                burst_s += samples.wall_s;
            }
            ladder
                .burst_us_per_request
                .push(burst_s * 1e6 / burst as f64);
            let batches = stats(&|s| s.infer_batches as f64) - batches_before;
            ladder
                .mean_batch
                .push((stats(&|s| s.infer_requests as f64) - requests_before) / batches);

            for i in 0..8 {
                let tenant = i % env.sizing.tenants;
                let reply = rec.span("serve.snapshot", i as u32, None, |_, _| {
                    client(tenant).call(ServeRequest::Snapshot {
                        deployment: tenant_name(tenant),
                    })
                });
                ladder.check(matches!(reply, Ok(ServeResponse::Snapshot { .. })));
            }
        })
    })
    .and_then(|inner| inner)
    .map_err(ctx("serve rung"))?;
    ladder.rejected = stats(&|s| s.rejected() as f64) as u64;
    ladder.energy_mj = stats(&|s| s.energy_spent_mj);
    ladder.metered_infers = stats(&|s| s.infer_requests as f64) as u64;
    Ok(())
}

/// Rungs 5–6: `WireClient::call` straight to the owning shard (journaled
/// and observed, as `wire_durable_mixed` runs it), and the same request
/// through the router in front of both shards.
fn remote_phase(
    env: &Env<'_>,
    slice: &[Request],
    rec: &mut Recorder,
    ladder: &mut Ladder,
) -> Result<(), String> {
    let config = WireConfig::tcp_loopback().with_serve(serve_config(env.sizing));
    let mut shards = Vec::with_capacity(SHARDS);
    let mut shard_obs = Vec::with_capacity(SHARDS);
    let mut store_dirs = Vec::with_capacity(SHARDS);
    for (i, registry) in env.registries.iter().enumerate() {
        let dir = env.scratch.join(format!("shard-{i}"));
        let store = fresh_store(&dir, registry)?;
        let obs = Obs::new(ObsConfig::default());
        shards.push(
            ShardProcess::spawn_durable_observed(
                Arc::clone(registry),
                config.clone(),
                Some(store),
                Some(obs.clone()),
            )
            .map_err(ctx("spawn shard"))?,
        );
        shard_obs.push(obs);
        store_dirs.push(dir);
    }
    let router_obs = Obs::new(ObsConfig::default());
    let router_config = router_config(env.sizing, &shards, &router_obs);
    RouterServer::run(&router_config, |router| -> Result<(), String> {
        let mut direct: Vec<WireClient> = shards
            .iter()
            .map(|s| WireClient::connect(s.addr()).map_err(ctx("connect to shard")))
            .collect::<Result<_, _>>()?;
        let mut routed = WireClient::connect(router.addr()).map_err(ctx("connect to router"))?;
        for (i, r) in slice.iter().filter(|r| !r.is_learn()).enumerate() {
            let id = i as u32;
            let (to_shard, through_router) = rec.span("trace.remote", id, None, |rec, root| {
                let (a, b) = (r.request.clone(), r.request.clone());
                let shard = &mut direct[(env.owner)(r.tenant)];
                (
                    rec.span("wire.call", id, Some(root), |_, _| shard.call(a)),
                    rec.span("router.call", id, Some(root), |_, _| routed.call(b)),
                )
            });
            ladder.check(reply_is_correct(&to_shard, r.label));
            ladder.check(reply_is_correct(&through_router, r.label));
        }

        let slices = router.cluster_stats();
        let per_shard: Vec<f64> = slices
            .iter()
            .map(|s| {
                s.deployments
                    .iter()
                    .map(|d| (d.infer_requests + d.learn_requests) as f64)
                    .sum()
            })
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        ladder.shard_imbalance = per_shard.iter().fold(0.0f64, |a, &b| a.max(b)) / mean;
        ladder.obs_dropped += slices.iter().map(|s| s.obs_dropped).sum::<u64>();
        ladder.obs_dropped += router_obs.counters().dropped;

        // One query over everything the busier shard recorded this round.
        let busiest = &shard_obs[if per_shard[0] >= per_shard[1] { 0 } else { 1 }];
        busiest.flush(Duration::from_secs(1));
        let t = Instant::now();
        black_box(busiest.store().query(&ObsQuery::all()));
        ladder
            .obs_query_us
            .push(t.elapsed().as_nanos() as f64 / 1e3);
        Ok(())
    })
    .map_err(ctx("router rung"))??;
    drop(shards);
    for dir in store_dirs {
        std::fs::remove_dir_all(&dir).map_err(ctx("remove store directory"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_us_reports_a_positive_median_and_respects_long_calls() {
        let mut calls = 0u64;
        let fast = time_us(Duration::from_millis(5), || {
            calls += 1;
            black_box(calls);
        });
        assert!(fast > 0.0 && fast < 1_000.0, "{fast}");
        assert!(calls > 1);
        let mut slow_calls = 0;
        let slow = time_us(Duration::from_millis(1), || {
            slow_calls += 1;
            std::thread::sleep(Duration::from_millis(3));
        });
        assert_eq!(slow_calls, 1);
        assert!(slow >= 3_000.0);
    }

    #[test]
    fn table4_rows_line_up_with_the_paper_rows() {
        let rows = table4_energies_mj(&Gap9Executor::default()).unwrap();
        assert_eq!(rows.len(), TABLE4_PAPER_MJ.len());
        // Same order of magnitude row by row, or the rows are misaligned.
        for (ours, paper) in rows.iter().zip(TABLE4_PAPER_MJ) {
            assert!(
                *ours > paper / 3.0 && *ours < paper * 3.0,
                "{ours} vs {paper}"
            );
        }
    }
}
