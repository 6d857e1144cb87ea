//! End-to-end sharded serving: N backend serving processes behind the
//! consistent-hash router, exercised over real sockets.
//!
//! The acceptance bar this asserts:
//!
//! * requests land on the hash-ring-assigned shard (verified against each
//!   backend's own registry counters),
//! * a live-migrated deployment answers **bit-identically** on its new
//!   shard, with snapshot-byte equality across the move,
//! * a killed shard yields a typed `ShardUnavailable` error promptly — not
//!   a hang — while deployments on surviving shards keep serving.

use ofscil::prelude::*;
use ofscil::router::harness::ShardProcess;
use ofscil::serve::traffic;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IMAGE: usize = 8;
const DEPLOYMENTS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Every shard loads the same pretrained weights per deployment (identical
/// seeds), so a deployment's serving state is exactly its explicit memory —
/// the thing migration moves.
fn shard_registry() -> Arc<LearnerRegistry> {
    let registry = LearnerRegistry::new();
    for name in DEPLOYMENTS {
        let mut rng = SeedRng::new(11);
        registry
            .register(
                DeploymentSpec::new(name, (IMAGE, IMAGE)),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
    }
    Arc::new(registry)
}

fn spawn_shards(n: usize) -> (Vec<Arc<LearnerRegistry>>, Vec<ShardProcess>) {
    let registries: Vec<Arc<LearnerRegistry>> = (0..n).map(|_| shard_registry()).collect();
    let shards = registries
        .iter()
        .map(|registry| {
            ShardProcess::spawn_observed(Arc::clone(registry), WireConfig::tcp_loopback(), None)
                .unwrap()
        })
        .collect();
    (registries, shards)
}

fn router_config(shards: &[ShardProcess]) -> RouterConfig {
    RouterConfig::tcp_loopback(shards.iter().map(|s| s.addr().clone()).collect())
        .with_deployments(&DEPLOYMENTS)
        .with_pool(PoolConfig {
            connect_attempts: 2,
            backoff: Duration::from_millis(5),
            cooldown: Duration::from_millis(200),
            max_idle: 4,
        })
}

fn learn(client: &mut WireClient, deployment: &str, classes: &[usize]) {
    client
        .call(ServeRequest::LearnOnline {
            deployment: deployment.into(),
            batch: traffic::support_batch(IMAGE, classes, 3),
        })
        .unwrap();
}

fn infer(client: &mut WireClient, deployment: &str, class: usize) -> (usize, u32) {
    match client
        .call(ServeRequest::Infer {
            deployment: deployment.into(),
            image: traffic::class_image(IMAGE, class, 0.017),
        })
        .unwrap()
    {
        ServeResponse::Prediction {
            class, similarity, ..
        } => (class, similarity.to_bits()),
        other => panic!("unexpected response {other:?}"),
    }
}

fn snapshot(client: &mut WireClient, deployment: &str) -> Vec<u8> {
    match client
        .call(ServeRequest::Snapshot {
            deployment: deployment.into(),
        })
        .unwrap()
    {
        ServeResponse::Snapshot { bytes } => bytes,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn requests_land_on_the_ring_assigned_shard() {
    let (registries, shards) = spawn_shards(3);
    RouterServer::run(&router_config(&shards), |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        for (i, name) in DEPLOYMENTS.iter().enumerate() {
            learn(&mut client, name, &[i, i + 1]);
            let (class, _) = infer(&mut client, name, i);
            assert_eq!(class, i, "deployment {name} misclassified its own class");
        }

        // Each deployment's traffic hit exactly its ring-assigned shard.
        for name in DEPLOYMENTS {
            let owner = router.shard_for(name).unwrap();
            for (shard, registry) in registries.iter().enumerate() {
                let stats = registry.stats(name).unwrap();
                if shard == owner {
                    assert_eq!(stats.learn_requests, 1, "{name} owner {shard}");
                    assert_eq!(stats.infer_requests, 1, "{name} owner {shard}");
                } else {
                    assert_eq!(stats.learn_requests, 0, "{name} bystander {shard}");
                    assert_eq!(stats.infer_requests, 0, "{name} bystander {shard}");
                }
            }
        }

        // With 5 names and 3 shards at 64 vnodes, the keys must actually
        // spread (no shard owns everything).
        let owners: std::collections::BTreeSet<usize> = DEPLOYMENTS
            .iter()
            .map(|name| router.shard_for(name).unwrap())
            .collect();
        assert!(
            owners.len() >= 2,
            "all deployments collapsed onto one shard"
        );

        // Scatter-gather statistics agree with the per-shard registries.
        let slices = router.cluster_stats();
        assert_eq!(slices.len(), 3);
        let total_learns: u64 = slices
            .iter()
            .flat_map(|slice| slice.deployments.iter().map(|d| d.learn_requests))
            .sum();
        assert_eq!(total_learns, DEPLOYMENTS.len() as u64);
        for slice in &slices {
            assert!(
                slice.error.is_none(),
                "shard {} errored: {:?}",
                slice.shard,
                slice.error
            );
        }
    })
    .unwrap();
}

#[test]
fn migration_is_bit_exact_and_atomically_remaps() {
    let (registries, shards) = spawn_shards(3);
    RouterServer::run(&router_config(&shards), |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        let mover = "gamma";
        learn(&mut client, mover, &[0, 1, 2]);
        learn(&mut client, mover, &[3]);

        let before_snapshot = snapshot(&mut client, mover);
        let before: Vec<(usize, u32)> = (0..4)
            .map(|class| infer(&mut client, mover, class))
            .collect();

        let source = router.shard_for(mover).unwrap();
        let target = (source + 1) % 3;
        let report = router.migrate(mover, target).unwrap();
        assert_eq!(report.from, source);
        assert_eq!(report.to, target);
        assert_eq!(report.seq, 2, "two learn commits were exported");
        assert_eq!(report.classes, 4);
        assert_eq!(router.shard_for(mover).unwrap(), target);

        // Snapshot-hash equality across the move, through the router.
        assert_eq!(snapshot(&mut client, mover), before_snapshot);
        // Same bytes directly on the two registries.
        assert_eq!(
            registries[source].snapshot_with_seq(mover).unwrap().1,
            registries[target].snapshot_with_seq(mover).unwrap().1
        );

        // Inference on the new shard is bit-identical.
        for (class, (expected_class, expected_bits)) in before.iter().enumerate() {
            let (got_class, got_bits) = infer(&mut client, mover, class);
            assert_eq!(got_class, *expected_class);
            assert_eq!(
                got_bits, *expected_bits,
                "class {class} similarity bits diverged"
            );
        }
        // And it actually ran on the target shard: the billing state came
        // along in the export, so the target's counters continue from the
        // migrated history (4 infers) instead of resetting to zero.
        assert!(registries[target].stats(mover).unwrap().infer_requests >= 8);

        // Post-migration writes land on the target and keep serving — the
        // adopted 2 migrated learns plus this fresh one — while the
        // source's counters stay frozen where the export cut them.
        learn(&mut client, mover, &[4]);
        assert_eq!(registries[target].stats(mover).unwrap().learn_requests, 3);
        assert_eq!(registries[source].stats(mover).unwrap().learn_requests, 2);

        // Migrating onto the current owner is a typed refusal.
        assert!(matches!(
            router.migrate(mover, target).unwrap_err(),
            RouterError::InvalidConfig(_)
        ));
    })
    .unwrap();
}

#[test]
fn restarted_router_recovers_migrated_placement_from_the_journal() {
    let mut log_path = std::env::temp_dir();
    log_path.push(format!(
        "ofscil-router-placement-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&log_path);

    let (registries, shards) = spawn_shards(3);
    let config = router_config(&shards).with_placement_log(&log_path);
    let mover = "gamma";

    // Router generation 1: learn, then migrate the deployment off its ring
    // shard. The override is journaled.
    let (source, target, moved_snapshot) = RouterServer::run(&config, |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        learn(&mut client, mover, &[0, 1]);
        let source = router.shard_for(mover).unwrap();
        let target = (source + 1) % 3;
        router.migrate(mover, target).unwrap();
        (source, target, snapshot(&mut client, mover))
    })
    .unwrap();

    // Router generation 2: same shard set, fresh process. Without the
    // journal it would hash the mover back onto its ring shard — whose
    // registry no longer matches the migrated state.
    RouterServer::run(&config, |router| {
        assert_eq!(
            router.shard_for(mover).unwrap(),
            target,
            "restarted router lost the migrated placement"
        );
        let mut client = WireClient::connect(router.addr()).unwrap();
        // Requests route to the shard that actually holds the memory.
        assert_eq!(snapshot(&mut client, mover), moved_snapshot);
        let (class, _) = infer(&mut client, mover, 1);
        assert_eq!(class, 1);
        assert!(registries[target].stats(mover).unwrap().infer_requests >= 1);
        assert_eq!(registries[source].stats(mover).unwrap().infer_requests, 0);
    })
    .unwrap();

    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn killed_shard_yields_typed_shard_unavailable_not_a_hang() {
    let (_registries, shards) = spawn_shards(3);
    let config = router_config(&shards);
    let mut shards: Vec<Option<ShardProcess>> = shards.into_iter().map(Some).collect();
    RouterServer::run(&config, move |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        for name in DEPLOYMENTS {
            learn(&mut client, name, &[0, 1]);
        }
        let victim_deployment = DEPLOYMENTS[0];
        let victim = router.shard_for(victim_deployment).unwrap();
        shards[victim].take().unwrap().stop();

        // The dead shard is a typed error, delivered promptly.
        let start = Instant::now();
        let err = client
            .call(ServeRequest::Infer {
                deployment: victim_deployment.into(),
                image: traffic::class_image(IMAGE, 0, 0.0),
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Remote(ServeError::ShardUnavailable { ref shard, .. })
                    if shard.starts_with(&victim.to_string())
            ),
            "expected ShardUnavailable for shard {victim}, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "failover detection took {:?}",
            start.elapsed()
        );

        // Deployments on surviving shards keep serving through the router.
        let mut served_elsewhere = 0;
        for name in DEPLOYMENTS {
            if router.shard_for(name).unwrap() != victim {
                infer(&mut client, name, 0);
                served_elsewhere += 1;
            }
        }
        assert!(
            served_elsewhere > 0,
            "every deployment lived on the killed shard"
        );

        // Probing reports the outage (and the survivors' health).
        for health in router.probe() {
            assert_eq!(
                health.healthy,
                health.shard != victim,
                "shard {}",
                health.shard
            );
        }

        // Cluster stats degrade gracefully: the dead shard carries an error,
        // the rest answer.
        let slices = router.cluster_stats();
        for slice in &slices {
            if slice.shard == victim {
                assert!(slice.error.is_some());
            } else {
                assert!(
                    slice.error.is_none(),
                    "shard {}: {:?}",
                    slice.shard,
                    slice.error
                );
            }
        }

        // Draining the dead shard fails (its deployments cannot be
        // exported) but stays retryable: the second attempt resumes moving
        // the stranded deployments instead of claiming the shard is gone.
        let first = router.drain_shard(victim).unwrap_err();
        assert!(
            matches!(first, RouterError::ShardUnavailable { .. }),
            "unexpected drain error: {first}"
        );
        let retry = router.drain_shard(victim).unwrap_err();
        assert!(
            matches!(retry, RouterError::ShardUnavailable { .. }),
            "a partially-failed drain must stay retryable, got: {retry}"
        );
        // The victim's deployments are still (correctly) recorded on it.
        assert_eq!(router.shard_for(victim_deployment).unwrap(), victim);
    })
    .unwrap();
}

#[test]
fn budget_rejections_stay_out_of_throughput_counters_across_the_cluster() {
    // Shards whose deployments start with a zero budget and a Reject policy;
    // the budget is topped up out-of-band to admit an exact number of
    // requests, so the accepted/rejected split is fully determined.
    let registries: Vec<Arc<LearnerRegistry>> = (0..2)
        .map(|_| {
            let registry = LearnerRegistry::new();
            for name in DEPLOYMENTS {
                let mut rng = SeedRng::new(11);
                registry
                    .register(
                        DeploymentSpec::new(name, (IMAGE, IMAGE))
                            .with_energy_budget(0.0, BudgetPolicy::Reject),
                        OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
                    )
                    .unwrap();
            }
            Arc::new(registry)
        })
        .collect();
    let shards: Vec<ShardProcess> = registries
        .iter()
        .map(|registry| {
            ShardProcess::spawn_observed(Arc::clone(registry), WireConfig::tcp_loopback(), None)
                .unwrap()
        })
        .collect();

    RouterServer::run(&router_config(&shards), |router| {
        let victim = "alpha";
        let owner = router.shard_for(victim).unwrap();
        // Admit exactly one single-sample learn and one infer (both cost one
        // backbone+FCR pass); the half-pass slack keeps float noise harmless
        // while refusing any third pass.
        let pass_mj = registries[owner].pricing(victim).unwrap();
        registries[owner].top_up(victim, 2.5 * pass_mj).unwrap();

        let mut client = WireClient::connect(router.addr()).unwrap();
        let single_learn = |client: &mut WireClient| {
            client.call(ServeRequest::LearnOnline {
                deployment: victim.into(),
                batch: traffic::support_batch(IMAGE, &[0], 1),
            })
        };
        single_learn(&mut client).unwrap();
        infer(&mut client, victim, 0);
        // Budget spent: both of these must be refused with a typed error...
        for expect_learn in [false, true] {
            let err = if expect_learn {
                single_learn(&mut client).unwrap_err()
            } else {
                client
                    .call(ServeRequest::Infer {
                        deployment: victim.into(),
                        image: traffic::class_image(IMAGE, 0, 0.0),
                    })
                    .unwrap_err()
            };
            assert!(
                matches!(err, WireError::Remote(ServeError::BudgetExhausted { .. })),
                "expected BudgetExhausted, got {err:?}"
            );
        }

        // ...and the refusals must land in the per-type rejection counters,
        // never in the accepted-throughput counters — observed through the
        // router's scatter-gathered cluster statistics.
        let slices = router.cluster_stats();
        let stats = slices
            .iter()
            .flat_map(|slice| slice.deployments.iter())
            .find(|d| d.name == victim)
            .expect("victim deployment missing from cluster stats");
        assert_eq!(stats.infer_requests, 1, "accepted infers only");
        assert_eq!(stats.learn_requests, 1, "accepted learns only");
        assert_eq!(stats.rejected_infer, 1);
        assert_eq!(stats.rejected_learn, 1);
        assert_eq!(stats.rejected(), 2);
        assert_eq!(stats.accepted(), 2);
        // The wire roundtrip agrees bit-for-bit with the owning registry.
        assert_eq!(*stats, registries[owner].stats(victim).unwrap());
    })
    .unwrap();
}

#[test]
fn add_and_drain_rebalance_with_live_migrations() {
    let (_registries, mut shards) = spawn_shards(2);
    let config = router_config(&shards[..2]);
    // A third backend stands ready to join the ring mid-run.
    let extra_registry = shard_registry();
    let extra = ShardProcess::spawn_observed(
        Arc::clone(&extra_registry),
        WireConfig::tcp_loopback(),
        None,
    )
    .unwrap();
    let extra_addr = extra.addr().clone();
    shards.push(extra);

    RouterServer::run(&config, |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        let mut snapshots = std::collections::HashMap::new();
        for (i, name) in DEPLOYMENTS.iter().enumerate() {
            learn(&mut client, name, &[i, i + 1]);
            snapshots.insert(*name, snapshot(&mut client, name));
        }

        // Scale out: the new shard takes over the arcs the ring assigns it,
        // and every moved deployment is live-migrated there.
        let (new_shard, moves) = router.add_shard(extra_addr.clone()).unwrap();
        assert_eq!(new_shard, 2);
        for report in &moves {
            assert_eq!(
                report.to, new_shard,
                "rebalance moves keys onto the new shard only"
            );
        }
        assert!(
            !moves.is_empty(),
            "64 vnodes over 5 names should move something"
        );

        // Drain it again: its deployments migrate off, bit-exactly, and the
        // ring stops routing to it.
        let drained = router.drain_shard(new_shard).unwrap();
        assert_eq!(drained.len(), moves.len());
        for name in DEPLOYMENTS {
            assert_ne!(router.shard_for(name).unwrap(), new_shard);
            assert_eq!(
                snapshot(&mut client, name),
                snapshots[name],
                "{name} diverged"
            );
        }

        // Draining everything but one shard is refused at the brink.
        router.drain_shard(1).unwrap();
        assert!(matches!(
            router.drain_shard(0).unwrap_err(),
            RouterError::InvalidConfig(_)
        ));
    })
    .unwrap();
}
