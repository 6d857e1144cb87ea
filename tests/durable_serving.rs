//! End-to-end durability: a store-backed serving process killed mid-workload
//! recovers every deployment bit-exactly, replication subscribers anchor
//! from checkpoints, and a follower promotes to a writable durable primary.
//!
//! The acceptance bar this asserts:
//!
//! * a store-backed runtime killed mid-workload (including a torn WAL tail)
//!   recovers every deployment's explicit memory, replication sequence
//!   number and energy budget **bit-exactly**, and a recovered deployment
//!   answers `Infer` with bit-identical predictions,
//! * subscribers (and the one-shot `ReAnchor` request) are anchored from the
//!   store's latest checkpoint and still converge bit-exactly with the live
//!   primary,
//! * a promoted follower accepts writes that a re-attached subscriber then
//!   replicates.

use ofscil::prelude::*;
use ofscil::serve::traffic;
use std::path::PathBuf;
use std::time::Duration;

const IMAGE: usize = 8;
const WAIT: Duration = Duration::from_secs(30);

fn temp_dir(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ofscil-durable-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Every process generation loads the same pretrained weights (identical
/// seeds); the explicit memory, sequence number and meter are what the store
/// must carry across the kill.
fn model() -> OFscilModel {
    let mut rng = SeedRng::new(7);
    OFscilModel::new(BackboneKind::Micro, 16, &mut rng)
}

fn registry_with(names: &[&str], budget_mj: Option<f64>) -> LearnerRegistry {
    let registry = LearnerRegistry::new();
    for name in names {
        let mut spec = DeploymentSpec::new(name, (IMAGE, IMAGE));
        if let Some(budget) = budget_mj {
            spec = spec.with_energy_budget(budget, BudgetPolicy::Reject);
        }
        registry.register(spec, model()).unwrap();
    }
    registry
}

fn support(classes: &[usize]) -> Batch {
    traffic::support_batch(IMAGE, classes, 3)
}

fn learn(client: &mut WireClient, deployment: &str, classes: &[usize]) {
    client
        .call(ServeRequest::LearnOnline {
            deployment: deployment.into(),
            batch: support(classes),
        })
        .unwrap();
}

fn infer(client: &mut WireClient, deployment: &str, class: usize) -> (usize, u32) {
    match client
        .call(ServeRequest::Infer {
            deployment: deployment.into(),
            image: traffic::class_image(IMAGE, class, 0.013),
        })
        .unwrap()
    {
        ServeResponse::Prediction {
            class, similarity, ..
        } => (class, similarity.to_bits()),
        other => panic!("unexpected response {other:?}"),
    }
}

fn wire_snapshot(client: &mut WireClient, deployment: &str) -> Vec<u8> {
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

/// One deployment's full durable identity, read straight off a registry.
fn identity(registry: &LearnerRegistry, name: &str) -> (Vec<u8>, u64, u64, Option<u64>) {
    let (seq, snapshot) = registry.snapshot_with_seq(name).unwrap();
    let (spent, budget) = registry.energy_state(name).unwrap();
    (snapshot, seq, spent.to_bits(), budget.map(f64::to_bits))
}

/// Group commit trades fsync frequency, never correctness: the kill-and-
/// recover contract holds under every [`SyncPolicy`].
#[test]
fn killed_store_backed_runtime_recovers_every_deployment_bit_exactly() {
    for (tag, sync) in [
        ("flush", SyncPolicy::Flush),
        ("per-record", SyncPolicy::PerRecord),
        ("every-8", SyncPolicy::EveryN(8)),
        ("interval", SyncPolicy::Interval(Duration::from_millis(5))),
    ] {
        kill_and_recover(tag, StoreConfig::default().with_sync_policy(sync));
    }
}

fn kill_and_recover(tag: &str, store_config: StoreConfig) {
    let dir = temp_dir(&format!("kill-recover-{tag}"));
    let names = ["tenant-a", "tenant-b"];

    // Generation 1: a store-backed server takes a mixed workload, then the
    // process "dies" (the scope ends with no graceful persistence step —
    // durability comes exclusively from the per-record WAL).
    let expected: Vec<_> = {
        let registry = registry_with(&names, Some(1e6));
        let store = Store::open_with(&dir, store_config.clone()).unwrap();
        assert!(store.bootstrap(&registry).unwrap().is_empty());
        let (identities, predictions) = WireServer::run_observed(
            &registry,
            &WireConfig::tcp_loopback(),
            Some(&store),
            None,
            |server| {
                let mut client = WireClient::connect(server.addr()).unwrap();
                learn(&mut client, "tenant-a", &[0, 1]);
                learn(&mut client, "tenant-b", &[0]);
                client
                    .call(ServeRequest::TopUpBudget {
                        deployment: "tenant-b".into(),
                        energy_mj: 123.25,
                    })
                    .unwrap();
                // This inference's spend lands on the meter before the final
                // learns journal it, so the journaled meter state covers it.
                let _ = infer(&mut client, "tenant-a", 0);
                learn(&mut client, "tenant-a", &[2]);
                learn(&mut client, "tenant-b", &[1, 2]);
                // The durable identity as of the last journaled record; the
                // witness inferences *after* this point spend meter energy
                // that is deliberately not journaled (energy accounting is
                // durable at learn/top-up granularity).
                let identities: Vec<_> = names.iter().map(|n| identity(&registry, n)).collect();
                (identities, names.map(|name| infer(&mut client, name, 1)))
            },
        )
        .unwrap();
        // The kill also tears a half-written record onto the WAL tail —
        // recovery must truncate it, not fail.
        for name in names {
            let wal = dir.join(format!("{name}.wal"));
            let mut bytes = std::fs::read(&wal).unwrap();
            bytes.extend_from_slice(&[0x03, 0xff, 0xff, 0x00, 0x00, 0xde, 0xad]);
            std::fs::write(&wal, &bytes).unwrap();
        }
        identities.into_iter().zip(predictions).collect()
    };

    // Generation 2: a fresh process, fresh registry, same store directory.
    let registry = registry_with(&names, None);
    let store = Store::open_with(&dir, store_config.clone()).unwrap();
    let reports = store.bootstrap(&registry).unwrap();
    assert_eq!(reports.len(), 2, "both deployments recover: {reports:?}");

    for (name, (want, _)) in names.iter().zip(&expected) {
        let got = identity(&registry, name);
        assert_eq!(got.0, want.0, "{name}: snapshot bytes diverged");
        assert_eq!(got.1, want.1, "{name}: replication seq diverged");
        assert_eq!(got.2, want.2, "{name}: energy spend bits diverged");
        assert_eq!(got.3, want.3, "{name}: energy budget bits diverged");
    }

    // The recovered process serves — and predicts bit-identically.
    WireServer::run_observed(
        &registry,
        &WireConfig::tcp_loopback(),
        Some(&store),
        None,
        |server| {
            let mut client = WireClient::connect(server.addr()).unwrap();
            for (name, (_, want)) in names.iter().zip(&expected) {
                let got = infer(&mut client, name, 1);
                assert_eq!(got, *want, "{name}: post-recovery prediction diverged");
            }
            // New commits journal on top of the recovered log.
            learn(&mut client, "tenant-a", &[5]);
        },
    )
    .unwrap();
    let final_seq = registry.snapshot_with_seq("tenant-a").unwrap().0;
    assert_eq!(store.latest_state("tenant-a").unwrap().seq, final_seq);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscribers_and_reanchors_are_served_from_the_checkpoint() {
    let dir = temp_dir("checkpoint-anchor");
    let primary = registry_with(&["tenant"], None);
    // Checkpoint every 4 records, compact aggressively: the subscriber's
    // anchor comes from checkpoint + compacted tail, never a live snapshot.
    let store = Store::open_with(
        &dir,
        StoreConfig::default()
            .with_checkpoint_interval(4)
            .with_compact_min_records(2),
    )
    .unwrap();
    store.bootstrap(&primary).unwrap();

    WireServer::run_observed(
        &primary,
        &WireConfig::tcp_loopback(),
        Some(&store),
        None,
        |server| {
            let mut client = WireClient::connect(server.addr()).unwrap();
            // Re-learn the same classes repeatedly: exactly the write pattern
            // delta compaction collapses.
            for round in 0..9 {
                learn(&mut client, "tenant", &[round % 3, 3]);
            }
            let live = wire_snapshot(&mut client, "tenant");
            let live_seq = primary.snapshot_with_seq("tenant").unwrap().0;

            // The one-shot re-anchor answers from the store and matches the
            // live state bit-exactly (every commit is journaled pre-reply).
            let (seq, anchor) = client.re_anchor("tenant").unwrap();
            assert_eq!(seq, live_seq);
            assert_eq!(
                anchor, live,
                "checkpoint-served anchor diverged from live snapshot"
            );

            // Durability counters travel the wire: the checkpoint ran.
            match client
                .call(ServeRequest::Stats {
                    deployment: "tenant".into(),
                })
                .unwrap()
            {
                ServeResponse::Stats(stats) => {
                    let durability = stats.durability.expect("durable server reports counters");
                    assert!(durability.last_checkpoint_seq >= 4, "stats: {durability:?}");
                }
                other => panic!("unexpected response {other:?}"),
            }

            // A follower attaching now anchors from the checkpoint and still
            // converges bit-exactly, through further live deltas.
            let replica = registry_with(&["tenant"], None);
            let config = FollowerConfig::new(server.addr().clone(), &["tenant"]);
            Follower::run(&replica, &config, |follower| {
                follower.wait_for_seq("tenant", live_seq, WAIT).unwrap();
                learn(&mut client, "tenant", &[7]);
                follower.wait_for_seq("tenant", live_seq + 1, WAIT).unwrap();
                let mut to_follower = WireClient::connect(follower.addr()).unwrap();
                assert_eq!(
                    wire_snapshot(&mut client, "tenant"),
                    wire_snapshot(&mut to_follower, "tenant")
                );
                let (p_class, p_sim) = infer(&mut client, "tenant", 7);
                let (f_class, f_sim) = infer(&mut to_follower, "tenant", 7);
                assert_eq!((p_class, p_sim), (f_class, f_sim));
            })
            .unwrap();
        },
    )
    .unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn promoted_follower_accepts_writes_that_a_reattached_subscriber_replicates() {
    let primary_dir = temp_dir("promotion-primary");
    let promoted_dir = temp_dir("promotion-promoted");

    let replica = registry_with(&["tenant"], None);
    let replicated_seq = {
        // The doomed primary: store-backed, with a follower tailing it.
        let primary = registry_with(&["tenant"], None);
        let store = Store::open(&primary_dir).unwrap();
        store.bootstrap(&primary).unwrap();
        WireServer::run_observed(
            &primary,
            &WireConfig::tcp_loopback(),
            Some(&store),
            None,
            |server| {
                let mut client = WireClient::connect(server.addr()).unwrap();
                learn(&mut client, "tenant", &[0, 1]);
                let config = FollowerConfig::new(server.addr().clone(), &["tenant"]);
                Follower::run(&replica, &config, |follower| {
                    learn(&mut client, "tenant", &[2]);
                    follower.wait_for_seq("tenant", 2, WAIT).unwrap()
                })
                .unwrap()
            },
        )
        .unwrap()
        // The primary "dies" here: its scope ended, its port is gone.
    };
    assert_eq!(replicated_seq, 2);

    // Failover: the follower promotes itself to a writable durable primary.
    // The fresh store adopts the follower's replicated sequence number.
    let store = Store::open(&promoted_dir).unwrap();
    Follower::promote(
        &replica,
        &store,
        &WireConfig::tcp_loopback(),
        None,
        |server| {
            let mut client = WireClient::connect(server.addr()).unwrap();

            // Writable: the promoted primary accepts the write a replica would
            // have refused...
            learn(&mut client, "tenant", &[3]);

            // ...and a re-attached subscriber replicates it bit-exactly, with
            // sequence numbers continuing from the adopted history.
            let second_replica = registry_with(&["tenant"], None);
            let config = FollowerConfig::new(server.addr().clone(), &["tenant"]);
            Follower::run(&second_replica, &config, |follower| {
                let applied = follower.wait_for_seq("tenant", 3, WAIT).unwrap();
                assert_eq!(
                    applied, 3,
                    "promoted primary continues the adopted seq line"
                );
                learn(&mut client, "tenant", &[4]);
                follower.wait_for_seq("tenant", 4, WAIT).unwrap();
                let mut to_follower = WireClient::connect(follower.addr()).unwrap();
                assert_eq!(
                    wire_snapshot(&mut client, "tenant"),
                    wire_snapshot(&mut to_follower, "tenant")
                );
                for class in 0..5 {
                    let p = infer(&mut client, "tenant", class);
                    let f = infer(&mut to_follower, "tenant", class);
                    assert_eq!(p, f, "class {class} diverged across promotion");
                }
            })
            .unwrap();
        },
    )
    .unwrap();

    // The promoted primary journaled its writes: the store replays to the
    // final state and could seed the *next* failover.
    assert_eq!(store.latest_state("tenant").unwrap().seq, 4);
    assert_eq!(
        store.latest_state("tenant").unwrap().snapshot,
        replica.snapshot_with_seq("tenant").unwrap().1
    );

    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&promoted_dir);
}
