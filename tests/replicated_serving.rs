//! End-to-end replication: a primary serves writes over a socket while a
//! follower tails its snapshot stream and serves bit-identical reads.
//!
//! The acceptance bar this asserts: after ≥ 3 online-learning sessions on
//! the primary, a follower reachable over its own socket answers `Infer`
//! with **bit-identical** predictions (same class, same similarity bits),
//! its snapshot bytes hash identically, and writes against it fail with the
//! typed `ReadOnlyReplica` error.

use ofscil::prelude::*;
use ofscil::serve::traffic;
use std::time::Duration;

const IMAGE: usize = 8;
const WAIT: Duration = Duration::from_secs(30);

/// Primary and follower must share backbone + FCR weights (a real replica
/// loads the same pretrained model); identical seeds guarantee it.
fn model() -> OFscilModel {
    let mut rng = SeedRng::new(7);
    OFscilModel::new(BackboneKind::Micro, 16, &mut rng)
}

fn registry() -> LearnerRegistry {
    let registry = LearnerRegistry::new();
    registry
        .register(DeploymentSpec::new("tenant", (IMAGE, IMAGE)), model())
        .unwrap();
    registry
}

fn support(classes: &[usize]) -> Batch {
    traffic::support_batch(IMAGE, classes, 3)
}

fn infer(client: &mut WireClient, class: usize) -> (usize, f32) {
    match client
        .call(ServeRequest::Infer {
            deployment: "tenant".into(),
            image: traffic::class_image(IMAGE, class, 0.013),
        })
        .unwrap()
    {
        ServeResponse::Prediction {
            class, similarity, ..
        } => (class, similarity),
        other => panic!("unexpected response {other:?}"),
    }
}

fn snapshot(client: &mut WireClient) -> Vec<u8> {
    match client
        .call(ServeRequest::Snapshot {
            deployment: "tenant".into(),
        })
        .unwrap()
    {
        ServeResponse::Snapshot { bytes } => bytes,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn follower_serves_bit_identical_reads_and_rejects_writes() {
    let primary = registry();
    let replica = registry();

    WireServer::run_observed(
        &primary,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |primary_server| {
            let mut to_primary = WireClient::connect(primary_server.addr()).unwrap();

            // Session 1 happens *before* the follower exists — it must arrive
            // through the full-snapshot anchor.
            to_primary
                .call(ServeRequest::LearnOnline {
                    deployment: "tenant".into(),
                    batch: support(&[0, 1]),
                })
                .unwrap();

            let config = FollowerConfig::new(primary_server.addr().clone(), &["tenant"]);
            Follower::run(&replica, &config, |follower| {
                follower.wait_for_seq("tenant", 1, WAIT).unwrap();

                // Sessions 2 and 3 stream as sequence-numbered deltas.
                to_primary
                    .call(ServeRequest::LearnOnline {
                        deployment: "tenant".into(),
                        batch: support(&[2, 3]),
                    })
                    .unwrap();
                to_primary
                    .call(ServeRequest::LearnOnline {
                        deployment: "tenant".into(),
                        batch: support(&[4]),
                    })
                    .unwrap();
                follower.wait_for_seq("tenant", 3, WAIT).unwrap();

                // The follower is reachable over its own socket and serves
                // bit-identical inference for every learned class.
                let mut to_follower = WireClient::connect(follower.addr()).unwrap();
                for class in 0..5 {
                    let (p_class, p_similarity) = infer(&mut to_primary, class);
                    let (f_class, f_similarity) = infer(&mut to_follower, class);
                    assert_eq!(p_class, f_class, "class {class} prediction diverged");
                    assert_eq!(
                        p_similarity.to_bits(),
                        f_similarity.to_bits(),
                        "class {class} similarity bits diverged"
                    );
                }

                // Snapshot bytes are identical — replicas can be diffed by hash.
                assert_eq!(snapshot(&mut to_primary), snapshot(&mut to_follower));

                // Writes to the replica fail typed; its state is untouched.
                let err = to_follower
                    .call(ServeRequest::LearnOnline {
                        deployment: "tenant".into(),
                        batch: support(&[9]),
                    })
                    .unwrap_err();
                assert!(matches!(
                    err,
                    WireError::Remote(ServeError::ReadOnlyReplica { ref deployment })
                        if deployment == "tenant"
                ));
                let err = to_follower
                    .call(ServeRequest::TopUpBudget {
                        deployment: "tenant".into(),
                        energy_mj: 1.0,
                    })
                    .unwrap_err();
                assert!(matches!(
                    err,
                    WireError::Remote(ServeError::ReadOnlyReplica { .. })
                ));

                // Reads after the rejected writes still see the replicated state.
                match to_follower
                    .call(ServeRequest::Stats {
                        deployment: "tenant".into(),
                    })
                    .unwrap()
                {
                    ServeResponse::Stats(stats) => assert_eq!(stats.classes, 5),
                    other => panic!("unexpected response {other:?}"),
                }

                // A fourth session (a *re-learn* of a known class plus a new
                // one) replicates too — overwrites travel like inserts.
                to_primary
                    .call(ServeRequest::LearnOnline {
                        deployment: "tenant".into(),
                        batch: support(&[0, 5]),
                    })
                    .unwrap();
                follower.wait_for_seq("tenant", 4, WAIT).unwrap();
                assert_eq!(snapshot(&mut to_primary), snapshot(&mut to_follower));
                let (p_class, p_sim) = infer(&mut to_primary, 5);
                let (f_class, f_sim) = infer(&mut to_follower, 5);
                assert_eq!(p_class, f_class);
                assert_eq!(p_sim.to_bits(), f_sim.to_bits());

                assert!(follower.replication_error("tenant").is_none());
            })
            .unwrap();
        },
    )
    .unwrap();

    // The replica registry holds the replicated memory after shutdown.
    assert_eq!(
        primary.snapshot_with_seq("tenant").unwrap().1,
        replica.snapshot_with_seq("tenant").unwrap().1
    );
}

#[test]
fn follower_resyncs_from_a_fresh_anchor_after_a_replication_gap() {
    let primary = registry();
    let replica = registry();

    WireServer::run_observed(
        &primary,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |primary_server| {
            let mut to_primary = WireClient::connect(primary_server.addr()).unwrap();
            to_primary
                .call(ServeRequest::LearnOnline {
                    deployment: "tenant".into(),
                    batch: support(&[0, 1]),
                })
                .unwrap();

            let config = FollowerConfig::new(primary_server.addr().clone(), &["tenant"]);
            Follower::run(&replica, &config, |follower| {
                follower.wait_for_seq("tenant", 1, WAIT).unwrap();
                assert_eq!(follower.resyncs("tenant"), 0);

                // Mutate the primary's memory outside the commit stream: a
                // restore bumps the replication sequence without emitting a
                // delta, so the follower's next delta skips a number.
                let bytes = primary.snapshot_with_seq("tenant").unwrap().1;
                primary.restore("tenant", &bytes).unwrap();
                to_primary
                    .call(ServeRequest::LearnOnline {
                        deployment: "tenant".into(),
                        batch: support(&[2]),
                    })
                    .unwrap();

                // The gapped tail resubscribes on its own: a fresh full-snapshot
                // anchor carries the follower past the gap, and the tail keeps
                // applying deltas afterwards.
                follower.wait_for_seq("tenant", 3, WAIT).unwrap();
                assert_eq!(follower.resyncs("tenant"), 1);
                assert!(follower.replication_error("tenant").is_none());

                to_primary
                    .call(ServeRequest::LearnOnline {
                        deployment: "tenant".into(),
                        batch: support(&[3]),
                    })
                    .unwrap();
                follower.wait_for_seq("tenant", 4, WAIT).unwrap();

                // Bit-exactness survived the resync.
                let mut to_follower = WireClient::connect(follower.addr()).unwrap();
                assert_eq!(snapshot(&mut to_primary), snapshot(&mut to_follower));
                for class in 0..4 {
                    let (p_class, p_sim) = infer(&mut to_primary, class);
                    let (f_class, f_sim) = infer(&mut to_follower, class);
                    assert_eq!(p_class, f_class);
                    assert_eq!(p_sim.to_bits(), f_sim.to_bits());
                }
            })
            .unwrap();
        },
    )
    .unwrap();
}

#[test]
fn exhausted_resync_budget_surfaces_the_gap_error() {
    let primary = registry();
    let replica = registry();

    WireServer::run_observed(
        &primary,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |primary_server| {
            let mut to_primary = WireClient::connect(primary_server.addr()).unwrap();
            to_primary
                .call(ServeRequest::LearnOnline {
                    deployment: "tenant".into(),
                    batch: support(&[0]),
                })
                .unwrap();

            let config = FollowerConfig::new(primary_server.addr().clone(), &["tenant"])
                .with_resync_limit(0);
            Follower::run(&replica, &config, |follower| {
                follower.wait_for_seq("tenant", 1, WAIT).unwrap();
                let bytes = primary.snapshot_with_seq("tenant").unwrap().1;
                primary.restore("tenant", &bytes).unwrap();
                to_primary
                    .call(ServeRequest::LearnOnline {
                        deployment: "tenant".into(),
                        batch: support(&[1]),
                    })
                    .unwrap();
                // With no resyncs allowed, the gap halts the tail and the error
                // is surfaced — the pre-resync behaviour, now opt-in.
                let err = follower.wait_for_seq("tenant", 3, WAIT).unwrap_err();
                assert!(
                    err.to_string().contains("gapped"),
                    "unexpected error: {err}"
                );
                assert!(follower.replication_error("tenant").is_some());
                assert_eq!(follower.resyncs("tenant"), 0);
            })
            .unwrap();
        },
    )
    .unwrap();
}

#[test]
fn follower_of_unknown_deployment_reports_the_error() {
    let primary = registry();
    let replica = registry();
    WireServer::run_observed(
        &primary,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |primary_server| {
            let config = FollowerConfig::new(primary_server.addr().clone(), &["ghost"]);
            Follower::run(&replica, &config, |follower| {
                let err = follower.wait_for_seq("ghost", 1, WAIT).unwrap_err();
                assert!(err.to_string().contains("ghost"));
                assert!(follower.replication_error("ghost").is_some());
            })
            .unwrap();
        },
    )
    .unwrap();
}
