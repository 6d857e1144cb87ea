//! Concurrency coverage for the serving runtime: N client threads fire mixed
//! infer/learn traffic at multiple deployments of one [`ServeRuntime`] and
//! every response must arrive, with deterministic per-deployment class
//! counts afterwards.

use ofscil::prelude::*;
use ofscil::serve::traffic;

const IMAGE: usize = 8;

fn micro_model(seed: u64) -> OFscilModel {
    let mut rng = SeedRng::new(seed);
    OFscilModel::new(BackboneKind::Micro, 16, &mut rng)
}

fn class_image(class: usize, jitter: f32) -> Tensor {
    traffic::class_image(IMAGE, class, jitter)
}

fn support_batch(classes: &[usize], shots: usize) -> Batch {
    traffic::support_batch(IMAGE, classes, shots)
}

#[test]
fn concurrent_mixed_traffic_loses_nothing() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 6;

    let registry = LearnerRegistry::new();
    registry
        .register(DeploymentSpec::new("alpha", (IMAGE, IMAGE)), micro_model(0))
        .unwrap();
    registry
        .register(DeploymentSpec::new("beta", (IMAGE, IMAGE)), micro_model(1))
        .unwrap();

    // Each deployment is taught a fixed class set, repeatedly and from
    // several threads at once. Prototype writes are overwrites, so the final
    // class count is deterministic no matter how the traffic interleaves.
    let alpha_classes = [0usize, 1, 2];
    let beta_classes = [10usize, 11, 12, 13];

    let config = ServeConfig::default().with_max_batch(8);
    let (responses, expected) = ServeRuntime::run(&registry, &config, |client| {
        let mut expected = 0usize;
        let mut pending = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for who in 0..CLIENTS {
                let client = client.clone();
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    for round in 0..ROUNDS {
                        // Every thread teaches both deployments their fixed
                        // class sets...
                        mine.push(client.submit(ServeRequest::LearnOnline {
                            deployment: "alpha".into(),
                            batch: support_batch(&alpha_classes, 2),
                        }));
                        mine.push(client.submit(ServeRequest::LearnOnline {
                            deployment: "beta".into(),
                            batch: support_batch(&beta_classes, 2),
                        }));
                        // ...and sprays inference at them.
                        for i in 0..3 {
                            let target = if (who + round + i) % 2 == 0 {
                                "alpha"
                            } else {
                                "beta"
                            };
                            mine.push(client.submit(ServeRequest::Infer {
                                deployment: target.into(),
                                image: class_image(who + round + i, 0.01),
                            }));
                        }
                    }
                    mine
                }));
            }
            for handle in handles {
                let mine = handle.join().expect("client thread panicked");
                expected += mine.len();
                pending.extend(mine);
            }
        });
        let responses: Vec<_> = pending.into_iter().map(PendingResponse::wait).collect();
        (responses, expected)
    })
    .unwrap();

    // No lost responses: one reply per submitted request, all successful.
    assert_eq!(responses.len(), expected);
    assert_eq!(expected, CLIENTS * ROUNDS * 5);
    for response in &responses {
        assert!(response.is_ok(), "a request failed: {response:?}");
    }

    // Deterministic per-deployment state.
    let alpha = registry.stats("alpha").unwrap();
    let beta = registry.stats("beta").unwrap();
    assert_eq!(alpha.classes, alpha_classes.len());
    assert_eq!(beta.classes, beta_classes.len());
    assert_eq!(alpha.learn_requests, (CLIENTS * ROUNDS) as u64);
    assert_eq!(beta.learn_requests, (CLIENTS * ROUNDS) as u64);
    // Every infer was answered by some batch; batches never exceed the cap.
    assert_eq!(
        alpha.infer_requests + beta.infer_requests,
        (CLIENTS * ROUNDS * 3) as u64
    );
    assert!(alpha.largest_batch <= config.max_batch);
    assert!(beta.largest_batch <= config.max_batch);
    let classes = registry
        .with_model("alpha", |model| model.em().classes())
        .unwrap();
    assert_eq!(classes, alpha_classes.to_vec());
    let classes = registry
        .with_model("beta", |model| model.em().classes())
        .unwrap();
    assert_eq!(classes, beta_classes.to_vec());
}

#[test]
fn snapshot_replicates_across_deployments_under_load() {
    let registry = LearnerRegistry::new();
    registry
        .register(
            DeploymentSpec::new("primary", (IMAGE, IMAGE)),
            micro_model(0),
        )
        .unwrap();
    registry
        .register(
            DeploymentSpec::new("replica", (IMAGE, IMAGE)),
            micro_model(0),
        )
        .unwrap();

    let bytes = ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
        client
            .call(ServeRequest::LearnOnline {
                deployment: "primary".into(),
                batch: support_batch(&[0, 1, 2], 3),
            })
            .unwrap();
        match client
            .call(ServeRequest::Snapshot {
                deployment: "primary".into(),
            })
            .unwrap()
        {
            ServeResponse::Snapshot { bytes } => bytes,
            other => panic!("unexpected response {other:?}"),
        }
    })
    .unwrap();

    // Warm-restart the replica from the snapshot; its memory is now
    // byte-identical to the primary's.
    let restored = registry.restore("replica", &bytes).unwrap();
    assert_eq!(restored, 3);
    assert_eq!(registry.snapshot_with_seq("replica").unwrap().1, bytes);

    // The replica serves predictions from the replicated memory alone.
    ServeRuntime::run(&registry, &ServeConfig::default(), |client| {
        let response = client
            .call(ServeRequest::Infer {
                deployment: "replica".into(),
                image: class_image(2, 0.015),
            })
            .unwrap();
        match response {
            ServeResponse::Prediction { class, .. } => assert_eq!(class, 2),
            other => panic!("unexpected response {other:?}"),
        }
    })
    .unwrap();
}
