//! Socket loopback coverage: a real `WireServer` on an ephemeral port, real
//! `WireClient`s, every request variant and the typed error path end to end.

use ofscil_core::OFscilModel;
use ofscil_nn::models::BackboneKind;
use ofscil_serve::{
    BudgetPolicy, DeploymentSpec, LearnerRegistry, ServeError, ServeRequest, ServeResponse,
};
use ofscil_tensor::{SeedRng, Tensor};
use ofscil_wire::{WireClient, WireConfig, WireError, WireServer};

const IMAGE: usize = 8;

fn registry_with(names: &[&str]) -> LearnerRegistry {
    let registry = LearnerRegistry::new();
    for (i, name) in names.iter().enumerate() {
        let mut rng = SeedRng::new(i as u64);
        registry
            .register(
                DeploymentSpec::new(name, (IMAGE, IMAGE)),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
    }
    registry
}

#[test]
fn full_request_surface_over_tcp() {
    let registry = registry_with(&["tenant"]);
    WireServer::run_observed(
        &registry,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |server| {
            let mut client = WireClient::connect(server.addr()).unwrap();

            // Learn, then infer — the same typed API as the in-process client.
            let learned = client
                .call(ServeRequest::LearnOnline {
                    deployment: "tenant".into(),
                    batch: ofscil_serve::traffic::support_batch(IMAGE, &[0, 1, 2], 3),
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
            let prediction = client
                .call(ServeRequest::Infer {
                    deployment: "tenant".into(),
                    image: ofscil_serve::traffic::class_image(IMAGE, 1, 0.02),
                })
                .unwrap();
            match prediction {
                ServeResponse::Prediction { class, .. } => assert_eq!(class, 1),
                other => panic!("unexpected response {other:?}"),
            }

            // Stats and snapshot flow through unchanged.
            match client
                .call(ServeRequest::Stats {
                    deployment: "tenant".into(),
                })
                .unwrap()
            {
                ServeResponse::Stats(stats) => {
                    assert_eq!(stats.classes, 3);
                    assert_eq!(stats.learn_requests, 1);
                }
                other => panic!("unexpected response {other:?}"),
            }
            match client
                .call(ServeRequest::Snapshot {
                    deployment: "tenant".into(),
                })
                .unwrap()
            {
                ServeResponse::Snapshot { bytes } => {
                    assert_eq!(bytes, registry.snapshot_with_seq("tenant").unwrap().1);
                }
                other => panic!("unexpected response {other:?}"),
            }

            // Typed errors survive the wire.
            let err = client
                .call(ServeRequest::Infer {
                    deployment: "ghost".into(),
                    image: Tensor::zeros(&[3, IMAGE, IMAGE]),
                })
                .unwrap_err();
            assert!(matches!(
                err,
                WireError::Remote(ServeError::UnknownDeployment(ref name)) if name == "ghost"
            ));
            let err = client
                .call(ServeRequest::Infer {
                    deployment: "tenant".into(),
                    image: Tensor::zeros(&[3, 4, 4]),
                })
                .unwrap_err();
            assert!(matches!(
                err,
                WireError::Remote(ServeError::InvalidRequest(_))
            ));

            // The connection survives the errors; several clients at once work.
            let mut second = WireClient::connect(server.addr()).unwrap();
            second
                .call(ServeRequest::Stats {
                    deployment: "tenant".into(),
                })
                .unwrap();
            client
                .call(ServeRequest::Stats {
                    deployment: "tenant".into(),
                })
                .unwrap();
        },
    )
    .unwrap();
}

#[test]
fn budget_errors_cross_the_wire_typed() {
    let registry = LearnerRegistry::new();
    let mut rng = SeedRng::new(0);
    registry
        .register(
            DeploymentSpec::new("metered", (IMAGE, IMAGE))
                .with_energy_budget(0.0, BudgetPolicy::Reject),
            OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
        )
        .unwrap();
    WireServer::run_observed(
        &registry,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |server| {
            let mut client = WireClient::connect(server.addr()).unwrap();
            let err = client
                .call(ServeRequest::Infer {
                    deployment: "metered".into(),
                    image: Tensor::zeros(&[3, IMAGE, IMAGE]),
                })
                .unwrap_err();
            assert!(matches!(
                err,
                WireError::Remote(ServeError::BudgetExhausted { .. })
            ));
            // Top up over the wire, then the request is admitted (and fails
            // only because the memory is empty — an execution error).
            client
                .call(ServeRequest::TopUpBudget {
                    deployment: "metered".into(),
                    energy_mj: 1e6,
                })
                .unwrap();
            let err = client
                .call(ServeRequest::Infer {
                    deployment: "metered".into(),
                    image: Tensor::zeros(&[3, IMAGE, IMAGE]),
                })
                .unwrap_err();
            assert!(matches!(err, WireError::Remote(ServeError::Execution(_))));
        },
    )
    .unwrap();
}

#[cfg(unix)]
#[test]
fn unix_domain_sockets_serve_the_same_protocol() {
    use ofscil_wire::WireBind;
    let dir = std::env::temp_dir().join(format!("ofscil-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let registry = registry_with(&["tenant"]);
    let config = WireConfig::tcp_loopback().with_bind(WireBind::Unix(path.clone()));
    WireServer::run_observed(&registry, &config, None, None, |server| {
        let mut client = WireClient::connect(server.addr()).unwrap();
        client
            .call(ServeRequest::LearnOnline {
                deployment: "tenant".into(),
                batch: ofscil_serve::traffic::support_batch(IMAGE, &[4], 2),
            })
            .unwrap();
        match client
            .call(ServeRequest::Stats {
                deployment: "tenant".into(),
            })
            .unwrap()
        {
            ServeResponse::Stats(stats) => assert_eq!(stats.classes, 1),
            other => panic!("unexpected response {other:?}"),
        }
    })
    .unwrap();
    // The socket file is cleaned up at shutdown.
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscribe_to_unknown_deployment_is_a_typed_remote_error() {
    let registry = registry_with(&["tenant"]);
    WireServer::run_observed(
        &registry,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |server| {
            let client = WireClient::connect(server.addr()).unwrap();
            let mut stream = client.subscribe("ghost").unwrap();
            let err = stream.next_event(None).unwrap_err();
            assert!(matches!(
                err,
                WireError::Remote(ServeError::UnknownDeployment(ref name)) if name == "ghost"
            ));
        },
    )
    .unwrap();
}
