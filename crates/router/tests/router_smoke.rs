//! Minimal router loopback: one shard, one deployment, stats + learn +
//! infer through the router — the smallest end-to-end routing path.

use ofscil_core::OFscilModel;
use ofscil_nn::models::BackboneKind;
use ofscil_router::{harness::ShardProcess, RouterConfig, RouterServer};
use ofscil_serve::{DeploymentSpec, LearnerRegistry, ServeRequest, ServeResponse};
use ofscil_tensor::SeedRng;
use ofscil_wire::{WireClient, WireConfig};
use std::sync::Arc;

#[test]
fn single_shard_roundtrip() {
    let registry = Arc::new(LearnerRegistry::new());
    let mut rng = SeedRng::new(3);
    registry
        .register(
            DeploymentSpec::new("t", (8, 8)),
            OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
        )
        .unwrap();
    let shard =
        ShardProcess::spawn_observed(Arc::clone(&registry), WireConfig::tcp_loopback(), None)
            .unwrap();
    let config = RouterConfig::tcp_loopback(vec![shard.addr().clone()]).with_deployments(&["t"]);
    RouterServer::run(&config, |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        match client
            .call(ServeRequest::Stats {
                deployment: "t".into(),
            })
            .unwrap()
        {
            ServeResponse::Stats(stats) => assert_eq!(stats.classes, 0),
            other => panic!("unexpected {other:?}"),
        }
        client
            .call(ServeRequest::LearnOnline {
                deployment: "t".into(),
                batch: ofscil_serve::traffic::support_batch(8, &[0, 1], 3),
            })
            .unwrap();
        client
            .call(ServeRequest::Infer {
                deployment: "t".into(),
                image: ofscil_serve::traffic::class_image(8, 0, 0.01),
            })
            .unwrap();
    })
    .unwrap();
}
