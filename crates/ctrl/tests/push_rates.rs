//! The push-driven observation path end to end: a controller's trailing
//! rates must converge — through the streaming [`RateFeed`], its only
//! observation path — to exactly the requests served, with zero sheds.

use ofscil_core::OFscilModel;
use ofscil_ctrl::{Controller, CtrlConfig, StandbyFleet};
use ofscil_nn::models::BackboneKind;
use ofscil_obs::{Obs, ObsConfig};
use ofscil_router::{harness::ShardProcess, RouterConfig, RouterServer};
use ofscil_serve::{traffic, DeploymentSpec, LearnerRegistry, ServeRequest};
use ofscil_tensor::SeedRng;
use ofscil_wire::{WireClient, WireConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const IMAGE: usize = 8;
const TENANT: &str = "alpha";

fn registry() -> Arc<LearnerRegistry> {
    let registry = LearnerRegistry::new();
    let mut rng = SeedRng::new(11);
    registry
        .register(
            DeploymentSpec::new(TENANT, (IMAGE, IMAGE)),
            OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
        )
        .unwrap();
    Arc::new(registry)
}

#[test]
fn controller_rates_converge_through_the_stream_alone() {
    let obs = Obs::new(ObsConfig::default());
    let shard =
        ShardProcess::spawn_observed(registry(), WireConfig::tcp_loopback(), Some(obs.clone()))
            .unwrap();
    let config = RouterConfig::tcp_loopback(vec![shard.addr().clone()])
        .with_deployments(&[TENANT])
        .with_obs(obs.clone());
    RouterServer::run(&config, |router| {
        // A window far wider than the test keeps every request countable,
        // and an unreachable rebalance floor keeps the planner quiet — the
        // subject here is observation, not policy.
        let ctrl_config = CtrlConfig::default()
            .with_rate_window_us(60_000_000)
            .with_rebalance_floor(u64::MAX);
        let mut controller = Controller::new(
            router,
            StandbyFleet::new(Some(obs.clone())),
            ctrl_config.clone(),
        );

        let mut client = WireClient::connect(router.addr()).unwrap();
        client
            .call(ServeRequest::LearnOnline {
                deployment: TENANT.into(),
                batch: traffic::support_batch(IMAGE, &[0, 1], 3),
            })
            .unwrap();
        for _ in 0..5 {
            client
                .call(ServeRequest::Infer {
                    deployment: TENANT.into(),
                    image: traffic::class_image(IMAGE, 0, 0.01),
                })
                .unwrap();
        }
        let expected = 6u64; // 1 learn + 5 infers

        // Tick until the streamed window has absorbed every request. The
        // shard's tail flushes on its own cadence, so this converges within
        // a few hundred milliseconds — the deadline is pure paranoia.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let report = controller.tick();
            let seen = report
                .snapshot
                .shards
                .iter()
                .flat_map(|s| &s.deployments)
                .find(|d| d.name == TENANT)
                .map_or(0, |d| d.requests);
            assert!(
                seen <= expected,
                "over-counted: {seen} > {expected} (duplicate rows?)"
            );
            if seen == expected {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rates never converged: {seen}/{expected}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        assert!(
            controller.feed().batches() > 0,
            "convergence must have consumed leg batches"
        );
        assert_eq!(
            controller.feed().tail().dropped(),
            0,
            "nothing shed at this load"
        );
        assert_eq!(controller.feed().window_len() as u64, expected);
    })
    .unwrap();
    shard.stop();
}
