//! End-to-end self-healing: kill a shard under a live router and watch the
//! controller promote its advertised follower, or restart the shard from its
//! store when none is advertised, with **zero manual calls** — then
//! reconstruct the whole recovery from one routed observability query.

use ofscil_core::OFscilModel;
use ofscil_ctrl::{ControlAction, Controller, CtrlConfig, FollowerProcess, StandbyFleet};
use ofscil_nn::models::BackboneKind;
use ofscil_obs::{EventKind, Obs, ObsConfig, ObsQuery};
use ofscil_router::{harness::ShardProcess, RouterConfig, RouterServer};
use ofscil_serve::{DeploymentSpec, LearnerRegistry, ServeRequest, ServeResponse};
use ofscil_store::Store;
use ofscil_tensor::SeedRng;
use ofscil_wire::{FollowerConfig, WireClient, WireConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const IMAGE: usize = 8;
const DIM: usize = 16;
const TENANTS: [&str; 2] = ["alpha", "beta"];

fn temp_dir(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ofscil-ctrl-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Every process loads the same pretrained weights; replication and
/// promotion then only move the explicit memory.
fn registry() -> Arc<LearnerRegistry> {
    let registry = LearnerRegistry::new();
    for tenant in TENANTS {
        let mut rng = SeedRng::new(42);
        registry
            .register(
                DeploymentSpec::new(tenant, (IMAGE, IMAGE)),
                OFscilModel::new(BackboneKind::Micro, DIM, &mut rng),
            )
            .unwrap();
    }
    Arc::new(registry)
}

/// Fast dwell and retries; recovery only (no rebalancing).
fn recovery_config() -> CtrlConfig {
    CtrlConfig::default()
        .with_dwell_threshold(Duration::from_millis(50))
        .with_cooldown_ticks(2)
        .with_rebalance_floor(u64::MAX)
        .with_retries(3, Duration::from_millis(5))
}

#[test]
fn killed_shard_recovers_through_follower_promotion_without_operator_calls() {
    let obs = Obs::new(ObsConfig::default());
    let shard_a =
        ShardProcess::spawn_observed(registry(), WireConfig::tcp_loopback(), Some(obs.clone()))
            .unwrap();
    let shard_b =
        ShardProcess::spawn_observed(registry(), WireConfig::tcp_loopback(), Some(obs.clone()))
            .unwrap();
    let old_addrs = [shard_a.addr().to_string(), shard_b.addr().to_string()];
    let config = RouterConfig::tcp_loopback(vec![shard_a.addr().clone(), shard_b.addr().clone()])
        .with_deployments(&TENANTS)
        .with_obs(obs.clone());

    RouterServer::run(&config, |router| {
        // Pick the victim: whichever shard serves "alpha".
        let victim = router.shard_for("alpha").unwrap();
        let victim_addr = router.shard_addr(victim).unwrap();

        // A replica tails the victim and advertises itself to the router.
        let replica_registry = registry();
        let follower = FollowerProcess::spawn(
            Arc::clone(&replica_registry),
            FollowerConfig::new(victim_addr, &TENANTS).with_advertise(router.addr().clone()),
        )
        .unwrap();
        assert_eq!(router.followers(victim), vec![follower.addr().to_string()]);

        // State lands on the victim through the router...
        let mut client = WireClient::connect(router.addr()).unwrap();
        client
            .call(ServeRequest::LearnOnline {
                deployment: "alpha".into(),
                batch: ofscil_serve::traffic::support_batch(IMAGE, &[0, 1], 5),
            })
            .unwrap();
        // ...and replicates to the follower before the murder.
        let caught_up = Instant::now();
        while replica_registry.replication_seq("alpha").unwrap_or(0) < 1 {
            assert!(
                caught_up.elapsed() < Duration::from_secs(30),
                "replica never caught up"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut fleet = StandbyFleet::new(Some(obs.clone()));
        fleet.add_follower(victim, follower);
        fleet.add_store(victim, temp_dir("promote"), registry());
        let mut controller = Controller::new(router, fleet, recovery_config());

        // Kill the victim mid-flight. Nobody calls migrate/promote below —
        // the controller has to notice and act on its own.
        if victim == 0 {
            shard_a.stop();
        } else {
            shard_b.stop();
        }

        let deadline = Instant::now() + Duration::from_secs(30);
        let mut promoted = false;
        loop {
            let report = controller.tick();
            for action in &report.executed {
                match action {
                    ControlAction::PromoteFollower { shard, .. } => {
                        assert_eq!(*shard, victim);
                        promoted = true;
                    }
                    other => panic!("unexpected action {other}"),
                }
            }
            assert!(
                report.failures.is_empty(),
                "executor failed: {:?}",
                report.failures
            );
            if promoted && report.quiescent() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cluster never converged to serving"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(controller.driver().recovered(), 1, "exactly one promotion");

        // The ring slot now points at the promoted primary and the learned
        // state survived the failover: inference routes and answers.
        let promoted_addr = router.shard_addr(victim).unwrap();
        assert_ne!(promoted_addr.to_string(), old_addrs[victim]);
        let mut client = WireClient::connect(router.addr()).unwrap();
        match client
            .call(ServeRequest::Infer {
                deployment: "alpha".into(),
                image: ofscil_serve::traffic::class_image(IMAGE, 0, 0.01),
            })
            .unwrap()
        {
            ServeResponse::Prediction { class, .. } => assert!(class <= 1),
            other => panic!("unexpected response {other:?}"),
        }
        // Every tenant serves reads and writes again: the promoted primary
        // is writable.
        for tenant in TENANTS {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: tenant.into(),
                    batch: ofscil_serve::traffic::support_batch(IMAGE, &[2], 5),
                })
                .unwrap();
            client
                .call(ServeRequest::Infer {
                    deployment: tenant.into(),
                    image: ofscil_serve::traffic::class_image(IMAGE, 2, 0.01),
                })
                .unwrap();
        }

        // One routed query reconstructs the recovery: the shard's breaker
        // opened, then the controller stamped its promotion, and the
        // per-deployment promotion rows carry the adopted sequence numbers.
        let timeline = router.obs_query(&ObsQuery::deployment(&format!("shard:{victim}")));
        let open_at = timeline
            .events
            .iter()
            .find(|e| e.kind == EventKind::BreakerOpen)
            .expect("breaker-open event in the timeline")
            .time_us;
        let promo_at = timeline
            .events
            .iter()
            .find(|e| e.kind == EventKind::CtrlPromote)
            .expect("controller-stamped promotion in the timeline")
            .time_us;
        assert!(
            open_at <= promo_at,
            "timeline out of order: {open_at} > {promo_at}"
        );
        let alpha_promo =
            router.obs_query(&ObsQuery::deployment("alpha").with_kinds(&[EventKind::Promotion]));
        assert!(
            alpha_promo.events.iter().any(|e| e.seq >= 1),
            "promoted primary never emitted alpha's promotion row: {:?}",
            alpha_promo.events
        );
        assert_eq!(
            obs.counters().dropped,
            0,
            "nothing shed in the non-adversarial path"
        );
    })
    .unwrap();
}

/// A durable observed shard over `dir`, bootstrapped from its store.
fn spawn_durable(dir: &Path) -> ShardProcess {
    let registry = registry();
    let store = Store::open(dir).unwrap();
    store.bootstrap(&registry).unwrap();
    let obs = Some(Obs::new(ObsConfig::default()));
    ShardProcess::spawn_durable_observed(registry, WireConfig::tcp_loopback(), Some(store), obs)
        .unwrap()
}

fn classes(client: &mut WireClient, tenant: &str) -> usize {
    match client
        .call(ServeRequest::Stats {
            deployment: tenant.into(),
        })
        .unwrap()
    {
        ServeResponse::Stats(stats) => stats.classes,
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn killed_store_backed_shard_restarts_from_its_store_without_operator_calls() {
    let dirs = [temp_dir("restart-0"), temp_dir("restart-1")];
    let mut shards: Vec<Option<ShardProcess>> =
        dirs.iter().map(|dir| Some(spawn_durable(dir))).collect();
    let router_obs = Obs::new(ObsConfig::default());
    let addrs = shards
        .iter()
        .map(|s| s.as_ref().unwrap().addr().clone())
        .collect();
    let config = RouterConfig::tcp_loopback(addrs)
        .with_deployments(&TENANTS)
        .with_obs(router_obs.clone());

    RouterServer::run(&config, |router| {
        // Every tenant learns two classes; the victim's are journaled.
        let victim = router.shard_for("alpha").unwrap();
        let mut client = WireClient::connect(router.addr()).unwrap();
        for tenant in TENANTS {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: tenant.into(),
                    batch: ofscil_serve::traffic::support_batch(IMAGE, &[0, 1], 5),
                })
                .unwrap();
        }

        // No follower is advertised, so the only recovery is a restart from
        // the victim's store into a fresh registry.
        let mut fleet = StandbyFleet::new(Some(Obs::new(ObsConfig::default())));
        fleet.add_store(victim, &dirs[victim], registry());
        let mut controller = Controller::new(router, fleet, recovery_config());
        shards[victim].take().unwrap().stop();

        let deadline = Instant::now() + Duration::from_secs(30);
        let mut restarted = false;
        loop {
            let report = controller.tick();
            for action in &report.executed {
                assert_eq!(*action, ControlAction::RestartFromStore { shard: victim });
                restarted = true;
            }
            assert!(
                report.failures.is_empty(),
                "executor failed: {:?}",
                report.failures
            );
            if restarted && report.quiescent() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cluster never converged to serving"
            );
        }
        assert_eq!(controller.driver().recovered(), 1, "exactly one restart");

        // Every tenant serves reads and writes again, its classes recovered.
        let mut client = WireClient::connect(router.addr()).unwrap();
        for tenant in TENANTS {
            assert_eq!(
                classes(&mut client, tenant),
                2,
                "{tenant} lost its learned classes"
            );
            match client
                .call(ServeRequest::Infer {
                    deployment: tenant.into(),
                    image: ofscil_serve::traffic::class_image(IMAGE, 1, 0.01),
                })
                .unwrap()
            {
                ServeResponse::Prediction { class, .. } => assert!(class <= 1),
                other => panic!("unexpected response {other:?}"),
            }
            client
                .call(ServeRequest::LearnOnline {
                    deployment: tenant.into(),
                    batch: ofscil_serve::traffic::support_batch(IMAGE, &[2], 5),
                })
                .unwrap();
            assert_eq!(classes(&mut client, tenant), 3);
        }

        // The shard's timeline: the breaker opened, then the controller
        // stamped the restart, and nothing logs it as a promotion.
        let timeline = router.obs_query(&ObsQuery::deployment(&format!("shard:{victim}")));
        let kinds: Vec<EventKind> = timeline.events.iter().map(|e| e.kind).collect();
        let position = |kind| kinds.iter().position(|k| *k == kind);
        let opened = position(EventKind::BreakerOpen).expect("breaker-open event");
        let stamped = position(EventKind::CtrlRestart).expect("controller-stamped restart");
        assert!(opened < stamped, "timeline out of order: {kinds:?}");
        assert_eq!(
            position(EventKind::Promotion),
            None,
            "restart logged as a promotion"
        );
        assert_eq!(router_obs.counters().dropped, 0);
    })
    .unwrap();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
