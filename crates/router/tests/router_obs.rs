//! Observability through the router: partial cluster statistics when a
//! shard is killed mid-run, and a scatter-gathered `ObsQuery` stitching one
//! deployment's timeline back together across a live migration and a shard
//! restart from its store.

use ofscil_core::OFscilModel;
use ofscil_nn::models::BackboneKind;
use ofscil_obs::{EventKind, Obs, ObsConfig, ObsQuery};
use ofscil_router::{harness::ShardProcess, PoolConfig, RouterConfig, RouterServer};
use ofscil_serve::{DeploymentSpec, LearnerRegistry, ServeRequest};
use ofscil_store::Store;
use ofscil_tensor::SeedRng;
use ofscil_wire::{WireClient, WireConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A registry with the given deployments registered over the micro backbone.
fn registry_with(names: &[&str], seed: u64) -> Arc<LearnerRegistry> {
    let registry = Arc::new(LearnerRegistry::new());
    let mut rng = SeedRng::new(seed);
    for name in names {
        registry
            .register(
                DeploymentSpec::new(name, (8, 8)),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
    }
    registry
}

/// A pool that fails fast, so the killed-shard path stays quick.
fn fast_pool() -> PoolConfig {
    PoolConfig {
        connect_attempts: 1,
        backoff: Duration::from_millis(1),
        cooldown: Duration::from_millis(200),
        max_idle: 4,
    }
}

#[test]
fn cluster_stats_marks_a_killed_shard_instead_of_failing() {
    let names: Vec<String> = (0..6).map(|i| format!("tenant-{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let shard0 = ShardProcess::spawn_observed(
        registry_with(&name_refs, 1),
        WireConfig::tcp_loopback(),
        None,
    )
    .unwrap();
    let shard1 = ShardProcess::spawn_observed(
        registry_with(&name_refs, 2),
        WireConfig::tcp_loopback(),
        None,
    )
    .unwrap();
    let config = RouterConfig::tcp_loopback(vec![shard0.addr().clone(), shard1.addr().clone()])
        .with_deployments(&name_refs)
        .with_pool(fast_pool());
    RouterServer::run(&config, move |router| {
        // Both shards up: every slice is reachable and error-free.
        let healthy = router.cluster_stats();
        assert_eq!(healthy.len(), 2);
        for slice in &healthy {
            assert!(
                slice.reachable,
                "shard {} unexpectedly unreachable",
                slice.shard
            );
            assert!(slice.error.is_none(), "{:?}", slice.error);
        }
        assert_eq!(
            healthy.iter().map(|s| s.deployments.len()).sum::<usize>(),
            names.len(),
            "every managed deployment reports stats from its owning shard"
        );

        // Kill shard 1. The gather must degrade to partial results — the
        // dead shard explicitly marked, the live shard still answering —
        // instead of the whole read collapsing into ShardUnavailable.
        shard1.stop();
        let partial = router.cluster_stats();
        assert_eq!(partial.len(), 2);
        let dead = &partial[1];
        assert!(!dead.reachable, "killed shard must be marked unreachable");
        assert!(dead.error.is_some());
        let live = &partial[0];
        assert!(live.reachable);
        assert!(live.error.is_none(), "{:?}", live.error);
        assert_eq!(
            live.deployments.len(),
            healthy[0].deployments.len(),
            "the live shard's slice is unaffected by its neighbour dying"
        );
        drop(shard0);
    })
    .unwrap();
}

/// A durable observed shard over `dir`. Respawned over the same directory,
/// it recovers its learned state and rehydrates the spilled timeline into
/// its fresh obs pipeline.
fn spawn_durable(seed: u64, dir: &Path) -> (ShardProcess, Obs) {
    let registry = registry_with(&["t"], seed);
    let store = Store::open(dir).unwrap();
    store.bootstrap(&registry).unwrap();
    let obs = Obs::new(ObsConfig::default().with_chunk_events(8));
    let shard = ShardProcess::spawn_durable_observed(
        registry,
        WireConfig::tcp_loopback(),
        Some(store),
        Some(obs.clone()),
    )
    .unwrap();
    (shard, obs)
}

#[test]
fn routed_obs_query_stitches_a_timeline_across_a_migration() {
    let mut base = std::env::temp_dir();
    base.push(format!("ofscil-router-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs = [base.join("shard0"), base.join("shard1")];
    let (shard0, obs0) = spawn_durable(1, &dirs[0]);
    let (shard1, obs1) = spawn_durable(2, &dirs[1]);
    let mut shards = [Some(shard0), Some(shard1)];
    let mut obs = [obs0, obs1];
    let router_obs = Obs::new(ObsConfig::default());
    let config = RouterConfig::tcp_loopback(
        shards
            .iter()
            .map(|s| s.as_ref().unwrap().addr().clone())
            .collect(),
    )
    .with_deployments(&["t"])
    .with_obs(router_obs.clone());
    RouterServer::run(&config, |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        let traffic = |client: &mut WireClient, step: usize| {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: "t".into(),
                    batch: ofscil_serve::traffic::support_batch(8, &[2 * step, 2 * step + 1], 3),
                })
                .unwrap();
            client
                .call(ServeRequest::Infer {
                    deployment: "t".into(),
                    image: ofscil_serve::traffic::class_image(8, 0, 0.01),
                })
                .unwrap();
        };
        traffic(&mut client, 0);
        traffic(&mut client, 1);

        let home = router.shard_for("t").unwrap();
        let report = router.migrate("t", 1 - home).unwrap();
        traffic(&mut client, 2);
        traffic(&mut client, 3);

        // Kill the home shard, the only one that saw the first half, and
        // restart it from its store with an empty obs pipeline.
        shards[home].take().unwrap().stop();
        let (reborn, reborn_obs) = spawn_durable(1 + home as u64, &dirs[home]);
        router.replace_shard(home, reborn.addr().clone()).unwrap();
        shards[home] = Some(reborn);
        obs[home] = reborn_obs;

        // One routed query reconstructs the whole trajectory: the serving
        // events live on two different shards, the migration marker on the
        // router, and the merge re-orders them into a single timeline.
        let result = client.obs_query(&ObsQuery::deployment("t")).unwrap();
        assert_eq!((result.shards_ok, result.shards_err), (2, 0));
        assert_eq!(result.dropped, 0);
        let count = |kind: EventKind| result.events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(EventKind::Learn), 4);
        assert_eq!(count(EventKind::Infer), 4);
        assert_eq!(count(EventKind::Migration), 1);
        let migration = result
            .events
            .iter()
            .find(|e| e.kind == EventKind::Migration)
            .expect("migration event present");
        assert_eq!(migration.seq, report.seq);
        assert!(
            result
                .events
                .windows(2)
                .all(|w| w[0].order_key() <= w[1].order_key()),
            "merged timeline is time-ordered"
        );
        // The learns really are split across the two shard stores.
        let learns_on = |obs: &Obs| {
            obs.query(&ObsQuery::deployment("t").with_kinds(&[EventKind::Learn]))
                .aggregates
                .matched
        };
        assert_eq!(learns_on(&obs[0]) + learns_on(&obs[1]), 4);
        assert!(learns_on(&obs[0]) >= 1 && learns_on(&obs[1]) >= 1);

        // A kind-masked limit-0 query answers the aggregate, shipping no rows.
        let infers = client
            .obs_query(
                &ObsQuery::deployment("t")
                    .with_kinds(&[EventKind::Infer])
                    .with_limit(0),
            )
            .unwrap();
        assert!(infers.events.is_empty());
        assert!(infers.truncated);
        assert_eq!(infers.aggregates.matched, 4);
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&base);
}
