//! Streaming cluster tails: gap-free, duplicate-free resume across a shard
//! kill-and-restart, over real sockets.
//!
//! The acceptance bar this asserts:
//!
//! * a wire `ObsSubscribe` through the router delivers, across a subscribed
//!   shard being stopped and respawned over its durable store
//!   (`replace_shard` re-pointing the ring slot), a stream whose rows are
//!   **bit-exactly** the rows a post-hoc routed `ObsQuery` returns over the
//!   same range — zero gaps, zero duplicates,
//! * the in-process [`RouterHandle::cluster_tail`] push path (what the
//!   control plane consumes) does the same, and its `resumed` counter
//!   records the leg resubscription that spliced the stream back together.

use ofscil::prelude::*;
use ofscil::router::harness::ShardProcess;
use ofscil::serve::traffic;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IMAGE: usize = 8;
const TENANTS: [&str; 4] = ["tail-a", "tail-b", "tail-c", "tail-d"];

fn shard_registry(seed: u64) -> Arc<LearnerRegistry> {
    let registry = LearnerRegistry::new();
    for (i, tenant) in TENANTS.iter().enumerate() {
        let mut rng = SeedRng::new(seed + i as u64);
        registry
            .register(
                DeploymentSpec::new(tenant, (IMAGE, IMAGE)),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
    }
    Arc::new(registry)
}

/// Boots one durable observed shard generation over `dir`: sealed chunks
/// spill through while serving, and a respawn over the same directory
/// rehydrates the previous generation's timeline before answering.
fn spawn_shard(seed: u64, dir: &Path) -> ShardProcess {
    let registry = shard_registry(seed);
    let store = Store::open(dir).unwrap();
    store.bootstrap(&registry).unwrap();
    let obs = Obs::new(ObsConfig::default().with_chunk_events(8));
    ShardProcess::spawn_durable_observed(
        registry,
        WireConfig::tcp_loopback(),
        Some(store),
        Some(obs),
    )
    .unwrap()
}

fn temp_base(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ofscil-live-tail-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).unwrap();
    path
}

fn burst(client: &mut WireClient, tenant: &str, step: usize) {
    client
        .call(ServeRequest::LearnOnline {
            deployment: tenant.into(),
            batch: traffic::support_batch(IMAGE, &[2 * step, 2 * step + 1], 3),
        })
        .unwrap();
    for _ in 0..3 {
        client
            .call(ServeRequest::Infer {
                deployment: tenant.into(),
                image: traffic::class_image(IMAGE, 2 * step, 0.01),
            })
            .unwrap();
    }
}

/// One event row projected to raw bits for multiset comparison.
type RowBits = (String, u8, u64, u64, u64, u64, u32, u64);

/// Bit-exact projection of an event — the derived `PartialEq` treats NaN
/// accuracy as unequal to itself, which is wrong for "is this the same row".
fn bits(event: &Event) -> RowBits {
    (
        event.deployment.clone(),
        event.kind.code(),
        event.seq,
        event.time_us,
        event.energy_mj.to_bits(),
        event.latency_us,
        event.accuracy.to_bits(),
        event.wal_bytes,
    )
}

/// Drains tail batches until the streamed rows bit-match `expected` (sorted
/// multisets) or the deadline passes; returns the streamed rows in arrival
/// order. Duplicate rows would make the multisets diverge permanently, so
/// equality is simultaneously the zero-gap and zero-duplicate assert. Every
/// batch must also report that the tail has shed nothing.
fn drain_until_match(
    stream: &mut ObsTailStream,
    expected: &[RowBits],
    deadline: Duration,
) -> Vec<Event> {
    // A watchdog raises the stop flag so a stream that went silent unblocks
    // `next_batch` (via the socket read timeout) instead of hanging the test.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(deadline);
            stop.store(true, Ordering::Release);
        });
    }
    let mut rows: Vec<Event> = Vec::new();
    loop {
        let mut sorted: Vec<_> = rows.iter().map(bits).collect();
        sorted.sort_unstable();
        if sorted == expected {
            return rows;
        }
        match stream.next_batch(Some(&stop)) {
            Ok(Some(batch)) => {
                assert_eq!(batch.dropped, 0, "the tail shed events");
                rows.extend(batch.events);
            }
            Ok(None) => panic!(
                "tail never converged: streamed {} rows, expected {} ({} missing)",
                sorted.len(),
                expected.len(),
                expected.iter().filter(|row| !sorted.contains(row)).count(),
            ),
            Err(e) => panic!("tail stream broke: {e}"),
        }
    }
}

#[test]
fn wire_cluster_tail_survives_shard_restart_bit_exact() {
    let base = temp_base("wire");
    let dirs = [base.join("shard0"), base.join("shard1")];
    let mut shards: Vec<Option<ShardProcess>> = dirs
        .iter()
        .enumerate()
        .map(|(i, dir)| Some(spawn_shard(40 + i as u64, dir)))
        .collect();
    let addrs: Vec<BoundAddr> = shards
        .iter()
        .map(|s| s.as_ref().unwrap().addr().clone())
        .collect();
    let router_obs = Obs::new(ObsConfig::default());
    let config = RouterConfig::tcp_loopback(addrs)
        .with_deployments(&TENANTS)
        .with_obs(router_obs.clone())
        .with_pool(PoolConfig {
            connect_attempts: 2,
            backoff: Duration::from_millis(5),
            cooldown: Duration::from_millis(100),
            max_idle: 4,
        });
    RouterServer::run(&config, move |router| {
        // Subscribe BEFORE any traffic: the back-fill is empty and every
        // serving row must arrive through the live stream.
        let sub = WireClient::connect(router.addr()).unwrap();
        sub.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut stream = sub.obs_subscribe(&ObsQuery::all(), None).unwrap();

        let mut client = WireClient::connect(router.addr()).unwrap();
        // A tenant homed on each shard keeps both legs busy; if the hash
        // put all four on one shard, migrate one over (the Migration event
        // then rides the router-local leg like any other cluster event).
        let victim_shard = router.shard_for(TENANTS[0]).unwrap();
        let survivor_shard = (victim_shard + 1) % 2;
        let victim_tenant = TENANTS[0];
        let survivor_tenant = match TENANTS
            .iter()
            .find(|t| router.shard_for(t).unwrap() == survivor_shard)
            .copied()
        {
            Some(tenant) => tenant,
            None => {
                router.migrate(TENANTS[1], survivor_shard).unwrap();
                TENANTS[1]
            }
        };

        burst(&mut client, victim_tenant, 0);
        burst(&mut client, survivor_tenant, 0);

        // Kill the subscribed home shard mid-stream and boot a fresh
        // generation over its store directory; the router leg re-resolves
        // the slot's address and resubscribes from its cursor, so the
        // merged stream resumes with no gaps and no duplicates.
        shards[victim_shard].take().unwrap().stop();
        burst(&mut client, survivor_tenant, 1);
        let reborn = spawn_shard(40 + victim_shard as u64, &dirs[victim_shard]);
        router
            .replace_shard(victim_shard, reborn.addr().clone())
            .unwrap();
        shards[victim_shard] = Some(reborn);

        burst(&mut client, victim_tenant, 1);
        burst(&mut client, survivor_tenant, 2);

        // Traffic is quiesced: the post-hoc routed query over the full
        // range is now the ground truth the stream must converge to.
        let reference = router.obs_query(&ObsQuery::all());
        assert_eq!(
            reference.shards_err, 0,
            "every shard answered the reference query"
        );
        assert!(
            !reference.truncated,
            "reference query must cover the full range"
        );
        let mut expected: Vec<_> = reference.events.iter().map(bits).collect();
        expected.sort_unstable();

        let rows = drain_until_match(&mut stream, &expected, Duration::from_secs(20));
        // Arrival order within the merged stream is frame-ordered: each
        // frame is time-sorted, and resumed back-fill precedes later live
        // rows of the same leg. (Cross-leg arrival interleaving is free to
        // differ from global time order; multiset equality above is the
        // zero-gap, zero-duplicate invariant.)
        assert!(!rows.is_empty());
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn in_process_cluster_tail_resumes_and_counts() {
    let base = temp_base("local");
    let dir = base.join("shard0");
    let mut shard = Some(spawn_shard(7, &dir));
    let router_obs = Obs::new(ObsConfig::default());
    let config = RouterConfig::tcp_loopback(vec![shard.as_ref().unwrap().addr().clone()])
        .with_deployments(&TENANTS)
        .with_obs(router_obs.clone())
        .with_pool(PoolConfig {
            connect_attempts: 2,
            backoff: Duration::from_millis(5),
            cooldown: Duration::from_millis(100),
            max_idle: 4,
        });
    RouterServer::run(&config, move |router| {
        let tail = router.cluster_tail(&ObsQuery::all(), None);
        assert_eq!(tail.legs(), 2, "one shard leg plus the router-local leg");

        let mut client = WireClient::connect(router.addr()).unwrap();
        burst(&mut client, TENANTS[0], 0);

        shard.take().unwrap().stop();
        let reborn = spawn_shard(7, &dir);
        router.replace_shard(0, reborn.addr().clone()).unwrap();
        shard = Some(reborn);
        burst(&mut client, TENANTS[0], 1);

        let reference = router.obs_query(&ObsQuery::all());
        let mut expected: Vec<_> = reference.events.iter().map(bits).collect();
        expected.sort_unstable();

        // Drain leg batches until the consumed rows bit-match the post-hoc
        // query — dedup-free equality doubles as the no-duplicate assert.
        let started = Instant::now();
        let mut rows: Vec<Event> = Vec::new();
        loop {
            let mut sorted: Vec<_> = rows.iter().map(bits).collect();
            sorted.sort_unstable();
            if sorted == expected {
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "cluster tail never converged: {} of {} rows",
                sorted.len(),
                expected.len()
            );
            // Legs exit only when the tail is dropped or the router shuts
            // down — not across the shard outage above. The controller's
            // rate feed has no second observation path because of this.
            match tail.recv_timeout(Duration::from_millis(100)) {
                Ok(batch) => rows.extend(batch.events),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("a leg exited while the router is up")
                }
            }
        }
        assert!(
            tail.resumed() >= 1,
            "the shard leg must have resubscribed across the restart"
        );
        assert_eq!(
            tail.dropped(),
            0,
            "nothing shed in the non-adversarial path"
        );
        // The reborn shard must outlive the draining above.
        drop(shard);
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&base);
}
