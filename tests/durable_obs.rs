//! Durable observability: timelines survive kill-and-recover.
//!
//! The acceptance bar this asserts:
//!
//! * an observed store killed **mid-burst** (the active chunk dies with the
//!   process, the spill log keeps a torn tail) rehydrates from its spill
//!   into a fresh, empty store whose timeline is **byte-identical** to a
//!   continuously-running reference over the pre-kill (sealed) window —
//!   every field of every event, NaN accuracy included, compared by bits,
//! * a wire-served shard stopped gracefully and respawned over the same
//!   store directory with a brand-new obs pipeline answers `ObsQuery` with
//!   the byte-identical serving timeline the first generation reported.

use ofscil::obs::DEFAULT_EVENT_LIMIT;
use ofscil::prelude::*;
use ofscil::router::harness::ShardProcess;
use ofscil::serve::traffic;
use std::path::PathBuf;
use std::sync::Arc;

const IMAGE: usize = 8;
const TENANT: &str = "tenant";

fn temp_dir(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ofscil-durable-obs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).unwrap();
    path
}

/// xorshift64* — deterministic event streams without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A seeded event with exact binary-fraction payloads (sums stay exact no
/// matter how chunks regroup them) and a NaN accuracy now and then.
fn random_event(rng: &mut Rng, i: u64) -> Event {
    let kinds = EventKind::ALL;
    let kind = kinds[rng.below(kinds.len() as u64) as usize];
    let accuracy = if rng.below(4) == 0 {
        f32::NAN
    } else {
        rng.below(65) as f32 / 64.0
    };
    Event::new(kind, &format!("tenant-{}", rng.below(3)))
        .with_seq(i)
        .with_time_us(i * 1_000 + rng.below(500))
        .with_energy_mj(rng.below(16) as f64 * 0.25)
        .with_latency_us(rng.below(1_000))
        .with_accuracy(accuracy)
        .with_wal_bytes(rng.below(4_096))
}

/// Bit-exact projection of an event — `Event`'s derived `PartialEq` treats
/// NaN accuracy as unequal to itself, which is exactly wrong for "is this
/// the same bytes".
fn bits(event: &Event) -> (String, u8, u64, u64, u64, u64, u32, u64) {
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

#[test]
fn mid_burst_kill_rehydrates_sealed_prefix_byte_identical() {
    let dir = temp_dir("midburst");
    let spill_path = dir.join("obs.spill");
    const CHUNK: usize = 16;
    const TOTAL: u64 = 150; // 9 sealed chunks + 6 events in the active chunk

    // The reference never dies; the observed store spills sealed chunks.
    let reference = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    let (spill, recovery) = ObsSpill::open(&spill_path).unwrap();
    assert!(recovery.chunks.is_empty() && recovery.rollups.is_empty());
    let observed = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    observed.set_spill(Arc::new(spill));

    let mut rng = Rng(0x5eed);
    let mut pre_kill_max_time = 0u64;
    for i in 0..TOTAL {
        let event = random_event(&mut rng, i);
        reference.append(&event);
        observed.append(&event);
        let sealed = (TOTAL as usize / CHUNK * CHUNK) as u64;
        if i < sealed {
            pre_kill_max_time = pre_kill_max_time.max(event.time_us);
        }
    }

    // The kill: the observed store drops with its active chunk unsealed —
    // those 6 events were never acknowledged durable — and the process dies
    // mid-write, tearing garbage onto the spill log's tail.
    drop(observed);
    let mut bytes = std::fs::read(&spill_path).unwrap();
    bytes.extend_from_slice(&[0x01, 0xff, 0xff, 0x00, 0xde, 0xad]);
    std::fs::write(&spill_path, &bytes).unwrap();

    // Recovery: a fresh generation opens the same spill and rehydrates into
    // a brand-new, empty store.
    let (spill2, recovery) = ObsSpill::open(&spill_path).unwrap();
    assert_eq!(
        recovery.chunks.len(),
        TOTAL as usize / CHUNK,
        "every sealed chunk recovered"
    );
    let reborn = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    recovery.rehydrate_into(&reborn);
    reborn.set_spill(Arc::new(spill2));

    // The pre-kill window answers byte-identically to the reference.
    let window = ObsQuery::all()
        .with_time_range(0, pre_kill_max_time)
        .with_limit(DEFAULT_EVENT_LIMIT);
    let want = reference.query(&window);
    let got = reborn.query(&window);
    assert_eq!(want.events.len(), got.events.len());
    for (w, g) in want.events.iter().zip(&got.events) {
        assert_eq!(
            bits(w),
            bits(g),
            "rehydrated event diverged from the reference"
        );
    }
    assert_eq!(want.aggregates.matched, got.aggregates.matched);
    assert_eq!(want.aggregates.energy_mj.sum, got.aggregates.energy_mj.sum);
    assert_eq!(
        want.aggregates.latency_us.sum,
        got.aggregates.latency_us.sum
    );

    // The reborn store is live, not a museum: it keeps appending and keeps
    // spilling new sealed chunks after the recovery.
    for i in TOTAL..TOTAL + CHUNK as u64 {
        reborn.append(&random_event(&mut rng, i));
    }
    assert!(reborn.counters().spilled_chunks > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_restart_rehydrates_timeline_byte_identical() {
    let dir = temp_dir("wire");

    fn fresh_registry() -> Arc<LearnerRegistry> {
        let mut rng = SeedRng::new(7);
        let registry = LearnerRegistry::new();
        registry
            .register(
                DeploymentSpec::new(TENANT, (IMAGE, IMAGE)),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
        Arc::new(registry)
    }
    fn spawn(dir: &std::path::Path) -> (ShardProcess, Obs) {
        let registry = fresh_registry();
        let store = Store::open(dir).unwrap();
        store.bootstrap(&registry).unwrap();
        let obs = Obs::new(ObsConfig::default().with_chunk_events(4));
        let shard = ShardProcess::spawn_durable_observed(
            registry,
            WireConfig::tcp_loopback(),
            Some(store),
            Some(obs.clone()),
        )
        .unwrap();
        (shard, obs)
    }
    // Only the serving kinds the driven traffic produced: the store
    // maintenance thread keeps stamping Checkpoint rows on its own clock,
    // which would race this comparison.
    let query = ObsQuery::deployment(TENANT)
        .with_kinds(&[EventKind::Learn, EventKind::Infer])
        .with_limit(DEFAULT_EVENT_LIMIT);

    // Generation 1: serve traffic, query the timeline, stop gracefully
    // (sealing and spilling the active chunk).
    let (shard, _obs) = spawn(&dir);
    let want = {
        let mut client = WireClient::connect(shard.addr()).unwrap();
        for step in 0..3usize {
            client
                .call(ServeRequest::LearnOnline {
                    deployment: TENANT.into(),
                    batch: traffic::support_batch(IMAGE, &[2 * step, 2 * step + 1], 3),
                })
                .unwrap();
            client
                .call(ServeRequest::Infer {
                    deployment: TENANT.into(),
                    image: traffic::class_image(IMAGE, 2 * step, 0.01),
                })
                .unwrap();
        }
        client.obs_query(&query).unwrap()
    };
    assert_eq!(want.events.len(), 6, "three learns and three infers");
    shard.stop();

    // Generation 2: same store directory, brand-new empty obs pipeline. The
    // spill rehydrates the whole serving timeline before the socket answers.
    let (reborn, reborn_obs) = spawn(&dir);
    let got = {
        let mut client = WireClient::connect(reborn.addr()).unwrap();
        client.obs_query(&query).unwrap()
    };
    assert_eq!(want.events.len(), got.events.len());
    for (w, g) in want.events.iter().zip(&got.events) {
        assert_eq!(
            bits(w),
            bits(g),
            "restarted timeline diverged from generation 1"
        );
    }
    assert_eq!(want.aggregates.matched, got.aggregates.matched);
    assert_eq!(
        want.aggregates.energy_mj.sum.to_bits(),
        got.aggregates.energy_mj.sum.to_bits(),
        "aggregate energy must survive the restart bit-exactly"
    );
    assert_eq!(got.dropped, 0, "the fresh pipeline shed nothing");
    assert!(
        reborn_obs.store().appended() >= 6,
        "rehydrated events count as appended"
    );

    reborn.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
