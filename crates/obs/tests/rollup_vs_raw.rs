//! Property test pinning the rollup contract: on any seeded event stream,
//! a rollup-resolution query's aggregates equal a raw scan's **exactly** —
//! not approximately — and `Auto`'s bucket-aligned split never loses or
//! double-counts a row.
//!
//! Exactness with floating-point sums is engineered, not hoped for: every
//! generated energy is a multiple of 0.25 and every accuracy a multiple of
//! 1/64, so all partial sums are exact binary fractions and grouping rows
//! into per-minute cells cannot perturb a single bit.

use ofscil_obs::{
    Event, EventKind, ObsConfig, ObsQuery, ObsStore, Resolution, EVENT_BYTES, ROLLUP_BUCKET_US,
};

/// xorshift64* — the workspace has no RNG dependency, so it lives inline.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

const DEPLOYMENTS: [&str; 3] = ["tenant-a", "tenant-b", "shard:0"];

fn random_event(rng: &mut Rng, seq: u64) -> Event {
    let kind = EventKind::from_code(rng.below(EventKind::ALL.len() as u64) as u8).unwrap();
    let deployment = DEPLOYMENTS[rng.below(3) as usize];
    Event::new(kind, deployment)
        .with_time_us(rng.below(30) * ROLLUP_BUCKET_US + rng.below(ROLLUP_BUCKET_US))
        .with_seq(seq)
        // Exact binary fractions: sums are order- and grouping-independent.
        .with_energy_mj(rng.below(256) as f64 * 0.25)
        .with_latency_us(rng.below(5_000))
        .with_accuracy(if rng.below(4) == 0 {
            f32::NAN
        } else {
            (rng.below(65) as f32) / 64.0
        })
        .with_wal_bytes(rng.below(1 << 20))
}

fn assert_resolutions_agree(store: &ObsStore, query: &ObsQuery, seed: u64) {
    let raw = store.query(&query.clone().with_resolution(Resolution::Raw));
    let rolled = store.query(&query.clone().with_resolution(Resolution::Rollup));
    assert_eq!(
        rolled.aggregates, raw.aggregates,
        "seed {seed}: rollup aggregates diverged from raw scan for {query:?}"
    );
    assert!(
        rolled.events.is_empty(),
        "seed {seed}: rollup resolution returned raw rows"
    );
    assert!(
        raw.rollups.is_empty(),
        "seed {seed}: raw resolution returned cells"
    );
    assert_eq!(
        rolled.rollups.iter().map(|r| r.values.matched).sum::<u64>(),
        raw.aggregates.matched,
        "seed {seed}: cell counts disagree with matched rows"
    );
    // Cells come back sorted by (bucket, deployment, kind).
    assert!(
        rolled.rollups.windows(2).all(|w| w[0].key() < w[1].key()),
        "seed {seed}: rollup cells unsorted or duplicated"
    );

    let auto = store.query(&query.clone().with_resolution(Resolution::Auto));
    assert_eq!(
        auto.aggregates, raw.aggregates,
        "seed {seed}: auto split lost or double-counted rows for {query:?}"
    );
    // The split is a bucket boundary: every raw row at or past it, every
    // cell strictly before it.
    if let (Some(first_raw), Some(last_cell)) = (auto.events.first(), auto.rollups.last()) {
        assert!(
            last_cell.bucket_us + ROLLUP_BUCKET_US <= first_raw.time_us
                || last_cell.bucket_us <= first_raw.time_us,
            "seed {seed}: auto cells overlap the raw span"
        );
        assert!(
            auto.events
                .iter()
                .all(|e| e.time_us >= last_cell.bucket_us + ROLLUP_BUCKET_US),
            "seed {seed}: raw row fell inside a rolled-up bucket"
        );
    }
}

#[test]
fn rollup_aggregates_equal_raw_scan_at_any_seed() {
    for seed in 1..=40u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Small chunks so every run seals; a huge budget so nothing is GC'd
        // (GC is exactly the point where raw forgets and rollups remember —
        // covered separately below).
        let chunk_events = 4 + rng.below(12) as usize;
        let store = ObsStore::new(
            ObsConfig::default()
                .with_chunk_events(chunk_events)
                .with_byte_budget(usize::MAX >> 8),
        );
        let total = 50 + rng.below(300);
        for seq in 0..total {
            store.append(&random_event(&mut rng, seq));
        }

        // Bucket-aligned windows (the granularity rollups promise); the
        // sequence window stays full because it applies to raw rows only.
        let lo = rng.below(10) * ROLLUP_BUCKET_US;
        let hi = (15 + rng.below(15)) * ROLLUP_BUCKET_US - 1;
        let queries = [
            ObsQuery::all(),
            ObsQuery::deployment("tenant-a"),
            ObsQuery::deployment("absent"),
            ObsQuery::all().with_kinds(&[EventKind::Infer, EventKind::CtrlRebalance]),
            ObsQuery::deployment("shard:0").with_kinds(&[EventKind::Learn]),
            ObsQuery::all().with_time_range(lo, hi),
            ObsQuery::deployment("tenant-b").with_time_range(0, hi),
        ];
        for query in &queries {
            assert_resolutions_agree(&store, query, seed);
        }

        // Sealing the tail changes which cells are persistent vs folded on
        // the fly — the answers must not move.
        store.seal();
        for query in &queries {
            assert_resolutions_agree(&store, query, seed);
        }
    }
}

#[test]
fn rollups_remember_what_gc_forgot() {
    for seed in 1..=10u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0xA076_1D64_78BD_642F));
        // A budget of a few rows: almost every sealed chunk is evicted.
        let store = ObsStore::new(
            ObsConfig::default()
                .with_chunk_events(4)
                .with_byte_budget(6 * EVENT_BYTES),
        );
        let total = 100 + rng.below(100);
        let mut expect_learn = 0u64;
        for seq in 0..total {
            let event = random_event(&mut rng, seq);
            if event.kind == EventKind::Learn {
                expect_learn += 1;
            }
            store.append(&event);
        }
        assert!(store.counters().gc_chunks > 0, "seed {seed}: GC never ran");

        // The raw scan has forgotten the evicted rows; the rollup answer
        // still accounts for every appended event.
        let rolled = store.query(
            &ObsQuery::all()
                .with_kinds(&[EventKind::Learn])
                .with_resolution(Resolution::Rollup),
        );
        assert_eq!(
            rolled.aggregates.matched, expect_learn,
            "seed {seed}: rollups lost GC'd history"
        );
        let raw = store.query(&ObsQuery::all().with_kinds(&[EventKind::Learn]));
        assert!(
            raw.aggregates.matched <= expect_learn,
            "seed {seed}: raw scan overcounted"
        );
    }
}
