//! Property test for the chunk lifecycle: append → seal → GC → range query
//! must return exactly the events inside the window, in time order, at any
//! seed.
//!
//! The test mirrors the store's documented retention rule with a naive
//! row-vector model and compares the real store's query output against the
//! model's across many randomized runs. No RNG dependency exists in the
//! workspace, so a small xorshift generator lives inline.

use ofscil_obs::{Event, EventKind, ObsConfig, ObsQuery, ObsStore, EVENT_BYTES};

/// xorshift64* — tiny, deterministic, good enough to shake out ordering and
/// boundary bugs.
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

/// The naive model: a flat list of rows plus a replay of the store's exact
/// seal/GC rule, so surviving rows can be predicted without peeking at the
/// store's internals.
struct Model {
    chunk_events: usize,
    byte_budget: usize,
    /// Sealed chunks as row lists, each sorted by `(time_us, seq)`.
    sealed: Vec<Vec<Event>>,
    active: Vec<Event>,
}

impl Model {
    fn new(chunk_events: usize, byte_budget: usize) -> Model {
        Model {
            chunk_events,
            byte_budget,
            sealed: Vec::new(),
            active: Vec::new(),
        }
    }

    fn append(&mut self, event: Event) {
        self.active.push(event);
        if self.active.len() >= self.chunk_events {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if !self.active.is_empty() {
            let mut chunk = std::mem::take(&mut self.active);
            chunk.sort_by_key(Event::order_key);
            self.sealed.push(chunk);
        }
        self.gc();
    }

    fn resident(&self) -> usize {
        self.active.len() + self.sealed.iter().map(Vec::len).sum::<usize>()
    }

    fn gc(&mut self) {
        while self.resident() * EVENT_BYTES > self.byte_budget && !self.sealed.is_empty() {
            let oldest = self
                .sealed
                .iter()
                .enumerate()
                .min_by_key(|(i, chunk)| (chunk[0].time_us, *i))
                .map(|(i, _)| i)
                .unwrap();
            self.sealed.remove(oldest);
        }
    }

    fn query(&self, query: &ObsQuery) -> Vec<Event> {
        let mut rows: Vec<Event> = self
            .sealed
            .iter()
            .flatten()
            .chain(self.active.iter())
            .filter(|e| {
                (query.deployment.is_empty() || e.deployment == query.deployment)
                    && query.matches_windows(e.time_us, e.seq)
                    && query.matches_kind_code(e.kind.code())
            })
            .cloned()
            .collect();
        rows.sort_by_key(Event::order_key);
        rows.truncate(query.limit as usize);
        rows
    }
}

const DEPLOYMENTS: [&str; 3] = ["tenant-a", "tenant-b", "shard:0"];

fn random_event(rng: &mut Rng, seq: u64) -> Event {
    let kind =
        ofscil_obs::EventKind::from_code(rng.below(ofscil_obs::EventKind::ALL.len() as u64) as u8)
            .unwrap();
    let deployment = DEPLOYMENTS[rng.below(3) as usize];
    // Clustered timestamps with deliberate collisions: unique seqs (the
    // append index) make `(time, seq)` a total order regardless.
    Event::new(kind, deployment)
        .with_time_us(1_000 + rng.below(200))
        .with_seq(seq)
        .with_energy_mj(rng.below(1000) as f64 / 100.0)
        .with_latency_us(rng.below(5_000))
        .with_accuracy(if rng.below(4) == 0 {
            f32::NAN
        } else {
            (rng.below(1000) as f32) / 1000.0
        })
        .with_wal_bytes(rng.below(1 << 20))
}

fn assert_query_matches_model(store: &ObsStore, model: &Model, query: &ObsQuery, seed: u64) {
    let got = store.query(query);
    let want = model.query(query);
    assert_eq!(
        got.events.len(),
        want.len(),
        "seed {seed}: row count diverged for {query:?}"
    );
    for (g, w) in got.events.iter().zip(&want) {
        // NaN accuracies ("not applicable") compare unequal under a derived
        // PartialEq; treat NaN == NaN here.
        let accuracy_matches =
            (g.accuracy.is_nan() && w.accuracy.is_nan()) || g.accuracy == w.accuracy;
        let rest_matches = g.deployment == w.deployment
            && g.kind == w.kind
            && g.seq == w.seq
            && g.time_us == w.time_us
            && g.energy_mj == w.energy_mj
            && g.latency_us == w.latency_us
            && g.wal_bytes == w.wal_bytes;
        assert!(
            accuracy_matches && rest_matches,
            "seed {seed}: row diverged for {query:?}\n  got: {g:?}\n want: {w:?}"
        );
    }
    // Time order is part of the contract, independent of the model.
    assert!(
        got.events
            .windows(2)
            .all(|w| w[0].order_key() <= w[1].order_key()),
        "seed {seed}: result not time-ordered"
    );
}

#[test]
fn append_seal_gc_query_matches_naive_model_at_any_seed() {
    for seed in 1..=40u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Small chunks and a tight budget so every run seals and GCs.
        let chunk_events = 4 + rng.below(12) as usize;
        let byte_budget = (20 + rng.below(60) as usize) * EVENT_BYTES;
        let store = ObsStore::new(
            ObsConfig::default()
                .with_chunk_events(chunk_events)
                .with_byte_budget(byte_budget),
        );
        let mut model = Model::new(chunk_events, byte_budget);

        let total = 50 + rng.below(150);
        for seq in 0..total {
            let event = random_event(&mut rng, seq);
            store.append(&event);
            model.append(event);
        }

        // Model and store must agree on what GC kept.
        let counters = store.counters();
        assert_eq!(
            counters.resident_events as usize,
            model.resident(),
            "seed {seed}: survivor count diverged"
        );
        assert_eq!(counters.appended, total, "seed {seed}: appended miscounted");

        // A battery of random windows plus the classic boundary shapes.
        let queries = [
            ObsQuery::all(),
            ObsQuery::deployment("tenant-a"),
            ObsQuery::deployment("absent"),
            ObsQuery::all().with_time_range(1_050, 1_150),
            ObsQuery::all().with_time_range(1_100, 1_100),
            ObsQuery::deployment("tenant-b")
                .with_seq_range(total / 4, 3 * total / 4)
                .with_kinds(&[EventKind::Infer, EventKind::Learn]),
            ObsQuery::all().with_limit(7),
            ObsQuery::all().with_time_range(1_000 + rng.below(200), 1_000 + rng.below(200)),
        ];
        for query in &queries {
            assert_query_matches_model(&store, &model, query, seed);
        }

        // Sealing the tail (and any GC it triggers) must track the model.
        store.seal();
        model.seal();
        assert_query_matches_model(&store, &model, &ObsQuery::all(), seed);
    }
}
