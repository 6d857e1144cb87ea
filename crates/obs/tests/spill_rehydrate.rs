//! The adopt path of durable spill, in-crate: sealed chunks captured by a
//! [`ChunkSpill`] and re-adopted into a fresh store reproduce the pre-kill
//! timeline **byte-identically** — every field of every event compared by
//! bits, NaN accuracy included. The disk half (record codec, torn tails,
//! budget GC) lives in `ofscil_store`; this holds the in-memory contract
//! the store half builds on.

use ofscil_obs::{ChunkSpill, Event, EventKind, ObsConfig, ObsQuery, ObsStore};
use std::sync::{Arc, Mutex};

/// xorshift64* — deterministic streams without a rand dependency.
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

/// Captures sealed chunks in memory — the test double for the disk spill.
#[derive(Debug, Default)]
struct MemSpill {
    chunks: Mutex<Vec<Vec<Event>>>,
}

impl ChunkSpill for MemSpill {
    fn spill_chunk(&self, events: &[Event]) {
        self.chunks.lock().unwrap().push(events.to_vec());
    }
}

#[test]
fn adopted_chunks_reproduce_the_sealed_window_byte_identically() {
    const CHUNK: usize = 16;
    const TOTAL: u64 = 100; // 6 sealed chunks + 4 events lost with the kill

    let reference = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    let spill = Arc::new(MemSpill::default());
    let observed = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    observed.set_spill(Arc::clone(&spill) as Arc<dyn ChunkSpill>);

    let mut rng = Rng(0xfeed);
    let sealed = TOTAL as usize / CHUNK * CHUNK;
    let mut pre_kill_max_time = 0u64;
    for i in 0..TOTAL {
        let event = random_event(&mut rng, i);
        reference.append(&event);
        observed.append(&event);
        if (i as usize) < sealed {
            pre_kill_max_time = pre_kill_max_time.max(event.time_us);
        }
    }
    drop(observed); // the kill: the active chunk was never sealed

    let captured = spill.chunks.lock().unwrap().clone();
    assert_eq!(
        captured.len(),
        sealed / CHUNK,
        "one capture per sealed chunk"
    );

    let reborn = ObsStore::new(ObsConfig::default().with_chunk_events(CHUNK));
    for chunk in &captured {
        reborn.adopt_chunk(chunk);
    }
    // Adoption must not echo back into the spill — a restart loop would
    // otherwise duplicate every chunk once per generation.
    assert_eq!(spill.chunks.lock().unwrap().len(), captured.len());

    let window = ObsQuery::all().with_time_range(0, pre_kill_max_time);
    let want = reference.query(&window);
    let got = reborn.query(&window);
    assert_eq!(want.events.len(), got.events.len());
    assert_eq!(want.events.len(), sealed);
    for (w, g) in want.events.iter().zip(&got.events) {
        assert_eq!(
            bits(w),
            bits(g),
            "adopted event diverged from the reference"
        );
    }
    assert_eq!(want.aggregates.matched, got.aggregates.matched);
    assert_eq!(
        want.aggregates.energy_mj.sum.to_bits(),
        got.aggregates.energy_mj.sum.to_bits()
    );
}
