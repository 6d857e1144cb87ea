//! Crash-recovery property suites: random WAL-tail damage must never be
//! fatal and must recover exactly one of the acknowledged prefix states;
//! delta compaction must be replay-equivalent on random op sequences.

use ofscil_core::{ExplicitMemory, OFscilModel};
use ofscil_nn::models::BackboneKind;
use ofscil_serve::{
    encode_explicit_memory, BudgetPolicy, CommitJournal, DeploymentSpec, LearnCommit,
    LearnerRegistry,
};
use ofscil_store::{compact_records, replay, Checkpoint, Store, StoreConfig, WalRecord};
use ofscil_tensor::SeedRng;
use std::path::PathBuf;

const DIM: usize = 16;

fn temp_dir(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("ofscil-store-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn registry_with_tenant(seed: u64) -> LearnerRegistry {
    let mut rng = SeedRng::new(seed);
    let registry = LearnerRegistry::new();
    registry
        .register(
            DeploymentSpec::new("t", (8, 8)).with_energy_budget(1e6, BudgetPolicy::Reject),
            OFscilModel::new(BackboneKind::Micro, DIM, &mut rng),
        )
        .unwrap();
    registry
}

fn random_prototype(rng: &mut SeedRng) -> Vec<f32> {
    (0..DIM).map(|_| rng.normal()).collect()
}

fn random_import_snapshot(rng: &mut SeedRng) -> Vec<u8> {
    let mut em = ExplicitMemory::new(DIM);
    for _ in 0..1 + rng.below(3) {
        let class = rng.below(12);
        let proto = random_prototype(rng);
        em.set_prototype(class, &proto).unwrap();
    }
    encode_explicit_memory(&em)
}

/// A seeded random operation stream, returned as the WAL records the store
/// journals for it.
fn random_ops(rng: &mut SeedRng, count: usize) -> Vec<WalRecord> {
    let mut records = Vec::with_capacity(count);
    let mut seq = 0u64;
    let mut spent = 0.0f64;
    let mut budget = Some(1e6f64);
    for _ in 0..count {
        spent += rng.normal().abs() as f64;
        match rng.below(10) {
            0 => {
                budget = Some(budget.unwrap_or(0.0) + 50.0);
                records.push(WalRecord::TopUp {
                    seq,
                    spent_mj: spent,
                    budget_mj: budget,
                });
            }
            1 => {
                seq += 1;
                records.push(WalRecord::Import {
                    seq,
                    snapshot: random_import_snapshot(rng),
                    spent_mj: spent,
                    budget_mj: budget,
                });
            }
            _ => {
                seq += 1;
                let classes: Vec<u64> = {
                    let mut c: Vec<u64> =
                        (0..1 + rng.below(3)).map(|_| rng.below(8) as u64).collect();
                    c.sort_unstable();
                    c.dedup();
                    c
                };
                records.push(WalRecord::Learn {
                    seq,
                    total_classes: 1 + rng.below(8) as u64,
                    updates: classes
                        .into_iter()
                        .map(|class| (class, random_prototype(rng)))
                        .collect(),
                    spent_mj: spent,
                    budget_mj: budget,
                });
            }
        }
    }
    records
}

/// Journals pre-built records through the store's public journal surface.
fn journal_records(store: &Store, records: &[WalRecord]) {
    for record in records {
        match record {
            WalRecord::Learn {
                seq,
                total_classes,
                updates,
                spent_mj,
                budget_mj,
            } => {
                let commit = LearnCommit {
                    deployment: "t".into(),
                    seq: *seq,
                    updates: updates
                        .iter()
                        .map(|(class, proto)| (*class as usize, proto.clone()))
                        .collect(),
                    total_classes: *total_classes as usize,
                };
                store.journal_learn(&commit, *spent_mj, *budget_mj).unwrap();
            }
            WalRecord::Import {
                seq,
                snapshot,
                spent_mj,
                budget_mj,
            } => {
                store
                    .journal_import("t", *seq, snapshot, *spent_mj, *budget_mj)
                    .unwrap();
            }
            WalRecord::TopUp {
                seq,
                spent_mj,
                budget_mj,
            } => {
                store
                    .journal_top_up("t", *seq, *spent_mj, *budget_mj)
                    .unwrap();
            }
        }
    }
}

/// Bit-exact comparison key of a replayed state.
fn state_key(state: &ofscil_store::DeploymentState) -> (Vec<u8>, u64, u64, Option<u64>) {
    (
        state.snapshot.clone(),
        state.seq,
        state.spent_mj.to_bits(),
        state.budget_mj.map(f64::to_bits),
    )
}

#[test]
fn random_tail_damage_recovers_an_acknowledged_prefix_bit_exactly() {
    let dir = temp_dir("tail-damage");
    let registry = registry_with_tenant(7);
    // A huge checkpoint interval keeps every record in the WAL, so damage
    // anywhere in the op stream is damage to the log, not a checkpoint.
    let config = StoreConfig::default()
        .with_checkpoint_interval(u64::MAX)
        .with_compact_min_records(u64::MAX);
    let store = Store::open_with(&dir, config.clone()).unwrap();
    store.bootstrap(&registry).unwrap();

    let mut rng = SeedRng::new(42);
    let records = random_ops(&mut rng, 24);
    journal_records(&store, &records);
    drop(store);

    // Every state the journal acknowledged, in order: damage at any point
    // must recover exactly one of these, bit for bit.
    let ckpt0 = Checkpoint {
        epoch: 0,
        seq: 0,
        spent_mj: 0.0,
        budget_mj: Some(1e6),
        snapshot: registry.snapshot_with_seq("t").unwrap().1,
    };
    let prefix_states: Vec<_> = (0..=records.len())
        .map(|k| state_key(&replay(&ckpt0, &records[..k]).unwrap()))
        .collect();

    let wal_src = dir.join("t.wal");
    let ckpt_src = dir.join("t.ckpt");
    let pristine_wal = std::fs::read(&wal_src).unwrap();
    let pristine_ckpt = std::fs::read(&ckpt_src).unwrap();

    let mut distinct = std::collections::HashSet::new();
    for trial in 0..60u64 {
        let trial_dir = temp_dir(&format!("tail-damage-trial-{trial}"));
        std::fs::create_dir_all(&trial_dir).unwrap();
        std::fs::write(trial_dir.join("t.ckpt"), &pristine_ckpt).unwrap();
        let mut damaged = pristine_wal.clone();
        // Random damage past the file header: truncation (a torn write) or
        // a flipped byte (bit rot); both must truncate recovery to the
        // intact prefix, never fail.
        let offset = 8 + rng.below(damaged.len() - 8);
        if rng.below(2) == 0 {
            damaged.truncate(offset);
        } else {
            let bit = rng.below(8) as u32;
            damaged[offset] ^= 1u8 << bit;
        }
        std::fs::write(trial_dir.join("t.wal"), &damaged).unwrap();

        let reopened =
            Store::open_with(&trial_dir, config.clone()).expect("tail damage must never be fatal");
        let state = reopened.latest_state("t").unwrap();
        let key = state_key(&state);
        let position = prefix_states.iter().position(|s| *s == key);
        assert!(
            position.is_some(),
            "trial {trial}: recovered state (seq {}) matches no acknowledged prefix",
            state.seq
        );
        distinct.insert(position.unwrap());

        // The repaired log accepts fresh appends and a full recovery into a
        // fresh registry restores the same state bit-exactly.
        let fresh = registry_with_tenant(7);
        let reports = reopened.recover(&fresh).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(fresh.snapshot_with_seq("t").unwrap().1, state.snapshot);
        assert_eq!(fresh.snapshot_with_seq("t").unwrap().0, state.seq);
        let (spent, budget) = fresh.energy_state("t").unwrap();
        assert_eq!(spent.to_bits(), state.spent_mj.to_bits());
        assert_eq!(budget.map(f64::to_bits), state.budget_mj.map(f64::to_bits));

        std::fs::remove_dir_all(&trial_dir).unwrap();
    }
    // Sanity: the damage actually exercised different prefixes, not just
    // "everything survived" or "everything was wiped".
    assert!(
        distinct.len() > 5,
        "only {} distinct prefixes hit",
        distinct.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_is_replay_equivalent_on_random_op_sequences() {
    let mut rng = SeedRng::new(1234);
    let ckpt = Checkpoint {
        epoch: 0,
        seq: 0,
        spent_mj: 0.0,
        budget_mj: None,
        snapshot: encode_explicit_memory(&ExplicitMemory::new(DIM)),
    };
    for round in 0..100 {
        let count = 1 + rng.below(40);
        let records = random_ops(&mut rng, count);
        let compacted = compact_records(&records);
        assert!(
            compacted.len() <= records.len(),
            "round {round}: compaction grew the log ({} -> {})",
            records.len(),
            compacted.len()
        );
        let full = replay(&ckpt, &records).unwrap();
        let short = replay(&ckpt, &compacted).unwrap();
        assert_eq!(
            state_key(&full),
            state_key(&short),
            "round {round}: compacted replay diverged from full replay"
        );
    }
}

#[test]
fn checkpointing_and_compaction_preserve_the_replayed_state_on_disk() {
    // The same op stream journaled through three differently-tuned stores
    // (never checkpoint, checkpoint every 4 records, aggressive compaction)
    // must recover identical state after reopen.
    let mut rng = SeedRng::new(99);
    let records = random_ops(&mut rng, 30);

    let mut keys = Vec::new();
    for (tag, config) in [
        (
            "never",
            StoreConfig::default()
                .with_checkpoint_interval(u64::MAX)
                .with_compact_min_records(u64::MAX),
        ),
        ("often", StoreConfig::default().with_checkpoint_interval(4)),
        (
            "compacting",
            StoreConfig::default()
                .with_checkpoint_interval(u64::MAX)
                .with_compact_min_records(1),
        ),
    ] {
        let dir = temp_dir(&format!("tuning-{tag}"));
        let registry = registry_with_tenant(3);
        let store = Store::open_with(&dir, config).unwrap();
        store.bootstrap(&registry).unwrap();
        journal_records(&store, &records);
        if tag == "compacting" {
            assert!(
                store.maintenance().unwrap() > 0,
                "compaction should have run"
            );
        }
        drop(store);

        let reopened = Store::open(&dir).unwrap();
        keys.push((tag, state_key(&reopened.latest_state("t").unwrap())));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(
        keys[0].1, keys[1].1,
        "checkpointing changed the recovered state"
    );
    assert_eq!(
        keys[0].1, keys[2].1,
        "compaction changed the recovered state"
    );
}

#[test]
fn stale_wal_generation_is_discarded_after_a_checkpoint_crash_window() {
    // Simulate a crash between "new checkpoint renamed" and "WAL truncated":
    // the old-generation WAL survives next to the newer checkpoint. Its
    // records are all folded into the checkpoint already — replaying them
    // (especially meter-only top-ups, which carry no distinguishing seq)
    // would regress the recovered state. The epoch pairing detects and
    // discards them.
    let dir = temp_dir("crash-window");
    let registry = registry_with_tenant(21);
    let store = Store::open_with(
        &dir,
        StoreConfig::default()
            .with_checkpoint_interval(u64::MAX)
            .with_compact_min_records(u64::MAX),
    )
    .unwrap();
    store.bootstrap(&registry).unwrap();
    let mut rng = SeedRng::new(8);
    let records = random_ops(&mut rng, 12);
    journal_records(&store, &records);

    // Keep the pre-checkpoint WAL, checkpoint (truncates it), then put the
    // stale WAL back — the crash window's on-disk picture.
    let wal_path = dir.join("t.wal");
    let stale_wal = std::fs::read(&wal_path).unwrap();
    let expected = state_key(&store.latest_state("t").unwrap());
    store.checkpoint("t").unwrap();
    drop(store);
    std::fs::write(&wal_path, &stale_wal).unwrap();

    let reopened = Store::open(&dir).unwrap();
    assert_eq!(
        state_key(&reopened.latest_state("t").unwrap()),
        expected,
        "stale-generation WAL records regressed the recovered state"
    );
    let stats = reopened.durability_stats("t").unwrap();
    assert_eq!(
        stats.wal_records, 0,
        "stale records must be discarded, not replayed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bootstrap_reseeds_a_store_the_registry_has_outrun() {
    // A promoted follower re-using an old store directory: the registry's
    // live history (say seq 5) ran past the store's durable state (seq 1).
    // Recovery must not move the registry backwards, and — crucially — the
    // store must not keep its stale base under future appends: bootstrap
    // re-baselines the checkpoint at the live state.
    let dir = temp_dir("reseed");
    let registry = registry_with_tenant(33);
    let store = Store::open(&dir).unwrap();
    store.bootstrap(&registry).unwrap();
    let mut rng = SeedRng::new(4);
    let records: Vec<WalRecord> = random_ops(&mut rng, 6)
        .into_iter()
        .filter(|r| matches!(r, WalRecord::Learn { .. }))
        .take(1)
        .collect();
    journal_records(&store, &records);
    drop(store);

    // The "follower" has replicated far past the store's single record.
    let ahead = registry_with_tenant(33);
    let proto: Vec<f32> = (0..DIM).map(|i| i as f32 / 8.0).collect();
    for class in 0..5 {
        ahead
            .apply_prototype_updates("t", &[(class, proto.clone())])
            .unwrap();
    }
    let live_seq = ahead.snapshot_with_seq("t").unwrap().0;
    assert!(live_seq > records[0].seq());

    let store = Store::open(&dir).unwrap();
    let reports = store.bootstrap(&ahead).unwrap();
    assert!(
        reports.is_empty(),
        "nothing recovers backwards: {reports:?}"
    );
    // The registry kept its live state; the store now baselines it exactly.
    assert_eq!(ahead.snapshot_with_seq("t").unwrap().0, live_seq);
    let state = store.latest_state("t").unwrap();
    assert_eq!(state.seq, live_seq);
    assert_eq!(state.snapshot, ahead.snapshot_with_seq("t").unwrap().1);

    // Future journaling extends the fresh base, not the stale one.
    store
        .journal_learn(
            &LearnCommit {
                deployment: "t".into(),
                seq: live_seq + 1,
                updates: vec![(9, proto.clone())],
                total_classes: 6,
            },
            1.0,
            None,
        )
        .unwrap();
    assert_eq!(store.latest_state("t").unwrap().seq, live_seq + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durability_counters_track_log_growth_checkpoints_and_compactions() {
    let dir = temp_dir("counters");
    let registry = registry_with_tenant(5);
    let store = Store::open_with(
        &dir,
        StoreConfig::default()
            .with_checkpoint_interval(8)
            .with_compact_min_records(3),
    )
    .unwrap();
    store.bootstrap(&registry).unwrap();

    let mut rng = SeedRng::new(11);
    // Five learns: below the checkpoint interval, above the compaction one.
    let records: Vec<WalRecord> = random_ops(&mut rng, 32)
        .into_iter()
        .filter(|r| matches!(r, WalRecord::Learn { .. }))
        .take(5)
        .collect();
    journal_records(&store, &records);

    let stats = store.durability_stats("t").unwrap();
    assert_eq!(stats.wal_records, 5);
    assert!(stats.wal_bytes > 0);
    assert_eq!(stats.compactions, 0);
    assert_eq!(stats.last_checkpoint_seq, 0);

    store.maintenance().unwrap();
    let stats = store.durability_stats("t").unwrap();
    assert_eq!(stats.compactions, 1);
    assert!(stats.wal_records < 5, "compaction should shrink the log");

    let seq = store.checkpoint("t").unwrap();
    let stats = store.durability_stats("t").unwrap();
    assert_eq!(stats.last_checkpoint_seq, seq);
    assert_eq!(stats.wal_records, 0, "checkpoint truncates the WAL");

    assert!(store.durability_stats("ghost").is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
