//! Golden bytes: every persisted or transmitted layout, pinned against
//! fixtures captured from the commit *before* the byte codec was unified
//! (`c0c20e4`). For each row, `decode(fixture)` must equal the value the
//! fixture was made from and `encode(value)` must reproduce the fixture —
//! so a layout can never drift silently between commits, which no
//! round-trip test can show.
//!
//! Files (`*_FILE`) are whole op-log files: header, record framing and
//! per-record checksums included. Wire rows hold the frame's kind byte
//! followed by its payload; the frame header is excluded because the wire
//! version moved to 9 with the shared observability row layout, while these
//! payloads did not change.

use ofscil::obs::ChunkSpill;
use ofscil::prelude::*;
use ofscil::router::{decode_override, encode_override};
use ofscil::store::{Checkpoint, OpLog, RawRecord, WalRecord, REC_ROLLUP};
use ofscil::wire::codec::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
};
use ofscil::wire::frame::{parse_frame, DEFAULT_MAX_PAYLOAD};
use std::path::PathBuf;

const SNAPSHOT: &str = "\
    4f46454d01000800040000000200000000000000000000000402013f040281be\
    fe7e3f3f000080bf0900000000000000a069cebda0694e3e653299becdcccc3e\
    0ac4887b\
";

const WAL_FILE: &str = "\
    4f464c47010000000000000000000000015d0000000700000000000000030000\
    0000000000000000000000294001000000000000594002000000000000000000\
    0000040000000000003f0000203f0000403f0000603f09000000000000000400\
    0000000080bf000060bf000040bf000020bfa59c7df9021a0000000800000000\
    000000000000000000100000050000000102030405bb67afef03190000000800\
    0000000000000000000000000000010000000000a04b40d56795cd\
";

const CHECKPOINT: &str = "\
    4f46434b0100000003000000000000002a000000000000000000000000000940\
    0100000000000050402c0000004f46454d010020000400000001000000020000\
    00000000000000003f000080be0000403f000080bf5bd7aaf4507756be\
";

const SPILL_FILE: &str = "\
    4f464c47010000000000000000000000017200000002000000080074656e616e\
    742d61000400000000000000e803000000000000000000000000e03f78000000\
    000000000000603f0000000000000000080074656e616e742d61050500000000\
    000000d007000000000000000000000000000000000000000000000000c07f00\
    100000000000007135cab8027b0000000087930300000000080074656e616e74\
    2d61000100000000000000000000000000e03f000000000000e03f0000000000\
    00e03f01000000000000000000000000005e400000000000005e400000000000\
    005e400100000000000000000000000000ec3f000000000000ec3f0000000000\
    00ec3f01000000000000004f295da0\
";

const PLACEMENT_FILE: &str = "\
    4f464c4701000000000000000000000001140000000800000074656e616e742d\
    610300000000000000898e5455\
";

const INFER: &str = "\
    010900000074656e616e742dceb1030100000002000000020000000000803e00\
    00c0bf00008000c0e1e44b\
";

const LEARN: &str = "\
    0201000000740402000000030000000200000002000000000000000000003f00\
    00803f0000c03f00000040000020400000404000006040000080400000904000\
    00a0400000b0400000c0400000d0400000e0400000f040000000410000084100\
    0010410000184100002041000028410000304100003841020000000700000000\
    0000000300000000000000\
";

const DELTA: &str = "\
    6208000000000000000300000000000000020000000000000000000000020000\
    000000803f000000c00200000000000000020000000000003f0000803e\
";

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn temp_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ofscil-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The intact records of an op-log file given as bytes.
fn read_log(tag: &str, file: &[u8]) -> Vec<RawRecord> {
    let path = temp_file(tag);
    std::fs::write(&path, file).unwrap();
    let (log, records) = OpLog::open(&path).unwrap();
    assert_eq!(
        log.bytes(),
        file.len() as u64,
        "{tag}: the fixture has a torn tail"
    );
    drop(log);
    let _ = std::fs::remove_file(&path);
    records
}

/// The bytes of a fresh op-log file holding `records`.
fn write_log(tag: &str, records: &[RawRecord]) -> Vec<u8> {
    let path = temp_file(tag);
    let (mut log, _) = OpLog::open(&path).unwrap();
    for (kind, body) in records {
        log.append(*kind, body).unwrap();
    }
    drop(log);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn sample_memory() -> ExplicitMemory {
    let mut em = ExplicitMemory::with_precision(4, PrototypePrecision::new(8).unwrap());
    em.set_prototype(0, &[0.5, -0.25, 0.75, -1.0]).unwrap();
    em.set_prototype(9, &[-0.1, 0.2, -0.3, 0.4]).unwrap();
    em
}

fn snapshot(fixture: &[u8]) -> Vec<u8> {
    let want = sample_memory();
    let got = decode_explicit_memory(fixture).unwrap();
    assert_eq!(
        (got.dim(), got.precision(), got.classes()),
        (4, want.precision(), vec![0, 9])
    );
    for (class, prototype) in want.iter() {
        assert_eq!(got.prototype(class).unwrap(), prototype);
    }
    encode_explicit_memory(&want)
}

fn wal_file(fixture: &[u8]) -> Vec<u8> {
    let want = [
        WalRecord::Learn {
            seq: 7,
            total_classes: 3,
            updates: vec![
                (0, vec![0.5, 0.625, 0.75, 0.875]),
                (9, vec![-1.0, -0.875, -0.75, -0.625]),
            ],
            spent_mj: 12.5,
            budget_mj: Some(100.0),
        },
        WalRecord::Import {
            seq: 8,
            snapshot: vec![1, 2, 3, 4, 5],
            spent_mj: f64::MIN_POSITIVE,
            budget_mj: None,
        },
        WalRecord::TopUp {
            seq: 8,
            spent_mj: 0.0,
            budget_mj: Some(55.25),
        },
    ];
    let got: Vec<_> = read_log("wal-in", fixture)
        .iter()
        .map(|(kind, body)| WalRecord::decode(*kind, body).unwrap())
        .collect();
    assert_eq!(got, want);
    write_log(
        "wal-out",
        &want.iter().map(WalRecord::encode).collect::<Vec<_>>(),
    )
}

fn checkpoint(fixture: &[u8]) -> Vec<u8> {
    let mut em = ExplicitMemory::new(4);
    em.set_prototype(2, &[0.5, -0.25, 0.75, -1.0]).unwrap();
    let want = Checkpoint {
        epoch: 3,
        seq: 42,
        spent_mj: 3.125,
        budget_mj: Some(64.0),
        snapshot: encode_explicit_memory(&em),
    };
    assert_eq!(Checkpoint::decode(fixture).unwrap(), want);
    want.encode()
}

fn spill_file(fixture: &[u8]) -> Vec<u8> {
    let events = vec![
        Event::new(EventKind::Infer, "tenant-a")
            .with_seq(4)
            .with_time_us(1_000)
            .with_energy_mj(0.5)
            .with_latency_us(120)
            .with_accuracy(0.875),
        // NaN accuracy: rows are compared through Debug, which prints NaN alike.
        Event::new(EventKind::Migration, "tenant-a")
            .with_seq(5)
            .with_time_us(2_000)
            .with_wal_bytes(4096),
    ];
    let mut cell = Rollup::new(60_000_000, "tenant-a", EventKind::Infer);
    cell.observe(&events[0]);

    // Decode through the spill's own open path: one chunk, one rollup cell.
    let path = temp_file("spill-in");
    std::fs::write(&path, fixture).unwrap();
    let (spill, recovery) = ObsSpill::open(&path).unwrap();
    drop(spill);
    let _ = std::fs::remove_file(&path);
    assert_eq!(recovery.corrupt_records, 0);
    assert_eq!(format!("{:?}", recovery.chunks), format!("{:?}", [&events]));
    assert_eq!(recovery.rollups, [cell.clone()]);

    // Encode: the chunk record through the spill hook, the rollup record
    // (which only the spill's GC writes) through its encoder.
    let path = temp_file("spill-out");
    let (spill, _) = ObsSpill::open(&path).unwrap();
    spill.spill_chunk(&events);
    drop(spill);
    let mut rollup_body = Vec::new();
    cell.encode(&mut rollup_body);
    let (mut log, _) = OpLog::open(&path).unwrap();
    log.append(REC_ROLLUP, &rollup_body).unwrap();
    drop(log);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn placement_file(fixture: &[u8]) -> Vec<u8> {
    let records = read_log("placement-in", fixture);
    assert_eq!(records.len(), 1);
    let (kind, body) = &records[0];
    assert_eq!(decode_override(body), Some(("tenant-a".to_string(), 3)));
    write_log("placement-out", &[(*kind, encode_override("tenant-a", 3))])
}

/// A frame as the fixtures hold it: kind byte, then payload.
fn kind_and_payload(frame: &[u8]) -> Vec<u8> {
    let (kind, payload) = parse_frame(frame, DEFAULT_MAX_PAYLOAD).unwrap();
    [&[kind], payload].concat()
}

fn request(fixture: &[u8], want: WireRequest) -> Vec<u8> {
    assert_eq!(decode_request(fixture[0], &fixture[1..]).unwrap(), want);
    kind_and_payload(&encode_request(&want))
}

fn infer(fixture: &[u8]) -> Vec<u8> {
    let image = Tensor::from_vec(vec![0.25, -1.5, f32::MIN_POSITIVE, 3.0e7], &[1, 2, 2]).unwrap();
    request(
        fixture,
        WireRequest::Serve(ServeRequest::Infer {
            deployment: "tenant-α".into(),
            image,
        }),
    )
}

fn learn_online(fixture: &[u8]) -> Vec<u8> {
    let images =
        Tensor::from_vec((0..24).map(|i| i as f32 * 0.5).collect(), &[2, 3, 2, 2]).unwrap();
    request(
        fixture,
        WireRequest::Serve(ServeRequest::LearnOnline {
            deployment: "t".into(),
            batch: Batch {
                images,
                labels: vec![7, 3],
            },
        }),
    )
}

fn delta(fixture: &[u8]) -> Vec<u8> {
    let want = ReplEvent::Delta {
        seq: 8,
        total_classes: 3,
        updates: vec![(0, vec![1.0, -2.0]), (2, vec![0.5, 0.25])],
    };
    match decode_response(fixture[0], &fixture[1..]).unwrap() {
        WireResponse::Repl(got) => assert_eq!(got, want),
        other => panic!("unexpected {other:?}"),
    }
    kind_and_payload(&encode_response(&WireResponse::Repl(want)))
}

/// Asserts `decode(fixture) == value` and returns `encode(value)`.
type Check = fn(&[u8]) -> Vec<u8>;

#[test]
fn every_layout_decodes_from_and_encodes_to_its_parent_commit_fixture() {
    // (layout, fixture, check)
    let table: [(&str, &str, Check); 8] = [
        ("OFEM snapshot", SNAPSHOT, snapshot),
        ("WAL file: Learn, Import, TopUp records", WAL_FILE, wal_file),
        ("checkpoint file", CHECKPOINT, checkpoint),
        (
            "spill file: chunk record, rollup record",
            SPILL_FILE,
            spill_file,
        ),
        (
            "placement journal: override record",
            PLACEMENT_FILE,
            placement_file,
        ),
        ("wire Infer", INFER, infer),
        ("wire LearnOnline", LEARN, learn_online),
        ("wire Delta", DELTA, delta),
    ];
    for (layout, hex, check) in table {
        let fixture = unhex(hex);
        assert_eq!(
            check(&fixture),
            fixture,
            "{layout}: encode(value) drifted from the fixture"
        );
    }
}
