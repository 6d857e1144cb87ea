//! Byzantine-client fuzz suite: seeded random mutations of valid frames
//! against the codec, a live `WireServer`, and a live `RouterServer`.
//!
//! The contract under test: hostile bytes must yield **typed**
//! `FrameError`/`PayloadError` outcomes — never a panic, never a hang,
//! never an allocation sized by an attacker-controlled length field — and a
//! server that just ate a barrage of garbage must still answer the next
//! well-behaved client correctly.

use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ofscil_core::OFscilModel;
use ofscil_nn::models::BackboneKind;
use ofscil_obs::Event;
use ofscil_router::harness::ShardProcess;
use ofscil_router::{RouterConfig, RouterServer};
use ofscil_serve::{
    DeploymentExport, DeploymentSpec, LearnerRegistry, ServeRequest, ServeResponse,
};
use ofscil_store::{ObsSpill, OpLog, WalRecord, REC_CHUNK};
use ofscil_tensor::bytes::{put_u32, put_u64, Reader};
use ofscil_tensor::SeedRng;
use ofscil_wire::codec::{decode_request, decode_response, encode_request, WireRequest};
use ofscil_wire::frame::{frame_bytes, parse_frame, CHECKSUM_LEN, HEADER_LEN};
use ofscil_wire::{
    BoundAddr, FrameError, PayloadError, WireClient, WireConfig, WireResponse, WireServer,
    DEFAULT_MAX_PAYLOAD,
};

const IMAGE: usize = 8;

fn registry_with(names: &[&str]) -> LearnerRegistry {
    let registry = LearnerRegistry::new();
    for name in names {
        let mut rng = SeedRng::new(11);
        registry
            .register(
                DeploymentSpec::new(name, (IMAGE, IMAGE)),
                OFscilModel::new(BackboneKind::Micro, 16, &mut rng),
            )
            .unwrap();
    }
    registry
}

/// Valid frames covering every request shape a client can emit.
fn templates() -> Vec<Vec<u8>> {
    vec![
        encode_request(&WireRequest::Serve(ServeRequest::Infer {
            deployment: "tenant".into(),
            image: ofscil_serve::traffic::class_image(IMAGE, 1, 0.0),
        })),
        encode_request(&WireRequest::Serve(ServeRequest::LearnOnline {
            deployment: "tenant".into(),
            batch: ofscil_serve::traffic::support_batch(IMAGE, &[0, 2], 2),
        })),
        encode_request(&WireRequest::Serve(ServeRequest::Snapshot {
            deployment: "tenant".into(),
        })),
        encode_request(&WireRequest::Serve(ServeRequest::Stats {
            deployment: "tenant".into(),
        })),
        encode_request(&WireRequest::Serve(ServeRequest::TopUpBudget {
            deployment: "tenant".into(),
            energy_mj: 3.5,
        })),
        encode_request(&WireRequest::Subscribe {
            deployment: "tenant".into(),
        }),
        encode_request(&WireRequest::Export {
            deployment: "tenant".into(),
        }),
        encode_request(&WireRequest::Import(DeploymentExport {
            name: "tenant".into(),
            seq: 9,
            snapshot: vec![1, 2, 3, 4],
            ..DeploymentExport::default()
        })),
        encode_request(&WireRequest::ReAnchor {
            deployment: "tenant".into(),
        }),
    ]
}

/// A seeded mutation that is guaranteed to break the frame. The trailing
/// checksum covers every preceding byte (header included), so any single
/// bit flip is detectable; the one mutation deliberately absent is a pure
/// append, because a valid frame plus trailing garbage still serves its
/// prefix.
fn breaking_mutation(frame: &[u8], rng: &mut SeedRng) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    match rng.below(5) {
        0 => {
            // Bit flip anywhere: header flips fail validation or the
            // checksum, payload/checksum flips fail the checksum.
            let byte = rng.below(bytes.len());
            bytes[byte] ^= 1 << rng.below(8);
        }
        1 => {
            // Truncate mid-frame.
            bytes.truncate(1 + rng.below(bytes.len() - 1));
        }
        2 => {
            // Tamper with the declared payload length.
            let fake = rng.next_u32();
            bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&fake.to_le_bytes());
        }
        3 => {
            // Unsupported protocol version.
            bytes[4] ^= 0x40;
        }
        _ => {
            // Corrupt the stored checksum.
            let len = bytes.len();
            bytes[len - 1] ^= 0xff;
        }
    }
    bytes
}

/// Pure codec fuzz: thousands of seeded mutations (including kind-byte
/// flips and trailing extensions, which can leave the envelope valid) must
/// produce either a typed parse error or a frame whose payload decode is
/// itself total — never a panic.
#[test]
fn seeded_mutations_yield_typed_errors_never_panics() {
    let templates = templates();
    let mut rng = SeedRng::new(0xf0a2);
    let mut parse_errors = 0u64;
    let mut payload_errors = 0u64;
    let mut survivors = 0u64;
    for _ in 0..4_000 {
        let template = &templates[rng.below(templates.len())];
        let mut bytes = template.clone();
        // Unrestricted mutation set for the pure parser: any byte (kind
        // included), plus extension, plus multi-byte splices.
        match rng.below(4) {
            0 => {
                let byte = rng.below(bytes.len());
                bytes[byte] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len())),
            2 => {
                for _ in 0..1 + rng.below(8) {
                    bytes.push(rng.next_u32() as u8);
                }
            }
            _ => {
                let at = rng.below(bytes.len());
                let mut splice = [0u8; 4];
                rng.fill_bytes(&mut splice);
                let end = (at + 4).min(bytes.len());
                bytes[at..end].copy_from_slice(&splice[..end - at]);
            }
        }
        if bytes == *template {
            continue; // the mutation was a no-op; nothing hostile to assert
        }
        match parse_frame(&bytes, DEFAULT_MAX_PAYLOAD) {
            Err(_) => parse_errors += 1,
            Ok((kind, payload)) => match decode_request(kind, payload) {
                Err(_) => payload_errors += 1,
                Ok(_) => survivors += 1,
            },
        }
    }
    // Deterministic kind sweep: every kind byte against every template's
    // payload, re-framed so the envelope (checksum included) is valid. This
    // models the strongest byzantine client — one that speaks the framing
    // protocol perfectly but lies about what the payload encodes — and
    // exercises the payload decoder across all kind/payload mismatches.
    for template in &templates {
        let (_, payload) = parse_frame(template, DEFAULT_MAX_PAYLOAD).unwrap();
        for kind in 0..=u8::MAX {
            let reframed = frame_bytes(kind, payload);
            let (kind, payload) = parse_frame(&reframed, DEFAULT_MAX_PAYLOAD).unwrap();
            match decode_request(kind, payload) {
                Err(_) => payload_errors += 1,
                Ok(_) => survivors += 1,
            }
        }
    }
    // The overwhelming majority of random mutations must be caught at the
    // frame layer; payload-level rejects cover the kind sweep. "Survivors"
    // are mutations that produced a *well-formed* request (e.g. the
    // original kind back, or a kind flip between two string-only requests)
    // — legal, but they must stay a small minority.
    assert!(
        parse_errors > 3_000,
        "only {parse_errors} frame-level rejections"
    );
    assert!(
        payload_errors > 2_000,
        "only {payload_errors} typed payload rejections"
    );
    assert!(
        survivors < 100,
        "{survivors} mutations decoded cleanly — the mutation set is too weak"
    );
}

/// Attacker-controlled length fields must be rejected by arithmetic on the
/// declared size — before any buffer of that size exists.
#[test]
fn declared_length_attacks_are_rejected_before_allocation() {
    let stats = encode_request(&WireRequest::Serve(ServeRequest::Stats {
        deployment: "tenant".into(),
    }));
    // Claim a 4 GiB payload on an otherwise valid frame.
    let mut huge = stats.clone();
    huge[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        parse_frame(&huge, DEFAULT_MAX_PAYLOAD),
        Err(FrameError::Oversize { .. })
    ));
    // Same attack through the streaming reader: it must fail on the header,
    // not try to buffer the declared length.
    let mut cursor = Cursor::new(huge.clone());
    assert!(matches!(
        ofscil_wire::frame::read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None),
        Err(ofscil_wire::WireError::Frame(FrameError::Oversize { .. }))
    ));
    // One past the configured cap is still over the cap.
    let cap = 1 << 10;
    let mut just_over = stats;
    just_over[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&((cap as u32) + 1).to_le_bytes());
    assert!(matches!(
        parse_frame(&just_over, cap),
        Err(FrameError::Oversize { .. })
    ));

    // The store's decoders read through the same `Reader`, so the same rule
    // holds on disk: a declared count is proved against the body it sits in
    // before anything is reserved — `LengthOverflow` is that proof failing,
    // not a loop running out of bytes. A WAL `Learn` body declaring
    // `u32::MAX` updates…
    let (kind, mut body) = WalRecord::Learn {
        seq: 1,
        total_classes: 0,
        updates: Vec::new(),
        spent_mj: 0.0,
        budget_mj: None,
    }
    .encode();
    let count_at = body.len() - 4;
    body[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        WalRecord::decode(kind, &body),
        Err(PayloadError::LengthOverflow {
            field: "updates",
            declared: u64::from(u32::MAX)
        })
    );
    // …one update whose prototype claims a gibibyte of floats…
    body[count_at..].copy_from_slice(&1u32.to_le_bytes());
    put_u64(&mut body, 3);
    put_u32(&mut body, 1 << 28);
    assert!(matches!(
        WalRecord::decode(kind, &body),
        Err(PayloadError::LengthOverflow {
            field: "prototype",
            ..
        })
    ));
    // …and a spill chunk declaring more events than its body can hold,
    // which the spill skips as one corrupt record instead of adopting.
    let mut chunk = Vec::new();
    put_u32(&mut chunk, 3);
    chunk.extend_from_slice(&[0u8; 2 * Event::MIN_ENCODED_BYTES]);
    assert!(matches!(
        Event::decode_all(&mut Reader::new(&chunk)),
        Err(PayloadError::LengthOverflow {
            field: "events",
            declared: 3
        })
    ));
    let path =
        std::env::temp_dir().join(format!("ofscil-hostile-spill-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let (mut log, _) = OpLog::open(&path).unwrap();
        log.append(REC_CHUNK, &chunk).unwrap();
    }
    let (_spill, recovery) = ObsSpill::open(&path).unwrap();
    assert_eq!((recovery.chunks.len(), recovery.corrupt_records), (0, 1));
    let _ = std::fs::remove_file(&path);
}

/// A valid envelope around a corrupted payload must fail in the typed
/// payload decoder, never in a panic — the server's keep-serving error path.
#[test]
fn corrupted_payloads_inside_valid_envelopes_decode_totally() {
    let templates = templates();
    let mut rng = SeedRng::new(0xbeef);
    let mut rejects = 0u64;
    for _ in 0..1_000 {
        let template = &templates[rng.below(templates.len())];
        let (kind, payload) = parse_frame(template, DEFAULT_MAX_PAYLOAD).unwrap();
        let mut corrupt = payload.to_vec();
        match rng.below(3) {
            0 if !corrupt.is_empty() => {
                let byte = rng.below(corrupt.len());
                corrupt[byte] ^= 1 << rng.below(8);
            }
            1 => corrupt.truncate(rng.below(corrupt.len().max(1))),
            _ => {
                for _ in 0..1 + rng.below(6) {
                    corrupt.push(rng.next_u32() as u8);
                }
            }
        }
        // Re-frame so the envelope (length + checksum) is valid again: the
        // corruption now has to be caught by the payload decoder itself.
        let reframed = frame_bytes(kind, &corrupt);
        let (kind, payload) = parse_frame(&reframed, DEFAULT_MAX_PAYLOAD).unwrap();
        if decode_request(kind, payload).is_err() {
            rejects += 1;
        }
    }
    assert!(rejects > 500, "only {rejects} typed payload rejections");
}

/// Drives one hostile blob at a live server socket. Returns the decoded
/// response frames (empty when the server just closed the connection).
/// Every complete frame that comes back must decode — a server replying
/// with garbage is as broken as one that crashes.
fn deliver(addr: &std::net::SocketAddr, blob: &[u8]) -> Vec<WireResponse> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Write errors are expected: the server may slam the connection after
    // the first corrupt bytes.
    let _ = stream.write_all(blob);
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let mut responses = Vec::new();
    let mut rest = &raw[..];
    while !rest.is_empty() {
        let Ok((kind, payload)) = parse_frame(rest, DEFAULT_MAX_PAYLOAD) else {
            // A partial final frame (server closed mid-write) is fine.
            break;
        };
        responses.push(decode_response(kind, payload).expect("server sent undecodable frame"));
        let consumed = HEADER_LEN + payload.len() + CHECKSUM_LEN;
        rest = &rest[consumed..];
    }
    responses
}

fn hostile_barrage(addr: &BoundAddr, seed: u64, frames: usize) {
    let BoundAddr::Tcp(addr) = addr else {
        panic!("hostile barrage needs a TCP address");
    };
    let templates = templates();
    let mut rng = SeedRng::new(seed);
    for _ in 0..frames {
        let template = &templates[rng.below(templates.len())];
        let blob = breaking_mutation(template, &mut rng);
        if blob == *template {
            continue;
        }
        for response in deliver(addr, &blob) {
            assert!(
                matches!(response, WireResponse::Error(_)),
                "hostile frame elicited a successful response: {response:?}"
            );
        }
    }
}

/// A `WireServer` under a hostile barrage: every mutated frame is rejected
/// (connection closed or typed error reply), and the same socket then
/// serves a well-behaved client with correct predictions.
#[test]
fn wire_server_rejects_hostile_frames_and_keeps_serving() {
    let registry = registry_with(&["tenant"]);
    WireServer::run_observed(
        &registry,
        &WireConfig::tcp_loopback(),
        None,
        None,
        |server| {
            let mut client = WireClient::connect(server.addr()).unwrap();
            client
                .call(ServeRequest::LearnOnline {
                    deployment: "tenant".into(),
                    batch: ofscil_serve::traffic::support_batch(IMAGE, &[0, 1, 2], 3),
                })
                .unwrap();

            hostile_barrage(server.addr(), 0x5eed_0001, 60);

            // The barrage must not have leaked into the accepted counters…
            let stats = registry.stats("tenant").unwrap();
            assert_eq!(stats.accepted(), 1, "only the seeding learn was accepted");
            // …and the server still answers a fresh client correctly.
            let mut fresh = WireClient::connect(server.addr()).unwrap();
            match fresh
                .call(ServeRequest::Infer {
                    deployment: "tenant".into(),
                    image: ofscil_serve::traffic::class_image(IMAGE, 2, 0.01),
                })
                .unwrap()
            {
                ServeResponse::Prediction { class, .. } => assert_eq!(class, 2),
                other => panic!("unexpected response {other:?}"),
            }
        },
    )
    .unwrap();
}

/// The router's forwarding path under the same barrage: hostile frames die
/// at the routing hop (or come back as typed errors), shards never see
/// them, and routed traffic keeps working.
#[test]
fn router_rejects_hostile_frames_and_keeps_serving() {
    let shard_registry = Arc::new(registry_with(&["tenant"]));
    let shard = ShardProcess::spawn_observed(
        Arc::clone(&shard_registry),
        WireConfig::tcp_loopback(),
        None,
    )
    .unwrap();
    let config =
        RouterConfig::tcp_loopback(vec![shard.addr().clone()]).with_deployments(&["tenant"]);
    RouterServer::run(&config, |router| {
        let mut client = WireClient::connect(router.addr()).unwrap();
        client
            .call(ServeRequest::LearnOnline {
                deployment: "tenant".into(),
                batch: ofscil_serve::traffic::support_batch(IMAGE, &[0, 1, 2], 3),
            })
            .unwrap();

        hostile_barrage(router.addr(), 0x5eed_0002, 60);

        // Nothing hostile reached the shard's admission path.
        let stats = shard_registry.stats("tenant").unwrap();
        assert_eq!(stats.accepted(), 1, "only the seeding learn was accepted");
        assert_eq!(stats.rejected(), 0);
        // Routed traffic still works on the same router address.
        match client
            .call(ServeRequest::Infer {
                deployment: "tenant".into(),
                image: ofscil_serve::traffic::class_image(IMAGE, 0, 0.01),
            })
            .unwrap()
        {
            ServeResponse::Prediction { class, .. } => assert_eq!(class, 0),
            other => panic!("unexpected response {other:?}"),
        }
    })
    .unwrap();
    shard.stop();
}
