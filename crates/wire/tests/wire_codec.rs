//! Property coverage for the wire codec.
//!
//! Two suites, both seeded and deterministic:
//!
//! * **round-trip identity** — random request/response values of every
//!   variant encode to a frame and decode back to an equal value, with
//!   floats compared by bit pattern,
//! * **corruption** — every single-byte flip, every truncation length,
//!   trailing garbage, unknown versions/kinds and hostile declared lengths
//!   must come back as *typed* decode errors. Decoding attacker-controlled
//!   bytes must never panic.

use ofscil_data::Batch;
use ofscil_serve::{DeploymentStats, ServeError, ServeRequest, ServeResponse};
use ofscil_tensor::{SeedRng, Tensor};
use ofscil_wire::codec::{decode_request, decode_response, encode_request, encode_response};
use ofscil_wire::frame::{frame_bytes, parse_frame};
use ofscil_wire::{
    FrameError, PayloadError, ReplEvent, WireRequest, WireResponse, DEFAULT_MAX_PAYLOAD,
};

// ---------------------------------------------------------------------------
// Random value generators
// ---------------------------------------------------------------------------

fn random_name(rng: &mut SeedRng) -> String {
    const ALPHABET: &[&str] = &["a", "b", "Z", "7", "-", "_", "é", "λ", "учё", "tenant"];
    let len = rng.below(6);
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

fn random_f32(rng: &mut SeedRng) -> f32 {
    match rng.below(8) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => f32::MIN_POSITIVE,
        _ => rng.normal() * 10f32.powi(rng.below(9) as i32 - 4),
    }
}

fn random_f64(rng: &mut SeedRng) -> f64 {
    match rng.below(6) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -0.0,
        _ => f64::from(rng.normal()) * 1e3,
    }
}

fn random_tensor(rng: &mut SeedRng) -> Tensor {
    let rank = 1 + rng.below(4);
    let dims: Vec<usize> = (0..rank).map(|_| 1 + rng.below(5)).collect();
    let len = dims.iter().product();
    let data: Vec<f32> = (0..len).map(|_| random_f32(rng)).collect();
    Tensor::from_vec(data, &dims).expect("consistent dims")
}

fn random_request(rng: &mut SeedRng) -> WireRequest {
    match rng.below(7) {
        0 => WireRequest::Serve(ServeRequest::Infer {
            deployment: random_name(rng),
            image: random_tensor(rng),
        }),
        1 => {
            let samples = 1 + rng.below(4);
            let side = 1 + rng.below(4);
            let len = samples * 3 * side * side;
            let images = Tensor::from_vec(
                (0..len).map(|_| random_f32(rng)).collect(),
                &[samples, 3, side, side],
            )
            .expect("consistent dims");
            WireRequest::Serve(ServeRequest::LearnOnline {
                deployment: random_name(rng),
                batch: Batch {
                    images,
                    labels: (0..samples).map(|_| rng.below(1000)).collect(),
                },
            })
        }
        2 => WireRequest::Serve(ServeRequest::Snapshot {
            deployment: random_name(rng),
        }),
        3 => WireRequest::Serve(ServeRequest::Stats {
            deployment: random_name(rng),
        }),
        4 => WireRequest::Serve(ServeRequest::TopUpBudget {
            deployment: random_name(rng),
            energy_mj: random_f64(rng),
        }),
        5 => WireRequest::ReAnchor {
            deployment: random_name(rng),
        },
        _ => WireRequest::Subscribe {
            deployment: random_name(rng),
        },
    }
}

fn random_error(rng: &mut SeedRng) -> ServeError {
    match rng.below(9) {
        0 => ServeError::UnknownDeployment(random_name(rng)),
        1 => ServeError::DuplicateDeployment(random_name(rng)),
        2 => ServeError::BudgetExhausted {
            deployment: random_name(rng),
            required_mj: random_f64(rng),
            remaining_mj: random_f64(rng),
        },
        3 => ServeError::InvalidRequest(random_name(rng)),
        4 => ServeError::InvalidConfig(random_name(rng)),
        5 => ServeError::Execution(random_name(rng)),
        6 => ServeError::ShuttingDown,
        7 => ServeError::QueueFull {
            depth: rng.below(1 << 20),
        },
        _ => ServeError::ReadOnlyReplica {
            deployment: random_name(rng),
        },
    }
}

fn random_response(rng: &mut SeedRng) -> WireResponse {
    match rng.below(8) {
        0 => WireResponse::Serve(ServeResponse::Prediction {
            class: rng.below(10_000),
            similarity: random_f32(rng),
            batched_with: 1 + rng.below(64),
        }),
        1 => WireResponse::Serve(ServeResponse::Learned {
            classes: (0..rng.below(8)).map(|_| rng.below(100)).collect(),
            total_classes: rng.below(200),
        }),
        2 => {
            let len = rng.below(64);
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            WireResponse::Serve(ServeResponse::Snapshot { bytes })
        }
        3 => WireResponse::Serve(ServeResponse::Stats(DeploymentStats {
            name: random_name(rng),
            classes: rng.below(100),
            infer_requests: rng.next_u64() >> 8,
            infer_batches: rng.next_u64() >> 8,
            largest_batch: rng.below(64),
            learn_requests: rng.next_u64() >> 8,
            snapshots: rng.next_u64() >> 40,
            rejected_infer: rng.next_u64() >> 40,
            rejected_learn: rng.next_u64() >> 40,
            deferred: rng.next_u64() >> 40,
            energy_spent_mj: random_f64(rng),
            energy_budget_mj: rng.chance(0.5).then(|| random_f64(rng)),
            durability: rng.chance(0.5).then(|| ofscil_serve::DurabilityStats {
                wal_records: rng.next_u64() >> 40,
                wal_bytes: rng.next_u64() >> 32,
                compactions: rng.next_u64() >> 48,
                last_checkpoint_seq: rng.next_u64() >> 8,
            }),
        })),
        4 => WireResponse::Serve(ServeResponse::Budget {
            spent_mj: random_f64(rng),
            remaining_mj: rng.chance(0.5).then(|| random_f64(rng)),
        }),
        5 => WireResponse::Error(random_error(rng)),
        6 => {
            let len = rng.below(96);
            let mut snapshot = vec![0u8; len];
            rng.fill_bytes(&mut snapshot);
            WireResponse::Repl(ReplEvent::Full {
                seq: rng.next_u64() >> 8,
                snapshot,
            })
        }
        _ => WireResponse::Repl(ReplEvent::Delta {
            seq: rng.next_u64() >> 8,
            total_classes: rng.below(256) as u64,
            updates: (0..rng.below(5))
                .map(|_| {
                    let dim = 1 + rng.below(16);
                    (
                        rng.below(512) as u64,
                        (0..dim).map(|_| random_f32(rng)).collect(),
                    )
                })
                .collect(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Round-trip identity
// ---------------------------------------------------------------------------

/// Debug formatting is the equality witness: it prints floats exactly enough
/// to distinguish NaN payload bits… not quite — so NaN-carrying values are
/// additionally compared structurally where it matters (tensor bits below).
#[test]
fn random_requests_roundtrip_identically() {
    let mut rng = SeedRng::new(0x51_1CE0);
    for i in 0..300 {
        let request = random_request(&mut rng);
        let frame = encode_request(&request);
        let (kind, payload) =
            parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap_or_else(|e| panic!("iter {i}: {e}"));
        let back = decode_request(kind, payload).unwrap_or_else(|e| panic!("iter {i}: {e}"));
        assert_eq!(
            format!("{back:?}"),
            format!("{request:?}"),
            "iteration {i} round trip differs"
        );
        // Bit-exactness of tensor payloads (Debug can collapse NaN kinds).
        if let (
            WireRequest::Serve(ServeRequest::Infer { image: a, .. }),
            WireRequest::Serve(ServeRequest::Infer { image: b, .. }),
        ) = (&request, &back)
        {
            assert_eq!(a.dims(), b.dims());
            assert!(a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}

#[test]
fn random_responses_roundtrip_identically() {
    let mut rng = SeedRng::new(0xCAB1E);
    for i in 0..300 {
        let response = random_response(&mut rng);
        let frame = encode_response(&response);
        let (kind, payload) =
            parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap_or_else(|e| panic!("iter {i}: {e}"));
        let back = decode_response(kind, payload).unwrap_or_else(|e| panic!("iter {i}: {e}"));
        assert_eq!(
            format!("{back:?}"),
            format!("{response:?}"),
            "iteration {i} round trip differs"
        );
    }
}

// ---------------------------------------------------------------------------
// Corruption
// ---------------------------------------------------------------------------

/// Decoding a frame buffer must yield `Ok` or a typed error — never a panic.
/// Returns whether it decoded.
fn try_decode(bytes: &[u8]) -> bool {
    match parse_frame(bytes, DEFAULT_MAX_PAYLOAD) {
        Ok((kind, payload)) => {
            // Feed both decoders; either may legitimately succeed or fail,
            // but neither may panic.
            let _ = decode_request(kind, payload);
            let _ = decode_response(kind, payload);
            true
        }
        Err(_) => false,
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let mut rng = SeedRng::new(0xF11);
    for _ in 0..20 {
        let frame = if rng.chance(0.5) {
            encode_request(&random_request(&mut rng))
        } else {
            encode_response(&random_response(&mut rng))
        };
        for index in 0..frame.len() {
            let mut damaged = frame.clone();
            damaged[index] ^= 1 << rng.below(8);
            if damaged[index] == frame[index] {
                continue;
            }
            // Every byte of the frame is covered by the checksum (or *is*
            // the checksum), so any flip must surface as a frame error.
            assert!(
                parse_frame(&damaged, DEFAULT_MAX_PAYLOAD).is_err(),
                "flip at byte {index} went unnoticed"
            );
        }
    }
}

#[test]
fn every_truncation_length_is_detected() {
    let mut rng = SeedRng::new(0x7A11);
    for _ in 0..10 {
        let frame = encode_request(&random_request(&mut rng));
        for len in 0..frame.len() {
            assert!(
                matches!(
                    parse_frame(&frame[..len], DEFAULT_MAX_PAYLOAD),
                    Err(FrameError::Truncated { .. })
                ),
                "truncation to {len} of {} not flagged",
                frame.len()
            );
        }
        // Trailing garbage is equally typed.
        let mut extended = frame.clone();
        extended.extend_from_slice(b"junk");
        assert!(matches!(
            parse_frame(&extended, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::TrailingBytes { remaining: 4 })
        ));
    }
}

#[test]
fn unknown_versions_and_kinds_are_typed() {
    let frame = encode_request(&WireRequest::Subscribe {
        deployment: "t".into(),
    });

    let mut versioned = frame.clone();
    versioned[4] = 0xfe;
    versioned[5] = 0xca;
    assert!(matches!(
        parse_frame(&versioned, DEFAULT_MAX_PAYLOAD),
        Err(FrameError::UnsupportedVersion(0xcafe))
    ));

    // A frame with a fabricated kind passes the frame layer (rebuild the
    // checksum) and must fail typed at the message layer.
    let (_, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
    let forged = frame_bytes(0x3f, payload);
    let (kind, payload) = parse_frame(&forged, DEFAULT_MAX_PAYLOAD).unwrap();
    assert!(matches!(
        decode_request(kind, payload),
        Err(PayloadError::UnknownKind(0x3f))
    ));
    assert!(matches!(
        decode_response(kind, payload),
        Err(PayloadError::UnknownKind(0x3f))
    ));
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = SeedRng::new(0xBAD);
    for _ in 0..500 {
        let len = rng.below(160);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        try_decode(&bytes);
    }
    // Garbage that *starts* like a real frame exercises the deeper paths.
    let mut rng = SeedRng::new(0xBAD2);
    for _ in 0..200 {
        let mut frame = encode_request(&random_request(&mut rng));
        let start = rng.below(frame.len());
        for byte in frame.iter_mut().skip(start) {
            *byte = (rng.next_u32() & 0xff) as u8;
        }
        try_decode(&frame);
    }
}

#[test]
fn payload_corruption_behind_a_valid_checksum_is_typed() {
    // Damage the payload, then recompute the frame around it so the frame
    // layer accepts it — the message layer must still answer with a typed
    // error for structurally broken bodies.
    let mut rng = SeedRng::new(0x900D);
    let mut flagged = 0usize;
    for _ in 0..200 {
        let frame = encode_request(&random_request(&mut rng));
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        let mut payload = payload.to_vec();
        if payload.is_empty() {
            continue;
        }
        let index = rng.below(payload.len());
        payload[index] ^= 1 << rng.below(8);
        let reframed = frame_bytes(kind, &payload);
        let (kind, payload) = parse_frame(&reframed, DEFAULT_MAX_PAYLOAD).unwrap();
        // May still decode (a float bit changed) — must never panic.
        if decode_request(kind, payload).is_err() {
            flagged += 1;
        }
    }
    // Plenty of flips hit structure (lengths, tags) and get flagged.
    assert!(flagged > 0, "no structural corruption was ever detected");
}
