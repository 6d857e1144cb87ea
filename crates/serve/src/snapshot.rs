//! Byte layouts of the state this system persists, replicates and migrates:
//! the explicit-memory snapshot, the prototype list of one committed learn,
//! and the optional energy budget.
//!
//! Learning a class is one write of a d_p-vector into the explicit memory
//! while everything else stays frozen, so these three layouts are the whole
//! durable state. Each is encoded here and nowhere else, on the workspace's
//! byte codec ([`ofscil_tensor::bytes`]); the WAL, the checkpoint file and
//! the wire all embed them.
//!
//! The snapshot is fully self-describing:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"OFEM"
//! 4       2     format version, little-endian u16 (currently 1)
//! 6       1     prototype storage precision in bits
//! 7       1     reserved (zero)
//! 8       4     prototype dimensionality d_p, little-endian u32
//! 12      4     prototype count, little-endian u32
//! 16      …     count × entry:  class id (u64 LE) + d_p × f32 (LE bits)
//! end-4   4     FNV-1a checksum of every preceding byte, little-endian u32
//! ```
//!
//! Floats are stored as their exact IEEE-754 bit patterns, so a decode
//! followed by [`ExplicitMemory::restore_prototype`] (which bypasses the
//! storage quantizer) round-trips **bit-exactly** — the property the
//! `snapshot_roundtrip` integration test asserts across dimensions, class
//! counts and every [`PrototypePrecision`] variant.

use crate::{Result, ServeError};
use ofscil_core::ExplicitMemory;
use ofscil_quant::PrototypePrecision;
use ofscil_tensor::bytes::{
    put_checksum, put_f32s, put_f64, put_u16, put_u32, put_u64, split_checksum, DecodeError, Reader,
};
use std::error::Error;
use std::fmt;

/// Magic bytes identifying an explicit-memory snapshot.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"OFEM";

/// Current snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u16 = 1;

const HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 4;

/// Decode-time failure of the snapshot codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream is shorter than the fixed header + checksum.
    Truncated {
        /// Minimum number of bytes a snapshot can have.
        needed: usize,
        /// Number of bytes actually provided.
        actual: usize,
    },
    /// The magic bytes do not identify an explicit-memory snapshot.
    BadMagic([u8; 4]),
    /// The format version is not understood by this decoder.
    UnsupportedVersion(u16),
    /// The byte length does not match the header's dimension and count.
    LengthMismatch {
        /// Length implied by the header.
        expected: usize,
        /// Length actually provided.
        actual: usize,
    },
    /// The checksum over the payload does not match the stored one.
    ChecksumMismatch {
        /// Checksum stored in the snapshot.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// The stored precision is not a valid [`PrototypePrecision`].
    BadPrecision(u8),
    /// A stored class id does not fit in `usize` on this platform.
    ClassOverflow(u64),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, actual } => {
                write!(
                    f,
                    "snapshot truncated: {actual} bytes, need at least {needed}"
                )
            }
            SnapshotError::BadMagic(magic) => {
                write!(
                    f,
                    "bad snapshot magic {magic:?} (expected {SNAPSHOT_MAGIC:?})"
                )
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (decoder speaks {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot length {actual} does not match header-implied {expected}"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum {stored:#010x} does not match computed {computed:#010x}"
                )
            }
            SnapshotError::BadPrecision(bits) => {
                write!(f, "snapshot stores an unsupported precision of {bits} bits")
            }
            SnapshotError::ClassOverflow(class) => {
                write!(
                    f,
                    "snapshot class id {class} overflows usize on this platform"
                )
            }
        }
    }
}

impl Error for SnapshotError {}

/// Serializes an explicit memory to the snapshot format.
///
/// The encoding is deterministic: prototypes are written in ascending class
/// order, so two memories with identical contents produce identical bytes
/// (replicas can be compared by hash).
pub fn encode_explicit_memory(em: &ExplicitMemory) -> Vec<u8> {
    let dim = em.dim();
    let count = em.num_classes();
    let mut bytes = Vec::with_capacity(HEADER_LEN + count * (8 + dim * 4) + CHECKSUM_LEN);
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u16(&mut bytes, SNAPSHOT_VERSION);
    bytes.push(em.precision().bits());
    bytes.push(0u8);
    put_u32(&mut bytes, dim as u32);
    put_u32(&mut bytes, count as u32);
    for (class, prototype) in em.iter() {
        put_u64(&mut bytes, class as u64);
        put_f32s(&mut bytes, prototype);
    }
    put_checksum(&mut bytes, 0);
    bytes
}

/// Deserializes an explicit memory from the snapshot format.
///
/// # Errors
///
/// Returns a [`SnapshotError`] (wrapped in [`ServeError::Snapshot`]) when the
/// bytes are truncated, carry a bad magic or version, fail the checksum, or
/// declare an unsupported precision.
pub fn decode_explicit_memory(bytes: &[u8]) -> Result<ExplicitMemory> {
    let min = HEADER_LEN + CHECKSUM_LEN;
    let truncated = || SnapshotError::Truncated {
        needed: min,
        actual: bytes.len(),
    };
    let (covered, stored, computed) = split_checksum(bytes).ok_or_else(truncated)?;
    let mut r = Reader::new(covered);
    // Only the fixed header can run short: the length comparison below
    // covers the body before it is read.
    let short = |_: DecodeError| truncated();
    let magic: [u8; 4] = r.take(4).map_err(short)?.try_into().expect("took 4 bytes");
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic).into());
    }
    let version = r.u16().map_err(short)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version).into());
    }
    let bits = r.u8().map_err(short)?;
    let _reserved = r.u8().map_err(short)?;
    let dim = r.u32().map_err(short)? as usize;
    let count = r.u32().map_err(short)? as usize;
    // Header fields are corruption-controlled: compute the implied length in
    // u128 so absurd dim/count values fail the comparison instead of
    // overflowing usize.
    let expected = min as u128 + count as u128 * (8 + dim as u128 * 4);
    if bytes.len() as u128 != expected {
        return Err(SnapshotError::LengthMismatch {
            expected: usize::try_from(expected).unwrap_or(usize::MAX),
            actual: bytes.len(),
        }
        .into());
    }
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed }.into());
    }
    let precision = PrototypePrecision::new(bits)
        .map_err(|_| ServeError::Snapshot(SnapshotError::BadPrecision(bits)))?;

    let mut em = ExplicitMemory::with_precision(dim, precision);
    for _ in 0..count {
        let class = r.u64().map_err(short)?;
        let class = usize::try_from(class)
            .map_err(|_| ServeError::Snapshot(SnapshotError::ClassOverflow(class)))?;
        em.restore_prototype(class, &r.f32s(dim).map_err(short)?)?;
    }
    Ok(em)
}

/// Appends a prototype list — what one committed `LearnOnline` changed: a
/// `u32` count, then per entry the class id (`u64`), the prototype length
/// (`u32`) and the prototype as IEEE-754 bits. The WAL's `Learn` record and
/// the replication stream's `Delta` both carry exactly this.
pub fn encode_prototypes(updates: &[(u64, Vec<f32>)], out: &mut Vec<u8>) {
    out.reserve(4 + updates.iter().map(|(_, p)| 12 + p.len() * 4).sum::<usize>());
    put_u32(out, updates.len() as u32);
    for (class, prototype) in updates {
        put_u64(out, *class);
        put_u32(out, prototype.len() as u32);
        put_f32s(out, prototype);
    }
}

/// Inverse of [`encode_prototypes`]. Both the entry count and every
/// prototype length are proved against the remaining bytes before anything
/// is allocated.
///
/// # Errors
///
/// Returns [`DecodeError::LengthOverflow`] for a count or length the body
/// cannot hold, [`DecodeError::Truncated`] for a short one.
pub fn decode_prototypes(
    r: &mut Reader<'_>,
) -> std::result::Result<Vec<(u64, Vec<f32>)>, DecodeError> {
    r.list("updates", 12, |r| {
        let class = r.u64()?;
        let dim = r.checked_count("prototype", 4)?;
        Ok((class, r.f32s(dim)?))
    })
}

/// Appends an optional energy budget: tag byte 0 (unlimited) or 1 followed
/// by the budget in millijoules as IEEE-754 bits.
pub fn encode_budget(budget_mj: Option<f64>, out: &mut Vec<u8>) {
    out.push(u8::from(budget_mj.is_some()));
    if let Some(v) = budget_mj {
        put_f64(out, v);
    }
}

/// Inverse of [`encode_budget`].
///
/// # Errors
///
/// Returns [`DecodeError::BadTag`] for a tag other than 0 or 1.
pub fn decode_budget(r: &mut Reader<'_>) -> std::result::Result<Option<f64>, DecodeError> {
    Ok(if r.flag("option<f64>")? {
        Some(r.f64()?)
    } else {
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_memory() -> ExplicitMemory {
        let mut em = ExplicitMemory::with_precision(4, PrototypePrecision::new(8).unwrap());
        em.set_prototype(0, &[0.5, -0.25, 0.75, -1.0]).unwrap();
        em.set_prototype(9, &[-0.1, 0.2, -0.3, 0.4]).unwrap();
        em
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let em = sample_memory();
        let bytes = encode_explicit_memory(&em);
        let back = decode_explicit_memory(&bytes).unwrap();
        assert_eq!(back.dim(), em.dim());
        assert_eq!(back.precision(), em.precision());
        assert_eq!(back.classes(), em.classes());
        for (class, proto) in em.iter() {
            let restored = back.prototype(class).unwrap();
            let exact = proto
                .iter()
                .zip(restored)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(exact, "class {class} round trip differs");
        }
    }

    #[test]
    fn empty_memory_roundtrips() {
        let em = ExplicitMemory::new(16);
        let back = decode_explicit_memory(&encode_explicit_memory(&em)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.dim(), 16);
        assert_eq!(back.precision().bits(), 32);
    }

    #[test]
    fn encoding_is_deterministic() {
        let em = sample_memory();
        assert_eq!(encode_explicit_memory(&em), encode_explicit_memory(&em));
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode_explicit_memory(&sample_memory());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            decode_explicit_memory(&bad_magic),
            Err(ServeError::Snapshot(SnapshotError::BadMagic(_)))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xee;
        assert!(matches!(
            decode_explicit_memory(&bad_version),
            Err(ServeError::Snapshot(SnapshotError::UnsupportedVersion(_)))
        ));

        let mut flipped_payload = bytes.clone();
        flipped_payload[HEADER_LEN + 10] ^= 0x01;
        assert!(matches!(
            decode_explicit_memory(&flipped_payload),
            Err(ServeError::Snapshot(SnapshotError::ChecksumMismatch { .. }))
        ));

        assert!(matches!(
            decode_explicit_memory(&bytes[..bytes.len() - 3]),
            Err(ServeError::Snapshot(SnapshotError::LengthMismatch { .. }))
        ));
        assert!(matches!(
            decode_explicit_memory(&bytes[..7]),
            Err(ServeError::Snapshot(SnapshotError::Truncated { .. }))
        ));
    }

    #[test]
    fn prototype_list_and_budget_roundtrip_and_refuse_hostile_counts() {
        let updates = vec![(0u64, vec![1.0f32, -2.0, f32::NAN]), (9, vec![])];
        let mut out = Vec::new();
        encode_prototypes(&updates, &mut out);
        encode_budget(Some(12.75), &mut out);
        encode_budget(None, &mut out);
        let mut r = Reader::new(&out);
        let back = decode_prototypes(&mut r).unwrap();
        assert_eq!(format!("{back:?}"), format!("{updates:?}"));
        assert_eq!(decode_budget(&mut r).unwrap(), Some(12.75));
        assert_eq!(decode_budget(&mut r).unwrap(), None);
        r.finish().unwrap();

        // u32::MAX declared updates over an empty tail, and a prototype
        // longer than the body: both refused by arithmetic.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        assert!(matches!(
            decode_prototypes(&mut Reader::new(&hostile)),
            Err(DecodeError::LengthOverflow {
                field: "updates",
                ..
            })
        ));
        let mut hostile = Vec::new();
        put_u32(&mut hostile, 1);
        put_u64(&mut hostile, 3);
        put_u32(&mut hostile, 1 << 30);
        assert!(matches!(
            decode_prototypes(&mut Reader::new(&hostile)),
            Err(DecodeError::LengthOverflow {
                field: "prototype",
                ..
            })
        ));
        assert!(matches!(
            decode_budget(&mut Reader::new(&[7])),
            Err(DecodeError::BadTag { tag: 7, .. })
        ));
    }

    #[test]
    fn absurd_header_dimensions_fail_cleanly() {
        // dim and count near u32::MAX would overflow a naive
        // `count * (8 + dim * 4)` length computation; the decoder must
        // report a mismatch, not wrap, pass the guard and index out of
        // bounds.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u16(&mut bytes, SNAPSHOT_VERSION);
        bytes.push(32u8);
        bytes.push(0u8);
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            decode_explicit_memory(&bytes),
            Err(ServeError::Snapshot(SnapshotError::LengthMismatch { .. }))
        ));
    }
}
