//! The workspace's one byte codec: checksum, primitive writers and the
//! bounds-checked [`Reader`] every persisted or transmitted layout is built
//! from.
//!
//! House style: scalars are little-endian, floats travel as their exact
//! IEEE-754 bit patterns (so a prototype that crosses a wire or a restart
//! classifies identically on both sides), strings and byte runs are
//! length-prefixed, and a decoder proves a declared element count against the
//! bytes actually present ([`Reader::checked_count`]) *before* it allocates.
//! Encoders append to the caller's `Vec<u8>`; decoders never index, they
//! [`take`](Reader::take).
//!
//! Value types own their layout beside their definition (`Tensor` here,
//! events in `ofscil_obs`, prototypes and stats in `ofscil_serve`, WAL records
//! in `ofscil_store`); the three *framings* — wire frame, op-log record,
//! snapshot/checkpoint envelope — stay separate because they differ in header
//! and in error policy, and share only the checksum trailer helpers and the
//! [`Reader`].

use std::error::Error;
use std::fmt;

/// FNV-1a 32-bit hash — small, dependency-free corruption detection for
/// every checksummed envelope in the workspace. Not a cryptographic
/// integrity check.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// FNV-1a 64-bit hash — the workspace's one name hash: registry shard
/// selection, the router's ring points and simbench's per-scenario seeds.
/// Pinned here rather than borrowed from `std`, whose `DefaultHasher` is
/// explicitly unstable across releases, because placement and replay must be
/// the same in every process.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends the [`fnv1a`] checksum of `out[from..]` — the trailer every
/// checksummed envelope ends with.
pub fn put_checksum(out: &mut Vec<u8>, from: usize) {
    let checksum = fnv1a(&out[from..]);
    put_u32(out, checksum);
}

/// Splits a trailing checksum off `bytes`: the covered prefix, the stored
/// checksum and the checksum recomputed over the prefix. `None` when `bytes`
/// is shorter than the trailer.
pub fn split_checksum(bytes: &[u8]) -> Option<(&[u8], u32, u32)> {
    let (covered, trailer) = bytes.split_at(bytes.len().checked_sub(4)?);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    Some((covered, stored, fnv1a(covered)))
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as its IEEE-754 bits.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

/// Appends an `f64` as its IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a run of `f32`s (no length prefix) after one `reserve`.
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        put_f32(out, v);
    }
}

/// Appends a `u32`-length-prefixed byte run.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a `u16`-length-prefixed UTF-8 string — the compact prefix of
/// observability rows. Names longer than `u16::MAX` bytes are truncated.
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(usize::from(u16::MAX))];
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

/// Every way a byte body can fail to decode into a value. Decoding malformed
/// bytes must *never* panic: wire decoders surface the variant to the peer,
/// log decoders treat any of them as a corrupt record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The kind byte names no known message or record.
    UnknownKind(u8),
    /// The body ended before a field was complete.
    Truncated {
        /// Byte offset the decoder stopped at.
        offset: usize,
        /// Bytes the next field needs.
        needed: usize,
        /// Bytes remaining in the body.
        remaining: usize,
    },
    /// The body holds more bytes than the value consumed.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// An enum discriminant inside the body is out of range.
    BadTag {
        /// Which field carried the tag.
        field: &'static str,
        /// The offending value.
        tag: u8,
    },
    /// A declared element count cannot fit in the remaining body. Checked
    /// before allocation.
    LengthOverflow {
        /// Which field declared the count.
        field: &'static str,
        /// The declared element count.
        declared: u64,
    },
    /// A tensor body is inconsistent (shape/data mismatch).
    BadTensor(String),
    /// A numeric value does not fit the platform's `usize`.
    ValueOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownKind(kind) => write!(f, "unknown message kind {kind:#04x}"),
            DecodeError::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "payload truncated at offset {offset}: need {needed} bytes, {remaining} remain"
            ),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unconsumed bytes after the message")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadTag { field, tag } => {
                write!(f, "field {field:?} carries invalid tag {tag:#04x}")
            }
            DecodeError::LengthOverflow { field, declared } => {
                write!(
                    f,
                    "field {field:?} declares {declared} elements, more than fit"
                )
            }
            DecodeError::BadTensor(msg) => write!(f, "tensor payload invalid: {msg}"),
            DecodeError::ValueOverflow { field, value } => {
                write!(f, "field {field:?} value {value} overflows usize")
            }
        }
    }
}

impl Error for DecodeError {}

/// A bounds-checked cursor over one body. Every accessor returns a typed
/// [`DecodeError`]; nothing indexes past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, offset: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] when fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                offset: self.offset,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f32` from its IEEE-754 bits.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` that must fit the platform's `usize`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::ValueOverflow`] naming `field` when it does not.
    pub fn usize(&mut self, field: &'static str) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError::ValueOverflow { field, value: v })
    }

    /// Reads a 0/1 tag byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadTag`] naming `field` for any other value.
    pub fn flag(&mut self, field: &'static str) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { field, tag }),
        }
    }

    /// Proves `declared × element_size` bytes are actually present, so the
    /// caller may allocate `declared` elements. `element_size` is the
    /// *minimum* encoded size of a variable-length element.
    ///
    /// # Errors
    ///
    /// [`DecodeError::LengthOverflow`] naming `field` otherwise.
    pub(crate) fn prove(
        &self,
        field: &'static str,
        declared: u64,
        element_size: usize,
    ) -> Result<usize, DecodeError> {
        if declared.saturating_mul(element_size as u64) > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { field, declared });
        }
        Ok(declared as usize)
    }

    /// Reads a `u32` element count and proves `count × element_size` bytes
    /// are actually present, so the caller may allocate `count` elements.
    ///
    /// # Errors
    ///
    /// [`DecodeError::LengthOverflow`] when the count cannot fit the rest of
    /// the body.
    pub fn checked_count(
        &mut self,
        field: &'static str,
        element_size: usize,
    ) -> Result<usize, DecodeError> {
        let declared = u64::from(self.u32()?);
        self.prove(field, declared, element_size)
    }

    /// Reads a `u32`-counted list: the count is proved against
    /// `element_size` (the *minimum* encoded element) before the
    /// vector is allocated, then `decode` runs once per element.
    ///
    /// # Errors
    ///
    /// [`DecodeError::LengthOverflow`] for a count the body cannot hold, or
    /// the first element's decode error.
    pub fn list<T>(
        &mut self,
        field: &'static str,
        element_size: usize,
        mut decode: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.checked_count(field, element_size)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(decode(self)?);
        }
        Ok(items)
    }

    /// Reads `n` consecutive `f32`s; allocates only once the bytes are
    /// known to be present.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
            .collect())
    }

    /// Reads a `u32`-length-prefixed byte run.
    pub fn bytes(&mut self, field: &'static str) -> Result<Vec<u8>, DecodeError> {
        let len = self.checked_count(field, 1)?;
        Ok(self.take(len)?.to_vec())
    }

    fn utf8(bytes: &[u8]) -> Result<String, DecodeError> {
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.checked_count("string", 1)?;
        Reader::utf8(self.take(len)?)
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn str16(&mut self) -> Result<String, DecodeError> {
        let len = usize::from(self.u16()?);
        Reader::utf8(self.take(len)?)
    }

    /// Asserts the body is fully consumed.
    ///
    /// # Errors
    ///
    /// [`DecodeError::TrailingBytes`] when it is not.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() > 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Decodes a value that must span `body` exactly: runs `decode`, then
/// asserts nothing is left over.
///
/// # Errors
///
/// Returns `decode`'s error, or [`DecodeError::TrailingBytes`].
pub fn decode_exact<'a, T>(
    body: &'a [u8],
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = Reader::new(body);
    let value = decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_reader_roundtrip_every_primitive() {
        let mut out = Vec::new();
        out.push(7);
        put_u16(&mut out, 0xbeef);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_f32(&mut out, f32::NAN);
        put_f64(&mut out, -0.0);
        put_str(&mut out, "tenant-α");
        put_str16(&mut out, "t");
        put_bytes(&mut out, &[1, 2, 3]);
        put_u32(&mut out, 2);
        put_f32s(&mut out, &[0.5, f32::INFINITY]);
        out.push(1);

        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "tenant-α");
        assert_eq!(r.str16().unwrap(), "t");
        assert_eq!(r.bytes("blob").unwrap(), [1, 2, 3]);
        assert_eq!(
            r.list("floats", 4, Reader::f32).unwrap(),
            [0.5, f32::INFINITY]
        );
        assert!(r.flag("flag").unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn every_failure_is_typed_and_counts_are_proved_before_allocation() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.u32(),
            Err(DecodeError::Truncated {
                offset: 0,
                needed: 4,
                remaining: 3
            })
        );
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { remaining: 2 }));
        assert_eq!(decode_exact(&[5], Reader::u8), Ok(5));
        assert_eq!(
            decode_exact(&[5, 6], Reader::u8),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );

        // 4 billion declared elements over a 2-byte tail: refused by
        // arithmetic, never by running the loop.
        let mut body = Vec::new();
        put_u32(&mut body, u32::MAX);
        body.extend_from_slice(&[0, 0]);
        let mut r = Reader::new(&body);
        assert_eq!(
            r.checked_count("updates", 12),
            Err(DecodeError::LengthOverflow {
                field: "updates",
                declared: u64::from(u32::MAX)
            })
        );
        assert_eq!(
            Reader::new(&body).list("updates", 12, Reader::u64),
            Err(DecodeError::LengthOverflow {
                field: "updates",
                declared: u64::from(u32::MAX)
            })
        );
        assert!(Reader::new(&[]).prove("x", u64::MAX, usize::MAX).is_err());
        assert!(Reader::new(&[0; 8]).f32s(usize::MAX).is_err());

        assert_eq!(
            Reader::new(&[9]).flag("opt"),
            Err(DecodeError::BadTag {
                field: "opt",
                tag: 9
            })
        );
        let mut bad = Vec::new();
        put_bytes(&mut bad, &[0xff, 0xfe]);
        assert_eq!(Reader::new(&bad).str(), Err(DecodeError::BadUtf8));
        let mut wide = Vec::new();
        put_u64(&mut wide, u64::MAX);
        if usize::BITS < 64 {
            assert!(Reader::new(&wide).usize("class").is_err());
        }
    }

    #[test]
    fn str16_truncates_long_names_to_the_prefix_range() {
        let long = "x".repeat(70_000);
        let mut out = Vec::new();
        put_str16(&mut out, &long);
        assert_eq!(out.len(), 2 + usize::from(u16::MAX));
        assert_eq!(
            Reader::new(&out).str16().unwrap().len(),
            usize::from(u16::MAX)
        );
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_trailers_split_back() {
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);

        let mut out = b"skipped|foobar".to_vec();
        put_checksum(&mut out, 8);
        let (covered, stored, computed) = split_checksum(&out[8..]).unwrap();
        assert_eq!(
            (covered, stored, computed),
            (&b"foobar"[..], 0xbf9c_f968, 0xbf9c_f968)
        );
        assert!(split_checksum(&[1, 2, 3]).is_none());
    }
}
