//! The outer frame envelope: length-prefixed, checksummed, versioned.
//!
//! Every message on a wire connection travels in exactly one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"OFWR"
//! 4       2     wire format version, little-endian u16 ([`WIRE_VERSION`])
//! 6       1     message kind (see `codec`)
//! 7       1     reserved (zero)
//! 8       4     payload length, little-endian u32
//! 12      …     payload (message body, encoded by `codec`)
//! end-4   4     FNV-1a checksum of every preceding byte, little-endian u32
//! ```
//!
//! The same deliberately tiny style as the snapshot codec in
//! `ofscil_serve::snapshot`: self-describing, corruption detected by
//! checksum, hostile lengths rejected before allocation.

use crate::error::{FrameError, WireError};
use ofscil_tensor::bytes::{put_bytes, put_checksum, put_u16, split_checksum};
use std::io::{ErrorKind, Read};
use std::sync::atomic::{AtomicBool, Ordering};

/// Magic bytes identifying a wire frame.
pub(crate) const WIRE_MAGIC: [u8; 4] = *b"OFWR";

/// Current wire format version. Bumped whenever the message set changes —
/// v2 added the migration endpoints (`Export`/`Import`, kinds `0x07`/`0x08`,
/// responses `0x47`/`0x48`) and the `ShardUnavailable`/`ReplicationLagged`
/// error tags; v3 added the `ReAnchor` request (kind `0x09`, answered with a
/// checkpoint-served `Repl Full`) and the durability counters in the `Stats`
/// payload; v4 split the `Stats` payload's lump `rejected` counter into
/// per-request-type `rejected_infer` / `rejected_learn` counters — so a
/// mismatched peer fails fast with a clean
/// [`FrameError::UnsupportedVersion`] instead of a confusing `BadTag` deep
/// inside a payload; v5 added the observability query (`ObsQuery` kind
/// `0x0A`, answered with an `ObsResult` response `0x49`) — the first
/// scatter-gather request a router fans out to every shard instead of
/// forwarding to one; v6 extended the `Export`/`Import` payload with the
/// deployment's billing state (spent/budget millijoules plus lifetime request
/// counters, so a live migration moves the meter with the model) and added
/// follower advertisement (`AdvertiseFollower` kind `0x0B`, answered with
/// `Advertised` `0x4A`) so the control plane learns its promotion candidates;
/// v7 appended a resolution byte to the `ObsQuery` payload (raw / rollup /
/// auto) and a vector of per-minute rollup cells to the `ObsResult`
/// response, so long-horizon timelines travel as downsampled aggregates
/// instead of raw rows; v8 added streaming observability — the
/// `ObsSubscribe` request (kind `0x0C`, carrying an `ObsQuery` filter plus
/// an optional `(time_us, seq)` resume cursor) answered by an open-ended
/// sequence of `TailBatch` frames (kind `0x63`, back-fill first, then live
/// batches on the persistent connection) — and appended the 32-bucket
/// latency histogram to the `ObsResult` response payload; v9 moved the
/// `Event`/`Rollup` rows inside `ObsResult` and `TailBatch` payloads to the
/// layout `ofscil_obs` owns (the spill log's: a `u16` deployment-name prefix
/// where v8 had a `u32`), so a row has one encoder for disk and wire alike.
pub(crate) const WIRE_VERSION: u16 = 9;

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Trailing checksum length in bytes.
pub const CHECKSUM_LEN: usize = 4;

/// Default maximum payload size a peer will accept (16 MiB) — far above any
/// legitimate O-FSCIL message, far below anything that could hurt.
pub const DEFAULT_MAX_PAYLOAD: usize = 16 << 20;

/// Serializes one frame.
pub fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    bytes.extend_from_slice(&WIRE_MAGIC);
    put_u16(&mut bytes, WIRE_VERSION);
    bytes.push(kind);
    bytes.push(0u8);
    put_bytes(&mut bytes, payload);
    put_checksum(&mut bytes, 0);
    bytes
}

/// Validates a frame header (first [`HEADER_LEN`] bytes, length checked by
/// the caller) and returns `(kind, payload_len)`.
fn parse_header(header: &[u8], max_payload: usize) -> Result<(u8, usize), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("length checked");
    if magic != WIRE_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("length checked"));
    if version != WIRE_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let kind = header[6];
    if header[7] != 0 {
        return Err(FrameError::BadReserved(header[7]));
    }
    let declared = u32::from_le_bytes(header[8..12].try_into().expect("length checked")) as usize;
    if declared > max_payload {
        return Err(FrameError::Oversize {
            declared,
            max: max_payload,
        });
    }
    Ok((kind, declared))
}

/// Parses exactly one frame out of an in-memory buffer, returning the kind
/// byte and the payload slice.
///
/// # Errors
///
/// Returns a typed [`FrameError`] for every way the bytes can be wrong:
/// truncation, bad magic, unknown version, hostile length, checksum damage,
/// trailing garbage. Never panics.
pub fn parse_frame(bytes: &[u8], max_payload: usize) -> Result<(u8, &[u8]), FrameError> {
    let min = HEADER_LEN + CHECKSUM_LEN;
    if bytes.len() < min {
        return Err(FrameError::Truncated {
            needed: min,
            actual: bytes.len(),
        });
    }
    let (kind, payload_len) = parse_header(&bytes[..HEADER_LEN], max_payload)?;
    let total = HEADER_LEN + payload_len + CHECKSUM_LEN;
    if bytes.len() < total {
        return Err(FrameError::Truncated {
            needed: total,
            actual: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(FrameError::TrailingBytes {
            remaining: bytes.len() - total,
        });
    }
    let (covered, stored, computed) = split_checksum(bytes).expect("length checked");
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, &covered[HEADER_LEN..]))
}

/// A complete, checksum-verified frame kept as its raw bytes: a server
/// decodes [`VerbatimFrame::payload`] in place, and a forwarder relays the
/// bytes to the next hop without re-encoding.
#[derive(Debug)]
pub struct VerbatimFrame {
    /// The message kind (header byte 6).
    pub kind: u8,
    /// The full frame: header, payload and trailing checksum.
    pub bytes: Vec<u8>,
}

impl VerbatimFrame {
    /// The message payload slice inside [`VerbatimFrame::bytes`].
    pub fn payload(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..self.bytes.len() - CHECKSUM_LEN]
    }
}

/// What a blocking verbatim frame read produced.
#[derive(Debug)]
pub enum VerbatimEvent {
    /// One complete, checksum-verified frame as raw bytes.
    Frame(VerbatimFrame),
    /// The peer closed the connection cleanly (EOF on a frame boundary).
    Eof,
    /// The shutdown flag was raised while waiting for bytes.
    Shutdown,
}

/// Outcome of filling a fixed-size buffer from the stream.
enum Fill {
    /// The buffer is complete.
    Done,
    /// Clean EOF before the first byte (only reported when `eof_ok`).
    Eof,
    /// The shutdown flag was raised while waiting.
    Shutdown,
}

/// Fills `buf` completely from the stream, tolerating read timeouts.
///
/// Timeouts (`WouldBlock`/`TimedOut`, produced when the socket has a read
/// timeout configured) poll the optional shutdown flag and otherwise retry,
/// so a frame that arrives in pieces across timeout windows is still
/// assembled correctly. EOF mid-buffer is an `UnexpectedEof` error.
fn read_exact_interruptible(
    stream: &mut impl Read,
    buf: &mut [u8],
    shutdown: Option<&AtomicBool>,
    eof_ok: bool,
) -> Result<Fill, WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if let Some(flag) = shutdown {
            if flag.load(Ordering::Acquire) {
                return Ok(Fill::Shutdown);
            }
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(Fill::Eof);
                }
                return Err(WireError::Io(ErrorKind::UnexpectedEof.into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(Fill::Done)
}

/// Reads one frame from a stream, blocking until it is complete, and keeps
/// the validated frame as raw bytes: a reader decodes
/// [`VerbatimFrame::payload`] in place, and a forwarder (the `ofscil_router`
/// frontend) relays the bytes to the next hop byte-identically — no payload
/// copy, no checksum recomputation.
///
/// When the socket carries a read timeout, every timeout window polls
/// `shutdown`; a raised flag yields [`VerbatimEvent::Shutdown`] so server
/// connection threads terminate promptly without abandoning a half-read
/// frame by accident.
///
/// # Errors
///
/// Returns a typed [`WireError`] for transport failures and for every way
/// the frame bytes can be wrong; never panics.
pub fn read_frame_verbatim(
    stream: &mut impl Read,
    max_payload: usize,
    shutdown: Option<&AtomicBool>,
) -> Result<VerbatimEvent, WireError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_interruptible(stream, &mut header, shutdown, true)? {
        Fill::Eof => return Ok(VerbatimEvent::Eof),
        Fill::Shutdown => return Ok(VerbatimEvent::Shutdown),
        Fill::Done => {}
    }
    let (kind, payload_len) = parse_header(&header, max_payload)?;
    let total = HEADER_LEN + payload_len + CHECKSUM_LEN;
    let mut bytes = vec![0u8; total];
    bytes[..HEADER_LEN].copy_from_slice(&header);
    match read_exact_interruptible(stream, &mut bytes[HEADER_LEN..], shutdown, false)? {
        Fill::Shutdown => return Ok(VerbatimEvent::Shutdown),
        Fill::Eof | Fill::Done => {}
    }
    let (_, stored, computed) = split_checksum(&bytes).expect("length checked");
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed }.into());
    }
    Ok(VerbatimEvent::Frame(VerbatimFrame { kind, bytes }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_bytes_and_stream() {
        let frame = frame_bytes(0x41, b"hello wire");
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(kind, 0x41);
        assert_eq!(payload, b"hello wire");

        let mut cursor = std::io::Cursor::new(frame);
        match read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None).unwrap() {
            VerbatimEvent::Frame(frame) => {
                assert_eq!(frame.kind, 0x41);
                assert_eq!(frame.payload(), b"hello wire");
            }
            _ => panic!("expected a frame"),
        }
        // The stream is now at EOF.
        match read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None).unwrap() {
            VerbatimEvent::Eof => {}
            _ => panic!("expected EOF"),
        }
    }

    #[test]
    fn verbatim_read_returns_the_exact_frame_bytes() {
        let frame = frame_bytes(0x01, b"forward me");
        let mut cursor = std::io::Cursor::new(frame.clone());
        match read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None).unwrap() {
            VerbatimEvent::Frame(verbatim) => {
                assert_eq!(verbatim.kind, 0x01);
                assert_eq!(verbatim.bytes, frame, "relay bytes must be byte-identical");
                assert_eq!(verbatim.payload(), b"forward me");
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        match read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None).unwrap() {
            VerbatimEvent::Eof => {}
            other => panic!("expected EOF, got {other:?}"),
        }
        // Corruption is still caught before the bytes are handed over.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let mut cursor = std::io::Cursor::new(bad);
        assert!(matches!(
            read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None),
            Err(WireError::Frame(FrameError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn empty_payload_frames_are_legal() {
        let frame = frame_bytes(0x03, b"");
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(kind, 0x03);
        assert!(payload.is_empty());
    }

    #[test]
    fn corruption_is_typed_never_a_panic() {
        let frame = frame_bytes(0x01, b"payload");

        let mut bad = frame.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            parse_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = frame.clone();
        bad[4] = 0x7f;
        assert!(matches!(
            parse_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::UnsupportedVersion(_))
        ));

        let mut bad = frame.clone();
        bad[7] = 1;
        assert!(matches!(
            parse_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadReserved(1))
        ));

        let mut bad = frame.clone();
        bad[HEADER_LEN] ^= 0x10;
        assert!(matches!(
            parse_frame(&bad, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            parse_frame(&frame[..frame.len() - 1], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            parse_frame(&frame[..3], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Truncated { .. })
        ));

        let mut extended = frame.clone();
        extended.push(0);
        assert!(matches!(
            parse_frame(&extended, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::TrailingBytes { remaining: 1 })
        ));

        // A hostile declared length is refused before allocation.
        assert!(matches!(
            parse_frame(&frame, 3),
            Err(FrameError::Oversize {
                declared: 7,
                max: 3
            })
        ));
    }

    #[test]
    fn stream_reader_rejects_hostile_lengths_without_allocating() {
        let mut frame = frame_bytes(0x01, b"x");
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None),
            Err(WireError::Frame(FrameError::Oversize { .. }))
        ));
    }

    #[test]
    fn stream_reader_flags_mid_frame_eof() {
        let frame = frame_bytes(0x01, b"payload");
        let mut cursor = std::io::Cursor::new(frame[..frame.len() - 2].to_vec());
        assert!(matches!(
            read_frame_verbatim(&mut cursor, DEFAULT_MAX_PAYLOAD, None),
            Err(WireError::Io(_))
        ));
    }
}
