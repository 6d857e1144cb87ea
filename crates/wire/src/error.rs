//! Error types of the wire subsystem.
//!
//! Decoding malformed bytes must *never* panic: every way a frame or payload
//! can be wrong has a typed variant here, and the corruption property suite
//! (`tests/wire_codec.rs`) drives random damage through the decoders to hold
//! that line.

use ofscil_serve::ServeError;
use std::error::Error;
use std::fmt;
use std::io;

/// Failure at the frame layer: the outer length-prefixed, checksummed
/// envelope could not be parsed. A frame error on a live connection means
/// the byte stream can no longer be trusted and the connection is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed header + checksum.
    Truncated {
        /// Bytes needed to make progress.
        needed: usize,
        /// Bytes actually available.
        actual: usize,
    },
    /// The magic bytes do not identify a wire frame.
    BadMagic([u8; 4]),
    /// The frame version is not understood by this decoder.
    UnsupportedVersion(u16),
    /// The declared payload length exceeds the configured maximum. Checked
    /// before any allocation, so a hostile length cannot balloon memory.
    Oversize {
        /// Payload length the header declares.
        declared: usize,
        /// Configured maximum payload length.
        max: usize,
    },
    /// The reserved header byte is not zero.
    BadReserved(u8),
    /// The checksum over header + payload does not match the stored one.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum recomputed over the frame.
        computed: u32,
    },
    /// The buffer holds more bytes than the single frame it should contain.
    TrailingBytes {
        /// Extra bytes after the frame.
        remaining: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, actual } => {
                write!(f, "frame truncated: {actual} bytes, need at least {needed}")
            }
            FrameError::BadMagic(magic) => write!(f, "bad frame magic {magic:?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::Oversize { declared, max } => {
                write!(f, "frame declares {declared} payload bytes, limit is {max}")
            }
            FrameError::BadReserved(b) => write!(f, "reserved frame byte is {b:#04x}, not zero"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum {stored:#010x} does not match computed {computed:#010x}"
            ),
            FrameError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unexpected bytes after the frame")
            }
        }
    }
}

impl Error for FrameError {}

/// Failure at the message layer: the frame was intact but its payload does
/// not decode into a message. The framing is still synchronized, so a server
/// can answer with a typed error and keep the connection. This is the
/// workspace byte codec's error type — the wire, the WAL and the spill log
/// all decode through the same [`Reader`](ofscil_tensor::bytes::Reader).
pub use ofscil_tensor::bytes::DecodeError as PayloadError;

/// Error of the wire subsystem: transport, codec, protocol and remote
/// failures.
#[derive(Debug)]
pub enum WireError {
    /// A socket operation failed.
    Io(io::Error),
    /// The outer frame envelope could not be parsed (stream desynchronized).
    Frame(FrameError),
    /// A frame's payload could not be decoded into a message.
    Payload(PayloadError),
    /// The peer answered with a serve-side error. This is the remote
    /// counterpart of the [`ServeError`] an in-process
    /// [`ServeClient`](ofscil_serve::ServeClient) call returns.
    Remote(ServeError),
    /// The local serving runtime refused (e.g. invalid configuration).
    Runtime(ServeError),
    /// The peer sent a message that is valid on its own but wrong for the
    /// protocol state (e.g. a replication event as a request reply).
    Protocol(String),
    /// A replication stream skipped a sequence number; the follower's state
    /// can no longer be proven bit-exact and must resync from a full
    /// snapshot.
    ReplicationGap {
        /// Deployment whose stream gapped.
        deployment: String,
        /// Sequence number the follower expected next.
        expected: u64,
        /// Sequence number that actually arrived.
        got: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Frame(e) => write!(f, "frame error: {e}"),
            WireError::Payload(e) => write!(f, "payload error: {e}"),
            WireError::Remote(e) => write!(f, "remote error: {e}"),
            WireError::Runtime(e) => write!(f, "local runtime error: {e}"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            WireError::ReplicationGap {
                deployment,
                expected,
                got,
            } => write!(
                f,
                "replication stream for {deployment:?} gapped: expected seq {expected}, got {got}"
            ),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Frame(e) => Some(e),
            WireError::Payload(e) => Some(e),
            WireError::Remote(e) | WireError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<PayloadError> for WireError {
    fn from(e: PayloadError) -> Self {
        WireError::Payload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = WireError::Frame(FrameError::BadMagic(*b"NOPE"));
        assert!(e.to_string().contains("magic"));
        assert!(e.source().is_some());
        let e = WireError::Payload(PayloadError::UnknownKind(0xff));
        assert!(e.to_string().contains("0xff"));
        let e = WireError::Remote(ServeError::ShuttingDown);
        assert!(e.source().is_some());
        let e = WireError::ReplicationGap {
            deployment: "t".into(),
            expected: 4,
            got: 9,
        };
        assert!(e.to_string().contains("expected seq 4"));
        assert!(e.source().is_none());
        let e = WireError::Payload(PayloadError::LengthOverflow {
            field: "labels",
            declared: 9,
        });
        assert!(e.to_string().contains("labels"));
    }
}
