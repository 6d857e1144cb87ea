//! The socket client: the cross-process counterpart of
//! [`ServeClient`](ofscil_serve::ServeClient).

use crate::codec::{decode_response, encode_request, ReplEvent, WireRequest, WireResponse};
use crate::error::WireError;
use crate::frame::{read_frame_verbatim, VerbatimEvent, DEFAULT_MAX_PAYLOAD};
use crate::net::{BoundAddr, WireStream};
use ofscil_obs::{ObsCursor, ObsQuery, ObsResult, TailBatch};
use ofscil_serve::{DeploymentExport, ServeRequest, ServeResponse};
use std::io::Write;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// A blocking connection to a [`WireServer`](crate::WireServer).
///
/// Mirrors the in-process [`ServeClient`](ofscil_serve::ServeClient) API:
/// [`WireClient::call`] takes the same [`ServeRequest`] and returns the same
/// [`ServeResponse`] / [`ServeError`](ofscil_serve::ServeError) pair, with
/// the serve error arriving typed through
/// [`WireError::Remote`]. One connection carries one request at a time
/// (strict request/response alternation); open one connection per client
/// thread, exactly as you would clone a `ServeClient`.
#[derive(Debug)]
pub struct WireClient {
    stream: WireStream,
}

impl WireClient {
    /// Connects to a server's bound address (either socket family).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the connection cannot be established.
    pub fn connect(addr: &BoundAddr) -> Result<Self, WireError> {
        Ok(WireClient {
            stream: WireStream::connect(addr)?,
        })
    }

    /// Applies a socket read timeout. With a timeout set, a replication
    /// stream obtained from [`WireClient::subscribe`] polls its stop flag
    /// between timeout windows.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the socket rejects the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Submits one request and blocks for the response — the wire mirror of
    /// [`ServeClient::call`](ofscil_serve::ServeClient::call).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] carrying the server-side
    /// [`ServeError`](ofscil_serve::ServeError) when the request was
    /// rejected or failed, and a transport/codec error when the connection
    /// itself broke.
    pub fn call(&mut self, request: ServeRequest) -> Result<ServeResponse, WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::Serve(request)))?;
        self.stream.flush()?;
        match self.read_response(None)? {
            Some(WireResponse::Serve(response)) => Ok(response),
            Some(WireResponse::Error(error)) => Err(WireError::Remote(error)),
            Some(other) => Err(WireError::Protocol(format!(
                "server sent an out-of-band response to a serve request: {other:?}"
            ))),
            None => Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        }
    }

    /// Reads a deployment's migratable state off the peer — the source half
    /// of a live migration.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] for server-side refusals (unknown
    /// deployment) and a transport/codec error when the connection broke.
    pub fn export(&mut self, deployment: &str) -> Result<DeploymentExport, WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::Export {
                deployment: deployment.to_string(),
            }))?;
        self.stream.flush()?;
        match self.read_response(None)? {
            Some(WireResponse::Export(export)) => Ok(export),
            Some(WireResponse::Error(error)) => Err(WireError::Remote(error)),
            Some(other) => Err(WireError::Protocol(format!(
                "server answered an export with {other:?}"
            ))),
            None => Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        }
    }

    /// Installs a deployment's exported state on the peer bit-exactly — the
    /// target half of a live migration. Returns the restored class count.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] for server-side refusals (unknown
    /// deployment, dimension mismatch, read-only replica) and a
    /// transport/codec error when the connection broke.
    pub fn import(&mut self, export: &DeploymentExport) -> Result<u64, WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::Import(export.clone())))?;
        self.stream.flush()?;
        match self.read_response(None)? {
            Some(WireResponse::Imported { classes }) => Ok(classes),
            Some(WireResponse::Error(error)) => Err(WireError::Remote(error)),
            Some(other) => Err(WireError::Protocol(format!(
                "server answered an import with {other:?}"
            ))),
            None => Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        }
    }

    /// Writes one pre-encoded request frame and reads back the complete raw
    /// response frame without interpreting or re-encoding either — the
    /// forwarding hook a routing frontend uses to proxy a client's frame to
    /// the owning shard and relay the shard's answer byte-identically.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the connection broke and a frame error
    /// when the response envelope is corrupt. Remote serve errors are *not*
    /// surfaced here — they stay inside the returned frame for the original
    /// client to decode.
    pub fn forward_frame(&mut self, frame: &[u8]) -> Result<Vec<u8>, WireError> {
        self.stream.write_all(frame)?;
        self.stream.flush()?;
        match read_frame_verbatim(&mut self.stream, DEFAULT_MAX_PAYLOAD, None)? {
            VerbatimEvent::Frame(reply) => Ok(reply.bytes),
            VerbatimEvent::Eof | VerbatimEvent::Shutdown => {
                Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into()))
            }
        }
    }

    /// Runs an observability range query against the peer's event store.
    /// Sent to a single server this scans that server's timeline; sent to a
    /// router it is scatter-gathered across every shard and the merged,
    /// time-ordered result comes back — one call reconstructing a tenant's
    /// trajectory even across a live migration.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] when the peer has observability
    /// disabled (a typed `InvalidRequest`) and a transport/codec error when
    /// the connection broke.
    pub fn obs_query(&mut self, query: &ObsQuery) -> Result<ObsResult, WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::ObsQuery(query.clone())))?;
        self.stream.flush()?;
        match self.read_response(None)? {
            Some(WireResponse::Obs(result)) => Ok(*result),
            Some(WireResponse::Error(error)) => Err(WireError::Remote(error)),
            Some(other) => Err(WireError::Protocol(format!(
                "server answered an obs query with {other:?}"
            ))),
            None => Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        }
    }

    /// Announces a follower to a routing frontend as a promotion candidate:
    /// `upstream` is the shard address the follower replicates, `follower`
    /// the address it listens on. Returns how many followers the router now
    /// has registered for that shard.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] when the peer is a plain shard (a typed
    /// `InvalidRequest` — advertisement is a router operation) or does not
    /// know the upstream address, and a transport/codec error when the
    /// connection broke.
    pub(crate) fn advertise_follower(
        &mut self,
        upstream: &str,
        follower: &str,
    ) -> Result<u64, WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::AdvertiseFollower {
                upstream: upstream.to_string(),
                follower: follower.to_string(),
            }))?;
        self.stream.flush()?;
        match self.read_response(None)? {
            Some(WireResponse::Advertised { registered }) => Ok(registered),
            Some(WireResponse::Error(error)) => Err(WireError::Remote(error)),
            Some(other) => Err(WireError::Protocol(format!(
                "server answered a follower advertisement with {other:?}"
            ))),
            None => Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        }
    }

    /// Fetches a fresh full-snapshot anchor `(seq, snapshot-codec bytes)`
    /// for one deployment. A durably-backed server answers straight from its
    /// store's latest checkpoint (plus the compacted WAL tail) without
    /// touching the deployment's model lock; a store-less server falls back
    /// to a live snapshot. The cheap re-anchor path for far-behind
    /// subscribers and backup jobs.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] for server-side refusals (unknown
    /// deployment) and a transport/codec error when the connection broke.
    pub fn re_anchor(&mut self, deployment: &str) -> Result<(u64, Vec<u8>), WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::ReAnchor {
                deployment: deployment.to_string(),
            }))?;
        self.stream.flush()?;
        match self.read_response(None)? {
            Some(WireResponse::Repl(ReplEvent::Full { seq, snapshot })) => Ok((seq, snapshot)),
            Some(WireResponse::Error(error)) => Err(WireError::Remote(error)),
            Some(other) => Err(WireError::Protocol(format!(
                "server answered a re-anchor with {other:?}"
            ))),
            None => Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        }
    }

    /// Switches the connection into replication streaming for one
    /// deployment. The server answers with a full-snapshot anchor followed
    /// by sequence-numbered deltas; iterate them with
    /// [`ReplicationStream::next_event`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the subscription cannot be written.
    pub fn subscribe(mut self, deployment: &str) -> Result<ReplicationStream, WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::Subscribe {
                deployment: deployment.to_string(),
            }))?;
        self.stream.flush()?;
        Ok(ReplicationStream {
            stream: self.stream,
        })
    }

    /// Switches the connection into **live-tail streaming** on the peer's
    /// observability store. The server answers with the cursor-ranged
    /// back-fill (batches flagged `backfill`), then streams live batches;
    /// iterate them with [`ObsTailStream::next_batch`]. Pass the cursor from
    /// the last consumed batch to resume a broken subscription with no gaps
    /// and no duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the subscription cannot be written.
    pub fn obs_subscribe(
        mut self,
        query: &ObsQuery,
        cursor: Option<ObsCursor>,
    ) -> Result<ObsTailStream, WireError> {
        self.stream
            .write_all(&encode_request(&WireRequest::ObsSubscribe {
                query: query.clone(),
                cursor,
            }))?;
        self.stream.flush()?;
        Ok(ObsTailStream {
            stream: self.stream,
        })
    }

    fn read_response(
        &mut self,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<WireResponse>, WireError> {
        match read_frame_verbatim(&mut self.stream, DEFAULT_MAX_PAYLOAD, stop)? {
            VerbatimEvent::Frame(frame) => Ok(Some(decode_response(frame.kind, frame.payload())?)),
            VerbatimEvent::Eof | VerbatimEvent::Shutdown => Ok(None),
        }
    }
}

/// The receive side of a replication subscription.
#[derive(Debug)]
pub struct ReplicationStream {
    stream: WireStream,
}

impl ReplicationStream {
    /// Blocks for the next replication event. Returns `Ok(None)` when the
    /// server closed the stream, or — if the underlying socket carries a
    /// read timeout (see [`WireClient::set_read_timeout`]) — when `stop` was
    /// raised while waiting.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] when the server answered the
    /// subscription with an error (e.g. an unknown deployment), and a
    /// transport/codec error when the connection broke.
    pub fn next_event(
        &mut self,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<ReplEvent>, WireError> {
        match read_frame_verbatim(&mut self.stream, DEFAULT_MAX_PAYLOAD, stop)? {
            VerbatimEvent::Eof | VerbatimEvent::Shutdown => Ok(None),
            VerbatimEvent::Frame(frame) => match decode_response(frame.kind, frame.payload())? {
                WireResponse::Repl(event) => Ok(Some(event)),
                WireResponse::Error(error) => Err(WireError::Remote(error)),
                other => Err(WireError::Protocol(format!(
                    "server sent a request response on a replication stream: {other:?}"
                ))),
            },
        }
    }
}

/// The receive side of a live-tail subscription
/// (see [`WireClient::obs_subscribe`]).
#[derive(Debug)]
pub struct ObsTailStream {
    stream: WireStream,
}

impl ObsTailStream {
    /// Blocks for the next tail batch. Returns `Ok(None)` when the server
    /// closed the stream, or — if the underlying socket carries a read
    /// timeout (see [`WireClient::set_read_timeout`]) — when `stop` was
    /// raised while waiting.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Remote`] when the server answered the
    /// subscription with a typed error (e.g. observability disabled), and a
    /// transport/codec error when the connection broke.
    pub fn next_batch(
        &mut self,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<TailBatch>, WireError> {
        match read_frame_verbatim(&mut self.stream, DEFAULT_MAX_PAYLOAD, stop)? {
            VerbatimEvent::Eof | VerbatimEvent::Shutdown => Ok(None),
            VerbatimEvent::Frame(frame) => match decode_response(frame.kind, frame.payload())? {
                WireResponse::Tail(batch) => Ok(Some(batch)),
                WireResponse::Error(error) => Err(WireError::Remote(error)),
                other => Err(WireError::Protocol(format!(
                    "server sent a request response on a tail stream: {other:?}"
                ))),
            },
        }
    }
}
