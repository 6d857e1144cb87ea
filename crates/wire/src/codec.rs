//! Message bodies: the typed serve API and the replication stream on bytes.
//!
//! One frame carries one message; the frame's kind byte selects the decoder.
//! This module is the kind table and the per-variant field order only: every
//! value type encodes itself beside its definition (`Tensor` in
//! `ofscil_tensor`, events and queries in `ofscil_obs`, prototypes, stats,
//! exports and errors in `ofscil_serve`) on the workspace's one byte codec,
//! [`ofscil_tensor::bytes`] — little-endian scalars, floats as exact IEEE-754
//! bits (a prototype that crosses the wire classifies identically on both
//! sides), length-prefixed strings, declared counts proved against the
//! remaining payload *before* allocating.
//!
//! ```text
//! kind   message
//! 0x01   Request  Infer        deployment, image tensor
//! 0x02   Request  LearnOnline  deployment, support batch
//! 0x03   Request  Snapshot     deployment
//! 0x04   Request  Stats        deployment
//! 0x05   Request  TopUpBudget  deployment, f64 mJ
//! 0x06   Request  Subscribe    deployment          (switches to streaming)
//! 0x07   Request  Export       deployment          (migration source)
//! 0x08   Request  Import       deployment, seq, snapshot (migration target)
//! 0x09   Request  ReAnchor     deployment          (checkpoint-served Full)
//! 0x0A   Request  ObsQuery     deployment, windows, kind mask, limit, resolution (scatter)
//! 0x0C   Request  ObsSubscribe obs query filter + optional resume cursor (streaming)
//! 0x41   Response Prediction   class, similarity, batched_with
//! 0x42   Response Learned      classes, total
//! 0x43   Response Snapshot     opaque snapshot-codec bytes
//! 0x44   Response Stats        full DeploymentStats
//! 0x45   Response Budget       spent, remaining
//! 0x46   Response Error        typed ServeError
//! 0x47   Response Export       seq, snapshot bytes
//! 0x48   Response Imported     restored class count
//! 0x49   Response Obs          events, aggregates, completeness counters, latency histogram
//! 0x61   Repl     Full         seq, snapshot bytes
//! 0x62   Repl     Delta        seq, total classes, (class, prototype) pairs
//! 0x63   Tail     Batch        flags, cursor, dropped, events, rollups
//! ```
//!
//! Every request payload leads with its deployment name, which is what lets
//! a router *peek* the routing key ([`peek_request`]) and forward the frame
//! bytes untouched instead of decoding image tensors it does not need.

use crate::error::PayloadError;
use crate::frame::frame_bytes;
use ofscil_data::Batch;
use ofscil_obs::{ObsCursor, ObsQuery, ObsResult, TailBatch};
use ofscil_serve::{
    decode_budget, decode_prototypes, encode_budget, encode_prototypes, DeploymentExport,
    DeploymentStats, ServeError, ServeRequest, ServeResponse,
};
use ofscil_tensor::bytes::{
    decode_exact, put_bytes, put_f32, put_f64, put_str, put_u32, put_u64, Reader,
};
use ofscil_tensor::Tensor;

// Message kind bytes. Requests live below 0x40, responses in 0x41..0x60,
// replication stream events in 0x61+.
const KIND_REQ_INFER: u8 = 0x01;
const KIND_REQ_LEARN: u8 = 0x02;
const KIND_REQ_SNAPSHOT: u8 = 0x03;
const KIND_REQ_STATS: u8 = 0x04;
const KIND_REQ_TOP_UP: u8 = 0x05;
const KIND_REQ_SUBSCRIBE: u8 = 0x06;
const KIND_REQ_EXPORT: u8 = 0x07;
const KIND_REQ_IMPORT: u8 = 0x08;
const KIND_REQ_REANCHOR: u8 = 0x09;
const KIND_REQ_OBS_QUERY: u8 = 0x0A;
const KIND_REQ_ADVERTISE: u8 = 0x0B;
const KIND_REQ_OBS_SUBSCRIBE: u8 = 0x0C;
const KIND_RESP_PREDICTION: u8 = 0x41;
const KIND_RESP_LEARNED: u8 = 0x42;
const KIND_RESP_SNAPSHOT: u8 = 0x43;
const KIND_RESP_STATS: u8 = 0x44;
const KIND_RESP_BUDGET: u8 = 0x45;
const KIND_RESP_ERROR: u8 = 0x46;
const KIND_RESP_EXPORT: u8 = 0x47;
const KIND_RESP_IMPORTED: u8 = 0x48;
const KIND_RESP_OBS: u8 = 0x49;
const KIND_RESP_ADVERTISED: u8 = 0x4A;
const KIND_REPL_FULL: u8 = 0x61;
const KIND_REPL_DELTA: u8 = 0x62;
const KIND_OBS_BATCH: u8 = 0x63;

/// A request as it travels over a wire connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// A serve-API request, dispatched into the remote runtime.
    Serve(ServeRequest),
    /// Subscribe to a deployment's replication stream. The server answers
    /// with one [`ReplEvent::Full`] and then streams [`ReplEvent::Delta`]s
    /// until the connection closes; no further requests are accepted on the
    /// connection.
    Subscribe {
        /// Deployment whose snapshot stream to tail.
        deployment: String,
    },
    /// Export a deployment's migratable state (snapshot + replication
    /// sequence number) — what a router reads off the source shard of a live
    /// migration. Answered with [`WireResponse::Export`].
    Export {
        /// Deployment to export.
        deployment: String,
    },
    /// Install an exported deployment state bit-exactly — what a router
    /// writes to the target shard of a live migration. Rejected with
    /// [`ServeError::ReadOnlyReplica`] on replicas. Answered with
    /// [`WireResponse::Imported`].
    Import(DeploymentExport),
    /// Fetch a fresh full-snapshot anchor for one deployment, served
    /// **straight from the store's latest checkpoint** when the server runs
    /// durably (no model lock, cost bounded by live classes) and from a live
    /// snapshot otherwise. Answered with a single [`ReplEvent::Full`] — the
    /// cheap way for a far-behind subscriber (or a backup job) to re-anchor
    /// without the expense of a full resubscribe.
    ReAnchor {
        /// Deployment whose anchor to fetch.
        deployment: String,
    },
    /// Scan the server's observability store: a range query over the event
    /// timeline by deployment, time window, sequence window and kind mask.
    /// Answered with [`WireResponse::Obs`]. The one request a router
    /// **scatter-gathers** to every shard (see [`RequestPeek::scatter`])
    /// instead of forwarding to a single owner — a migrated tenant's history
    /// lives on both its old and new shard.
    ObsQuery(ObsQuery),
    /// Register a **live tail** on the server's observability store. The
    /// server answers with the cursor-ranged back-fill as one or more
    /// [`WireResponse::Tail`] batches (`backfill` set), then streams live
    /// batches on the persistent connection until it closes — the streaming
    /// counterpart of [`WireRequest::ObsQuery`], same filter semantics.
    ObsSubscribe {
        /// Row filter: deployment, windows, kind mask, limit (bounds the
        /// back-fill), resolution (rollup cells for GC'd back-fill spans).
        query: ObsQuery,
        /// Resume position: back-fill delivers rows strictly after this.
        /// `None` back-fills from the beginning of retained history.
        cursor: Option<ObsCursor>,
    },
    /// A follower announcing itself to the cluster front door as a promotion
    /// candidate for the shard at `upstream`. Routers record the mapping in
    /// their follower registry (the control plane reads it to pick a
    /// `PromoteFollower` target); a plain shard answers with a typed error —
    /// advertisement is a router operation. Answered with
    /// [`WireResponse::Advertised`].
    AdvertiseFollower {
        /// Address of the primary the follower replicates (`host:port` or
        /// unix path) — the routing key, matched against the router's shard
        /// table.
        upstream: String,
        /// Address the follower itself listens on.
        follower: String,
    },
}

/// A response as it travels over a wire connection.
#[derive(Debug)]
pub enum WireResponse {
    /// A successful serve-API response.
    Serve(ServeResponse),
    /// The serve-side error of a failed request, typed end to end.
    Error(ServeError),
    /// One event of a replication stream.
    Repl(ReplEvent),
    /// Answer to [`WireRequest::Export`]: the deployment's migratable state.
    Export(DeploymentExport),
    /// Answer to [`WireRequest::Import`]: number of restored classes.
    Imported {
        /// Classes stored after the import.
        classes: u64,
    },
    /// Answer to [`WireRequest::ObsQuery`]: matching events plus aggregates
    /// and completeness counters, from one shard or merged across a cluster.
    /// Boxed: the result (histogram included) dwarfs every other variant.
    Obs(Box<ObsResult>),
    /// Answer to [`WireRequest::AdvertiseFollower`]: how many followers the
    /// router now has registered for the advertised upstream shard.
    Advertised {
        /// Followers registered for the shard after this advertisement.
        registered: u64,
    },
    /// One batch of a live tail stream (answering
    /// [`WireRequest::ObsSubscribe`]): back-fill first, then live rows,
    /// each batch carrying the resume cursor to reconnect from.
    Tail(TailBatch),
}

/// One event on a deployment's snapshot-replication stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplEvent {
    /// The stream anchor: a full explicit-memory snapshot (snapshot-codec
    /// bytes) that already contains every commit with sequence number
    /// `<= seq`.
    Full {
        /// Replication sequence number the snapshot was taken at.
        seq: u64,
        /// `ofscil_serve::snapshot` codec bytes.
        snapshot: Vec<u8>,
    },
    /// One committed `LearnOnline`: the post-commit prototypes of the classes
    /// the batch touched, to be stored verbatim via `restore_prototype`.
    Delta {
        /// Commit sequence number (consecutive per deployment).
        seq: u64,
        /// Total classes stored after the commit.
        total_classes: u64,
        /// `(class, stored prototype)` pairs, ascending by class.
        updates: Vec<(u64, Vec<f32>)>,
    },
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encodes a request into one complete frame.
pub fn encode_request(request: &WireRequest) -> Vec<u8> {
    let mut payload = Vec::new();
    let kind = match request {
        WireRequest::Serve(ServeRequest::Infer { deployment, image }) => {
            put_str(&mut payload, deployment);
            image.encode(&mut payload);
            KIND_REQ_INFER
        }
        WireRequest::Serve(ServeRequest::LearnOnline { deployment, batch }) => {
            put_str(&mut payload, deployment);
            batch.images.encode(&mut payload);
            put_u32(&mut payload, batch.labels.len() as u32);
            for &label in &batch.labels {
                put_u64(&mut payload, label as u64);
            }
            KIND_REQ_LEARN
        }
        WireRequest::Serve(ServeRequest::Snapshot { deployment }) => {
            put_str(&mut payload, deployment);
            KIND_REQ_SNAPSHOT
        }
        WireRequest::Serve(ServeRequest::Stats { deployment }) => {
            put_str(&mut payload, deployment);
            KIND_REQ_STATS
        }
        WireRequest::Serve(ServeRequest::TopUpBudget {
            deployment,
            energy_mj,
        }) => {
            put_str(&mut payload, deployment);
            put_f64(&mut payload, *energy_mj);
            KIND_REQ_TOP_UP
        }
        WireRequest::Subscribe { deployment } => {
            put_str(&mut payload, deployment);
            KIND_REQ_SUBSCRIBE
        }
        WireRequest::Export { deployment } => {
            put_str(&mut payload, deployment);
            KIND_REQ_EXPORT
        }
        WireRequest::Import(export) => {
            export.encode(&mut payload);
            KIND_REQ_IMPORT
        }
        WireRequest::ReAnchor { deployment } => {
            put_str(&mut payload, deployment);
            KIND_REQ_REANCHOR
        }
        WireRequest::ObsQuery(query) => {
            query.encode(&mut payload);
            KIND_REQ_OBS_QUERY
        }
        WireRequest::ObsSubscribe { query, cursor } => {
            query.encode(&mut payload);
            payload.push(u8::from(cursor.is_some()));
            if let Some(cursor) = cursor {
                cursor.encode(&mut payload);
            }
            KIND_REQ_OBS_SUBSCRIBE
        }
        WireRequest::AdvertiseFollower { upstream, follower } => {
            put_str(&mut payload, upstream);
            put_str(&mut payload, follower);
            KIND_REQ_ADVERTISE
        }
    };
    frame_bytes(kind, &payload)
}

/// What [`peek_request`] saw in a request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestPeek {
    /// The deployment the request targets — the routing key.
    pub deployment: String,
    /// `true` for `Subscribe` and `ObsSubscribe`: the reply is an open-ended
    /// stream on the persistent connection, not a single response frame.
    pub streaming: bool,
    /// `true` for state-mutating requests (`LearnOnline`, `TopUpBudget`,
    /// `Import`). A forwarder must not replay these on a fresh connection
    /// after an ambiguous failure — the shard may have applied the request
    /// even though the response never arrived.
    pub write: bool,
    /// `true` for `ObsQuery`: the answer lives on *every* shard (a migrated
    /// deployment's history spans its old and new home), so a router must
    /// scatter the request to the whole cluster and merge the results rather
    /// than forward to the ring owner.
    pub scatter: bool,
    /// `true` for `AdvertiseFollower`: the request is addressed to the
    /// routing frontend itself (its "deployment" is the upstream shard
    /// address), so a router answers it from its follower registry instead
    /// of forwarding it anywhere.
    pub advertise: bool,
    /// `true` for `ObsSubscribe`: a streaming **and** scatter-shaped request
    /// — a router opens per-shard tails and merges them into one stream
    /// instead of forwarding to a single owner.
    pub obs_tail: bool,
}

/// Reads a request frame's routing key (the leading deployment string)
/// without decoding the rest of the payload, so a router can pick the owning
/// shard and forward the frame bytes verbatim — an `Infer` image tensor is
/// never deserialized on the routing hop.
///
/// # Errors
///
/// Returns a typed [`PayloadError`] for unknown request kinds and malformed
/// deployment strings; never panics.
pub fn peek_request(kind: u8, payload: &[u8]) -> Result<RequestPeek, PayloadError> {
    match kind {
        KIND_REQ_INFER
        | KIND_REQ_LEARN
        | KIND_REQ_SNAPSHOT
        | KIND_REQ_STATS
        | KIND_REQ_TOP_UP
        | KIND_REQ_SUBSCRIBE
        | KIND_REQ_EXPORT
        | KIND_REQ_IMPORT
        | KIND_REQ_REANCHOR
        | KIND_REQ_OBS_QUERY
        | KIND_REQ_ADVERTISE
        | KIND_REQ_OBS_SUBSCRIBE => Ok(RequestPeek {
            deployment: Reader::new(payload).str()?,
            streaming: matches!(kind, KIND_REQ_SUBSCRIBE | KIND_REQ_OBS_SUBSCRIBE),
            write: matches!(kind, KIND_REQ_LEARN | KIND_REQ_TOP_UP | KIND_REQ_IMPORT),
            scatter: kind == KIND_REQ_OBS_QUERY,
            advertise: kind == KIND_REQ_ADVERTISE,
            obs_tail: kind == KIND_REQ_OBS_SUBSCRIBE,
        }),
        other => Err(PayloadError::UnknownKind(other)),
    }
}

/// Decodes a request message from a frame's kind byte and payload.
///
/// # Errors
///
/// Returns a typed [`PayloadError`] for unknown kinds and malformed bodies;
/// never panics.
pub fn decode_request(kind: u8, payload: &[u8]) -> Result<WireRequest, PayloadError> {
    decode_exact(payload, |r| {
        Ok(match kind {
            KIND_REQ_INFER => WireRequest::Serve(ServeRequest::Infer {
                deployment: r.str()?,
                image: Tensor::decode(r)?,
            }),
            KIND_REQ_LEARN => WireRequest::Serve(ServeRequest::LearnOnline {
                deployment: r.str()?,
                batch: Batch {
                    images: Tensor::decode(r)?,
                    labels: r.list("labels", 8, |r| r.usize("label"))?,
                },
            }),
            KIND_REQ_SNAPSHOT => WireRequest::Serve(ServeRequest::Snapshot {
                deployment: r.str()?,
            }),
            KIND_REQ_STATS => WireRequest::Serve(ServeRequest::Stats {
                deployment: r.str()?,
            }),
            KIND_REQ_TOP_UP => WireRequest::Serve(ServeRequest::TopUpBudget {
                deployment: r.str()?,
                energy_mj: r.f64()?,
            }),
            KIND_REQ_SUBSCRIBE => WireRequest::Subscribe {
                deployment: r.str()?,
            },
            KIND_REQ_EXPORT => WireRequest::Export {
                deployment: r.str()?,
            },
            KIND_REQ_IMPORT => WireRequest::Import(DeploymentExport::decode(r)?),
            KIND_REQ_REANCHOR => WireRequest::ReAnchor {
                deployment: r.str()?,
            },
            KIND_REQ_OBS_QUERY => WireRequest::ObsQuery(ObsQuery::decode(r)?),
            KIND_REQ_OBS_SUBSCRIBE => WireRequest::ObsSubscribe {
                query: ObsQuery::decode(r)?,
                cursor: if r.flag("obs cursor")? {
                    Some(ObsCursor::decode(r)?)
                } else {
                    None
                },
            },
            KIND_REQ_ADVERTISE => WireRequest::AdvertiseFollower {
                upstream: r.str()?,
                follower: r.str()?,
            },
            other => return Err(PayloadError::UnknownKind(other)),
        })
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Encodes a response into one complete frame.
pub fn encode_response(response: &WireResponse) -> Vec<u8> {
    let mut payload = Vec::new();
    let kind = match response {
        WireResponse::Serve(ServeResponse::Prediction {
            class,
            similarity,
            batched_with,
        }) => {
            put_u64(&mut payload, *class as u64);
            put_f32(&mut payload, *similarity);
            put_u64(&mut payload, *batched_with as u64);
            KIND_RESP_PREDICTION
        }
        WireResponse::Serve(ServeResponse::Learned {
            classes,
            total_classes,
        }) => {
            put_u32(&mut payload, classes.len() as u32);
            for &class in classes {
                put_u64(&mut payload, class as u64);
            }
            put_u64(&mut payload, *total_classes as u64);
            KIND_RESP_LEARNED
        }
        WireResponse::Serve(ServeResponse::Snapshot { bytes }) => {
            put_bytes(&mut payload, bytes);
            KIND_RESP_SNAPSHOT
        }
        WireResponse::Serve(ServeResponse::Stats(stats)) => {
            stats.encode(&mut payload);
            KIND_RESP_STATS
        }
        WireResponse::Serve(ServeResponse::Budget {
            spent_mj,
            remaining_mj,
        }) => {
            put_f64(&mut payload, *spent_mj);
            encode_budget(*remaining_mj, &mut payload);
            KIND_RESP_BUDGET
        }
        WireResponse::Error(error) => {
            error.encode(&mut payload);
            KIND_RESP_ERROR
        }
        WireResponse::Repl(ReplEvent::Full { seq, snapshot }) => {
            put_u64(&mut payload, *seq);
            put_bytes(&mut payload, snapshot);
            KIND_REPL_FULL
        }
        WireResponse::Repl(ReplEvent::Delta {
            seq,
            total_classes,
            updates,
        }) => {
            put_u64(&mut payload, *seq);
            put_u64(&mut payload, *total_classes);
            encode_prototypes(updates, &mut payload);
            KIND_REPL_DELTA
        }
        WireResponse::Export(export) => {
            export.encode(&mut payload);
            KIND_RESP_EXPORT
        }
        WireResponse::Imported { classes } => {
            put_u64(&mut payload, *classes);
            KIND_RESP_IMPORTED
        }
        WireResponse::Advertised { registered } => {
            put_u64(&mut payload, *registered);
            KIND_RESP_ADVERTISED
        }
        WireResponse::Obs(result) => {
            result.encode(&mut payload);
            KIND_RESP_OBS
        }
        WireResponse::Tail(batch) => {
            batch.encode(&mut payload);
            KIND_OBS_BATCH
        }
    };
    frame_bytes(kind, &payload)
}

/// Decodes a response message from a frame's kind byte and payload.
///
/// # Errors
///
/// Returns a typed [`PayloadError`] for unknown kinds and malformed bodies;
/// never panics.
pub fn decode_response(kind: u8, payload: &[u8]) -> Result<WireResponse, PayloadError> {
    decode_exact(payload, |r| {
        Ok(match kind {
            KIND_RESP_PREDICTION => WireResponse::Serve(ServeResponse::Prediction {
                class: r.usize("class")?,
                similarity: r.f32()?,
                batched_with: r.usize("batched_with")?,
            }),
            KIND_RESP_LEARNED => WireResponse::Serve(ServeResponse::Learned {
                classes: r.list("classes", 8, |r| r.usize("class"))?,
                total_classes: r.usize("total_classes")?,
            }),
            KIND_RESP_SNAPSHOT => WireResponse::Serve(ServeResponse::Snapshot {
                bytes: r.bytes("snapshot")?,
            }),
            KIND_RESP_STATS => {
                WireResponse::Serve(ServeResponse::Stats(DeploymentStats::decode(r)?))
            }
            KIND_RESP_BUDGET => WireResponse::Serve(ServeResponse::Budget {
                spent_mj: r.f64()?,
                remaining_mj: decode_budget(r)?,
            }),
            KIND_RESP_ERROR => WireResponse::Error(ServeError::decode(r)?),
            KIND_REPL_FULL => WireResponse::Repl(ReplEvent::Full {
                seq: r.u64()?,
                snapshot: r.bytes("snapshot")?,
            }),
            KIND_REPL_DELTA => WireResponse::Repl(ReplEvent::Delta {
                seq: r.u64()?,
                total_classes: r.u64()?,
                updates: decode_prototypes(r)?,
            }),
            KIND_RESP_EXPORT => WireResponse::Export(DeploymentExport::decode(r)?),
            KIND_RESP_IMPORTED => WireResponse::Imported { classes: r.u64()? },
            KIND_RESP_ADVERTISED => WireResponse::Advertised {
                registered: r.u64()?,
            },
            KIND_RESP_OBS => WireResponse::Obs(Box::new(ObsResult::decode(r)?)),
            KIND_OBS_BATCH => WireResponse::Tail(TailBatch::decode(r)?),
            other => return Err(PayloadError::UnknownKind(other)),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{parse_frame, DEFAULT_MAX_PAYLOAD};
    use ofscil_obs::{Event, EventKind, Resolution, Rollup};
    use ofscil_serve::ExportStats;

    fn roundtrip_request(request: WireRequest) {
        let frame = encode_request(&request);
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        let back = decode_request(kind, payload).unwrap();
        assert_eq!(back, request);
    }

    fn roundtrip_response(response: &WireResponse) -> WireResponse {
        let frame = encode_response(response);
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        decode_response(kind, payload).unwrap()
    }

    #[test]
    fn every_request_variant_roundtrips() {
        roundtrip_request(WireRequest::Serve(ServeRequest::Infer {
            deployment: "tenant-α".into(),
            image: Tensor::from_vec(vec![0.25, -1.5, f32::MIN_POSITIVE, 3.0e7], &[1, 2, 2])
                .unwrap(),
        }));
        roundtrip_request(WireRequest::Serve(ServeRequest::LearnOnline {
            deployment: "t".into(),
            batch: Batch {
                images: Tensor::from_vec((0..24).map(|i| i as f32 * 0.5).collect(), &[2, 3, 2, 2])
                    .unwrap(),
                labels: vec![7, 3],
            },
        }));
        roundtrip_request(WireRequest::Serve(ServeRequest::Snapshot {
            deployment: "s".into(),
        }));
        roundtrip_request(WireRequest::Serve(ServeRequest::Stats {
            deployment: "".into(),
        }));
        roundtrip_request(WireRequest::Serve(ServeRequest::TopUpBudget {
            deployment: "t".into(),
            energy_mj: 12.75,
        }));
        roundtrip_request(WireRequest::Subscribe {
            deployment: "repl".into(),
        });
        roundtrip_request(WireRequest::Export {
            deployment: "mover".into(),
        });
        roundtrip_request(WireRequest::Import(DeploymentExport {
            name: "mover".into(),
            seq: 17,
            snapshot: vec![0xde, 0xad, 0xbe, 0xef],
            spent_mj: 3.625,
            budget_mj: Some(80.0),
            stats: ExportStats {
                infer_requests: 100,
                infer_batches: 25,
                largest_batch: 8,
                learn_requests: 3,
                snapshots: 1,
                rejected_infer: 2,
                rejected_learn: 1,
                deferred: 4,
            },
        }));
        roundtrip_request(WireRequest::ReAnchor {
            deployment: "lagging".into(),
        });
        roundtrip_request(WireRequest::ObsQuery(
            ObsQuery::deployment("tenant-a")
                .with_time_range(1_000, 2_000)
                .with_seq_range(5, 50)
                .with_kinds(&[EventKind::Infer, EventKind::Migration])
                .with_limit(128)
                .with_resolution(Resolution::Auto),
        ));
        roundtrip_request(WireRequest::ObsQuery(
            ObsQuery::all().with_resolution(Resolution::Rollup),
        ));
        roundtrip_request(WireRequest::ObsQuery(ObsQuery::all()));
        roundtrip_request(WireRequest::ObsSubscribe {
            query: ObsQuery::all(),
            cursor: None,
        });
        roundtrip_request(WireRequest::ObsSubscribe {
            query: ObsQuery::deployment("tenant-a")
                .with_kinds(&[EventKind::Infer, EventKind::SinkOverflow])
                .with_limit(4096),
            cursor: Some(ObsCursor {
                time_us: 123_456_789,
                seq: 42,
            }),
        });
        roundtrip_request(WireRequest::AdvertiseFollower {
            upstream: "127.0.0.1:9001".into(),
            follower: "127.0.0.1:9101".into(),
        });
    }

    #[test]
    fn peek_reads_the_routing_key_of_every_request_kind() {
        // (request, streaming, write, scatter)
        let requests = [
            (
                WireRequest::Serve(ServeRequest::Infer {
                    deployment: "tenant-a".into(),
                    image: Tensor::zeros(&[1, 2, 2]),
                }),
                false,
                false,
                false,
            ),
            (
                WireRequest::Serve(ServeRequest::LearnOnline {
                    deployment: "tenant-a".into(),
                    batch: Batch {
                        images: Tensor::zeros(&[1, 3, 2, 2]),
                        labels: vec![0],
                    },
                }),
                false,
                true,
                false,
            ),
            (
                WireRequest::Serve(ServeRequest::Snapshot {
                    deployment: "tenant-a".into(),
                }),
                false,
                false,
                false,
            ),
            (
                WireRequest::Serve(ServeRequest::Stats {
                    deployment: "tenant-a".into(),
                }),
                false,
                false,
                false,
            ),
            (
                WireRequest::Serve(ServeRequest::TopUpBudget {
                    deployment: "tenant-a".into(),
                    energy_mj: 1.0,
                }),
                false,
                true,
                false,
            ),
            (
                WireRequest::Subscribe {
                    deployment: "tenant-a".into(),
                },
                true,
                false,
                false,
            ),
            (
                WireRequest::Export {
                    deployment: "tenant-a".into(),
                },
                false,
                false,
                false,
            ),
            (
                WireRequest::Import(DeploymentExport {
                    name: "tenant-a".into(),
                    seq: 3,
                    snapshot: vec![1, 2],
                    ..DeploymentExport::default()
                }),
                false,
                true,
                false,
            ),
            (
                WireRequest::ReAnchor {
                    deployment: "tenant-a".into(),
                },
                false,
                false,
                false,
            ),
            (
                WireRequest::ObsQuery(ObsQuery::deployment("tenant-a")),
                false,
                false,
                true,
            ),
            // A tail subscription streams but is NOT a scatter one-shot: the
            // router multiplexes it itself (peek.obs_tail, asserted below).
            (
                WireRequest::ObsSubscribe {
                    query: ObsQuery::deployment("tenant-a"),
                    cursor: Some(ObsCursor { time_us: 9, seq: 1 }),
                },
                true,
                false,
                false,
            ),
            // The advertisement's routing key is the *upstream* shard address
            // — the string a router matches against its shard table.
            (
                WireRequest::AdvertiseFollower {
                    upstream: "tenant-a".into(),
                    follower: "127.0.0.1:9101".into(),
                },
                false,
                false,
                false,
            ),
        ];
        for (request, streaming, write, scatter) in requests {
            let frame = encode_request(&request);
            let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
            let peek = peek_request(kind, payload).unwrap();
            assert_eq!(peek.deployment, "tenant-a", "for {request:?}");
            assert_eq!(peek.streaming, streaming, "for {request:?}");
            assert_eq!(peek.write, write, "for {request:?}");
            assert_eq!(peek.scatter, scatter, "for {request:?}");
            assert_eq!(
                peek.advertise,
                matches!(request, WireRequest::AdvertiseFollower { .. }),
                "for {request:?}"
            );
            assert_eq!(
                peek.obs_tail,
                matches!(request, WireRequest::ObsSubscribe { .. }),
                "for {request:?}"
            );
        }
        // A response kind is not peekable, and a truncated deployment string
        // is a typed error.
        assert!(matches!(
            peek_request(KIND_RESP_ERROR, &[]),
            Err(PayloadError::UnknownKind(_))
        ));
        let mut payload = Vec::new();
        put_u32(&mut payload, 99);
        assert!(matches!(
            peek_request(KIND_REQ_STATS, &payload),
            Err(PayloadError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn every_response_variant_roundtrips() {
        for response in [
            WireResponse::Serve(ServeResponse::Prediction {
                class: 42,
                similarity: 0.875,
                batched_with: 8,
            }),
            WireResponse::Serve(ServeResponse::Learned {
                classes: vec![0, 5, 9],
                total_classes: 12,
            }),
            WireResponse::Serve(ServeResponse::Snapshot {
                bytes: vec![1, 2, 3, 255],
            }),
            WireResponse::Serve(ServeResponse::Budget {
                spent_mj: 3.5,
                remaining_mj: None,
            }),
            WireResponse::Serve(ServeResponse::Budget {
                spent_mj: 0.0,
                remaining_mj: Some(9.25),
            }),
            WireResponse::Repl(ReplEvent::Full {
                seq: 7,
                snapshot: vec![9; 20],
            }),
            WireResponse::Repl(ReplEvent::Delta {
                seq: 8,
                total_classes: 3,
                updates: vec![(0, vec![1.0, -2.0]), (2, vec![0.5, 0.25])],
            }),
            WireResponse::Export(DeploymentExport {
                name: "mover".into(),
                seq: 5,
                snapshot: vec![7; 12],
                spent_mj: 12.25,
                budget_mj: None,
                stats: ExportStats {
                    infer_requests: 9,
                    deferred: 1,
                    ..ExportStats::default()
                },
            }),
            WireResponse::Imported { classes: 4 },
            WireResponse::Advertised { registered: 2 },
            WireResponse::Obs(Box::default()),
            WireResponse::Obs(Box::new({
                let mut result = ObsResult {
                    truncated: true,
                    appended: 12,
                    dropped: 2,
                    shards_ok: 3,
                    shards_err: 1,
                    ..ObsResult::default()
                };
                result.events = vec![
                    Event::new(EventKind::Infer, "tenant-a")
                        .with_seq(4)
                        .with_time_us(1_000)
                        .with_energy_mj(0.5)
                        .with_latency_us(120)
                        .with_accuracy(0.875),
                    // NaN accuracy must cross bit-faithfully (Debug prints
                    // NaN identically on both sides).
                    Event::new(EventKind::Migration, "tenant-a")
                        .with_seq(5)
                        .with_time_us(2_000)
                        .with_wal_bytes(4096),
                ];
                for i in 0..result.events.len() {
                    let event = result.events[i].clone();
                    result.aggregates.observe(&event);
                }
                // Rollup cells cross too, NaN-free and NaN-bearing alike.
                let mut cell = Rollup::new(60_000_000, "tenant-a", EventKind::Infer);
                cell.observe(&result.events[0]);
                let mut nan_cell = Rollup::new(0, "tenant-a", EventKind::Migration);
                nan_cell.observe(&result.events[1]);
                result.rollups = vec![nan_cell, cell];
                // The latency histogram crosses bucket-for-bucket.
                result.latency_hist.record(120);
                result.latency_hist.record(0);
                result.latency_hist.record(u64::MAX);
                result
            })),
            WireResponse::Tail(TailBatch::default()),
            WireResponse::Tail(TailBatch {
                events: vec![
                    Event::new(EventKind::Infer, "tenant-a")
                        .with_seq(7)
                        .with_time_us(3_000)
                        .with_latency_us(99)
                        .with_accuracy(0.5),
                    Event::new(EventKind::SinkOverflow, "tail:3")
                        .with_seq(12)
                        .with_time_us(3_001),
                ],
                rollups: vec![Rollup::new(60_000_000, "tenant-a", EventKind::Infer)],
                cursor: ObsCursor {
                    time_us: 3_001,
                    seq: 12,
                },
                backfill: true,
                truncated: true,
                dropped: 5,
            }),
        ] {
            let back = roundtrip_response(&response);
            assert_eq!(format!("{back:?}"), format!("{response:?}"));
        }

        let mut stats = DeploymentStats {
            name: "tenant".into(),
            classes: 4,
            infer_requests: 100,
            infer_batches: 25,
            largest_batch: 8,
            learn_requests: 3,
            snapshots: 1,
            rejected_infer: 2,
            rejected_learn: 1,
            deferred: 0,
            energy_spent_mj: 5.125,
            energy_budget_mj: Some(12.0),
            durability: None,
        };
        match roundtrip_response(&WireResponse::Serve(ServeResponse::Stats(stats.clone()))) {
            WireResponse::Serve(ServeResponse::Stats(back)) => assert_eq!(back, stats),
            other => panic!("unexpected {other:?}"),
        }
        // Durability counters survive the wire when present.
        stats.durability = Some(ofscil_serve::DurabilityStats {
            wal_records: 9,
            wal_bytes: 4096,
            compactions: 2,
            last_checkpoint_seq: 42,
        });
        match roundtrip_response(&WireResponse::Serve(ServeResponse::Stats(stats.clone()))) {
            WireResponse::Serve(ServeResponse::Stats(back)) => assert_eq!(back, stats),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        for error in [
            ServeError::UnknownDeployment("ghost".into()),
            ServeError::DuplicateDeployment("twin".into()),
            ServeError::BudgetExhausted {
                deployment: "t".into(),
                required_mj: 12.0,
                remaining_mj: 0.5,
            },
            ServeError::InvalidRequest("bad shape".into()),
            ServeError::InvalidConfig("zero workers".into()),
            ServeError::Execution("matmul failed".into()),
            ServeError::ShuttingDown,
            ServeError::QueueFull { depth: 64 },
            ServeError::ReadOnlyReplica {
                deployment: "r".into(),
            },
            ServeError::ShardUnavailable {
                shard: "1 (tcp://127.0.0.1:9)".into(),
                detail: "connection refused".into(),
            },
            ServeError::ReplicationLagged {
                deployment: "t".into(),
            },
        ] {
            let expect = format!("{error:?}");
            match roundtrip_response(&WireResponse::Error(error)) {
                WireResponse::Error(back) => assert_eq!(format!("{back:?}"), expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn wrapped_library_errors_fold_to_execution() {
        let error = ServeError::Core(ofscil_core::CoreError::UnknownClass(3));
        let display = error.to_string();
        match roundtrip_response(&WireResponse::Error(error)) {
            WireResponse::Error(ServeError::Execution(msg)) => assert_eq!(msg, display),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nan_and_infinity_cross_bit_exactly() {
        let request = WireRequest::Serve(ServeRequest::TopUpBudget {
            deployment: "t".into(),
            energy_mj: f64::NAN,
        });
        let frame = encode_request(&request);
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        match decode_request(kind, payload).unwrap() {
            WireRequest::Serve(ServeRequest::TopUpBudget { energy_mj, .. }) => {
                assert_eq!(energy_mj.to_bits(), f64::NAN.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
        let image =
            Tensor::from_vec(vec![f32::INFINITY, f32::NEG_INFINITY, -0.0, f32::NAN], &[4]).unwrap();
        let request = WireRequest::Serve(ServeRequest::Infer {
            deployment: "t".into(),
            image: image.clone(),
        });
        let frame = encode_request(&request);
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        match decode_request(kind, payload).unwrap() {
            WireRequest::Serve(ServeRequest::Infer { image: back, .. }) => {
                for (a, b) in image.as_slice().iter().zip(back.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decoders_reject_cross_kind_and_hostile_counts() {
        // A response frame fed to the request decoder is an UnknownKind.
        let frame = encode_response(&WireResponse::Serve(ServeResponse::Snapshot {
            bytes: vec![],
        }));
        let (kind, payload) = parse_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        assert!(matches!(
            decode_request(kind, payload),
            Err(PayloadError::UnknownKind(_))
        ));

        // A declared element count beyond the payload is refused before
        // allocation.
        let mut payload = Vec::new();
        put_str(&mut payload, "t");
        payload.push(1); // rank 1
        put_u32(&mut payload, u32::MAX); // 4 billion elements, 0 bytes follow
        assert!(matches!(
            decode_request(KIND_REQ_INFER, &payload),
            Err(PayloadError::LengthOverflow { .. })
        ));

        // Trailing bytes after a well-formed message are an error.
        let mut payload = Vec::new();
        put_str(&mut payload, "t");
        payload.push(0xab);
        assert!(matches!(
            decode_request(KIND_REQ_STATS, &payload),
            Err(PayloadError::TrailingBytes { remaining: 1 })
        ));
    }
}
