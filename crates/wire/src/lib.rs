//! `ofscil_wire` — cross-process serving for O-FSCIL learners.
//!
//! The serving runtime in `ofscil_serve` is reachable only through an
//! in-process [`ServeClient`](ofscil_serve::ServeClient). This crate puts
//! the same typed request/response API on a socket, so tenants can live in
//! other processes and read replicas can scale inference horizontally:
//!
//! * [`frame`] — the outer envelope: length-prefixed, checksummed,
//!   versioned binary frames in the same dependency-free style as the
//!   snapshot codec (magic/version/FNV-1a, raw IEEE-754 bits),
//! * [`codec`] — message bodies: the kind table and field order of every
//!   [`ServeRequest`](ofscil_serve::ServeRequest) /
//!   [`ServeResponse`](ofscil_serve::ServeResponse) variant, typed
//!   [`ServeError`](ofscil_serve::ServeError)s, and the replication stream
//!   events; the value types encode themselves beside their definitions, on
//!   the workspace's one byte codec (`ofscil_tensor::bytes`),
//! * [`WireServer`] — a blocking TCP / Unix-socket frontend that dispatches
//!   decoded frames into the existing `ServeRuntime` worker pool,
//! * [`WireClient`] — mirrors the in-process client API over a connection,
//! * live tails — [`WireClient::obs_subscribe`] registers a streaming
//!   subscription on the server's observability store (wire v8): the server
//!   back-fills everything after the resume cursor, then pushes live
//!   `TailBatch` frames on the persistent connection; every batch carries
//!   the high-water cursor so a reconnect resumes gap-free,
//! * [`Follower`] — a replica that tails a primary's snapshot stream (full
//!   snapshot + sequence-numbered deltas per committed `LearnOnline`),
//!   restores prototypes **bit-exactly**, and serves read-only traffic on
//!   its own socket while rejecting writes with a typed `ReadOnlyReplica`
//!   error. [`Follower::promote`] turns a replica into a writable,
//!   durably-journaled primary for failover,
//! * durability — given an `ofscil_store` WAL + checkpoint store,
//!   [`WireServer::run_observed`] journals commits before their replies,
//!   anchors replication subscribers (and the one-shot `ReAnchor` request)
//!   from the latest checkpoint instead of a live snapshot, and runs the
//!   store's delta compaction on a background thread.
//!
//! # Example
//!
//! ```no_run
//! use ofscil_core::OFscilModel;
//! use ofscil_nn::models::BackboneKind;
//! use ofscil_serve::{DeploymentSpec, LearnerRegistry, ServeRequest};
//! use ofscil_tensor::{SeedRng, Tensor};
//! use ofscil_wire::{WireClient, WireConfig, WireServer};
//!
//! let mut rng = SeedRng::new(42);
//! let registry = LearnerRegistry::new();
//! registry
//!     .register(
//!         DeploymentSpec::new("tenant-a", (32, 32)),
//!         OFscilModel::new(BackboneKind::Micro, 32, &mut rng),
//!     )
//!     .unwrap();
//! WireServer::run_observed(&registry, &WireConfig::tcp_loopback(), None, None, |server| {
//!     // Any process that can reach `server.addr()` is now a tenant.
//!     let mut client = WireClient::connect(server.addr()).unwrap();
//!     let response = client.call(ServeRequest::Infer {
//!         deployment: "tenant-a".into(),
//!         image: Tensor::zeros(&[3, 32, 32]),
//!     });
//!     println!("{response:?}");
//! })
//! .unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod codec;
mod error;
mod follower;
pub mod frame;
pub mod harness;
pub mod net;
mod server;

pub use client::{ObsTailStream, ReplicationStream, WireClient};
pub use codec::{peek_request, ReplEvent, RequestPeek, WireRequest, WireResponse};
pub use error::{FrameError, PayloadError, WireError};
pub use follower::{Follower, FollowerConfig, FollowerHandle};
pub use frame::{read_frame_verbatim, VerbatimEvent, VerbatimFrame, DEFAULT_MAX_PAYLOAD};
pub use net::{BoundAddr, WireBind, WireListener, WireStream};
pub use server::{ShutdownOnDrop, WireConfig, WireHandle, WireServer};
