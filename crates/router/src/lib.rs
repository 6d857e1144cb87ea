//! `ofscil_router` — consistent-hash sharding for multi-process O-FSCIL
//! serving.
//!
//! The wire layer (`ofscil_wire`) made multi-process tenancy possible but
//! left every client pinned to a single backend process. This crate puts a
//! **router** in front of N backend [`WireServer`](ofscil_wire::WireServer)
//! processes: one client-facing address speaking the existing wire frame
//! protocol, placing every deployment on a shard by consistent hashing of
//! its name. The paper's core asset — tiny per-deployment explicit-memory
//! state with a bit-exact snapshot codec — is what makes the sharded
//! topology cheap to operate: moving a deployment between shards moves a
//! few kilobytes of prototypes, not a model.
//!
//! * [`HashRing`] — consistent hashing with virtual nodes (in-tree FNV-1a,
//!   no dependencies); adding or draining a shard remaps only the keys on
//!   the affected arcs,
//! * `ShardPool` — per-shard [`WireClient`](ofscil_wire::WireClient)
//!   pooling with reconnect, exponential backoff and a failure cooldown;
//!   dead shards yield a typed
//!   [`ShardUnavailable`](ofscil_serve::ServeError::ShardUnavailable)
//!   end to end instead of a hang,
//! * [`RouterServer`] — the frame-forwarding frontend: requests are peeked
//!   for their deployment name and forwarded verbatim, so the routing hop
//!   never deserializes a tensor and bit-exactness across the hop is
//!   structural,
//! * [`RouterHandle`] — cluster administration: scatter-gather
//!   [`cluster_stats`](RouterHandle::cluster_stats), active shard
//!   [`probe`](RouterHandle::probe)s, and live
//!   [`migrate`](RouterHandle::migrate) /
//!   [`add_shard`](RouterHandle::add_shard) /
//!   [`drain_shard`](RouterHandle::drain_shard) that move explicit memory
//!   with the snapshot codec and atomically remap the ring,
//! * [`ClusterTail`] — a cluster-wide live tail
//!   ([`cluster_tail`](RouterHandle::cluster_tail), or a proxied
//!   `ObsSubscribe` frame): one observability subscription multiplexed
//!   into per-shard, follower and router-local legs, each resubscribing
//!   from its own resume cursor through shard kill/restart so the merged
//!   stream stays gap-free,
//! * [`harness`] — spin backend "processes" (thread + own registry + real
//!   socket) up and down inside one binary, for tests, benches and examples
//!   of the sharded topology.
//!
//! # Example
//!
//! ```no_run
//! use ofscil_core::OFscilModel;
//! use ofscil_nn::models::BackboneKind;
//! use ofscil_router::{harness::ShardProcess, RouterConfig, RouterServer};
//! use ofscil_serve::{DeploymentSpec, LearnerRegistry, ServeRequest};
//! use ofscil_tensor::{SeedRng, Tensor};
//! use ofscil_wire::{WireClient, WireConfig};
//! use std::sync::Arc;
//!
//! // Every shard loads the same pretrained weights; the router decides who
//! // serves which deployment.
//! let shards: Vec<ShardProcess> = (0..3)
//!     .map(|_| {
//!         let registry = Arc::new(LearnerRegistry::new());
//!         registry
//!             .register(
//!                 DeploymentSpec::new("tenant-a", (32, 32)),
//!                 OFscilModel::new(BackboneKind::Micro, 32, &mut SeedRng::new(7)),
//!             )
//!             .unwrap();
//!         ShardProcess::spawn_observed(registry, WireConfig::tcp_loopback(), None).unwrap()
//!     })
//!     .collect();
//! let config = RouterConfig::tcp_loopback(
//!     shards.iter().map(|s| s.addr().clone()).collect(),
//! )
//! .with_deployments(&["tenant-a"]);
//! RouterServer::run(&config, |router| {
//!     // Clients speak to the router exactly as they would to one server.
//!     let mut client = WireClient::connect(router.addr()).unwrap();
//!     let response = client.call(ServeRequest::Infer {
//!         deployment: "tenant-a".into(),
//!         image: Tensor::zeros(&[3, 32, 32]),
//!     });
//!     println!("{response:?} served by shard {:?}", router.shard_for("tenant-a"));
//! })
//! .unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod harness;
mod pool;
mod ring;
mod server;
mod tail;

pub use error::RouterError;
pub use pool::{PoolConfig, ShardHealth};
pub use ring::HashRing;
pub use server::{
    decode_override, encode_override, MigrationReport, RouterConfig, RouterHandle, RouterServer,
    ShardStats,
};
pub use tail::ClusterTail;
