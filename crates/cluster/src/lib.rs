//! # clognet-cluster
//!
//! Sharded multi-node simulation service, layered on [`clognet_serve`].
//!
//! One `clognet serve` process memoizes deterministic simulation
//! reports in a content-addressed cache; this crate scales that to N
//! processes sharing **one logical cache** without a coordinator. A
//! cluster node *is* a `clognet_serve` server: [`ClusterNode`]
//! installs a [`clognet_serve::server::Router`] on it, so the worker
//! pool, both cache tiers, admission control, limits, drain and `stats`
//! are the single server's own, and this crate holds only what is
//! cluster-specific:
//!
//! * [`membership`] — static seed list plus periodic TCP
//!   heartbeat/gossip over the existing NDJSON wire protocol, with an
//!   alive/suspect/dead lifecycle and capped-backoff reprobing.
//! * Consistent-hash sharding — job fingerprints are placed on a
//!   [`clognet_proto::HashRing`] of virtual nodes; any node receiving a
//!   `submit` either serves it locally or forwards to the owner and
//!   relays the reply back verbatim.
//! * Cache replication — each computed report is synchronously copied
//!   to the fingerprint's ring successors, so resubmissions survive a
//!   node death.
//! * Load-aware delegation — a saturated owner hands the job to the
//!   least-loaded alive peer instead of bouncing `overloaded` back
//!   through the gateway.
//! * `cluster-stats` — ring, peer table, routing and replication
//!   counters.
//!
//! The invariant inherited from the single-node service holds
//! cluster-wide: **the same fingerprint yields byte-identical report
//! bytes no matter which node is asked**, across forwarded, delegated,
//! replicated, and cached answers alike.
//!
//! ## Example
//!
//! ```
//! use clognet_cluster::{ClusterConfig, ClusterNode};
//! use clognet_serve::client::{Client, RetryPolicy};
//! use clognet_serve::server::{JobError, JobHandler};
//! use clognet_serve::wire::JobSpec;
//! use std::sync::Arc;
//! use std::time::Instant;
//!
//! struct Echo;
//! impl JobHandler for Echo {
//!     fn fingerprint(&self, spec: &JobSpec) -> Result<u64, JobError> {
//!         Ok(spec.cycles)
//!     }
//!     fn run(&self, spec: &JobSpec, _deadline: Instant) -> Result<String, JobError> {
//!         Ok(format!("{{\"cycles\":{}}}", spec.cycles))
//!     }
//! }
//!
//! // Two nodes on OS-assigned ports, introduced to each other.
//! let a = ClusterNode::bind(ClusterConfig::default(), Arc::new(Echo)).unwrap();
//! let b = ClusterNode::bind(ClusterConfig::default(), Arc::new(Echo)).unwrap();
//! a.add_peer(b.advertise());
//! b.add_peer(a.advertise());
//! let (addr_a, addr_b) = (a.local_addr().to_string(), b.local_addr().to_string());
//! let (ha, hb) = (a.spawn().unwrap(), b.spawn().unwrap());
//!
//! // The same job through either gateway returns identical bytes —
//! // whichever node does not own the fingerprint forwards it.
//! let policy = RetryPolicy::default();
//! let spec = JobSpec::new("HS", "bodytrack");
//! let via_a = Client::connect(&addr_a, &policy).unwrap().submit(&spec).unwrap();
//! let via_b = Client::connect(&addr_b, &policy).unwrap().submit(&spec).unwrap();
//! assert_eq!(via_a.report, via_b.report);
//! assert_eq!(via_a.fingerprint, via_b.fingerprint);
//!
//! for addr in [&addr_a, &addr_b] {
//!     Client::connect(addr, &policy).unwrap().shutdown().unwrap();
//! }
//! ha.join().unwrap();
//! hb.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod membership;
pub mod node;

pub use membership::{Membership, PeerStatus, PeerView};
pub use node::{ClusterConfig, ClusterHandle, ClusterNode};
