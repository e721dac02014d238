//! # clognet-serve
//!
//! A persistent simulation service for the clognet simulator. Every
//! experiment harness in this workspace used to be a one-shot process,
//! rebuilding identical (configuration, workload, scheme) simulations
//! on every invocation; this crate turns the simulator into a
//! long-lived service that many experiment consumers share:
//!
//! * a TCP server speaking **newline-delimited JSON** ([`wire`]),
//! * jobs scheduled on a bounded [`clognet_bench::runner::WorkerPool`]
//!   with explicit `overloaded` admission-control rejections,
//! * results memoized in a **content-addressed cache** ([`cache`])
//!   keyed by the canonical job fingerprint of
//!   [`clognet_proto::fingerprint`] — the simulator is deterministic,
//!   so a byte-identical report for a given fingerprint never needs to
//!   be simulated twice,
//! * warmup state memoized in a second-tier **snapshot cache**
//!   ([`cache::SnapshotCache`]) keyed by
//!   [`clognet_proto::snapshot_key`] — a job that misses the result
//!   cache but shares its warmup prefix with a cached snapshot resumes
//!   mid-flight and simulates only the measured window,
//! * per-job cycle and wall-time limits, graceful drain on shutdown,
//!   and a `stats` request backed by a [`clognet_telemetry`] registry,
//! * a [`server::Router`] hook set through which a node of a larger
//!   service (`clognet-cluster`) places jobs on other nodes while the
//!   server keeps running, caching and draining them,
//! * a [`client`] that retries transient connect failures with capped
//!   exponential backoff whose jitter is seeded through
//!   [`clognet_rng`] — deterministic end to end.
//!
//! The crate is `std`-only (matching the `clognet-rng` / `clognet-bench`
//! precedent) and independent of `clognet-core`: the simulation is
//! injected as a [`server::JobHandler`], which the CLI implements on
//! top of `System` and the tests implement as stubs.
//!
//! ## Example
//!
//! ```
//! use clognet_serve::client::{Client, RetryPolicy};
//! use clognet_serve::server::{JobError, JobHandler, ServeConfig, Server};
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
//!         Ok(format!("{{\"gpu\":\"{}\"}}", spec.gpu))
//!     }
//! }
//!
//! let server = Server::bind(ServeConfig::default(), Arc::new(Echo)).unwrap();
//! let addr = server.local_addr().to_string();
//! let handle = server.spawn().unwrap();
//! let mut client = Client::connect(&addr, &RetryPolicy::default()).unwrap();
//! let first = client.submit(&JobSpec::new("HS", "bodytrack")).unwrap();
//! let second = client.submit(&JobSpec::new("HS", "bodytrack")).unwrap();
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(first.report, second.report);
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod json;
pub mod server;
pub mod wire;

pub use cache::{ResultCache, SnapshotCache};
pub use client::{Client, ClientError, RetryPolicy};
pub use json::Json;
pub use server::{Frame, FrameReader, JobError, JobHandler, ServeConfig, Server, ServerHandle};
pub use wire::{
    ErrorCode, ForwardFrame, JobSpec, PeerExchange, ReplicateFrame, Response, RunResult,
    SnapshotFrame, MAX_FRAME_BYTES,
};
