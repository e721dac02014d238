//! # clognet-core
//!
//! The paper's contribution, assembled: chip layouts, memory nodes with
//! finite injection buffers, the Delegated-Replies engine (core
//! pointers, blocking-triggered delegation on the request network, FRQ
//! service with remote hit / delayed hit / remote-miss-DNF outcomes),
//! the Realistic-Probing baseline, CPU-priority reply scheduling, and
//! the cycle loop tying the GPU/CPU subsystems to the NoC, LLC, and
//! DRAM substrates.
//!
//! ## Example
//!
//! ```
//! use clognet_core::System;
//! use clognet_proto::{Scheme, SystemConfig};
//!
//! let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
//! let mut sys = System::new(cfg, "HS", "bodytrack");
//! sys.run(2_000);
//! let report = sys.report();
//! assert!(report.gpu_ipc > 0.0);
//! ```

pub mod memnode;
pub mod multichip;
pub mod nets;
pub mod report;
pub mod snapshot;
pub mod system;
pub mod telemetry;
pub mod trace;

pub use clognet_control::{Action, Decision, DecisionLog};
pub use clognet_telemetry::TelemetryConfig;
pub use memnode::{MemNode, MemNodeStats, PendingReply};
pub use multichip::{FabricSummary, MultiChipSystem};
pub use nets::Nets;
pub use report::{MissBreakdown, Report};
pub use snapshot::Snapshot;
pub use system::System;
pub use telemetry::SystemTelemetry;
pub use trace::{Event, TraceLog, Traced};
