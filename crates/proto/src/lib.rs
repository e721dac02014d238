//! # clognet-proto
//!
//! Shared vocabulary for the `clognet` simulator: node/core identifiers,
//! physical addresses, network packets and message kinds, the chip layouts
//! of the paper's Figure 1, the randomized memory-controller address
//! mapping, and the configuration structures mirroring Table I of
//! *Delegated Replies: Alleviating Network Clogging in Heterogeneous
//! Architectures* (HPCA 2022).
//!
//! Every other crate in the workspace depends on this one; it has no
//! dependencies of its own.
//!
//! ## Example
//!
//! ```
//! use clognet_proto::{SystemConfig, NodeKind};
//!
//! let cfg = SystemConfig::default(); // Table I configuration
//! let layout = cfg.layout();
//! assert_eq!(layout.gpu_nodes().count(), 40);
//! assert_eq!(layout.cpu_nodes().count(), 16);
//! assert_eq!(layout.mem_nodes().count(), 8);
//! assert!(matches!(layout.kind_of(layout.mem_nodes().next().unwrap()),
//!                  NodeKind::Mem(_)));
//! ```

pub mod addr_map;
pub mod config;
pub mod fingerprint;
pub mod fxhash;
pub mod ids;
pub mod knobs;
pub mod layout;
pub mod packet;
pub mod ring;
pub mod snap;

pub use addr_map::AddressMap;
pub use config::{
    CacheGeometry, ControlConfig, ControlPolicyKind, CpuConfig, CtaSched, DrKnobs, DramConfig,
    FabricConfig, FabricInterleave, FabricTopology, GpuConfig, L1Org, LayoutKind, LlcConfig,
    NocConfig, RoutingPolicy, Scheme, SystemConfig, Topology, VirtualNetConfig,
};
pub use fingerprint::{fingerprint_hex, job_fingerprint, snapshot_key, FINGERPRINT_VERSION};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{Addr, CoreId, Cycle, LineAddr, MemId, NodeId};
pub use knobs::Knob;
pub use layout::{Layout, NodeKind};
pub use packet::{MsgKind, Packet, PacketId, Priority, TrafficClass};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use snap::{SnapError, SnapReader, SnapWriter, SNAP_MAGIC, SNAP_VERSION};
