//! # clognet-noc
//!
//! A cycle-level, flit-granular network-on-chip simulator in the style of
//! BookSim 2.0: wormhole flow control, virtual channels with credit-based
//! backpressure, a 4-stage router pipeline, one-iteration iSLIP switch
//! allocation with strict CPU-over-GPU priority, and four topologies
//! (mesh, crossbar, flattened butterfly, dragonfly) with dimension-order,
//! class-based deterministic (CDR), and adaptive (DyXY, Footprint, HARE)
//! routing.
//!
//! This crate is the NoC substrate for the `clognet` reproduction of
//! *Delegated Replies* (HPCA 2022). The phenomenon that paper attacks —
//! network clogging at the few memory nodes' reply links — emerges here
//! from first principles: finite VC buffers, credit stalls, and
//! many-to-few traffic.
//!
//! ## Example: request/reply networks
//!
//! ```
//! use clognet_noc::{ClassAssignment, NetParams, Network};
//! use clognet_proto::*;
//!
//! let mk = |class, vcs| NetParams {
//!     topology: Topology::Mesh,
//!     width: 8,
//!     height: 8,
//!     classes: ClassAssignment::Single(class, vcs),
//!     vc_buf_flits: 4,
//!     pipeline: 4,
//!     routing_request: RoutingPolicy::DorYX, // CDR: YX requests
//!     routing_reply: RoutingPolicy::DorXY,   // CDR: XY replies
//!     eject_buf_flits: 32,
//!     sa_iterations: 1,
//! };
//! let mut request_net = Network::new(mk(TrafficClass::Request, 2));
//! let mut reply_net = Network::new(mk(TrafficClass::Reply, 2));
//! let req = Packet::new(
//!     PacketId(0), NodeId(9), NodeId(2), MsgKind::ReadReq,
//!     Priority::Gpu, Addr::new(0x1000), 128, 16, 0,
//! );
//! request_net.try_inject(req)?;
//! for _ in 0..60 {
//!     request_net.tick();
//!     reply_net.tick();
//! }
//! assert_eq!(request_net.take_ejected(NodeId(2), 1).len(), 1);
//! # Ok::<(), Packet>(())
//! ```

mod flit;
pub mod network;
pub mod nodeset;
mod router;
pub mod routing;
pub mod stats;
pub mod topology;

pub use network::{ClassAssignment, NetParams, Network};
pub use nodeset::NodeSet;
pub use stats::{LatencyBin, NocStats};
pub use topology::{mesh_port, PortLink, TopologyGraph};
