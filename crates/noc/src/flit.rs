//! Flow-control units.
//!
//! Packets are serialized into flits at the network interface. A flit
//! references its packet through a slab slot; payload never moves, only
//! the 16-byte-channel-wide flits do.

use clognet_proto::{Cycle, Priority, TrafficClass};

/// Slab slot referencing the in-flight [`clognet_proto::Packet`].
pub(crate) type Slot = u32;

/// One flow-control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Packet slab slot.
    pub slot: Slot,
    /// Flit index within the packet (0 = head).
    pub idx: u8,
    /// Total flits in the packet (so `idx + 1 == total` marks the tail).
    pub total: u8,
    /// The packet's priority, cached so switch allocation and traversal
    /// never read the packet slab.
    pub prio: Priority,
    /// The packet's traffic class, cached for the same reason.
    pub class: TrafficClass,
    /// Cycle at which this flit becomes eligible for switch allocation in
    /// the router currently buffering it (models the RC/VA pipeline
    /// stages).
    pub eligible: Cycle,
}

// The cached priority and class sit in what was padding: a flit stays
// 16 bytes, four to a cache line.
const _: () = assert!(std::mem::size_of::<Flit>() == 16);

impl Flit {
    /// Head flit of its packet?
    pub fn is_head(&self) -> bool {
        self.idx == 0
    }

    /// Tail flit of its packet? (single-flit packets are both)
    pub fn is_tail(&self) -> bool {
        self.idx + 1 == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_and_tail_flags() {
        let head = Flit {
            slot: 0,
            idx: 0,
            total: 9,
            prio: Priority::Gpu,
            class: TrafficClass::Reply,
            eligible: 0,
        };
        let mid = Flit { idx: 4, ..head };
        let tail = Flit { idx: 8, ..head };
        assert!(head.is_head() && !head.is_tail());
        assert!(!mid.is_head() && !mid.is_tail());
        assert!(!tail.is_head() && tail.is_tail());
        let single = Flit {
            idx: 0,
            total: 1,
            ..head
        };
        assert!(single.is_head() && single.is_tail());
    }
}
