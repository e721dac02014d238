//! # clognet-fabric
//!
//! A second-level, inter-chip interconnect sitting above the per-chip
//! NoCs, for multi-chip / chiplet scenarios (DESIGN.md §13). The fabric
//! moves encapsulated on-chip [`Packet`]s between chips over directed
//! links with:
//!
//! * a package **topology** — point-to-point [`FabricTopology::Pair`],
//!   a [`FabricTopology::Ring`] routed shortest-direction (ties go
//!   clockwise), or a fully-connected [`FabricTopology::All`] package;
//! * per-directed-link **bandwidth** in flits/cycle: the head-of-queue
//!   message serializes onto the link at that rate before it departs;
//! * per-hop **latency** in cycles, modeled as a delay pipe between
//!   serialization and handoff;
//! * finite **link-controller queues** with hop-by-hop back-pressure: a
//!   full downstream queue (or a full chip-ingress queue) stalls the
//!   head of the upstream pipe, head-of-line, until space frees.
//!
//! Request-class and reply-class traffic ride two independent link
//! *planes* with separately configurable width and latency — the
//! headline experiment degrades the reply plane alone. Everything is
//! deterministic: links tick in fixed index order, queues are FIFO, and
//! the whole state snapshots byte-stably.

use clognet_proto::snap::{self, SnapError, SnapReader, SnapWriter};
use clognet_proto::{Cycle, FabricConfig, FabricTopology, NodeId, Packet, TrafficClass};
use std::collections::VecDeque;

/// Extra flits prepended to every fabric message for the encapsulation
/// header (origin chip/node and sequencing metadata).
pub const HEADER_FLITS: u32 = 1;

/// An on-chip packet encapsulated for inter-chip transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricMsg {
    /// Chip the message entered the fabric on.
    pub src_chip: usize,
    /// Chip the message is addressed to.
    pub dst_chip: usize,
    /// The node on the *origin* chip the eventual reply must return to
    /// (carried in the header; on-chip `NodeId`s are per-chip).
    pub origin: NodeId,
    /// The encapsulated packet.
    pub pkt: Packet,
    /// Serialized size on a fabric link, in fabric flits.
    pub flits: u32,
}

impl FabricMsg {
    /// Encapsulate a packet: fabric size = packet flits + header.
    pub fn new(src_chip: usize, dst_chip: usize, origin: NodeId, pkt: Packet) -> Self {
        let flits = u32::from(pkt.flits.max(1)) + HEADER_FLITS;
        FabricMsg {
            src_chip,
            dst_chip,
            origin,
            pkt,
            flits,
        }
    }
}

/// One directed link: a finite FIFO of waiting messages, the
/// serialization state of the head, and the in-flight latency pipe.
#[derive(Debug, Clone, Default)]
struct Link {
    queue: VecDeque<FabricMsg>,
    /// Flits of the head message still to serialize (0 = not started).
    head_left: u32,
    /// Messages in flight on the wire, with absolute arrival cycles
    /// (monotone, FIFO).
    pipe: VecDeque<(Cycle, FabricMsg)>,
    /// Total flits serialized onto this link.
    cum_flits: u64,
    /// Cycles the pipe head spent stalled on a full downstream queue.
    blocked_cycles: u64,
}

/// A point-in-time view of one directed link, for telemetry and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// Source chip of the directed link.
    pub from: usize,
    /// Destination chip of the directed link.
    pub to: usize,
    /// Messages waiting in the link-controller queue.
    pub queued: usize,
    /// Messages in flight on the wire.
    pub piped: usize,
    /// Total flits serialized onto the link so far.
    pub cum_flits: u64,
    /// Total cycles the link head spent blocked on back-pressure.
    pub blocked_cycles: u64,
}

/// One traffic plane (request or reply): all directed links of the
/// topology at one width/latency, plus per-chip ingress queues.
#[derive(Debug, Clone)]
struct Plane {
    width: u32,
    hop_latency: u32,
    queue_pkts: usize,
    links: Vec<Link>,
    /// Per-chip bounded queues of messages that completed their last
    /// hop and await injection into the chip's NoC.
    arrivals: Vec<VecDeque<FabricMsg>>,
    /// Messages handed off to `arrivals` so far.
    delivered: u64,
}

/// The inter-chip network: two independent link planes over one
/// topology.
#[derive(Debug, Clone)]
pub struct FabricNetwork {
    topology: FabricTopology,
    chips: usize,
    request: Plane,
    reply: Plane,
}

/// Number of directed links the topology needs.
fn n_links(topology: FabricTopology, chips: usize) -> usize {
    match topology {
        FabricTopology::Pair => 2,
        FabricTopology::Ring => 2 * chips,
        FabricTopology::All => chips * (chips - 1),
    }
}

/// Endpoints `(from, to)` of directed link `li`.
fn link_endpoints(topology: FabricTopology, chips: usize, li: usize) -> (usize, usize) {
    match topology {
        FabricTopology::Pair => (li, 1 - li),
        FabricTopology::Ring => {
            let from = li / 2;
            let to = if li.is_multiple_of(2) {
                (from + 1) % chips // clockwise
            } else {
                (from + chips - 1) % chips // counter-clockwise
            };
            (from, to)
        }
        FabricTopology::All => {
            let from = li / (chips - 1);
            let r = li % (chips - 1);
            let to = if r < from { r } else { r + 1 };
            (from, to)
        }
    }
}

/// The outgoing link a message at `at` takes toward `dst` (minimal
/// routing; ring ties go clockwise).
fn next_link(topology: FabricTopology, chips: usize, at: usize, dst: usize) -> usize {
    debug_assert_ne!(at, dst, "message already home");
    match topology {
        FabricTopology::Pair => at,
        FabricTopology::Ring => {
            let cw = (dst + chips - at) % chips;
            let ccw = (at + chips - dst) % chips;
            if cw <= ccw {
                2 * at
            } else {
                2 * at + 1
            }
        }
        FabricTopology::All => at * (chips - 1) + if dst < at { dst } else { dst - 1 },
    }
}

impl Plane {
    fn new(width: u32, hop_latency: u32, queue_pkts: usize, links: usize, chips: usize) -> Self {
        Plane {
            width,
            hop_latency,
            queue_pkts,
            links: vec![Link::default(); links],
            arrivals: vec![VecDeque::new(); chips],
            delivered: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.links
            .iter()
            .all(|l| l.queue.is_empty() && l.pipe.is_empty())
            && self.arrivals.iter().all(VecDeque::is_empty)
    }

    fn tick(&mut self, topology: FabricTopology, chips: usize, now: Cycle) {
        // Phase 1 — handoff: in fixed link order, move due pipe heads to
        // their next hop (or the destination chip's ingress queue). A
        // full downstream queue blocks the head (and everything behind
        // it) until space frees: hop-by-hop back-pressure.
        for li in 0..self.links.len() {
            while let Some(&(arrival, ref head)) = self.links[li].pipe.front() {
                if arrival > now {
                    break;
                }
                let (_, to) = link_endpoints(topology, chips, li);
                let dst = head.dst_chip;
                if dst == to {
                    if self.arrivals[to].len() >= self.queue_pkts {
                        self.links[li].blocked_cycles += 1;
                        break;
                    }
                    let (_, msg) = self.links[li].pipe.pop_front().expect("front checked");
                    self.arrivals[to].push_back(msg);
                    self.delivered += 1;
                } else {
                    let next = next_link(topology, chips, to, dst);
                    if self.links[next].queue.len() >= self.queue_pkts {
                        self.links[li].blocked_cycles += 1;
                        break;
                    }
                    let (_, msg) = self.links[li].pipe.pop_front().expect("front checked");
                    self.links[next].queue.push_back(msg);
                }
            }
        }
        // Phase 2 — serialization: each link pushes up to `width` flits
        // of its queue onto the wire; a message whose last flit leaves
        // enters the latency pipe.
        for link in &mut self.links {
            let mut budget = self.width;
            while budget > 0 {
                let Some(head) = link.queue.front() else {
                    break;
                };
                if link.head_left == 0 {
                    link.head_left = head.flits.max(1);
                }
                let take = budget.min(link.head_left);
                link.head_left -= take;
                link.cum_flits += u64::from(take);
                budget -= take;
                if link.head_left == 0 {
                    let msg = link.queue.pop_front().expect("front checked");
                    link.pipe
                        .push_back((now + Cycle::from(self.hop_latency), msg));
                }
            }
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.links.len());
        for link in &self.links {
            w.usize(link.queue.len());
            for m in &link.queue {
                save_msg(w, m);
            }
            w.u32(link.head_left);
            w.usize(link.pipe.len());
            for (arrival, m) in &link.pipe {
                w.u64(*arrival);
                save_msg(w, m);
            }
            w.u64(link.cum_flits);
            w.u64(link.blocked_cycles);
        }
        w.usize(self.arrivals.len());
        for q in &self.arrivals {
            w.usize(q.len());
            for m in q {
                save_msg(w, m);
            }
        }
        w.u64(self.delivered);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.links.len() {
            return Err(SnapError::Corrupt("fabric link arrangement mismatch"));
        }
        for link in &mut self.links {
            let qn = r.usize()?;
            link.queue.clear();
            for _ in 0..qn {
                link.queue.push_back(load_msg(r)?);
            }
            link.head_left = r.u32()?;
            let pn = r.usize()?;
            link.pipe.clear();
            for _ in 0..pn {
                let arrival = r.u64()?;
                link.pipe.push_back((arrival, load_msg(r)?));
            }
            link.cum_flits = r.u64()?;
            link.blocked_cycles = r.u64()?;
        }
        if r.usize()? != self.arrivals.len() {
            return Err(SnapError::Corrupt("fabric chip arrangement mismatch"));
        }
        for q in &mut self.arrivals {
            let n = r.usize()?;
            q.clear();
            for _ in 0..n {
                q.push_back(load_msg(r)?);
            }
        }
        self.delivered = r.u64()?;
        Ok(())
    }
}

fn save_msg(w: &mut SnapWriter, m: &FabricMsg) {
    w.usize(m.src_chip);
    w.usize(m.dst_chip);
    w.u16(m.origin.0);
    snap::save_packet(w, &m.pkt);
    w.u32(m.flits);
}

fn load_msg(r: &mut SnapReader<'_>) -> Result<FabricMsg, SnapError> {
    Ok(FabricMsg {
        src_chip: r.usize()?,
        dst_chip: r.usize()?,
        origin: NodeId(r.u16()?),
        pkt: snap::load_packet(r)?,
        flits: r.u32()?,
    })
}

impl FabricNetwork {
    /// Build an empty fabric for the configuration.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two chips or a `Pair` topology with a chip
    /// count other than two — callers validate configs up front (see
    /// `SystemConfig::validate`).
    pub fn new(cfg: &FabricConfig) -> Self {
        assert!(cfg.chips >= 2, "a fabric needs at least two chips");
        assert!(
            cfg.topology != FabricTopology::Pair || cfg.chips == 2,
            "pair topology is exactly two chips"
        );
        let links = n_links(cfg.topology, cfg.chips);
        FabricNetwork {
            topology: cfg.topology,
            chips: cfg.chips,
            request: Plane::new(
                cfg.link_flits,
                cfg.hop_latency,
                cfg.queue_pkts,
                links,
                cfg.chips,
            ),
            reply: Plane::new(
                cfg.reply_link_flits,
                cfg.reply_hop_latency,
                cfg.queue_pkts,
                links,
                cfg.chips,
            ),
        }
    }

    fn plane(&self, class: TrafficClass) -> &Plane {
        match class {
            TrafficClass::Request => &self.request,
            TrafficClass::Reply => &self.reply,
        }
    }

    fn plane_mut(&mut self, class: TrafficClass) -> &mut Plane {
        match class {
            TrafficClass::Request => &mut self.request,
            TrafficClass::Reply => &mut self.reply,
        }
    }

    /// Number of chips the fabric joins.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Whether the first-hop link out of `src_chip` toward `dst_chip`
    /// can accept another message this cycle.
    pub fn can_send(&self, class: TrafficClass, src_chip: usize, dst_chip: usize) -> bool {
        let li = next_link(self.topology, self.chips, src_chip, dst_chip);
        let plane = self.plane(class);
        plane.links[li].queue.len() < plane.queue_pkts
    }

    /// Enqueue a message on its first-hop link. Returns `false` (and
    /// leaves the message with the caller) when the link queue is full —
    /// the chip-boundary adapter's egress stall.
    pub fn try_send(&mut self, class: TrafficClass, msg: FabricMsg) -> bool {
        debug_assert!(msg.src_chip < self.chips && msg.dst_chip < self.chips);
        debug_assert_ne!(msg.src_chip, msg.dst_chip);
        let li = next_link(self.topology, self.chips, msg.src_chip, msg.dst_chip);
        let plane = self.plane_mut(class);
        if plane.links[li].queue.len() >= plane.queue_pkts {
            return false;
        }
        plane.links[li].queue.push_back(msg);
        true
    }

    /// The oldest message delivered to `chip` on `class`, if any,
    /// without removing it.
    pub fn peek_arrival(&self, class: TrafficClass, chip: usize) -> Option<&FabricMsg> {
        self.plane(class).arrivals[chip].front()
    }

    /// Remove and return the oldest message delivered to `chip`.
    pub fn pop_arrival(&mut self, class: TrafficClass, chip: usize) -> Option<FabricMsg> {
        self.plane_mut(class).arrivals[chip].pop_front()
    }

    /// Advance both planes one cycle: deliver due messages (hop-by-hop,
    /// with back-pressure), then serialize link heads.
    pub fn tick(&mut self, now: Cycle) {
        self.request.tick(self.topology, self.chips, now);
        self.reply.tick(self.topology, self.chips, now);
    }

    /// Whether no message is queued, in flight, or awaiting pickup —
    /// the fast-forward gate.
    pub fn is_empty(&self) -> bool {
        self.request.is_empty() && self.reply.is_empty()
    }

    /// Messages handed off to chip ingress queues so far, per plane
    /// `(request, reply)`.
    pub fn delivered(&self) -> (u64, u64) {
        (self.request.delivered, self.reply.delivered)
    }

    /// Number of directed links per plane.
    pub fn links_per_plane(&self) -> usize {
        self.request.links.len()
    }

    /// Point-in-time stats of directed link `li` on `class`.
    pub fn link_stat(&self, class: TrafficClass, li: usize) -> LinkStat {
        let (from, to) = link_endpoints(self.topology, self.chips, li);
        let link = &self.plane(class).links[li];
        LinkStat {
            from,
            to,
            queued: link.queue.len(),
            piped: link.pipe.len(),
            cum_flits: link.cum_flits,
            blocked_cycles: link.blocked_cycles,
        }
    }

    /// Aggregate `(cum_flits, blocked_cycles)` over all links of `class`.
    pub fn plane_totals(&self, class: TrafficClass) -> (u64, u64) {
        let plane = self.plane(class);
        plane
            .links
            .iter()
            .fold((0, 0), |(f, b), l| (f + l.cum_flits, b + l.blocked_cycles))
    }

    /// Serialize the full fabric state (no header; the caller owns the
    /// enclosing stream).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.chips);
        self.request.save_state(w);
        self.reply.save_state(w);
    }

    /// Restore state written by [`save_state`](Self::save_state) into a
    /// fabric built from the same configuration.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.usize()? != self.chips {
            return Err(SnapError::Corrupt("fabric chip count mismatch"));
        }
        self.request.load_state(r)?;
        self.reply.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_proto::{Addr, MsgKind, PacketId, Priority};

    fn cfg(chips: usize, topology: FabricTopology) -> FabricConfig {
        FabricConfig {
            chips,
            topology,
            ..FabricConfig::default()
        }
    }

    fn msg(src: usize, dst: usize, flits: u32) -> FabricMsg {
        let pkt = Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(1),
            kind: MsgKind::ReadReq,
            prio: Priority::Gpu,
            addr: Addr::new(0x1000),
            flits: flits as u8,
            created: 0,
            requester: NodeId(0),
            dnf: false,
        };
        FabricMsg {
            src_chip: src,
            dst_chip: dst,
            origin: NodeId(0),
            pkt,
            flits,
        }
    }

    #[test]
    fn pair_delivers_after_serialization_plus_latency() {
        let mut fab = FabricNetwork::new(&FabricConfig {
            link_flits: 2,
            hop_latency: 3,
            ..cfg(2, FabricTopology::Pair)
        });
        assert!(fab.try_send(TrafficClass::Request, msg(0, 1, 4)));
        // 4 flits at 2/cycle = 2 cycles of serialization (ticks 0,1);
        // the wire adds 3 cycles (arrival 1+3=4), handed off in the
        // phase-1 of tick(4).
        for now in 0..4 {
            fab.tick(now);
            assert!(
                fab.peek_arrival(TrafficClass::Request, 1).is_none(),
                "{now}"
            );
        }
        fab.tick(4);
        assert!(fab.pop_arrival(TrafficClass::Request, 1).is_some());
        assert!(fab.is_empty());
        assert_eq!(fab.plane_totals(TrafficClass::Request), (4, 0));
        assert_eq!(fab.delivered(), (1, 0));
    }

    #[test]
    fn planes_are_independent() {
        let mut fab = FabricNetwork::new(&FabricConfig {
            link_flits: 8,
            hop_latency: 1,
            reply_link_flits: 1,
            reply_hop_latency: 10,
            ..cfg(2, FabricTopology::Pair)
        });
        assert!(fab.try_send(TrafficClass::Request, msg(0, 1, 4)));
        assert!(fab.try_send(TrafficClass::Reply, msg(0, 1, 4)));
        fab.tick(0);
        fab.tick(1);
        // Request plane: serialized in 1 cycle, arrives at tick(1).
        assert!(fab.pop_arrival(TrafficClass::Request, 1).is_some());
        // Reply plane at 1 flit/cycle is still serializing.
        assert!(fab.peek_arrival(TrafficClass::Reply, 1).is_none());
        for now in 2..14 {
            fab.tick(now);
        }
        assert!(fab.pop_arrival(TrafficClass::Reply, 1).is_some());
    }

    #[test]
    fn full_queue_rejects_and_backpressure_counts() {
        let mut fab = FabricNetwork::new(&FabricConfig {
            link_flits: 4,
            hop_latency: 1,
            queue_pkts: 2,
            ..cfg(2, FabricTopology::Pair)
        });
        assert!(fab.try_send(TrafficClass::Request, msg(0, 1, 2)));
        assert!(fab.try_send(TrafficClass::Request, msg(0, 1, 2)));
        // Link queue full: the adapter must hold the third message.
        assert!(!fab.can_send(TrafficClass::Request, 0, 1));
        assert!(!fab.try_send(TrafficClass::Request, msg(0, 1, 2)));
        // Let both through, then jam the ingress queue by not popping:
        // queue_pkts bounds arrivals too.
        for now in 0..20 {
            fab.tick(now);
            while fab.try_send(TrafficClass::Request, msg(0, 1, 2)) {}
        }
        let stat = fab.link_stat(TrafficClass::Request, 0);
        assert_eq!((stat.from, stat.to), (0, 1));
        assert!(stat.blocked_cycles > 0, "ingress jam must back-pressure");
        assert_eq!(
            fab.plane(TrafficClass::Request).arrivals[1].len(),
            2,
            "arrivals bounded by queue depth"
        );
    }

    #[test]
    fn ring_routes_shortest_direction_with_clockwise_ties() {
        // 4-chip ring: 0→1 clockwise (distance 1 vs 3), 0→3 counter
        // (1 vs 3), 0→2 tie → clockwise.
        assert_eq!(next_link(FabricTopology::Ring, 4, 0, 1), 0);
        assert_eq!(next_link(FabricTopology::Ring, 4, 0, 3), 1);
        assert_eq!(next_link(FabricTopology::Ring, 4, 0, 2), 0);
        // Multi-hop delivery: 0→2 takes two clockwise hops.
        let mut fab = FabricNetwork::new(&FabricConfig {
            link_flits: 4,
            hop_latency: 1,
            ..cfg(4, FabricTopology::Ring)
        });
        assert!(fab.try_send(TrafficClass::Request, msg(0, 2, 2)));
        let mut arrived_at = None;
        for now in 0..12 {
            fab.tick(now);
            if fab.peek_arrival(TrafficClass::Request, 2).is_some() {
                arrived_at = Some(now);
                break;
            }
        }
        // Hop 1: serialize tick 0, wire → chip-1 queue in tick 1's
        // handoff phase; hop 2 re-serializes that same tick (handoff
        // precedes serialization) and arrives at tick 2.
        assert_eq!(arrived_at, Some(2));
        for c in [0, 1, 3] {
            assert!(fab.peek_arrival(TrafficClass::Request, c).is_none());
        }
    }

    #[test]
    fn all_topology_is_single_hop_between_every_pair() {
        let chips = 4;
        for a in 0..chips {
            for b in 0..chips {
                if a == b {
                    continue;
                }
                let li = next_link(FabricTopology::All, chips, a, b);
                assert_eq!(link_endpoints(FabricTopology::All, chips, li), (a, b));
            }
        }
    }

    #[test]
    fn state_round_trips_mid_flight() {
        let mut fab = FabricNetwork::new(&FabricConfig {
            link_flits: 1,
            hop_latency: 5,
            ..cfg(3, FabricTopology::Ring)
        });
        assert!(fab.try_send(TrafficClass::Request, msg(0, 2, 3)));
        assert!(fab.try_send(TrafficClass::Reply, msg(2, 0, 7)));
        for now in 0..4 {
            fab.tick(now);
        }
        let mut w = SnapWriter::new();
        fab.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FabricNetwork::new(&FabricConfig {
            link_flits: 1,
            hop_latency: 5,
            ..cfg(3, FabricTopology::Ring)
        });
        let mut r = SnapReader::raw(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        // Continuing both must produce identical arrival streams.
        for now in 4..40 {
            fab.tick(now);
            restored.tick(now);
            for chip in 0..3 {
                for class in [TrafficClass::Request, TrafficClass::Reply] {
                    assert_eq!(
                        fab.pop_arrival(class, chip),
                        restored.pop_arrival(class, chip)
                    );
                }
            }
        }
        assert!(fab.is_empty() && restored.is_empty());
    }

    #[test]
    fn wrong_arrangement_is_rejected() {
        let fab = FabricNetwork::new(&cfg(2, FabricTopology::Pair));
        let mut w = SnapWriter::new();
        fab.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other = FabricNetwork::new(&cfg(3, FabricTopology::Ring));
        let mut r = SnapReader::raw(&bytes);
        assert!(matches!(
            other.load_state(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_chip_fabric_panics() {
        FabricNetwork::new(&cfg(1, FabricTopology::Ring));
    }
}
