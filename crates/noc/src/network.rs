//! The cycle-driven network: packet slab, network interfaces, and the
//! VA → SA → ST pipeline over all routers.
//!
//! One [`Network`] simulates one physical network. The baseline system
//! instantiates two (request + reply); the virtual-network configuration
//! instantiates a single shared one with per-class VC partitions.

use crate::flit::{Flit, Slot};
use crate::nodeset::NodeSet;
use crate::router::{Alloc, RouterState, VaWait};
use crate::routing;
use crate::stats::{class_ix, prio_ix, NocStats};
use crate::topology::{PortLink, TopologyGraph};
use clognet_proto::snap::{self, SnapError, SnapReader, SnapWriter};
use clognet_proto::{Cycle, NodeId, Packet, Priority, RoutingPolicy, Topology, TrafficClass};
use std::collections::VecDeque;

/// How traffic classes map onto this physical network's VCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassAssignment {
    /// The network carries a single class with `vcs` virtual channels
    /// (the baseline's physically-separate request/reply networks).
    Single(TrafficClass, usize),
    /// Both classes share the physical network on disjoint VC sets
    /// (Section VII "virtual networks"; AVCP varies the split).
    Shared {
        /// VCs for request-class traffic.
        request_vcs: usize,
        /// VCs for reply-class traffic.
        reply_vcs: usize,
    },
}

impl ClassAssignment {
    /// The VC index range for `class`, or `None` if this network does not
    /// carry it.
    pub fn vc_range(&self, class: TrafficClass) -> Option<std::ops::Range<usize>> {
        match *self {
            ClassAssignment::Single(c, v) => (c == class).then_some(0..v),
            ClassAssignment::Shared {
                request_vcs,
                reply_vcs,
            } => match class {
                TrafficClass::Request => Some(0..request_vcs),
                TrafficClass::Reply => Some(request_vcs..request_vcs + reply_vcs),
            },
        }
    }

    /// Total VCs per port.
    pub fn total_vcs(&self) -> usize {
        match *self {
            ClassAssignment::Single(_, v) => v,
            ClassAssignment::Shared {
                request_vcs,
                reply_vcs,
            } => request_vcs + reply_vcs,
        }
    }
}

/// Construction parameters for one physical network.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Topology family.
    pub topology: Topology,
    /// Node-grid width.
    pub width: usize,
    /// Node-grid height.
    pub height: usize,
    /// Class → VC mapping.
    pub classes: ClassAssignment,
    /// Buffer depth per VC, in flits.
    pub vc_buf_flits: u8,
    /// Router pipeline depth in cycles (>= 2).
    pub pipeline: u32,
    /// Routing policy for request-class packets.
    pub routing_request: RoutingPolicy,
    /// Routing policy for reply-class packets.
    pub routing_reply: RoutingPolicy,
    /// Per-node ejection (reassembly) buffer, in flits. Must hold at
    /// least one maximum-size packet.
    pub eject_buf_flits: usize,
    /// iSLIP iterations per cycle (1 = the classic single-iteration
    /// separable allocator; more iterations fill in the matching and
    /// raise crossbar utilization at higher allocator cost).
    pub sa_iterations: usize,
}

impl NetParams {
    fn policy_for(&self, class: TrafficClass) -> RoutingPolicy {
        match class {
            TrafficClass::Request => self.routing_request,
            TrafficClass::Reply => self.routing_reply,
        }
    }
}

/// The VC sub-range a packet of (`class`, `prio`) may occupy, or `None`
/// when the network does not carry `class`.
///
/// On the reply network the top VC of the class range is reserved for
/// CPU packets (and CPU packets use only it): this is how "higher
/// priority to CPU packets in the VC allocator" (Table I / Zhan+
/// OSCAR) becomes effective despite FIFO VC buffers — a CPU reply is
/// never stuck behind a wormholing GPU reply. The request network
/// keeps shared VCs: 1-flit requests cause no wormhole head-of-line
/// blocking worth a dedicated VC, and halving the GPU request VCs
/// measurably hurts both classes. Dragonfly needs its second VC for
/// deadlock avoidance, so no reservation there.
fn partition(
    params: &NetParams,
    class: TrafficClass,
    prio: Priority,
) -> Option<std::ops::Range<usize>> {
    let range = params.classes.vc_range(class)?;
    Some(
        if class == TrafficClass::Reply
            && range.len() >= 2
            && params.topology != Topology::Dragonfly
        {
            match prio {
                Priority::Cpu => range.end - 1..range.end,
                Priority::Gpu => range.start..range.end - 1,
            }
        } else {
            range
        },
    )
}

/// RC + VA delay of a `class` flit entering a router: RC + VA occupy
/// pipeline-2 of the pipeline stages; SA and ST are explicit in the tick
/// loop. Adaptive routing pays one extra stage for the heavier route
/// computation / switch allocation (the crossbar-congestion overhead of
/// Dally & Aoki cited by the paper as the reason adaptive schemes lose to
/// CDR).
fn proc_delay(params: &NetParams, class: TrafficClass) -> Cycle {
    let adaptive = matches!(
        params.policy_for(class),
        RoutingPolicy::DyXY | RoutingPolicy::Footprint | RoutingPolicy::Hare
    );
    (params.pipeline - 2) as Cycle + Cycle::from(adaptive)
}

#[derive(Debug)]
struct InjSlot {
    slot: Slot,
    next_idx: u8,
    total: u8,
    /// The packet's priority and class, cached for its flits.
    prio: Priority,
    class: TrafficClass,
}

#[derive(Debug)]
struct Ni {
    router: usize,
    port: usize,
    /// One streaming slot per VC index (only indices within a carried
    /// class's range are ever used).
    inj: Vec<Option<InjSlot>>,
    /// Bit `v` set while `inj[v]` holds a slot, so a free-slot test is
    /// one mask operation.
    live: u64,
    /// Round-robin pointer over injection VCs (one flit per cycle total:
    /// a node has a single physical injection channel per network,
    /// regardless of topology — the premise behind the paper's
    /// "each memory node has a single reply network link").
    inj_rr: usize,
    /// Flits currently held by the ejection buffer (including flits of
    /// packets already assembled but not yet taken by the node).
    eject_used: usize,
    /// Fully reassembled packets awaiting the node.
    ejected: VecDeque<Packet>,
}

/// One switch-allocation request: router input VC `bit` (`port·V + vc`)
/// asks for output port `out`.
#[derive(Debug, Clone, Copy)]
struct SaRequest {
    /// Requested output port.
    out: usize,
    /// Requesting input VC, as the router-local bit `port·V + vc` (also
    /// its iSLIP grant id).
    bit: usize,
    /// Priority of the requesting packet.
    prio: Priority,
}

/// The best request so far of one iSLIP bucket: (request index,
/// (priority, pointer distance)).
type SaBest = Option<(usize, (Priority, usize))>;

/// Switch allocation's working set, reused router after router (cleared
/// or refilled, never shrunk, so steady-state ticks stay heap-free).
#[derive(Debug, Default)]
struct SaScratch {
    /// Requests gathered at the current router, in ascending input-VC
    /// order.
    requests: Vec<SaRequest>,
    /// Per-round grant winner of each output port.
    out_best: Vec<SaBest>,
    /// Per-round accept winner of each input port.
    in_best: Vec<SaBest>,
    /// Accepted matches (input VC bit, output port), in traversal order.
    accepted: Vec<(usize, usize)>,
    /// Output ports already matched this cycle.
    out_taken: Vec<bool>,
    /// Input ports already matched this cycle.
    in_taken: Vec<bool>,
}

#[derive(Debug, Default)]
struct PacketSlab {
    v: Vec<Option<Packet>>,
    free: Vec<u32>,
    live: usize,
}

impl PacketSlab {
    fn insert(&mut self, p: Packet) -> Slot {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            self.v[i as usize] = Some(p);
            i
        } else {
            self.v.push(Some(p));
            (self.v.len() - 1) as u32
        }
    }

    fn get(&self, s: Slot) -> &Packet {
        self.v[s as usize].as_ref().expect("live packet")
    }

    fn remove(&mut self, s: Slot) -> Packet {
        self.live -= 1;
        self.free.push(s);
        self.v[s as usize].take().expect("live packet")
    }
}

/// A cycle-accurate wormhole network with virtual channels, credit-based
/// flow control, and iSLIP switch allocation with CPU priority.
///
/// # Example
///
/// ```
/// use clognet_noc::{ClassAssignment, NetParams, Network};
/// use clognet_proto::*;
///
/// let mut net = Network::new(NetParams {
///     topology: Topology::Mesh,
///     width: 4,
///     height: 4,
///     classes: ClassAssignment::Single(TrafficClass::Request, 2),
///     vc_buf_flits: 4,
///     pipeline: 4,
///     routing_request: RoutingPolicy::DorXY,
///     routing_reply: RoutingPolicy::DorXY,
///     eject_buf_flits: 32,
///     sa_iterations: 1,
/// });
/// let pkt = Packet::new(
///     PacketId(1), NodeId(0), NodeId(15), MsgKind::ReadReq,
///     Priority::Gpu, Addr::new(0x100), 128, 16, 0,
/// );
/// net.try_inject(pkt).unwrap();
/// for _ in 0..100 { net.tick(); }
/// let out = net.take_ejected(NodeId(15), usize::MAX);
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug)]
pub struct Network {
    params: NetParams,
    topo: TopologyGraph,
    /// Every router's VC buffers, allocations, credits and bitsets, in
    /// flat structure-of-arrays form (see [`crate::router`]).
    routers: RouterState,
    nis: Vec<Ni>,
    /// `ni_progress[node * V + vc]`: did a flit stream from the node's NI
    /// into its router on this VC during the last tick? Cleared per tick.
    ni_progress: Vec<bool>,
    /// The NIs holding at least one live injection slot; injection
    /// visits only those NIs.
    ni_live: NodeSet,
    /// The NIs whose every live slot faces a full input VC at their
    /// router. Only a pop at that local port (in [`Self::traverse`]) or a
    /// new slot can change that, so injection skips the NI until one
    /// happens. Derived state: never serialized, empty after a restore.
    ni_parked: NodeSet,
    /// Injection's working set (live and not parked), reused per tick.
    ni_todo: NodeSet,
    /// `part_mask[class][prio]`: the VCs of [`Self::vc_partition`] as a
    /// mask; zero for a class this network does not carry.
    part_mask: [[u64; 2]; 2],
    /// `free_slots[class][prio]`: the NIs with a free slot a (`class`,
    /// `prio`) packet may take.
    free_slots: [[NodeSet; 2]; 2],
    /// `want[class]`: the NIs that refused a `class` packet since the
    /// last tick (the injection-stall counter's input); empty at a
    /// snapshot boundary (see [`Self::save_state`]).
    want: [NodeSet; 2],
    /// The NIs holding reassembled packets.
    ejected_any: NodeSet,
    packets: PacketSlab,
    now: Cycle,
    stats: NocStats,
    /// Credit returns (router, output port, VC) applied after the router
    /// pass.
    credit_returns: Vec<(usize, usize, usize)>,
    /// Link transfers (router, input VC bit, flit) applied after the
    /// router pass.
    transfers: Vec<(usize, usize, Flit)>,
    total_vcs: usize,
    /// RC + VA pipeline delay of a flit entering a router, by class.
    proc_delay: [Cycle; 2],
    stats_epoch: Cycle,
    /// Reference mode: when `false`, the tick scans every input VC of
    /// every router (and every NI) instead of following the occupancy,
    /// allocation and free-VC bitsets (for equivalence tests; results
    /// must be identical either way).
    idle_skip: bool,
    /// Switch allocation's scratch buffers.
    sa: SaScratch,
    /// Per-slot received-flit counts for ejection reassembly, indexed by
    /// packet slot (a packet ejects at exactly one node, so one shared
    /// flat array replaces the former per-NI `HashMap<Slot, u8>`). Grows
    /// with the packet slab; a free slot's count is always zero.
    eject_counts: Vec<u8>,
    /// Per-class precomputed next-hop tables
    /// (`table[router * nodes + dst]`), present when this network
    /// carries the class and its routing policy is deterministic on this
    /// topology; adaptive policies keep evaluating
    /// [`routing::candidates`] dynamically.
    route_tables: [Option<Vec<u8>>; 2],
}

impl Network {
    /// Build the network.
    ///
    /// # Panics
    ///
    /// Panics if the ejection buffer cannot hold a maximum-size packet or
    /// the VC assignment is empty.
    pub fn new(params: NetParams) -> Self {
        let total_vcs = params.classes.total_vcs();
        assert!(total_vcs > 0, "need at least one VC");
        assert!(params.pipeline >= 2, "pipeline must be at least 2 stages");
        let topo = TopologyGraph::build(params.topology, params.width, params.height);
        let routers = RouterState::new(&topo, total_vcs, params.vc_buf_flits);
        let nis: Vec<Ni> = (0..topo.nodes())
            .map(|n| {
                let (router, port) = topo.attach_of(NodeId(n as u16));
                Ni {
                    router,
                    port,
                    inj: (0..total_vcs).map(|_| None).collect(),
                    live: 0,
                    inj_rr: 0,
                    eject_used: 0,
                    ejected: VecDeque::new(),
                }
            })
            .collect();
        let stats = NocStats::new(topo.routers(), |r| topo.port_count(r), topo.nodes());
        // Tables only for the classes this network carries: the other
        // class never routes here.
        let route_tables = [TrafficClass::Request, TrafficClass::Reply].map(|class| {
            params.classes.vc_range(class)?;
            topo.route_table(params.policy_for(class))
        });
        let proc_delay = [
            proc_delay(&params, TrafficClass::Request),
            proc_delay(&params, TrafficClass::Reply),
        ];
        let nodes = NodeSet::new(nis.len());
        let part_mask = [TrafficClass::Request, TrafficClass::Reply].map(|class| {
            [Priority::Cpu, Priority::Gpu].map(|prio| {
                partition(&params, class, prio).map_or(0, |r| r.fold(0, |m, v| m | 1u64 << v))
            })
        });
        let mut net = Network {
            params,
            routers,
            ni_progress: vec![false; nis.len() * total_vcs],
            ni_live: nodes.clone(),
            ni_parked: nodes.clone(),
            ni_todo: nodes.clone(),
            part_mask,
            free_slots: std::array::from_fn(|_| std::array::from_fn(|_| nodes.clone())),
            want: [nodes.clone(), nodes.clone()],
            ejected_any: nodes,
            nis,
            packets: PacketSlab::default(),
            now: 0,
            stats,
            credit_returns: Vec::new(),
            transfers: Vec::new(),
            total_vcs,
            proc_delay,
            stats_epoch: 0,
            idle_skip: true,
            sa: SaScratch::default(),
            eject_counts: Vec::new(),
            route_tables,
            topo,
        };
        net.rebuild_free_slots();
        net
    }

    /// Toggle the bitset fast path (on by default). Turning it off makes
    /// every tick scan every input VC of every router and every NI,
    /// ignoring the occupancy, allocation, parked and free-VC bitsets
    /// and parking nothing — a reference mode for equivalence tests;
    /// simulated behavior is identical either way, only wall-clock
    /// differs.
    pub fn set_idle_skip(&mut self, on: bool) {
        self.idle_skip = on;
        self.ni_parked.clear();
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The topology graph (for layout-aware statistics).
    pub fn topo(&self) -> &TopologyGraph {
        &self.topo
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Zero all statistics (warmup exclusion). The clock keeps running;
    /// latency means and rates computed afterwards cover only the
    /// post-reset window.
    pub fn reset_stats(&mut self) {
        let nodes = self.nis.len();
        let routers = self.topo.routers();
        let mut fresh = NocStats::new(routers, |r| self.topo.port_count(r), nodes);
        fresh.cycles = 0;
        self.stats = fresh;
        self.stats_epoch = self.now;
    }

    /// Serialize the network's full mutable state: routers, NIs, the
    /// packet slab (including its free list, which decides future slot
    /// assignment), reassembly counters, clock and statistics. The
    /// idle-skip mode is deliberately excluded: snapshots are
    /// byte-identical across engine modes and a restored network may run
    /// under a different one. So are the refused-injection sets, which
    /// are empty at a snapshot boundary: the tick's stall accounting
    /// clears them, and fabric ingress tests [`Self::can_inject`] before
    /// it injects.
    ///
    /// # Panics
    ///
    /// Panics if called mid-tick (deferred transfers or credit returns
    /// pending) — snapshots are only defined at tick boundaries.
    pub fn save_state(&self, w: &mut SnapWriter) {
        assert!(
            self.transfers.is_empty() && self.credit_returns.is_empty(),
            "snapshot mid-tick"
        );
        debug_assert!(
            self.want.iter().all(NodeSet::is_empty),
            "snapshot with refused injections not yet counted"
        );
        w.u64(self.now);
        w.usize(self.packets.v.len());
        for p in &self.packets.v {
            match p {
                Some(p) => {
                    w.bool(true);
                    snap::save_packet(w, p);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.packets.free.len());
        for &s in &self.packets.free {
            w.u32(s);
        }
        w.usize(self.packets.live);
        self.routers.save_state(w);
        for (n, ni) in self.nis.iter().enumerate() {
            for s in &ni.inj {
                match s {
                    Some(s) => {
                        w.bool(true);
                        w.u32(s.slot);
                        w.u8(s.next_idx);
                        w.u8(s.total);
                    }
                    None => w.bool(false),
                }
            }
            for &p in &self.ni_progress[n * self.total_vcs..(n + 1) * self.total_vcs] {
                w.bool(p);
            }
            w.usize(ni.inj_rr);
            w.usize(ni.eject_used);
            w.usize(ni.ejected.len());
            for p in &ni.ejected {
                snap::save_packet(w, p);
            }
        }
        w.bytes(&self.eject_counts);
        w.u64(self.stats_epoch);
        self.stats.save_state(w);
    }

    /// Overlay state captured by [`Network::save_state`] onto a network
    /// built with the same [`NetParams`]. The current idle-skip mode is
    /// preserved; the bitsets and cached flit metadata are rebuilt from
    /// the restored buffers and packets.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = r.u64()?;
        let n = r.usize()?;
        self.packets.v.clear();
        for _ in 0..n {
            self.packets.v.push(if r.bool()? {
                Some(snap::load_packet(r)?)
            } else {
                None
            });
        }
        self.packets.free.clear();
        for _ in 0..r.usize()? {
            self.packets.free.push(r.u32()?);
        }
        self.packets.live = r.usize()?;
        let live = self.packets.v.iter().filter(|p| p.is_some()).count();
        if self.packets.live != live {
            return Err(SnapError::Corrupt("packet slab live count mismatch"));
        }
        let packets = &self.packets;
        self.routers.load_state(r, |slot| {
            let p = packets.v.get(slot as usize)?.as_ref()?;
            Some((p.prio, p.class()))
        })?;
        for set in [
            &mut self.ni_live,
            &mut self.ni_parked,
            &mut self.ejected_any,
        ]
        .into_iter()
        .chain(&mut self.want)
        {
            set.clear();
        }
        for (n, ni) in self.nis.iter_mut().enumerate() {
            ni.live = 0;
            for (v, s) in ni.inj.iter_mut().enumerate() {
                *s = if r.bool()? {
                    let (slot, next_idx, total) = (r.u32()?, r.u8()?, r.u8()?);
                    let p = self.packets.v.get(slot as usize).and_then(Option::as_ref);
                    let p = p.ok_or(SnapError::Corrupt("injection slot of a dead packet"))?;
                    self.ni_live.insert(n);
                    ni.live |= 1 << v;
                    Some(InjSlot {
                        slot,
                        next_idx,
                        total,
                        prio: p.prio,
                        class: p.class(),
                    })
                } else {
                    None
                };
            }
            for p in &mut self.ni_progress[n * self.total_vcs..(n + 1) * self.total_vcs] {
                *p = r.bool()?;
            }
            ni.inj_rr = r.usize()?;
            ni.eject_used = r.usize()?;
            ni.ejected.clear();
            for _ in 0..r.usize()? {
                ni.ejected.push_back(snap::load_packet(r)?);
            }
            self.ejected_any.set(n, !ni.ejected.is_empty());
        }
        self.rebuild_free_slots();
        self.eject_counts = r.bytes()?;
        self.stats_epoch = r.u64()?;
        self.stats.load_state(r)?;
        self.transfers.clear();
        self.credit_returns.clear();
        Ok(())
    }

    /// Packets currently inside the network (including reassembled ones
    /// not yet taken).
    pub fn in_flight(&self) -> usize {
        self.packets.live + self.nis.iter().map(|ni| ni.ejected.len()).sum::<usize>()
    }

    /// Whether [`Self::in_flight`] is non-zero, without counting.
    pub fn has_in_flight(&self) -> bool {
        self.packets.live > 0 || !self.ejected_any.is_empty()
    }

    /// Flits buffered inside router input VCs (congestion diagnostic).
    pub fn buffered_flits(&self) -> usize {
        self.routers.buffered_total()
    }

    /// Flits buffered inside one router's input VCs — the per-router VC
    /// occupancy hook the telemetry sampler reads to find hot spots.
    pub fn router_buffered_flits(&self, router: usize) -> usize {
        self.routers.buffered(router)
    }

    /// Whether a new packet of (`class`, `prio`) could start streaming at
    /// `node` right now (a free injection VC in its partition exists).
    pub fn can_inject(&self, node: NodeId, class: TrafficClass, prio: Priority) -> bool {
        !self.nis[node.index()].live & self.part_mask[class_ix(class)][prio_ix(prio)] != 0
    }

    /// The nodes at which [`Self::can_inject`] holds for (`class`,
    /// `prio`).
    pub fn free_slots(&self, class: TrafficClass, prio: Priority) -> &NodeSet {
        &self.free_slots[class_ix(class)][prio_ix(prio)]
    }

    /// The nodes whose NI holds reassembled packets.
    pub fn ejected(&self) -> &NodeSet {
        &self.ejected_any
    }

    /// Record that a `class` packet was refused at `node` this cycle, as
    /// a refused [`Self::try_inject`] does: the NI counts one
    /// injection-stall cycle at the next tick.
    pub fn note_refused(&mut self, node: NodeId, class: TrafficClass) {
        self.want[class_ix(class)].insert(node.index());
    }

    /// [`Self::note_refused`] at every node of `nodes`.
    pub fn note_refused_all(&mut self, nodes: &NodeSet, class: TrafficClass) {
        self.want[class_ix(class)].union_with(nodes);
    }

    /// True when `node` could not inject (`class`, `prio`) traffic: every
    /// streaming slot of the partition is busy and none of them made
    /// progress during the last tick. This is the paper's trigger for
    /// speculative delegation ("only ... when memory nodes cannot inject
    /// reply traffic into the NoC").
    pub fn inject_blocked(&self, node: NodeId, class: TrafficClass, prio: Priority) -> bool {
        let mask = self.part_mask[class_ix(class)][prio_ix(prio)];
        if !self.nis[node.index()].live & mask != 0 {
            return false;
        }
        let progress = &self.ni_progress[node.index() * self.total_vcs..];
        (0..self.total_vcs).all(|v| mask & 1 << v == 0 || !progress[v])
    }

    /// Hand a packet to the node's network interface.
    ///
    /// # Errors
    ///
    /// Returns the packet back if no injection VC of its class is free;
    /// the caller keeps it queued (this is exactly how memory-node
    /// injection buffers back up and block).
    ///
    /// # Panics
    ///
    /// Panics if this network does not carry the packet's class, or if
    /// `src == dst`.
    pub fn try_inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        assert_ne!(pkt.src, pkt.dst, "self-send: {pkt}");
        let class = pkt.class();
        if self.params.classes.vc_range(class).is_none() {
            panic!("network does not carry {class}");
        }
        let (ci, n) = (class_ix(class), pkt.src.index());
        let free = !self.nis[n].live & self.part_mask[ci][prio_ix(pkt.prio)];
        if free == 0 {
            self.want[ci].insert(n);
            return Err(pkt);
        }
        // The lowest free VC of the partition.
        let vc = free.trailing_zeros() as usize;
        self.stats.injected_pkts[ci] += 1;
        self.stats.injected_flits[ci] += pkt.flits as u64;
        let (total, prio) = (pkt.flits, pkt.prio);
        let slot = self.packets.insert(pkt);
        let ni = &mut self.nis[n];
        ni.inj[vc] = Some(InjSlot {
            slot,
            next_idx: 0,
            total,
            prio,
            class,
        });
        ni.live |= 1 << vc;
        self.ni_live.insert(n);
        // A new slot may face a VC with room: wake the NI.
        self.ni_parked.remove(n);
        self.update_free_slots(n);
        Ok(())
    }

    /// Recompute every node's bits in the free-slot bitsets.
    fn rebuild_free_slots(&mut self) {
        for n in 0..self.nis.len() {
            self.update_free_slots(n);
        }
    }

    /// Refresh node `n`'s bits in the free-slot bitsets from its NI's
    /// live-slot mask.
    fn update_free_slots(&mut self, n: usize) {
        let live = self.nis[n].live;
        for (masks, sets) in self.part_mask.iter().zip(&mut self.free_slots) {
            for (&m, set) in masks.iter().zip(sets) {
                set.set(n, !live & m != 0);
            }
        }
    }

    /// Clear node `n`'s reassembled-packet bit once its queue is empty.
    fn note_ejected_taken(&mut self, n: usize) {
        if self.nis[n].ejected.is_empty() {
            self.ejected_any.remove(n);
        }
    }

    /// Take the oldest fully-reassembled packet destined to `node`, if
    /// any. Taking a packet frees its flits' worth of ejection-buffer
    /// space; a node that stops taking (a blocked memory node)
    /// back-pressures the network. This is the allocation-free primitive
    /// behind [`Self::take_ejected`]; hot loops call it directly.
    pub fn pop_ejected(&mut self, node: NodeId) -> Option<Packet> {
        let ni = &mut self.nis[node.index()];
        let p = ni.ejected.pop_front()?;
        ni.eject_used -= p.flits as usize;
        self.note_ejected_taken(node.index());
        Some(p)
    }

    /// Append up to `max` fully-reassembled packets destined to `node`
    /// onto `out` (which is NOT cleared), returning how many were moved.
    /// The fill-into-caller-buffer form of [`Self::take_ejected`]: the
    /// caller reuses one buffer across cycles instead of allocating a
    /// fresh `Vec` per call.
    pub fn take_ejected_into(&mut self, node: NodeId, max: usize, out: &mut Vec<Packet>) -> usize {
        let ni = &mut self.nis[node.index()];
        let n = ni.ejected.len().min(max);
        out.reserve(n);
        for _ in 0..n {
            let p = ni.ejected.pop_front().expect("counted");
            ni.eject_used -= p.flits as usize;
            out.push(p);
        }
        self.note_ejected_taken(node.index());
        n
    }

    /// Take up to `max` fully-reassembled packets destined to `node`.
    /// Convenience wrapper over [`Self::take_ejected_into`] for tests
    /// and examples; per-cycle code paths use the `_into`/`pop` variants
    /// to stay allocation-free.
    pub fn take_ejected(&mut self, node: NodeId, max: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        self.take_ejected_into(node, max, &mut out);
        out
    }

    /// Append up to `max` reassembled packets at `node` onto `out`,
    /// serving CPU packets anywhere in the queue first (the
    /// memory-system CPU priority of Table I applied at the ejection
    /// interface). Returns how many were moved.
    pub fn take_ejected_cpu_first_into(
        &mut self,
        node: NodeId,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> usize {
        let ni = &mut self.nis[node.index()];
        let mut n = 0;
        while n < max {
            let ix = ni
                .ejected
                .iter()
                .position(|p| p.prio == Priority::Cpu)
                .unwrap_or(0);
            let Some(p) = ni.ejected.remove(ix) else {
                break;
            };
            ni.eject_used -= p.flits as usize;
            out.push(p);
            n += 1;
        }
        self.note_ejected_taken(node.index());
        n
    }

    /// Take up to `max` reassembled packets at `node`, CPU first.
    /// Convenience wrapper over [`Self::take_ejected_cpu_first_into`].
    pub fn take_ejected_cpu_first(&mut self, node: NodeId, max: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        self.take_ejected_cpu_first_into(node, max, &mut out);
        out
    }

    /// Peek the first reassembled packet waiting at `node`.
    pub fn peek_ejected(&self, node: NodeId) -> Option<&Packet> {
        self.nis[node.index()].ejected.front()
    }

    /// Number of reassembled packets waiting at `node`.
    pub fn ejected_len(&self, node: NodeId) -> usize {
        self.nis[node.index()].ejected.len()
    }

    /// The VC sub-range a packet of (`class`, `prio`) may occupy (see
    /// [`partition`]).
    fn vc_partition(&self, class: TrafficClass, prio: Priority) -> std::ops::Range<usize> {
        partition(&self.params, class, prio).expect("carried class")
    }

    /// The earliest future cycle at which [`Self::tick`] could change
    /// observable state absent new injections.
    ///
    /// `Some(now)` whenever any packet is live inside the network (a
    /// flit could move every cycle) or a HARE policy is configured (its
    /// per-port credit EWMA decays every cycle even when idle, so the
    /// network never quiesces). `None` means ticking is a pure clock
    /// increment and the caller may [`Self::advance_to`] instead.
    /// Reassembled packets waiting in ejection queues do not count: they
    /// are passive until the node takes them.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        debug_assert_eq!(now, self.now, "network clock out of sync");
        let hare = matches!(self.params.routing_request, RoutingPolicy::Hare)
            || matches!(self.params.routing_reply, RoutingPolicy::Hare);
        if self.packets.live > 0 || hare {
            return Some(now);
        }
        None
    }

    /// Jump the network clock to `cycle` without ticking, integrating
    /// the skipped span into the cycle counter. Only valid when
    /// [`Self::next_event`] returned `None`: with no live packets the
    /// per-cycle work of [`Self::tick`] reduces to exactly this clock
    /// update.
    pub fn advance_to(&mut self, cycle: Cycle) {
        debug_assert!(cycle >= self.now, "clock must not run backwards");
        debug_assert_eq!(self.packets.live, 0, "advance_to with live packets");
        self.now = cycle;
        self.stats.cycles = self.now - self.stats_epoch;
    }

    /// Advance the network by one cycle.
    ///
    /// Steady-state ticks perform zero heap allocations: all per-cycle
    /// working sets (SA requests/grants/matches, link transfers, credit
    /// returns) live in scratch buffers that are drained in place. The
    /// phases follow the per-router and per-NI bitsets, so a tick pays
    /// only for what holds flits and could move: VA visits occupied,
    /// unallocated VCs not asleep on a `VaWait`, SA occupied, allocated
    /// ones not parked on a credit, a router with nothing to visit costs
    /// one word test, and injection visits NIs with a live slot that are
    /// not parked on a full input VC.
    ///
    /// Each router runs VC allocation and then switch allocation +
    /// traversal before the next router starts. That equals running VA
    /// over every router and then SA/ST over every router: VA at a
    /// router reads and writes only that router's state, SA/ST mutates
    /// only its router and the router's locally attached NIs and defers
    /// link transfers and credit returns to the apply loops below, and
    /// the packets it finishes ejecting are ones no router still holds.
    pub fn tick(&mut self) {
        self.ni_progress.fill(false);
        self.update_adaptive_state();
        // Pre-size the reassembly counters: slots are bounded by the
        // slab length, and the router pass allocates none.
        if self.eject_counts.len() < self.packets.v.len() {
            self.eject_counts.resize(self.packets.v.len(), 0);
        }
        let mut sa = std::mem::take(&mut self.sa);
        for r in 0..self.topo.routers() {
            if self.idle_skip && !self.routers.has_work(r) {
                continue;
            }
            self.for_each_vc(r, false, |net, bit| net.va_vc(r, bit));
            sa.requests.clear();
            self.for_each_vc(r, true, |net, bit| net.sa_request(r, bit, &mut sa.requests));
            if !sa.requests.is_empty() {
                self.sa_st_router(r, &mut sa);
            }
        }
        self.sa = sa;
        // Apply link transfers (arrivals become visible next tick).
        // Drained in place: capacity is retained across cycles and
        // nothing pushes to `transfers` during the apply loop.
        for (r, bit, f) in self.transfers.drain(..) {
            self.routers.push(r, bit, f);
        }
        self.ni_injection();
        // Apply credit returns (one-cycle credit latency), drained in
        // place like the transfers above.
        for (r, p, vc) in self.credit_returns.drain(..) {
            self.routers.return_credit(r, p, vc);
        }
        self.count_injection_stalls();
        self.now += 1;
        self.stats.cycles = self.now - self.stats_epoch;
        debug_assert!(
            self.bitsets_consistent(),
            "router or NI bitsets diverged from the VC state at cycle {}",
            self.now
        );
    }

    /// Whether every router's bitsets and free-VC masks, and the NI
    /// bitsets and masks, equal the state they summarize, and every
    /// parked NI really cannot inject: each of its live slots faces a
    /// full input VC.
    fn bitsets_consistent(&self) -> bool {
        let routers = (0..self.topo.routers()).all(|r| self.routers.bitsets_consistent(r));
        let nis = self.nis.iter().enumerate().all(|(n, ni)| {
            let live_mask = (0..self.total_vcs)
                .filter(|&v| ni.inj[v].is_some())
                .fold(0u64, |m, v| m | 1 << v);
            let free_ok = self
                .part_mask
                .iter()
                .zip(&self.free_slots)
                .all(|(masks, sets)| {
                    masks
                        .iter()
                        .zip(sets)
                        .all(|(&m, set)| set.contains(n) == (!live_mask & m != 0))
                });
            let parked_ok = !self.ni_parked.contains(n)
                || live_mask != 0
                    && (0..self.total_vcs).all(|v| {
                        live_mask & 1 << v == 0
                            || self
                                .routers
                                .len(self.routers.vc_ix(ni.router, ni.port * self.total_vcs + v))
                                >= self.params.vc_buf_flits as usize
                    });
            ni.live == live_mask
                && self.ni_live.contains(n) == (live_mask != 0)
                && self.ejected_any.contains(n) != ni.ejected.is_empty()
                && free_ok
                && parked_ok
        });
        routers && nis
    }

    /// Visit router `r`'s occupied input VCs that hold an allocation
    /// (`allocated`) or still need one, in ascending bit order: the set
    /// bits of its bitsets minus the parked ones, or in the reference
    /// mode every VC, tested one by one.
    fn for_each_vc(&mut self, r: usize, allocated: bool, mut visit: impl FnMut(&mut Self, usize)) {
        if self.idle_skip {
            let words = self.routers.words(r);
            for w in words.clone() {
                let base = (w - words.start) * 64;
                let mut bits = if allocated {
                    self.routers.allocated_word(w)
                } else {
                    self.routers.unallocated_word(w)
                };
                while bits != 0 {
                    let bit = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    visit(self, bit);
                }
            }
        } else {
            for bit in 0..self.routers.bits(r) {
                let ix = self.routers.vc_ix(r, bit);
                if self.routers.alloc(ix).is_some() == allocated && self.routers.len(ix) > 0 {
                    visit(self, bit);
                }
            }
        }
    }

    fn update_adaptive_state(&mut self) {
        // HARE keeps an EWMA of per-port free credits; cheap enough to
        // update only when an adaptive policy is configured.
        let adaptive = matches!(self.params.routing_request, RoutingPolicy::Hare)
            || matches!(self.params.routing_reply, RoutingPolicy::Hare);
        if !adaptive {
            return;
        }
        for r in 0..self.topo.routers() {
            for p in 0..self.routers.ports(r) {
                let free = self.routers.free_credits(r, p, 0, self.total_vcs);
                let pix = self.routers.port_ix(r, p);
                let h = &mut self.routers.hare_score[pix];
                *h = 0.9 * *h + 0.1 * free as f64;
            }
        }
    }

    /// VC allocation for router `r`'s input VC `bit` (occupied, not yet
    /// allocated): give its head flit an output port + output VC.
    fn va_vc(&mut self, r: usize, bit: usize) {
        let ix = self.routers.vc_ix(r, bit);
        if self.idle_skip {
            if let Some(w) = self.routers.va_wait(ix) {
                // The head already failed on its single candidate port;
                // only a freed output VC there changes the answer.
                let (p, lo, hi) = (w.port as usize, w.lo as usize, w.hi as usize);
                let found = self.routers.first_free_out(r, p, lo, hi, true);
                let memo = found.map(|vc| Alloc {
                    port: w.port,
                    vc: vc as u8,
                    eject: false,
                });
                debug_assert_eq!(
                    memo.ok_or(Some(w)),
                    self.route_and_choose(r, ix),
                    "VA wait memo disagrees with the full computation"
                );
                match memo {
                    Some(alloc) => self.allocate(r, bit, alloc),
                    // Woken, but a lower bit took the freed VC first.
                    None => self.routers.set_va_wait(r, bit, w),
                }
                return;
            }
        }
        let f = self.routers.front(ix).expect("occupied VC");
        debug_assert!(f.is_head(), "body flit at VC head without allocation");
        if f.eligible > self.now {
            return;
        }
        match self.route_and_choose(r, ix) {
            Ok(alloc) => self.allocate(r, bit, alloc),
            Err(Some(wait)) if self.idle_skip => self.routers.set_va_wait(r, bit, wait),
            Err(_) => {}
        }
    }

    /// Route the (eligible) head flit of input VC `ix` at router `r` and
    /// pick its output; see [`Self::choose_output`].
    fn route_and_choose(&self, r: usize, ix: usize) -> Result<Alloc, Option<VaWait>> {
        let f = self.routers.front(ix).expect("occupied VC");
        let dst = self.packets.get(f.slot).dst;
        let policy = self.params.policy_for(f.class);
        // Deterministic policies read the precomputed next-hop table;
        // adaptive ones evaluate the routing relation per head flit.
        let cand = match &self.route_tables[class_ix(f.class)] {
            Some(t) => routing::Candidates::single(t[r * self.nis.len() + dst.index()] as usize),
            None => routing::candidates(&self.topo, r, dst, policy),
        };
        self.choose_output(r, f.class, f.prio, dst, policy, &cand)
    }

    /// Hand router `r`'s input VC `bit` its allocation, claiming the
    /// output VC unless it ejects.
    fn allocate(&mut self, r: usize, bit: usize, alloc: Alloc) {
        if !alloc.eject {
            let (i, v) = (bit / self.total_vcs, bit % self.total_vcs);
            self.routers
                .claim_out(r, alloc.port as usize, alloc.vc as usize, i, v);
        }
        self.routers.set_alloc(r, bit, alloc);
    }

    /// Pick (port, out VC) among the routing candidates according to the
    /// policy's congestion preference. When nothing is free, a single
    /// candidate's port and VC range come back as the [`VaWait`] the
    /// head can wait on.
    #[allow(clippy::too_many_arguments)]
    fn choose_output(
        &self,
        r: usize,
        class: TrafficClass,
        prio: Priority,
        dst: NodeId,
        policy: RoutingPolicy,
        cand: &routing::Candidates,
    ) -> Result<Alloc, Option<VaWait>> {
        // Ejection port: no VC ownership, gated by the NI buffer in SA.
        let first = cand.escape_port();
        if let PortLink::Node(_) = self.routers.link(r, first) {
            return Ok(Alloc {
                port: first as u8,
                vc: 0,
                eject: true,
            });
        }
        let range = self.params.classes.vc_range(class).expect("carried class");
        let part = self.vc_partition(class, prio);
        let floor = routing::vc_floor(&self.topo, r, dst);
        let routers = &self.routers;
        // Order candidates by the policy's preference. At most 3
        // candidates exist (escape + adaptive alternatives), so a stack
        // array replaces the former per-call `Vec`.
        let n_cand = cand.ports().len();
        let mut port_buf = [0usize; 3];
        port_buf[..n_cand].copy_from_slice(cand.ports());
        let ports = &mut port_buf[..n_cand];
        match policy {
            RoutingPolicy::DorXY | RoutingPolicy::DorYX => {}
            RoutingPolicy::DyXY => {
                // Most free credits first; escape wins ties.
                ports.sort_by_key(|&p| {
                    (
                        u32::MAX - routers.free_credits(r, p, range.start, range.end),
                        !cand.is_escape(p) as u8,
                    )
                });
            }
            RoutingPolicy::Footprint => {
                // Escape first unless the adaptive port was recently
                // profitable or the escape route is out of credits.
                let escape = cand.escape_port();
                let escape_starved = routers.free_credits(r, escape, range.start, range.end) == 0;
                ports.sort_by_key(|&p| {
                    if cand.is_escape(p) {
                        u8::from(escape_starved)
                    } else {
                        let last = routers.footprint[routers.port_ix(r, p)];
                        let fresh = self.now.saturating_sub(last) < 64;
                        if escape_starved || fresh {
                            0
                        } else {
                            2
                        }
                    }
                });
            }
            RoutingPolicy::Hare => {
                let score = |p: usize| routers.hare_score[routers.port_ix(r, p)];
                ports.sort_by(|&a, &b| {
                    score(b)
                        .partial_cmp(&score(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
        }
        for &p in ports.iter() {
            // Escape VC (first VC of the class range) is reserved for the
            // dimension-order port under adaptive mesh policies.
            let adaptive_policy = matches!(
                policy,
                RoutingPolicy::DyXY | RoutingPolicy::Footprint | RoutingPolicy::Hare
            ) && self.topo.kind() == Topology::Mesh;
            let start_off = if adaptive_policy && !cand.is_escape(p) {
                1
            } else {
                0
            };
            let lo = (range.start + start_off.max(floor)).max(part.start);
            if let Some(vc) = routers.first_free_out(r, p, lo, part.end, self.idle_skip) {
                return Ok(Alloc {
                    port: p as u8,
                    vc: vc as u8,
                    eject: false,
                });
            }
            if n_cand == 1 {
                return Err(Some(VaWait {
                    port: p as u8,
                    lo: lo as u8,
                    hi: part.end as u8,
                }));
            }
        }
        Err(None)
    }

    /// SA request gathering for router `r`'s input VC `bit` (occupied
    /// and allocated): request the allocated output if the head flit is
    /// eligible and has somewhere to go. A VC whose output VC has no
    /// credit parks until [`RouterState::return_credit`] unparks it.
    fn sa_request(&mut self, r: usize, bit: usize, requests: &mut Vec<SaRequest>) {
        let ix = self.routers.vc_ix(r, bit);
        let alloc = self.routers.alloc(ix).expect("allocated VC");
        if !alloc.eject
            && self
                .routers
                .credits(r, alloc.port as usize, alloc.vc as usize)
                == 0
        {
            if self.idle_skip {
                self.routers.park_credit(r, bit);
            }
            return;
        }
        let f = *self.routers.front(ix).expect("occupied VC");
        if f.eligible > self.now {
            return;
        }
        let ok = !alloc.eject || {
            let node = match self.routers.link(r, alloc.port as usize) {
                PortLink::Node(n) => n,
                other => panic!("eject alloc to {other:?}"),
            };
            // Head flits reserve the whole packet's reassembly space up
            // front so interleaved partial packets can never wedge the
            // ejection buffer.
            !f.is_head()
                || self.nis[node.index()].eject_used + f.total as usize
                    <= self.params.eject_buf_flits
        };
        if ok {
            requests.push(SaRequest {
                out: alloc.port as usize,
                bit,
                prio: f.prio,
            });
        }
    }

    /// Switch allocation (iterative iSLIP with strict CPU priority) over
    /// router `r`'s gathered requests, followed by switch/link traversal
    /// for the winners.
    ///
    /// Each round buckets the requests by output port in one pass (the
    /// grant), then the grants by input port (the accept), so a round
    /// costs O(requests + ports). Every (priority, pointer distance) key
    /// is unique within a bucket, so the winners do not depend on the
    /// visiting order; accepts are recorded in ascending input order, the
    /// order traversal — and with it the ejection stream — follows.
    fn sa_st_router(&mut self, r: usize, sa: &mut SaScratch) {
        let v_count = self.total_vcs;
        let n_ports = self.routers.ports(r);
        let id_space = n_ports * v_count;
        let pb = self.routers.port_ix(r, 0);
        sa.accepted.clear();
        if sa.requests.len() == 1 {
            // A lone request wins its output's grant and its input's
            // accept outright.
            let q = sa.requests[0];
            let (i, v) = (q.bit / v_count, q.bit % v_count);
            self.routers.grant_ptr[pb + q.out] = (q.bit + 1) % id_space;
            self.routers.accept_ptr[pb + i] = (v + 1) % v_count;
            sa.accepted.push((q.bit, q.out));
        } else {
            if sa.out_taken.len() < n_ports {
                sa.out_taken.resize(n_ports, false);
                sa.in_taken.resize(n_ports, false);
                sa.out_best.resize(n_ports, None);
                sa.in_best.resize(n_ports, None);
            }
            sa.out_taken[..n_ports].fill(false);
            sa.in_taken[..n_ports].fill(false);
            for round in 0..self.params.sa_iterations.max(1) {
                // Grant: one request per free output port (CPU first,
                // then rotating from the output's grant pointer).
                sa.out_best[..n_ports].fill(None);
                for (k, q) in sa.requests.iter().enumerate() {
                    if sa.out_taken[q.out] || sa.in_taken[q.bit / v_count] {
                        continue;
                    }
                    let ptr = self.routers.grant_ptr[pb + q.out];
                    let key = (q.prio, (q.bit + id_space - ptr) % id_space);
                    let best = &mut sa.out_best[q.out];
                    if best.is_none_or(|(_, b)| key < b) {
                        *best = Some((k, key));
                    }
                }
                // Accept: one grant per free input port (CPU first, then
                // rotating from the input's accept pointer).
                sa.in_best[..n_ports].fill(None);
                for op in 0..n_ports {
                    let Some((k, _)) = sa.out_best[op] else {
                        continue;
                    };
                    let q = sa.requests[k];
                    let (i, v) = (q.bit / v_count, q.bit % v_count);
                    let ptr = self.routers.accept_ptr[pb + i];
                    let key = (q.prio, (v + v_count - ptr) % v_count);
                    let best = &mut sa.in_best[i];
                    if best.is_none_or(|(_, b)| key < b) {
                        *best = Some((k, key));
                    }
                }
                let mut progress = false;
                for i in 0..n_ports {
                    let Some((k, _)) = sa.in_best[i] else {
                        continue;
                    };
                    let q = sa.requests[k];
                    sa.accepted.push((q.bit, q.out));
                    sa.in_taken[i] = true;
                    sa.out_taken[q.out] = true;
                    progress = true;
                    // iSLIP pointer updates only on first-iteration
                    // accepts (the classic desynchronization rule).
                    if round == 0 {
                        self.routers.grant_ptr[pb + q.out] = (q.bit + 1) % id_space;
                        self.routers.accept_ptr[pb + i] = (q.bit % v_count + 1) % v_count;
                    }
                }
                if !progress {
                    break;
                }
            }
        }
        // ST for the winners (indexed: traverse needs `&mut self`).
        for &(bit, op) in &sa.accepted {
            self.traverse(r, bit, op);
        }
    }

    /// Move the head-of-VC flit of router `r`'s input VC `bit` out of
    /// output port `op`. The credit return and the link transfer wait in
    /// the apply lists; a packet whose last flit ejects is finished here.
    fn traverse(&mut self, r: usize, bit: usize, op: usize) {
        let (i, v) = (bit / self.total_vcs, bit % self.total_vcs);
        let alloc = self
            .routers
            .alloc(self.routers.vc_ix(r, bit))
            .expect("allocated");
        debug_assert_eq!(alloc.port as usize, op);
        let f = self.routers.pop(r, bit);
        self.stats.link_flits[r][op] += 1;
        match self.routers.link(r, i) {
            // Credit return towards whoever feeds this input VC.
            PortLink::Router { router: s, port: q } => self.credit_returns.push((s, q, v)),
            // The pop made room for an NI parked on this VC.
            PortLink::Node(n) => {
                let n = n.index();
                if self.nis[n].live & 1 << v != 0 {
                    self.ni_parked.remove(n);
                }
            }
            PortLink::Unused => {}
        }
        let tail = f.is_tail();
        match self.routers.link(r, op) {
            PortLink::Node(node) => {
                // Ejection into the NI reassembly buffer. Space for the
                // whole packet was reserved when the head ejected.
                let n = node.index();
                if f.is_head() {
                    self.nis[n].eject_used += f.total as usize;
                }
                let s = f.slot as usize;
                debug_assert!(s < self.eject_counts.len(), "counters pre-sized in tick");
                self.eject_counts[s] += 1;
                if self.eject_counts[s] == f.total {
                    self.eject_counts[s] = 0;
                    let pkt = self.packets.remove(f.slot);
                    let latency = self.now - pkt.created;
                    self.stats
                        .record_ejection(pkt.class(), pkt.prio, latency, n, pkt.flits);
                    self.nis[n].ejected.push_back(pkt);
                    self.ejected_any.insert(n);
                }
            }
            PortLink::Router { router: s, port: q } => {
                let out_vc = alloc.vc as usize;
                self.routers.take_credit(r, op, out_vc);
                // Footprint: taking a non-escape port while it had credit
                // marks it profitable.
                let p = self.routers.port_ix(r, op);
                self.routers.footprint[p] = self.now;
                let arrival = Flit {
                    eligible: self.now + 1 + self.proc_delay[class_ix(f.class)],
                    ..f
                };
                self.transfers
                    .push((s, q * self.total_vcs + out_vc, arrival));
                if tail {
                    self.routers.release_out(r, op, out_vc);
                }
            }
            PortLink::Unused => panic!("routed into an unwired port"),
        }
        if tail {
            self.routers.clear_alloc(r, bit);
        }
    }

    /// Injection-stall accounting: one count per NI that refused a
    /// packet of either class since the last tick.
    fn count_injection_stalls(&mut self) {
        let [want_req, want_rep] = &mut self.want;
        want_req.union_with(want_rep);
        for n in want_req.iter() {
            self.stats.node_inj_stall_cycles[n] += 1;
        }
        want_req.clear();
        want_rep.clear();
    }

    /// Stream flits from NI injection slots into the local input VCs:
    /// at most ONE flit per node per cycle — the node's single physical
    /// injection channel, whatever the topology. Only NIs holding a live
    /// slot and not parked are visited (every NI in the reference mode);
    /// a visited NI that cannot move a flit parks.
    fn ni_injection(&mut self) {
        if self.idle_skip {
            // Injecting at one NI changes only that NI's bits, so the
            // working set can be taken up front.
            let mut todo = std::mem::take(&mut self.ni_todo);
            todo.copy_from(&self.ni_live);
            todo.subtract(&self.ni_parked);
            for n in todo.iter() {
                if !self.ni_inject(n) {
                    self.ni_parked.insert(n);
                }
            }
            self.ni_todo = todo;
        } else {
            for n in 0..self.nis.len() {
                self.ni_inject(n);
            }
        }
    }

    /// Stream at most one flit from NI `n`, round-robin over its VCs.
    /// Returns false when no flit moved.
    fn ni_inject(&mut self, n: usize) -> bool {
        let v_count = self.total_vcs;
        let Ni {
            router,
            port,
            live,
            inj_rr: start,
            ..
        } = self.nis[n];
        // Live VCs from the round-robin pointer upwards, then the ones
        // below it: the order of a scan over `start..V` then `0..start`.
        let above = live & (u64::MAX << start);
        for mut vcs in [above, live & !above] {
            while vcs != 0 {
                let vc = vcs.trailing_zeros() as usize;
                vcs &= vcs - 1;
                let bit = port * v_count + vc;
                if self.routers.len(self.routers.vc_ix(router, bit))
                    >= self.params.vc_buf_flits as usize
                {
                    continue;
                }
                let ni = &mut self.nis[n];
                let slot = ni.inj[vc].as_mut().expect("live slot");
                let f = Flit {
                    slot: slot.slot,
                    idx: slot.next_idx,
                    total: slot.total,
                    prio: slot.prio,
                    class: slot.class,
                    eligible: self.now + 1 + self.proc_delay[class_ix(slot.class)],
                };
                slot.next_idx += 1;
                ni.inj_rr = (vc + 1) % v_count;
                if slot.next_idx == slot.total {
                    ni.inj[vc] = None;
                    ni.live &= !(1 << vc);
                    if ni.live == 0 {
                        self.ni_live.remove(n);
                    }
                    self.update_free_slots(n);
                }
                self.routers.push(router, bit, f);
                self.stats.node_tx_flits[n] += 1;
                self.ni_progress[n * v_count + vc] = true;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_proto::{Addr, MsgKind, PacketId};

    fn params(topology: Topology) -> NetParams {
        NetParams {
            topology,
            width: 8,
            height: 8,
            classes: ClassAssignment::Single(TrafficClass::Request, 2),
            vc_buf_flits: 4,
            pipeline: 4,
            routing_request: RoutingPolicy::DorXY,
            routing_reply: RoutingPolicy::DorXY,
            eject_buf_flits: 32,
            sa_iterations: 1,
        }
    }

    fn mk_pkt(id: u64, src: u16, dst: u16, kind: MsgKind, now: Cycle) -> Packet {
        Packet::new(
            PacketId(id),
            NodeId(src),
            NodeId(dst),
            kind,
            Priority::Gpu,
            Addr::new(id * 128),
            128,
            16,
            now,
        )
    }

    #[test]
    fn single_packet_delivery() {
        let mut net = Network::new(params(Topology::Mesh));
        net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
            .unwrap();
        for _ in 0..200 {
            net.tick();
        }
        let out = net.take_ejected(NodeId(63), usize::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, PacketId(1));
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn latency_scales_with_hops() {
        // 14-hop corner-to-corner vs 1-hop neighbor.
        let mut net = Network::new(params(Topology::Mesh));
        net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
            .unwrap();
        // Single-flit packet: the injection slot frees after one tick.
        let mut second = Some(mk_pkt(2, 0, 1, MsgKind::ReadReq, 0));
        for _ in 0..300 {
            if let Some(p) = second.take() {
                second = net.try_inject(p).err();
            }
            net.tick();
        }
        assert!(second.is_none(), "second packet never injected");
        let far = net.stats().latency[0][1].max_cycles;
        assert!(net.take_ejected(NodeId(1), 1).len() == 1);
        assert!(net.take_ejected(NodeId(63), 1).len() == 1);
        // Far packet needs at least 14 hops * ~4 cycles.
        assert!(far >= 14 * 3, "far latency {far}");
        assert!(far <= 200, "far latency {far}");
    }

    #[test]
    fn multi_flit_packet_reassembles_once() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        net.try_inject(mk_pkt(7, 10, 53, MsgKind::ReadReply, 0))
            .unwrap();
        for _ in 0..300 {
            net.tick();
        }
        let out = net.take_ejected(NodeId(53), usize::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].flits, 9);
        assert_eq!(net.stats().node_rx_flits[53], 9);
    }

    #[test]
    fn all_topologies_deliver_all_to_all() {
        for topology in Topology::ALL {
            let mut net = Network::new(params(topology));
            let mut id = 0;
            let mut expected = vec![0usize; 64];
            for s in (0..64u16).step_by(5) {
                for d in (1..64u16).step_by(7) {
                    if s == d {
                        continue;
                    }
                    id += 1;
                    net.try_inject(mk_pkt(id, s, d, MsgKind::ReadReq, 0))
                        .unwrap_or_else(|_| panic!("{topology:?} inject"));
                    expected[d as usize] += 1;
                    // Let the NI drain so injection slots free up.
                    for _ in 0..4 {
                        net.tick();
                    }
                }
            }
            for _ in 0..2000 {
                net.tick();
            }
            for (d, &want) in expected.iter().enumerate() {
                let got = net.take_ejected(NodeId(d as u16), usize::MAX).len();
                assert_eq!(got, want, "{topology:?} node {d}");
            }
            assert_eq!(net.in_flight(), 0, "{topology:?} leftover");
        }
    }

    #[test]
    fn inject_blocked_reflects_backpressure() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        // Flood node 0's reply NI with far-destination 9-flit packets and
        // never let destination 63 take them; with a full pipe, injection
        // eventually blocks.
        let mut id = 0;
        let mut blocked_seen = false;
        for _ in 0..400 {
            id += 1;
            let _ = net.try_inject(mk_pkt(id, 0, 63, MsgKind::ReadReply, net.now()));
            net.tick();
            if net.inject_blocked(NodeId(0), TrafficClass::Reply, Priority::Gpu) {
                blocked_seen = true;
            }
        }
        assert!(blocked_seen, "backpressure never reached the source NI");
        // The destination's ejection buffer is full (nobody takes).
        assert!(net.ejected_len(NodeId(63)) >= 1);
    }

    #[test]
    fn take_ejected_frees_buffer_space() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            eject_buf_flits: 9,
            sa_iterations: 1,
            ..params(Topology::Mesh)
        });
        net.try_inject(mk_pkt(1, 0, 1, MsgKind::ReadReply, 0))
            .unwrap();
        let mut second = Some(mk_pkt(2, 0, 1, MsgKind::ReadReply, 0));
        for _ in 0..100 {
            if let Some(pkt) = second.take() {
                second = net.try_inject(pkt).err();
            }
            net.tick();
        }
        assert!(second.is_none(), "second packet never injected");
        // Only one packet fits in the 9-flit eject buffer.
        assert_eq!(net.ejected_len(NodeId(1)), 1);
        let got = net.take_ejected(NodeId(1), usize::MAX);
        assert_eq!(got.len(), 1);
        for _ in 0..100 {
            net.tick();
        }
        assert_eq!(net.take_ejected(NodeId(1), usize::MAX).len(), 1);
    }

    #[test]
    fn cpu_priority_wins_contention() {
        // Saturate the reply network with many-to-one 9-flit GPU replies,
        // then send occasional CPU replies along the same path; the
        // CPU-reserved VC plus strict SA priority must keep CPU latency
        // well below GPU latency.
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        let mut id = 0;
        for t in 0..1500u64 {
            for s in [0u16, 1, 2] {
                id += 1;
                let _ = net.try_inject(mk_pkt(id, s, 7, MsgKind::ReadReply, net.now()));
            }
            if t % 50 == 10 {
                id += 1;
                let mut p = mk_pkt(id, 3, 7, MsgKind::ReadReply, net.now());
                p.prio = Priority::Cpu;
                let _ = net.try_inject(p);
            }
            net.tick();
            net.take_ejected(NodeId(7), usize::MAX);
        }
        for _ in 0..1000 {
            net.tick();
            net.take_ejected(NodeId(7), usize::MAX);
        }
        let cpu = net.stats().mean_latency(TrafficClass::Reply, Priority::Cpu);
        let gpu = net.stats().mean_latency(TrafficClass::Reply, Priority::Gpu);
        assert!(cpu > 0.0 && gpu > 0.0);
        assert!(
            cpu < gpu * 0.7,
            "CPU priority too weak: cpu {cpu:.1} vs gpu {gpu:.1}"
        );
    }

    #[test]
    fn virtual_networks_carry_both_classes() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Shared {
                request_vcs: 2,
                reply_vcs: 2,
            },
            ..params(Topology::Mesh)
        });
        net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
            .unwrap();
        net.try_inject(mk_pkt(2, 63, 0, MsgKind::ReadReply, 0))
            .unwrap();
        for _ in 0..300 {
            net.tick();
        }
        assert_eq!(net.take_ejected(NodeId(63), 9).len(), 1);
        assert_eq!(net.take_ejected(NodeId(0), 9).len(), 1);
    }

    #[test]
    fn more_islip_iterations_never_slow_delivery() {
        // Heavy many-to-many load; a 3-iteration allocator must deliver
        // everything at least as fast as the single-iteration one.
        let run = |iters: usize| -> u64 {
            let mut net = Network::new(NetParams {
                sa_iterations: iters,
                ..params(Topology::Mesh)
            });
            let mut queue: Vec<Packet> = (0..120u64)
                .map(|i| {
                    let s = (i * 7 % 64) as u16;
                    let d = (i * 13 % 64) as u16;
                    let d = if d == s { (d + 1) % 64 } else { d };
                    mk_pkt(i, s, d, MsgKind::ReadReq, 0)
                })
                .collect();
            let mut delivered = 0u64;
            for now in 0..6_000u64 {
                if let Some(p) = queue.pop() {
                    if let Err(back) = net.try_inject(p) {
                        queue.push(back);
                    }
                }
                net.tick();
                for d in 0..64 {
                    delivered += net.take_ejected(NodeId(d), usize::MAX).len() as u64;
                }
                if delivered == 120 && queue.is_empty() {
                    return now;
                }
            }
            panic!("never delivered everything with {iters} iterations");
        };
        let one = run(1);
        let three = run(3);
        assert!(
            three <= one + 8,
            "3-iteration iSLIP slower: {three} vs {one}"
        );
    }

    #[test]
    fn take_ejected_cpu_first_reorders() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        let mut gpu = mk_pkt(1, 0, 1, MsgKind::ReadReply, 0);
        gpu.prio = Priority::Gpu;
        let mut cpu = mk_pkt(2, 8, 1, MsgKind::ReadReply, 0);
        cpu.prio = Priority::Cpu;
        net.try_inject(gpu).unwrap();
        net.try_inject(cpu).unwrap();
        for _ in 0..200 {
            net.tick();
        }
        assert_eq!(net.ejected_len(NodeId(1)), 2);
        let got = net.take_ejected_cpu_first(NodeId(1), 2);
        assert_eq!(got[0].prio, Priority::Cpu, "CPU packet must come first");
        assert_eq!(got.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not carry")]
    fn wrong_class_injection_panics() {
        let mut net = Network::new(params(Topology::Mesh));
        let _ = net.try_inject(mk_pkt(1, 0, 1, MsgKind::ReadReply, 0));
    }

    #[test]
    fn adaptive_policies_deliver() {
        for policy in [
            RoutingPolicy::DyXY,
            RoutingPolicy::Footprint,
            RoutingPolicy::Hare,
        ] {
            let mut net = Network::new(NetParams {
                routing_request: policy,
                ..params(Topology::Mesh)
            });
            let mut id = 0;
            for s in 0..16u16 {
                for d in 48..64u16 {
                    id += 1;
                    while net
                        .try_inject(mk_pkt(id, s, d, MsgKind::ReadReq, net.now()))
                        .is_err()
                    {
                        net.tick();
                    }
                }
            }
            for _ in 0..3000 {
                net.tick();
            }
            let total: usize = (0..64)
                .map(|d| net.take_ejected(NodeId(d), usize::MAX).len())
                .sum();
            assert_eq!(total, 16 * 16, "{policy:?}");
            assert_eq!(net.in_flight(), 0, "{policy:?} stuck packets");
        }
    }

    #[test]
    fn advance_to_equals_idle_ticks() {
        // An empty network ticked for N dead cycles must be
        // indistinguishable from one that jumped its clock by N.
        let mut a = Network::new(params(Topology::Mesh));
        let mut b = Network::new(params(Topology::Mesh));
        for net in [&mut a, &mut b] {
            net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
                .unwrap();
            for _ in 0..200 {
                net.tick();
            }
            // Live flits drained; the waiting ejected packet is passive.
            assert_eq!(net.next_event(net.now()), None);
        }
        for _ in 0..1000 {
            a.tick();
        }
        let to = b.now() + 1000;
        b.advance_to(to);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats().cycles, b.stats().cycles);
        // Resuming identical traffic produces identical outcomes.
        a.try_inject(mk_pkt(2, 5, 60, MsgKind::ReadReq, a.now()))
            .unwrap();
        b.try_inject(mk_pkt(2, 5, 60, MsgKind::ReadReq, b.now()))
            .unwrap();
        for _ in 0..300 {
            a.tick();
            b.tick();
        }
        let pa = a.take_ejected(NodeId(60), 9);
        let pb = b.take_ejected(NodeId(60), 9);
        assert_eq!(pa.len(), 1);
        assert_eq!(pa[0].id, pb[0].id);
        let la = a.stats().mean_latency(TrafficClass::Request, Priority::Gpu);
        let lb = b.stats().mean_latency(TrafficClass::Request, Priority::Gpu);
        assert_eq!(la, lb, "latency diverged after fast-forward");
    }

    #[test]
    fn hare_never_reports_quiescence() {
        let net = Network::new(NetParams {
            routing_request: RoutingPolicy::Hare,
            ..params(Topology::Mesh)
        });
        // HARE's EWMA mutates every cycle, so the horizon is always now.
        assert_eq!(net.next_event(0), Some(0));
    }

    #[test]
    fn wormhole_packets_never_interleave_within_vc() {
        // Heavy many-to-one reply traffic; ejection counts must always
        // complete exactly (the assembler panics on slot confusion, and
        // in_flight returning to zero proves no flit was lost).
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        let mut id = 0;
        let mut sent = 0;
        for _ in 0..300 {
            for s in [8u16, 16, 24, 32] {
                id += 1;
                if net
                    .try_inject(mk_pkt(id, s, 0, MsgKind::ReadReply, net.now()))
                    .is_ok()
                {
                    sent += 1;
                }
            }
            net.tick();
            // Keep draining the sink.
            net.take_ejected(NodeId(0), usize::MAX);
        }
        for _ in 0..3000 {
            net.tick();
            net.take_ejected(NodeId(0), usize::MAX);
        }
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.stats().ejected_pkts[1], sent);
    }

    fn parked(net: &Network, n: usize) -> bool {
        net.ni_parked.contains(n)
    }

    /// A reply network in which node 0 streams 9-flit GPU replies to
    /// node 1, which never takes its one-packet ejection buffer. The
    /// stream backs up until the only slot NI 0 may use (VC 0; VC 1 is
    /// the CPU's) faces a full input VC, and the NI parks.
    fn parked_stream() -> Network {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            eject_buf_flits: 9,
            ..params(Topology::Mesh)
        });
        for id in 1..300 {
            let _ = net.try_inject(mk_pkt(id, 0, 1, MsgKind::ReadReply, net.now()));
            net.tick();
            if parked(&net, 0) {
                return net;
            }
        }
        panic!("NI 0 never parked");
    }

    #[test]
    fn parked_ni_wakes_only_on_a_pop_at_its_port() {
        let mut net = parked_stream();
        let east = crate::topology::mesh_port::EAST;
        let tx = net.stats().node_tx_flits[0];
        // Refused injections at the NI and traffic elsewhere leave it
        // parked, and it moves no flit.
        for id in 1000..1100 {
            assert!(net
                .try_inject(mk_pkt(id, 0, 1, MsgKind::ReadReply, net.now()))
                .is_err());
            let _ = net.try_inject(mk_pkt(id, 9, 18, MsgKind::ReadReply, net.now()));
            net.tick();
            net.take_ejected(NodeId(18), usize::MAX);
            assert!(
                parked(&net, 0),
                "woke without an event at cycle {}",
                net.now()
            );
        }
        assert_eq!(net.stats().node_tx_flits[0], tx);
        // Node 1 takes its packet: the stream moves again. Router 0 sends
        // east only flits from NI 0's input VC, so a flit leaving east is
        // a pop at the NI's port, and exactly those cycles wake it.
        net.take_ejected(NodeId(1), usize::MAX);
        let mut wakes = 0;
        for _ in 0..200 {
            let was_parked = parked(&net, 0);
            let (sent, tx) = (
                net.stats().link_flits[0][east],
                net.stats().node_tx_flits[0],
            );
            net.tick();
            let popped = net.stats().link_flits[0][east] > sent;
            if was_parked {
                assert_eq!(parked(&net, 0), !popped, "cycle {}", net.now());
                if popped {
                    wakes += 1;
                    assert_eq!(net.stats().node_tx_flits[0], tx + 1, "a woken NI injects");
                }
            }
            net.take_ejected(NodeId(1), usize::MAX);
        }
        assert!(wakes > 0, "the NI was never woken by a pop");
    }

    #[test]
    fn parked_ni_wakes_on_a_new_slot() {
        let mut net = parked_stream();
        // A CPU reply takes the free CPU slot (VC 1), whose input VC has
        // room: the NI wakes at once and streams it south to node 8.
        let mut cpu = mk_pkt(999, 0, 8, MsgKind::ReadReply, net.now());
        cpu.prio = Priority::Cpu;
        net.try_inject(cpu).unwrap();
        assert!(!parked(&net, 0), "a new slot must wake the NI");
        let tx = net.stats().node_tx_flits[0];
        net.tick();
        assert_eq!(net.stats().node_tx_flits[0], tx + 1);
        for _ in 0..200 {
            net.tick();
        }
        assert_eq!(net.take_ejected(NodeId(8), usize::MAX).len(), 1);
    }
}
