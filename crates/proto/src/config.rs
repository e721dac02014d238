//! Configuration structures.
//!
//! [`SystemConfig::default`] reproduces Table I of the paper: 40 GPU
//! cores, 16 CPU cores, 8 memory nodes on an 8×8 mesh; 48 KB 4-way L1
//! with 128 B lines per GPU core; 8 MB 16-way LLC; FR-FCFS GDDR5 DRAM;
//! 128-bit channels, 2 VCs × 4 flits, iSLIP allocation with CPU priority.

use crate::knobs::{self, Knob};
use crate::layout::Layout;

/// Which Figure-1 layout to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Fig. 1a — memory column between CPUs and GPUs (the paper's
    /// baseline; isolates CPU/GPU traffic).
    Baseline,
    /// Fig. 1b — memory nodes at the die edge (top row).
    EdgeB,
    /// Fig. 1c — clustered CPU cores.
    ClusteredC,
    /// Fig. 1d — node types spread to distribute traffic.
    DistributedD,
}

impl LayoutKind {
    /// All layouts, in Figure-1 order.
    pub const ALL: [LayoutKind; 4] = knobs::variants(<LayoutKind as Knob>::ROWS);
}

/// NoC topology (Section VII evaluates all four).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// 2D mesh (baseline).
    Mesh,
    /// Single-stage crossbar with core-to-core links.
    Crossbar,
    /// Flattened butterfly (Kim+ MICRO'07): routers fully connected along
    /// each row and column.
    FlattenedButterfly,
    /// Dragonfly (Kim+ ISCA'08): fully-connected groups, one global link
    /// per router.
    Dragonfly,
}

impl Topology {
    /// All topologies, mesh first.
    pub const ALL: [Topology; 4] = knobs::variants(<Topology as Knob>::ROWS);
}

/// Per-class routing policy (mesh only; other topologies route minimally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Dimension-order, X first.
    DorXY,
    /// Dimension-order, Y first.
    DorYX,
    /// DyXY (Li+ DAC'06): minimal adaptive by neighbor congestion, with
    /// a dimension-order escape VC.
    DyXY,
    /// Footprint (Fu & Kim, ISCA'17): adaptivity regulated to
    /// recently-profitable output choices.
    Footprint,
    /// HARE (Jin+ 2019): history-aware endpoint-congestion adaptive
    /// routing.
    Hare,
}

/// Ablation knobs for the Delegated-Replies mechanism (defaults match
/// the paper's design; the ablation benches flip them one at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrKnobs {
    /// Delegate whenever a reply is delegatable, instead of only when
    /// the reply network is blocked. The paper argues against this: it
    /// exposes latency with no bandwidth benefit when the reply network
    /// has headroom (the G_E example of Fig. 4).
    pub delegate_always: bool,
    /// Support the *delayed hit* outcome (attach the remote request to
    /// the local MSHR). Disabling turns hits-under-miss into remote
    /// misses that bounce back to the LLC.
    pub delayed_hits: bool,
    /// Maximum delegations a memory node performs per cycle.
    pub max_per_cycle: usize,
}

impl Default for DrKnobs {
    fn default() -> Self {
        DrKnobs {
            delegate_always: false,
            delayed_hits: true,
            max_per_cycle: 2,
        }
    }
}

/// The architectural scheme under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The carefully-designed baseline (CDR routing, CPU priority,
    /// traffic-isolating layout) with no remote-L1 mechanism.
    Baseline,
    /// The paper's contribution: speculative delegation of LLC-hit
    /// replies to the last-accessor core, triggered by reply-network
    /// back-pressure.
    DelegatedReplies,
    /// Realistic Probing (Ibrahim+ PACT'19): predict-and-probe remote
    /// L1s before going to the LLC. `fanout` is the number of remote L1s
    /// probed on a predicted-shared miss (the paper uses the authors'
    /// best configuration; probing all other cores guarantees finding a
    /// cached copy).
    RealisticProbing {
        /// Remote caches probed per predicted-shared miss.
        fanout: usize,
    },
}

impl Scheme {
    /// The paper's RP comparison point (the authors' best-performing
    /// configuration). Probing all 39 other caches would guarantee
    /// finding a copy but drowns the request network in probe traffic —
    /// the paper's "rock and a hard place"; four supplier-steered probes
    /// is the sweet spot in this implementation.
    pub const fn rp_default() -> Scheme {
        Scheme::RealisticProbing { fanout: 4 }
    }
}

/// GPU L1 organization (Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1Org {
    /// Conventional private L1 per SM (baseline).
    Private,
    /// DC-L1 (Ibrahim+ HPCA'21): clusters of 8 cores share 4
    /// address-interleaved L1 slices.
    DcL1,
    /// DynEB (Ibrahim+ PACT'20): epoch-based dynamic choice between
    /// shared and private organization by delivered effective bandwidth.
    DynEB,
}

/// CTA (thread-block) scheduling policy (Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtaSched {
    /// Round-robin CTA issue across SMs (baseline, Table I).
    RoundRobin,
    /// Distributed/locality-aware CTA scheduling: consecutive CTAs go to
    /// neighboring SMs of the same cluster.
    Distributed,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// Number of sets. Set counts need not be a power of two (the 48 KB
    /// 4-way 128 B GPU L1 has 96 sets); indexing uses modulo.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> u64 {
        let lines = self.capacity_bytes / self.line_bytes as u64;
        assert!(
            lines.is_multiple_of(self.ways as u64),
            "capacity must divide into ways"
        );
        lines / self.ways as u64
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes as u64
    }
}

/// GPU core parameters (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Concurrent warps per SM (48 in Table I).
    pub warps_per_core: usize,
    /// Warp instructions issued per cycle (2 GTO schedulers per core in
    /// Table I).
    pub issue_width: usize,
    /// Threads per warp (32).
    pub threads_per_warp: usize,
    /// Private L1 geometry (48 KB, 4-way, 128 B lines).
    pub l1: CacheGeometry,
    /// L1 MSHR entries.
    pub mshrs: usize,
    /// Forwarded Request Queue entries (Section IV: 8).
    pub frq_entries: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
    /// Maximum L1 lookups per cycle (one bank).
    pub l1_ports: usize,
    /// DC-L1/DynEB cluster size (8 cores share 4 slices).
    pub cluster_cores: usize,
    /// Shared-L1 slices per cluster.
    pub cluster_slices: usize,
    /// DynEB adaptation epoch in cycles.
    pub dyneb_epoch: u64,
    /// Software-coherence L1 flush interval in cycles (kernel
    /// boundaries), staggered per core; `None` disables flushes.
    pub flush_interval: Option<u64>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            warps_per_core: 48,
            issue_width: 2,
            threads_per_warp: 32,
            l1: CacheGeometry {
                capacity_bytes: 48 * 1024,
                ways: 4,
                line_bytes: 128,
            },
            mshrs: 64,
            frq_entries: 8,
            l1_hit_latency: 4,
            l1_ports: 2,
            cluster_cores: 8,
            cluster_slices: 4,
            dyneb_epoch: 4096,
            flush_interval: Some(30_000),
        }
    }
}

/// CPU core parameters (Table I) and trace-replayer knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Private L1 geometry (32 KB, 4-way, 64 B lines).
    pub l1: CacheGeometry,
    /// In-flight memory request window of the replayer (models MLP).
    pub window: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            l1: CacheGeometry {
                capacity_bytes: 32 * 1024,
                ways: 4,
                line_bytes: 64,
            },
            window: 8,
            l1_hit_latency: 2,
        }
    }
}

/// Shared LLC parameters (Table I: 8 MB total, 1 MB per memory node).
#[derive(Debug, Clone, PartialEq)]
pub struct LlcConfig {
    /// Geometry of one slice (1 MB, 16-way, 128 B lines).
    pub slice: CacheGeometry,
    /// LLC access latency in cycles.
    pub latency: u32,
    /// Lookups per cycle per slice.
    pub ports: usize,
}

impl Default for LlcConfig {
    fn default() -> Self {
        LlcConfig {
            slice: CacheGeometry {
                capacity_bytes: 1024 * 1024,
                ways: 16,
                line_bytes: 128,
            },
            latency: 20,
            ports: 1,
        }
    }
}

/// GDDR5 timing and controller parameters (Table I, in DRAM command
/// cycles at the interface clock).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Banks per memory controller (16).
    pub banks: usize,
    /// CAS latency.
    pub t_cl: u32,
    /// Precharge.
    pub t_rp: u32,
    /// Row cycle.
    pub t_rc: u32,
    /// Row active.
    pub t_ras: u32,
    /// RAS-to-CAS.
    pub t_rcd: u32,
    /// Activate-to-activate (different banks).
    pub t_rrd: u32,
    /// Column-to-column.
    pub t_ccd: u32,
    /// Write recovery.
    pub t_wr: u32,
    /// Average refresh interval (all-bank refresh is issued once per
    /// tREFI; 0 disables refresh).
    pub t_refi: u32,
    /// Refresh cycle time: the channel is unavailable for tRFC after a
    /// refresh is issued.
    pub t_rfc: u32,
    /// Data-bus cycles per 128 B line burst; together with `t_ccd` this
    /// sets per-controller bandwidth (~29.5 GB/s each, 236 GB/s total).
    pub burst: u32,
    /// Controller read queue capacity.
    pub queue: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 16,
            t_cl: 12,
            t_rp: 12,
            t_rc: 40,
            t_ras: 28,
            t_rcd: 12,
            t_rrd: 6,
            t_ccd: 2,
            t_wr: 12,
            t_refi: 5_460, // ~3.9 us at 1.4 GHz
            t_rfc: 180,    // ~130 ns
            burst: 6,
            queue: 64,
        }
    }
}

/// Virtual-network configuration for the shared-physical-network mode
/// (Section VII "Virtual networks" and the AVCP study of Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualNetConfig {
    /// VCs assigned to the (virtual) request network.
    pub request_vcs: usize,
    /// VCs assigned to the (virtual) reply network.
    pub reply_vcs: usize,
}

/// NoC parameters (Table I) plus the study knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Topology.
    pub topology: Topology,
    /// Routing used by request-class packets (CDR: YX for requests).
    pub routing_request: RoutingPolicy,
    /// Routing used by reply-class packets (CDR: XY for replies).
    pub routing_reply: RoutingPolicy,
    /// Channel (flit) width in bytes (16 = 128-bit).
    pub channel_bytes: u32,
    /// Virtual channels per class per input port (2 in Table I).
    pub vcs: usize,
    /// Buffer depth per VC in flits (4 in Table I).
    pub vc_buf_flits: usize,
    /// Router pipeline depth in cycles (4-stage: RC, VA, SA, ST).
    pub pipeline: u32,
    /// `Some` = single physical network with per-class virtual networks;
    /// `None` = physically separate request and reply networks (baseline).
    pub virtual_nets: Option<VirtualNetConfig>,
    /// Memory-node injection buffer capacity in packets; when full, the
    /// node blocks (stops accepting requests) — the clogging mechanism.
    pub mem_inj_buf_pkts: usize,
    /// Core-side network-interface injection queue in packets.
    pub core_inj_buf_pkts: usize,
    /// iSLIP switch-allocation iterations per cycle (1 in Table I's
    /// class of routers; more iterations densify the crossbar matching).
    pub sa_iterations: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            topology: Topology::Mesh,
            // The baseline uses CDR: YX-order requests, XY-order replies.
            routing_request: RoutingPolicy::DorYX,
            routing_reply: RoutingPolicy::DorXY,
            channel_bytes: 16,
            vcs: 2,
            vc_buf_flits: 4,
            pipeline: 4,
            virtual_nets: None,
            mem_inj_buf_pkts: 16,
            core_inj_buf_pkts: 16,
            sa_iterations: 1,
        }
    }
}

/// Inter-chip fabric topology (second-level interconnect above the
/// per-chip NoCs; see DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricTopology {
    /// Point-to-point pair: exactly two chips joined by one
    /// bidirectional link (two directed links).
    Pair,
    /// Unidirectional-distance ring: each chip links to both neighbors;
    /// routing takes the shorter direction (ties go clockwise).
    Ring,
    /// Fully-connected package: a directed link between every ordered
    /// chip pair; every message is a single hop.
    All,
}

/// How cache lines are interleaved across chips in a multi-chip package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricInterleave {
    /// Seeded XOR-fold hash of the line address (the same family as the
    /// on-chip [`AddressMap`](crate::AddressMap)); spreads hot sets.
    Hash,
    /// Plain modulo of the line address — adversarially simple striping,
    /// useful for constructing worst-case cross-chip traffic.
    Modulo,
}

/// Inter-chip fabric parameters. All of these are **identity knobs**:
/// every field changes simulated behavior, so every field participates
/// in the canonical fingerprint and in snapshots. The fabric has no
/// execution-mode knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Number of chips in the package (each one a full `System`).
    pub chips: usize,
    /// Inter-chip topology.
    pub topology: FabricTopology,
    /// Request-plane link bandwidth in flits per cycle per directed link.
    pub link_flits: u32,
    /// Request-plane per-hop latency in cycles.
    pub hop_latency: u32,
    /// Link-controller queue depth in packets (per directed link);
    /// full queues back-pressure the sender hop-by-hop.
    pub queue_pkts: usize,
    /// Gateway count per chip: the first `gateways` memory nodes (in
    /// dense `MemId` order) carry cross-chip traffic on and off chip.
    pub gateways: usize,
    /// Line-address interleaving across chips.
    pub interleave: FabricInterleave,
    /// Reply-plane link bandwidth in flits per cycle per directed link
    /// (the headline experiment degrades this independently).
    pub reply_link_flits: u32,
    /// Reply-plane per-hop latency in cycles.
    pub reply_hop_latency: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            chips: 2,
            topology: FabricTopology::Pair,
            link_flits: 4,
            hop_latency: 4,
            queue_pkts: 8,
            gateways: 2,
            interleave: FabricInterleave::Hash,
            reply_link_flits: 4,
            reply_hop_latency: 4,
        }
    }
}

/// Which adaptive-control policy drives the epoch-boundary control
/// loop (see DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlPolicyKind {
    /// Observe and log at every decision boundary, never actuate. A
    /// run under this policy produces byte-identical reports to an
    /// uncontrolled run — the control-loop equivalent of a no-op.
    NoOp,
    /// Hysteresis threshold ladder: escalate
    /// Baseline → Realistic Probing → Delegated Replies when clogging
    /// signals cross the *enter* thresholds, de-escalate when they fall
    /// below the *exit* thresholds. (The middle rung stands in for the
    /// paper's AVCP point: a mitigation that spends request-network
    /// bandwidth rather than reply-network delegation.)
    Hysteresis,
}

/// Adaptive-control parameters. All of these are **identity knobs**:
/// the controller actuates `set_scheme` mid-run, so every field changes
/// simulated behavior and every field participates in the canonical
/// fingerprint and in snapshots. The controller has no execution-mode
/// knobs.
///
/// Blocked-fraction thresholds are expressed in per-mille (‰, 0..=1000)
/// of a decision interval so the config stays `Eq`/`Hash`-able.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlConfig {
    /// Which policy evaluates the telemetry snapshot.
    pub policy: ControlPolicyKind,
    /// Decision interval in cycles: the controller observes and (maybe)
    /// actuates only at multiples of this, mirroring telemetry epochs.
    pub interval: u64,
    /// Escalate when any memory node spent at least this fraction
    /// (per-mille) of the last interval blocked.
    pub enter_blocked_pm: u32,
    /// De-escalate when every node's blocked fraction (per-mille) over
    /// the last interval is below this.
    pub exit_blocked_pm: u32,
    /// Escalate when a blocked streak (consecutive hot intervals on one
    /// node) has lasted at least this many cycles — the episode-duration
    /// trigger.
    pub enter_episode: u64,
    /// A streak must be fully cold for de-escalation; this many cycles
    /// of sustained calm are required before stepping down.
    pub exit_episode: u64,
    /// Minimum decision intervals between scheme changes (dwell), so
    /// the ladder cannot thrash within one clog episode.
    pub dwell: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            policy: ControlPolicyKind::Hysteresis,
            interval: 500,
            enter_blocked_pm: 250,
            exit_blocked_pm: 50,
            enter_episode: 1_000,
            exit_episode: 2_000,
            dwell: 2,
        }
    }
}

impl ControlConfig {
    /// The static no-op policy with default observation cadence.
    pub fn noop() -> Self {
        ControlConfig {
            policy: ControlPolicyKind::NoOp,
            ..ControlConfig::default()
        }
    }
}

/// The complete simulated-system configuration (Table I defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Chip layout family.
    pub layout: LayoutKind,
    /// Mesh width.
    pub mesh_width: usize,
    /// Mesh height.
    pub mesh_height: usize,
    /// GPU core count (40).
    pub n_gpu: usize,
    /// CPU core count (16).
    pub n_cpu: usize,
    /// Memory node count (8).
    pub n_mem: usize,
    /// GPU core parameters.
    pub gpu: GpuConfig,
    /// CPU core parameters.
    pub cpu: CpuConfig,
    /// LLC parameters.
    pub llc: LlcConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// NoC parameters.
    pub noc: NocConfig,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Delegated-Replies ablation knobs.
    pub dr: DrKnobs,
    /// GPU L1 organization.
    pub l1_org: L1Org,
    /// CTA scheduling policy.
    pub cta_sched: CtaSched,
    /// Random seed for the address-mapping hash and workloads.
    pub seed: u64,
    /// Inter-chip fabric; `None` = single-chip system (the default, and
    /// byte-identical to builds that predate the fabric).
    pub fabric: Option<FabricConfig>,
    /// Adaptive control loop; `None` = static scheme for the whole run
    /// (the default, and byte-identical to builds that predate the
    /// controller).
    pub control: Option<ControlConfig>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            layout: LayoutKind::Baseline,
            mesh_width: 8,
            mesh_height: 8,
            n_gpu: 40,
            n_cpu: 16,
            n_mem: 8,
            gpu: GpuConfig::default(),
            cpu: CpuConfig::default(),
            llc: LlcConfig::default(),
            dram: DramConfig::default(),
            noc: NocConfig::default(),
            scheme: Scheme::Baseline,
            dr: DrKnobs::default(),
            l1_org: L1Org::Private,
            cta_sched: CtaSched::RoundRobin,
            seed: 0x0C10_64E7,
            fabric: None,
            control: None,
        }
    }
}

impl SystemConfig {
    /// Resolve the configured [`Layout`].
    ///
    /// # Panics
    ///
    /// Panics if the node counts do not tile the mesh.
    pub fn layout(&self) -> Layout {
        Layout::build(
            self.layout,
            self.mesh_width,
            self.mesh_height,
            self.n_gpu,
            self.n_cpu,
            self.n_mem,
        )
    }

    /// Total node count (per chip).
    pub fn nodes(&self) -> usize {
        self.mesh_width * self.mesh_height
    }

    /// Number of chips in the package (1 when no fabric is configured).
    pub fn chips(&self) -> usize {
        self.fabric.as_ref().map_or(1, |f| f.chips)
    }

    /// Attach an inter-chip fabric.
    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Attach an adaptive control loop.
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = Some(control);
        self
    }

    /// Set CDR routing orders `(request, reply)`.
    pub fn with_routing(mut self, request: RoutingPolicy, reply: RoutingPolicy) -> Self {
        self.noc.routing_request = request;
        self.noc.routing_reply = reply;
        self
    }

    /// Set the scheme under test.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Per-layout best routing, as established in Section V: the
    /// baseline uses YX-XY CDR; layouts B and C use XY-YX; layout D uses
    /// XY-XY (different orders do not help when traffic is not
    /// separable).
    pub fn best_routing_for(layout: LayoutKind) -> (RoutingPolicy, RoutingPolicy) {
        match layout {
            LayoutKind::Baseline => (RoutingPolicy::DorYX, RoutingPolicy::DorXY),
            LayoutKind::EdgeB | LayoutKind::ClusteredC => {
                (RoutingPolicy::DorXY, RoutingPolicy::DorYX)
            }
            LayoutKind::DistributedD => (RoutingPolicy::DorXY, RoutingPolicy::DorXY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SystemConfig::default();
        assert_eq!(c.n_gpu, 40);
        assert_eq!(c.n_cpu, 16);
        assert_eq!(c.n_mem, 8);
        assert_eq!(c.gpu.warps_per_core, 48);
        assert_eq!(c.gpu.mshrs, 64);
        assert_eq!(c.gpu.l1.capacity_bytes, 48 * 1024);
        assert_eq!(c.gpu.l1.ways, 4);
        assert_eq!(c.gpu.l1.line_bytes, 128);
        assert_eq!(c.cpu.l1.line_bytes, 64);
        assert_eq!(c.llc.slice.capacity_bytes, 1024 * 1024);
        assert_eq!(c.llc.slice.ways, 16);
        assert_eq!(c.dram.banks, 16);
        assert_eq!(c.dram.t_cl, 12);
        assert_eq!(c.dram.t_rc, 40);
        assert_eq!(c.noc.channel_bytes, 16);
        assert_eq!(c.noc.vcs, 2);
        assert_eq!(c.noc.vc_buf_flits, 4);
        // CDR baseline: YX requests, XY replies.
        assert_eq!(c.noc.routing_request, RoutingPolicy::DorYX);
        assert_eq!(c.noc.routing_reply, RoutingPolicy::DorXY);
    }

    #[test]
    fn cache_geometry_sets() {
        let g = CacheGeometry {
            capacity_bytes: 48 * 1024,
            ways: 4,
            line_bytes: 128,
        };
        assert_eq!(g.lines(), 384);
        assert_eq!(g.sets(), 96);
    }

    #[test]
    fn llc_geometry_is_power_of_two_sets() {
        let c = LlcConfig::default();
        assert_eq!(c.slice.sets(), 512);
    }

    #[test]
    fn builder_methods() {
        let c = SystemConfig::default()
            .with_scheme(Scheme::DelegatedReplies)
            .with_routing(RoutingPolicy::DorXY, RoutingPolicy::DorYX);
        assert_eq!(c.scheme, Scheme::DelegatedReplies);
        assert_eq!(c.noc.routing_request, RoutingPolicy::DorXY);
    }

    #[test]
    fn fabric_defaults_and_chip_count() {
        let c = SystemConfig::default();
        assert!(c.fabric.is_none());
        assert_eq!(c.chips(), 1);
        let f = FabricConfig::default();
        assert_eq!(f.chips, 2);
        assert_eq!(f.topology, FabricTopology::Pair);
        assert_eq!(f.link_flits, 4);
        assert_eq!(f.reply_link_flits, 4);
        let c = c.with_fabric(f);
        assert_eq!(c.chips(), 2);
    }

    #[test]
    fn control_defaults_and_builder() {
        let c = SystemConfig::default();
        assert!(c.control.is_none());
        let ctl = ControlConfig::default();
        assert_eq!(ctl.policy, ControlPolicyKind::Hysteresis);
        assert_eq!(ctl.interval, 500);
        assert!(ctl.enter_blocked_pm > ctl.exit_blocked_pm);
        assert_eq!(ControlConfig::noop().policy, ControlPolicyKind::NoOp);
        let c = c.with_control(ctl);
        assert_eq!(c.control, Some(ctl));
    }

    #[test]
    fn labels_are_short() {
        assert_eq!(Scheme::DelegatedReplies.label(), "DR");
        assert_eq!(Topology::Mesh.label(), "Mesh");
        assert_eq!(LayoutKind::EdgeB.label(), "B");
        assert_eq!(RoutingPolicy::Hare.label(), "HARE");
        assert_eq!(L1Org::DcL1.label(), "DC-L1");
        assert_eq!(CtaSched::RoundRobin.label(), "RR");
    }
}
