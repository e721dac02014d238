//! The full heterogeneous system: GPU subsystem + CPU subsystem +
//! memory nodes, wired through the request/reply networks, with the
//! Delegated-Replies engine at the memory nodes.
//!
//! One [`System`] simulates one heterogeneous workload (a Table-II
//! GPU/CPU pairing) under one [`SystemConfig`]. Construction is cheap;
//! `run` advances the whole chip cycle by cycle; [`System::report`]
//! extracts the figure-level metrics.

use crate::memnode::MemNode;
use crate::nets::Nets;
use crate::report::{MissBreakdown, Report};
use crate::snapshot::{self, Snapshot};
use crate::telemetry::SystemTelemetry;
use crate::trace::{Event, TraceLog};
use clognet_control::{ControlInput, Controller, DecisionLog};
use clognet_cpu::{CpuOut, CpuSubsystem};
use clognet_gpu::{GpuIn, GpuOut, GpuSubsystem};
use clognet_noc::{Network, NodeSet};
use clognet_proto::snap::{self as snap, SnapError};
use clognet_proto::{
    AddressMap, CoreId, Cycle, FabricConfig, FabricInterleave, Layout, LineAddr, MsgKind, NodeId,
    NodeKind, Packet, PacketId, Priority, Scheme, SystemConfig, TrafficClass,
};
use clognet_telemetry::TelemetryConfig;
use clognet_workloads::{cpu_benchmark, gpu_benchmark};
use std::collections::VecDeque;

/// Per-node outboxes between the cores and the NIs: one lane per
/// traffic class, indexed by `TrafficClass as usize`.
#[derive(Debug, Default)]
struct Outbox {
    lanes: [VecDeque<Packet>; 2],
}

const OUTBOX_CAP: usize = 16;

/// A chip's attachment point to the inter-chip fabric: which package
/// slot this chip occupies, how line addresses map to owner chips, and
/// the gateway memory nodes that carry cross-chip traffic on and off
/// chip. `None` on a plain single-chip system — every fabric branch in
/// the hot paths compiles down to one `is_some` test.
#[derive(Debug)]
pub(crate) struct FabricPort {
    /// This chip's index in the package.
    chip: usize,
    /// Total chips in the package.
    chips: usize,
    interleave: FabricInterleave,
    /// The *package* seed (identical on every chip, so all chips agree
    /// on line ownership even though per-chip address maps differ).
    seed: u64,
    /// Gateway nodes in dense `MemId` order (the first
    /// `FabricConfig::gateways` memory nodes).
    gateways: Vec<NodeId>,
    /// Outbound cross-chip requests awaiting fabric handoff, in
    /// ejection order. Bounded by `egress_cap`; a full egress
    /// back-pressures the gateway's NI (head-of-line, deterministic).
    egress: VecDeque<Packet>,
    egress_cap: usize,
}

impl FabricPort {
    /// Avalanche a line address with the package seed — the same fold
    /// the [`AddressMap`] uses, salted so chip interleaving and
    /// controller interleaving decorrelate.
    fn fold(&self, line: LineAddr) -> u64 {
        let mut x = line.0 ^ self.seed.rotate_left(17) ^ 0xC2B2_AE3D_27D4_EB4F;
        x ^= x >> 7;
        x ^= x >> 13;
        x ^= x >> 23;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        x
    }

    /// The chip that owns `line` under the package interleaving.
    fn chip_of(&self, line: LineAddr) -> usize {
        match self.interleave {
            FabricInterleave::Modulo => (line.0 % self.chips as u64) as usize,
            FabricInterleave::Hash => (self.fold(line) % self.chips as u64) as usize,
        }
    }

    /// The gateway index `line` routes through — a pure function of the
    /// line and the package seed, so the request (on the origin chip)
    /// and its reply (returning through the owner chip) meet at the
    /// same gateway slot on both sides.
    fn gateway_index_for(&self, line: LineAddr) -> usize {
        ((self.fold(line) >> 8) % self.gateways.len() as u64) as usize
    }
}

/// The assembled chip.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    layout: Layout,
    map: AddressMap,
    nets: Nets,
    gpu: GpuSubsystem,
    cpu: CpuSubsystem,
    mems: Vec<MemNode>,
    outboxes: Vec<Outbox>,
    pkt_seq: u64,
    now: Cycle,
    gpu_bench: String,
    cpu_bench: String,
    oracle_total: u64,
    oracle_remote: u64,
    delegations_sent: u64,
    stats_epoch: Cycle,
    fast_forward: bool,
    skipped_cycles: u64,
    trace: TraceLog,
    telemetry: Option<Box<SystemTelemetry>>,
    /// Adaptive control loop (`None` unless `cfg.control` is set).
    control: Option<Box<Controller>>,
    blocked_since: Vec<Option<Cycle>>,
    /// Inter-chip fabric attachment (`None` on a plain single chip).
    port: Option<FabricPort>,
    /// Endpoint skips on (the default): ejection delivery and outbox
    /// draining visit only the nodes their bitsets name. Off, they scan
    /// every node — the reference mode, toggled with the NoC's.
    idle_skip: bool,
    /// The GPU and CPU nodes: the ones ejection delivery serves (memory
    /// nodes pull their requests themselves).
    endpoints: NodeSet,
    /// `outbox_heads[class][prio]`: the nodes whose `class` lane is
    /// non-empty with a head packet of priority `prio`. Derived state:
    /// never serialized, rebuilt on restore.
    outbox_heads: [[NodeSet; 2]; 2],
    /// The nodes an endpoint loop visits this cycle, reused per tick.
    node_todo: NodeSet,
    /// Scratch buffers reused across ticks.
    gpu_out: Vec<(CoreId, GpuOut)>,
    cpu_out: Vec<(CoreId, CpuOut)>,
    gpu_budgets: Vec<usize>,
    gpu_remote_budgets: Vec<usize>,
    cpu_budgets: Vec<usize>,
    gpu_forwards: Vec<(CoreId, GpuOut)>,
    ctl_blocked: Vec<u64>,
    ctl_depth: Vec<usize>,
    ctl_shed: Vec<u64>,
}

impl System {
    /// Build a system running `gpu_bench` on all GPU cores and
    /// `cpu_bench` on all CPU cores (Table-II style).
    ///
    /// # Panics
    ///
    /// Panics if a benchmark name is unknown or the configuration is
    /// inconsistent.
    pub fn new(cfg: SystemConfig, gpu_bench: &str, cpu_bench: &str) -> Self {
        let layout = cfg.layout();
        let map = AddressMap::new(cfg.n_mem, cfg.seed);
        Self::new_prebuilt(cfg, gpu_bench, cpu_bench, layout, map)
    }

    /// Build a system from a pre-derived [`Layout`] and [`AddressMap`].
    ///
    /// Sweeps that vary a parameter which does not affect node placement
    /// or address interleaving (channel width, cache capacities, buffer
    /// depths) derive both once and clone them per point instead of
    /// re-deriving them for every (scheme, point) pair.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark name is unknown, the configuration is
    /// inconsistent, or `layout`/`map` do not match `cfg` (they must
    /// come from `cfg.layout()` / `AddressMap::new(cfg.n_mem, cfg.seed)`
    /// on an equivalent configuration).
    pub fn new_prebuilt(
        cfg: SystemConfig,
        gpu_bench: &str,
        cpu_bench: &str,
        layout: Layout,
        map: AddressMap,
    ) -> Self {
        assert_eq!(
            layout.node_count(),
            cfg.nodes(),
            "prebuilt layout does not match the configuration"
        );
        let nets = Nets::new(&cfg);
        let gpu_profile =
            gpu_benchmark(gpu_bench).unwrap_or_else(|| panic!("unknown GPU benchmark {gpu_bench}"));
        let cpu_profile =
            cpu_benchmark(cpu_bench).unwrap_or_else(|| panic!("unknown CPU benchmark {cpu_bench}"));
        let gpu = GpuSubsystem::new(
            cfg.gpu.clone(),
            cfg.scheme,
            cfg.l1_org,
            cfg.cta_sched,
            gpu_profile,
            cfg.n_gpu,
            cfg.seed,
        );
        let mut gpu = gpu;
        gpu.set_delayed_hits(cfg.dr.delayed_hits);
        let cpu = CpuSubsystem::new(cfg.cpu.clone(), cpu_profile, cfg.n_cpu, cfg.seed);
        let mems = layout
            .mem_nodes()
            .enumerate()
            .map(|(i, node)| MemNode::new(&cfg, clognet_proto::MemId(i as u16), node))
            .collect();
        let outboxes = (0..layout.node_count())
            .map(|_| Outbox::default())
            .collect();
        let nodes = NodeSet::new(layout.node_count());
        let mut endpoints = nodes.clone();
        for n in layout.gpu_nodes().chain(layout.cpu_nodes()) {
            endpoints.insert(n.index());
        }
        let control = cfg
            .control
            .map(|ctl| Box::new(Controller::new(ctl, cfg.scheme, cfg.n_mem)));
        System {
            layout,
            map,
            nets,
            gpu,
            cpu,
            mems,
            outboxes,
            pkt_seq: 0,
            now: 0,
            gpu_bench: gpu_bench.to_string(),
            cpu_bench: cpu_bench.to_string(),
            oracle_total: 0,
            oracle_remote: 0,
            delegations_sent: 0,
            stats_epoch: 0,
            fast_forward: true,
            skipped_cycles: 0,
            trace: TraceLog::new(4096),
            telemetry: None,
            control,
            blocked_since: vec![None; cfg.n_mem],
            port: None,
            idle_skip: true,
            endpoints,
            outbox_heads: std::array::from_fn(|_| std::array::from_fn(|_| nodes.clone())),
            node_todo: nodes,
            gpu_out: Vec::new(),
            cpu_out: Vec::new(),
            gpu_budgets: Vec::new(),
            gpu_remote_budgets: Vec::new(),
            cpu_budgets: Vec::new(),
            gpu_forwards: Vec::new(),
            ctl_blocked: Vec::new(),
            ctl_depth: Vec::new(),
            ctl_shed: Vec::new(),
            cfg,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The resolved layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn next_pid(&mut self) -> PacketId {
        self.pkt_seq += 1;
        PacketId(self.pkt_seq)
    }

    fn mem_node_of(&self, line: LineAddr) -> NodeId {
        // Lines owned by another chip in the package route to this
        // chip's gateway for the line instead of a local controller.
        if let Some(port) = &self.port {
            if port.chip_of(line) != port.chip {
                return port.gateways[port.gateway_index_for(line)];
            }
        }
        let mc = self.map.controller_of(line);
        self.layout.mem_node(mc)
    }

    /// Attach this chip to an inter-chip fabric as package slot `chip`.
    /// `seed` is the *package* seed — identical on every chip so all
    /// chips agree on line ownership. Call once, before ticking.
    pub(crate) fn attach_fabric_port(&mut self, chip: usize, fc: &FabricConfig, seed: u64) {
        let gateways: Vec<NodeId> = self.layout.mem_nodes().take(fc.gateways).collect();
        assert!(
            !gateways.is_empty() && gateways.len() == fc.gateways,
            "gateway count exceeds memory nodes (SystemConfig::validate rejects this)"
        );
        self.port = Some(FabricPort {
            chip,
            chips: fc.chips,
            interleave: fc.interleave,
            seed,
            gateways,
            egress: VecDeque::new(),
            egress_cap: fc.queue_pkts,
        });
    }

    /// The owner chip of `line` under the attached fabric port.
    pub(crate) fn fabric_chip_of(&self, line: LineAddr) -> usize {
        self.port
            .as_ref()
            .expect("fabric port attached")
            .chip_of(line)
    }

    /// Head of the outbound cross-chip request queue.
    pub(crate) fn peek_egress(&self) -> Option<&Packet> {
        self.port.as_ref().and_then(|p| p.egress.front())
    }

    /// Pop the outbound cross-chip request queue.
    pub(crate) fn pop_egress(&mut self) -> Option<Packet> {
        self.port.as_mut().and_then(|p| p.egress.pop_front())
    }

    /// Head of gateway `gi`'s parked cross-chip replies. On a chip with
    /// a fabric port, every reply ejected at a memory node is bound for
    /// another chip (local requesters are never memory nodes), so the
    /// reply-net ejection queue at a gateway is exactly the fabric
    /// reply staging queue.
    pub(crate) fn peek_gateway_reply(&self, gi: usize) -> Option<&Packet> {
        let gw = self.port.as_ref().expect("fabric port attached").gateways[gi];
        self.nets.net(TrafficClass::Reply).peek_ejected(gw)
    }

    /// Pop gateway `gi`'s parked cross-chip reply queue.
    pub(crate) fn pop_gateway_reply(&mut self, gi: usize) -> Option<Packet> {
        let gw = self.port.as_ref().expect("fabric port attached").gateways[gi];
        self.nets.net_mut(TrafficClass::Reply).pop_ejected(gw)
    }

    /// Inject a fabric-delivered cross-chip *request* at its gateway:
    /// the adapter re-stamps the packet as a local request from the
    /// gateway node to the line's home controller, with the gateway as
    /// requester (so the reply returns to the gateway, and delegation —
    /// which needs a GPU-core requester — is naturally suppressed).
    ///
    /// Returns the gateway index on success, `None` when gateway
    /// injection is blocked (leave the message queued and retry next
    /// cycle — fabric arrival back-pressure).
    pub(crate) fn fabric_ingress_request(&mut self, pkt: &Packet) -> Option<usize> {
        let line = pkt.addr.line(128);
        let port = self.port.as_ref().expect("fabric port attached");
        debug_assert_eq!(port.chip_of(line), port.chip, "misrouted fabric request");
        let mc = self.map.controller_of(line);
        let home = self.layout.mem_node(mc);
        // The gateway proxies both NoC legs (gateway -> home request,
        // home -> gateway reply), so it must differ from the line's
        // home controller — a self-send on either leg is illegal. At
        // most one gateway can be the home, and `SystemConfig::validate`
        // guarantees at least two, so stepping once always resolves.
        let mut gi = port.gateway_index_for(line);
        if port.gateways[gi] == home {
            gi = (gi + 1) % port.gateways.len();
        }
        let gw = port.gateways[gi];
        if !self.nets.can_inject(gw, TrafficClass::Request, pkt.prio) {
            return None;
        }
        let mut local = pkt.clone();
        local.id = self.next_pid();
        local.src = gw;
        local.dst = home;
        local.requester = gw;
        local.created = self.now;
        self.nets
            .try_inject(local)
            .expect("can_inject checked above");
        Some(gi)
    }

    /// Inject a fabric-delivered cross-chip *reply* at this chip's
    /// gateway for the line, re-addressed to the original requester
    /// `origin`. Returns false when gateway injection is blocked.
    pub(crate) fn fabric_ingress_reply(&mut self, origin: NodeId, pkt: &Packet) -> bool {
        let line = pkt.addr.line(128);
        let port = self.port.as_ref().expect("fabric port attached");
        let gw = port.gateways[port.gateway_index_for(line)];
        if !self.nets.can_inject(gw, TrafficClass::Reply, pkt.prio) {
            return false;
        }
        let mut local = pkt.clone();
        local.id = self.next_pid();
        local.src = gw;
        local.dst = origin;
        local.requester = origin;
        local.created = self.now;
        self.nets
            .try_inject(local)
            .expect("can_inject checked above");
        true
    }

    /// Advance the whole chip by one cycle.
    pub fn tick(&mut self) {
        self.deliver_ejections();
        self.tick_gpu();
        self.tick_cpu();
        self.tick_mems();
        self.drain_outboxes();
        self.nets.tick();
        self.now += 1;
        // Telemetry epoch roll: a single branch when disabled, ring
        // pushes only on epoch boundaries when enabled.
        if let Some(t) = self.telemetry.as_deref_mut() {
            if self.now.is_multiple_of(t.epoch_len()) {
                t.roll_epoch(
                    &self.mems,
                    &self.nets,
                    &self.gpu,
                    &self.cpu,
                    self.delegations_sent,
                );
            }
        }
        // Adaptive-control decision boundary: one branch when
        // uncontrolled, a policy evaluation on interval boundaries.
        if self.control.is_some() {
            self.control_boundary();
        }
    }

    /// Evaluate the adaptive controller if `now` is a decision
    /// boundary, and apply the scheme it asks for. Fast-forward clamps
    /// its jumps to the next boundary (see `quiescent_horizon`), so the
    /// decision log is identical across engine modes.
    fn control_boundary(&mut self) {
        let Some(ctl) = self.control.as_deref() else {
            return;
        };
        if !self.now.is_multiple_of(ctl.interval()) {
            return;
        }
        // Reply flits each delegation keeps off the reply network — the
        // same accounting the telemetry shed counter uses.
        let shed_flits = u64::from(MsgKind::ReadReply.flits(128, self.cfg.noc.channel_bytes));
        self.ctl_blocked.clear();
        self.ctl_depth.clear();
        self.ctl_shed.clear();
        for m in &self.mems {
            self.ctl_blocked.push(m.stats.blocked_cycles);
            self.ctl_depth.push(m.inj_depth());
            self.ctl_shed.push(m.stats.delegations * shed_flits);
        }
        let input = ControlInput {
            cycle: self.now,
            blocked_cycles: &self.ctl_blocked,
            inj_depth: &self.ctl_depth,
            shed_flits: &self.ctl_shed,
        };
        let switched = self
            .control
            .as_deref_mut()
            .expect("checked above")
            .observe(&input);
        if let Some(scheme) = switched {
            // Applied directly rather than through `set_scheme`: an
            // external switch re-seats the ladder, the controller's own
            // actuation must not.
            self.cfg.scheme = scheme;
            self.gpu.set_scheme(scheme);
        }
    }

    /// Run for `cycles` cycles.
    ///
    /// When fast-forward is enabled (the default) and the whole chip is
    /// quiescent — no packets in flight, no queued outbox traffic, and
    /// every component reports no same-cycle work — the clock jumps
    /// straight to the earliest component event horizon instead of
    /// ticking through dead cycles. Results are bit-identical either
    /// way (see the `next_event` contract in DESIGN.md).
    pub fn run(&mut self, cycles: u64) {
        let end = self.now + cycles;
        while self.now < end {
            if self.fast_forward {
                if let Some((target, at_horizon)) = self.quiescent_horizon(end) {
                    self.advance_span(target - self.now);
                    // Landing on a component's reported horizon means
                    // that component (almost) always has same-cycle
                    // work there — tick straight away instead of
                    // paying for a quiescence check that would fail.
                    // (Ticking is always valid; at worst a re-peek
                    // horizon wastes one tick.)
                    if at_horizon && self.now < end {
                        self.tick();
                    }
                    continue;
                }
            }
            self.tick();
        }
    }

    /// Enable/disable event-horizon fast-forward (on by default).
    /// Turning it off forces the per-cycle reference loop the
    /// equivalence tests compare against.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Cycles skipped by fast-forward since construction or the last
    /// [`reset_stats`](Self::reset_stats) (warmup exclusion applies,
    /// like every other counter).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// If the whole chip is quiescent at `self.now`, the cycle to jump
    /// to: the minimum component event horizon, clamped to the next
    /// telemetry epoch boundary and to `end`. The flag is true when the
    /// jump lands on a component horizon rather than a clamp (i.e. the
    /// landing cycle has component work). `None` when any component
    /// still has same-cycle work — the caller must tick normally.
    pub(crate) fn quiescent_horizon(&mut self, end: Cycle) -> Option<(Cycle, bool)> {
        // Undelivered packets — in flight or parked in an ejection
        // queue — queued outbox packets, and cross-chip requests
        // awaiting fabric handoff are same-cycle work.
        if self.nets.has_in_flight()
            || self.outbox_heads.iter().flatten().any(|s| !s.is_empty())
            || self.port.as_ref().is_some_and(|p| !p.egress.is_empty())
        {
            return None;
        }
        let now = self.now;
        let mut horizon = Cycle::MAX;
        let mut clamp = |ev: Option<Cycle>| -> bool {
            match ev {
                Some(t) if t <= now => false,
                Some(t) => {
                    horizon = horizon.min(t);
                    true
                }
                None => true,
            }
        };
        if !clamp(self.nets.next_event(now)) || !clamp(self.gpu.next_event(now)) {
            return None;
        }
        let cpu_ev = self.cpu.next_event(now);
        if !clamp(cpu_ev) {
            return None;
        }
        for m in &self.mems {
            if !clamp(m.next_event(now)) {
                return None;
            }
        }
        let mut bound = end;
        if let Some(t) = self.telemetry.as_deref() {
            let len = t.epoch_len();
            bound = bound.min((now / len + 1) * len);
        }
        // Adaptive control evaluates at every interval boundary even
        // across dead spans — otherwise the decision log (and any
        // de-escalation driven by sustained calm) would depend on the
        // fast-forward mode.
        if let Some(c) = self.control.as_deref() {
            let len = c.interval();
            bound = bound.min((now / len + 1) * len);
        }
        let target = horizon.min(bound);
        debug_assert!(target > now, "quiescent horizon must be in the future");
        Some((target, horizon <= bound))
    }

    /// Jump the clock across `span` provably-dead cycles, integrating
    /// the skipped span into every per-cycle accumulator.
    pub(crate) fn advance_span(&mut self, span: u64) {
        debug_assert!(span > 0);
        self.cpu.advance(span);
        self.gpu.advance(span);
        self.now += span;
        self.nets.advance_to(self.now);
        self.skipped_cycles += span;
        // Memory nodes need no integration: a blocked or busy node
        // reports same-cycle work, so skipped spans never overlap
        // cycles where `blocked_cycles` (or any other per-cycle memory
        // counter) would advance.
        if let Some(t) = self.telemetry.as_deref_mut() {
            if self.now.is_multiple_of(t.epoch_len()) {
                t.roll_epoch(
                    &self.mems,
                    &self.nets,
                    &self.gpu,
                    &self.cpu,
                    self.delegations_sent,
                );
            }
        }
        if self.control.is_some() {
            self.control_boundary();
        }
    }

    /// Enable event tracing with a ring buffer of `cap` events.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = TraceLog::new(cap);
        self.trace.set_enabled(true);
    }

    /// The event trace (empty unless [`Self::enable_trace`] was called).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Enable time-series telemetry: per-epoch sampling of clogging
    /// signals plus clog-episode detection. Off by default; when off,
    /// the cycle loop pays one branch and allocates nothing.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = Some(Box::new(SystemTelemetry::new(cfg, self.mems.len())));
    }

    /// The telemetry state, if [`Self::enable_telemetry`] was called.
    pub fn telemetry(&self) -> Option<&SystemTelemetry> {
        self.telemetry.as_deref()
    }

    /// Seal open clog episodes and fill the metric registry from a
    /// fresh [`Report`]. Returns the populated telemetry, or `None`
    /// when telemetry was never enabled. Idempotent.
    pub fn finish_telemetry(&mut self) -> Option<&SystemTelemetry> {
        let report = self.report();
        self.finish_telemetry_with(&report);
        self.telemetry.as_deref()
    }

    /// Seal open clog episodes and fill the metric registry from a
    /// caller-supplied report — the multi-chip wrapper passes the
    /// package-level aggregate instead of this chip's own report.
    pub(crate) fn finish_telemetry_with(&mut self, report: &Report) {
        let now = self.now;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.populate_registry(report, &self.nets, now);
        }
    }

    /// Mutable telemetry access for the multi-chip wrapper (fabric
    /// series registration and per-epoch staging).
    pub(crate) fn telemetry_mut(&mut self) -> Option<&mut SystemTelemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Set the cycle clock directly (multi-chip restore: the package
    /// snapshot header carries one clock shared by every chip).
    pub(crate) fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Export the whole telemetry session (registry + per-epoch series +
    /// clog episodes) as a JSON document. `None` if telemetry is off.
    pub fn export_metrics_json(&mut self) -> Option<String> {
        let scheme = format!("{:?}", self.cfg.scheme);
        let seed = self.cfg.seed;
        let gpu_bench = self.gpu_bench.clone();
        let cpu_bench = self.cpu_bench.clone();
        let cycles = self.now;
        self.finish_telemetry()?;
        let t = self.telemetry.as_deref()?;
        Some(t.session.to_json(&[
            ("gpu_bench", gpu_bench),
            ("cpu_bench", cpu_bench),
            ("scheme", scheme),
            ("seed", seed.to_string()),
            ("cycles", cycles.to_string()),
        ]))
    }

    /// Export the per-epoch series as CSV (one row per epoch). `None`
    /// if telemetry is off.
    pub fn export_series_csv(&self) -> Option<String> {
        self.telemetry
            .as_deref()
            .map(|t| clognet_telemetry::export::series_to_csv(&t.session.sampler))
    }

    /// Zero all statistics while keeping architectural state (caches,
    /// MSHRs, predictors, queues). Call after a warmup run so reports
    /// cover only the measured window — the standard methodology for
    /// sampled simulation.
    pub fn reset_stats(&mut self) {
        self.nets.reset_stats();
        self.gpu.reset_stats();
        self.cpu.reset_stats();
        for m in &mut self.mems {
            m.reset_stats();
        }
        self.oracle_total = 0;
        self.oracle_remote = 0;
        self.delegations_sent = 0;
        self.skipped_cycles = 0;
        self.stats_epoch = self.now;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_stats_reset();
        }
        if let Some(c) = self.control.as_deref_mut() {
            c.on_stats_reset();
        }
    }

    /// Enable/disable the NoC's bitset fast path and the endpoint skips
    /// (on by default). Turning it off makes every tick scan every input
    /// VC of every router, every NI, and every node's ejection queue and
    /// outbox, ignoring the bitsets — the reference mode equivalence
    /// tests compare against.
    pub fn set_noc_idle_skip(&mut self, on: bool) {
        self.nets.set_idle_skip(on);
        self.idle_skip = on;
    }

    /// Deliver everything the networks ejected to GPU/CPU endpoints.
    /// (Memory nodes pull their requests themselves, gated on blocking.)
    /// Only endpoints with a reassembled packet waiting are visited, in
    /// node order (every node in the reference mode).
    fn deliver_ejections(&mut self) {
        let mut forwards = std::mem::take(&mut self.gpu_forwards);
        let mut todo = std::mem::take(&mut self.node_todo);
        if self.idle_skip {
            self.nets.ejected_into(&mut todo);
            todo.intersect_with(&self.endpoints);
        } else {
            todo.clear();
            (0..self.layout.node_count()).for_each(|n| todo.insert(n));
        }
        for n in todo.iter() {
            self.deliver_node(NodeId(n as u16), &mut forwards);
        }
        self.node_todo = todo;
        for (core, out) in forwards.drain(..) {
            self.route_gpu_out(core, out);
        }
        self.gpu_forwards = forwards;
    }

    /// Deliver the packets waiting at one node.
    fn deliver_node(&mut self, node: NodeId, forwards: &mut Vec<(CoreId, GpuOut)>) {
        match self.layout.kind_of(node) {
            NodeKind::Gpu(core) => match &mut self.nets {
                Nets::Separate { request, reply } => {
                    drain_gpu(reply, node, core, &self.layout, &mut self.gpu, forwards);
                    drain_gpu(request, node, core, &self.layout, &mut self.gpu, forwards);
                }
                Nets::Shared(n) => drain_gpu(n, node, core, &self.layout, &mut self.gpu, forwards),
            },
            NodeKind::Cpu(core) => {
                let net = self.nets.net_mut(TrafficClass::Reply);
                while let Some(pkt) = net.pop_ejected(node) {
                    match pkt.kind {
                        MsgKind::ReadReply => {
                            self.cpu.deliver_data(core, pkt.addr.line(64), self.now);
                        }
                        MsgKind::WriteAck => {
                            self.cpu.deliver_write_ack(core, pkt.addr.line(64));
                        }
                        other => panic!("CPU node got {other}"),
                    }
                }
            }
            NodeKind::Mem(_) => {}
        }
    }

    fn tick_gpu(&mut self) {
        self.gpu_budgets.clear();
        self.gpu_remote_budgets.clear();
        for i in 0..self.gpu.n_cores() {
            let node = self.layout.gpu_node(CoreId(i as u16));
            let ob = &self.outboxes[node.index()];
            let [request, reply] = &ob.lanes;
            self.gpu_budgets
                .push(OUTBOX_CAP.saturating_sub(request.len().max(reply.len())));
            // Remote (FRQ) service drains into the reply lane, which the
            // reply network always sinks — independent of local request
            // congestion.
            self.gpu_remote_budgets
                .push(OUTBOX_CAP.saturating_sub(reply.len()));
        }
        let mut out = std::mem::take(&mut self.gpu_out);
        out.clear();
        self.gpu.tick(
            self.now,
            &self.gpu_budgets,
            &self.gpu_remote_budgets,
            &mut out,
        );
        for (core, o) in out.drain(..) {
            self.route_gpu_out(core, o);
        }
        self.gpu_out = out;
    }

    /// Turn a GPU-subsystem output into a packet in the right outbox.
    fn route_gpu_out(&mut self, core: CoreId, o: GpuOut) {
        let node = self.layout.gpu_node(core);
        match o {
            GpuOut::LlcRead {
                line,
                dnf,
                requester,
            } => {
                if dnf {
                    self.trace.push(
                        self.now,
                        Event::RemoteMiss {
                            server: core,
                            requester,
                            line,
                        },
                    );
                }
                // Oracle inter-core-locality sampling on genuine local
                // misses (Fig. 2).
                if !dnf && requester == core {
                    self.oracle_total += 1;
                    if self.gpu.remote_l1_has(core, line) {
                        self.oracle_remote += 1;
                    }
                }
                let dst = self.mem_node_of(line);
                let pid = self.next_pid();
                let mut pkt = Packet::new(
                    pid,
                    node,
                    dst,
                    MsgKind::ReadReq,
                    Priority::Gpu,
                    line.to_addr(128),
                    128,
                    self.cfg.noc.channel_bytes,
                    self.now,
                );
                pkt.dnf = dnf;
                pkt.requester = self.layout.gpu_node(requester);
                self.push_outbox(node, pkt);
            }
            GpuOut::LlcWrite { line } => {
                let dst = self.mem_node_of(line);
                let pid = self.next_pid();
                let pkt = Packet::new(
                    pid,
                    node,
                    dst,
                    MsgKind::WriteReq,
                    Priority::Gpu,
                    line.to_addr(128),
                    128,
                    self.cfg.noc.channel_bytes,
                    self.now,
                );
                self.push_outbox(node, pkt);
            }
            GpuOut::CoreReply { to, line } => {
                if self.cfg.scheme == Scheme::DelegatedReplies {
                    self.trace.push(
                        self.now,
                        Event::RemoteHit {
                            server: core,
                            requester: to,
                            line,
                        },
                    );
                }
                let dst = self.layout.gpu_node(to);
                let pid = self.next_pid();
                let pkt = Packet::new(
                    pid,
                    node,
                    dst,
                    MsgKind::ReadReply,
                    Priority::Gpu,
                    line.to_addr(128),
                    128,
                    self.cfg.noc.channel_bytes,
                    self.now,
                );
                self.push_outbox(node, pkt);
            }
            GpuOut::Probe { to, line } => {
                let dst = self.layout.gpu_node(to);
                let pid = self.next_pid();
                let pkt = Packet::new(
                    pid,
                    node,
                    dst,
                    MsgKind::ProbeReq,
                    Priority::Gpu,
                    line.to_addr(128),
                    128,
                    self.cfg.noc.channel_bytes,
                    self.now,
                );
                self.push_outbox(node, pkt);
            }
            GpuOut::ProbeMiss { to, line } => {
                let dst = self.layout.gpu_node(to);
                let pid = self.next_pid();
                let pkt = Packet::new(
                    pid,
                    node,
                    dst,
                    MsgKind::ProbeMiss,
                    Priority::Gpu,
                    line.to_addr(128),
                    128,
                    self.cfg.noc.channel_bytes,
                    self.now,
                );
                self.push_outbox(node, pkt);
            }
            GpuOut::ProbeHitAck { to, line } => {
                let dst = self.layout.gpu_node(to);
                let pid = self.next_pid();
                let pkt = Packet::new(
                    pid,
                    node,
                    dst,
                    MsgKind::ProbeHit,
                    Priority::Gpu,
                    line.to_addr(128),
                    128,
                    self.cfg.noc.channel_bytes,
                    self.now,
                );
                self.push_outbox(node, pkt);
            }
            GpuOut::Fetch { to, line } => {
                let dst = self.layout.gpu_node(to);
                let pid = self.next_pid();
                let pkt = Packet::new(
                    pid,
                    node,
                    dst,
                    MsgKind::FetchReq,
                    Priority::Gpu,
                    line.to_addr(128),
                    128,
                    self.cfg.noc.channel_bytes,
                    self.now,
                );
                self.push_outbox(node, pkt);
            }
            GpuOut::Flushed => {
                // Software coherence: all pointers naming this core die.
                // Modeled as a direct (zero-traffic) operation; the cost
                // of the flush itself is the lost L1 contents.
                let mut dropped = 0;
                for m in &mut self.mems {
                    dropped += m.invalidate_pointers_of(core);
                }
                self.trace.push(
                    self.now,
                    Event::Flush {
                        core,
                        pointers: dropped,
                    },
                );
            }
        }
    }

    fn tick_cpu(&mut self) {
        self.cpu_budgets.clear();
        for i in 0..self.cpu.n_cores() {
            let node = self.layout.cpu_node(CoreId(i as u16));
            let ob = &self.outboxes[node.index()];
            self.cpu_budgets
                .push(OUTBOX_CAP.saturating_sub(ob.lanes[0].len()));
        }
        let mut out = std::mem::take(&mut self.cpu_out);
        out.clear();
        self.cpu.tick(self.now, &self.cpu_budgets, &mut out);
        for (core, o) in out.drain(..) {
            let node = self.layout.cpu_node(core);
            let (kind, line) = match o {
                CpuOut::Read { line } => (MsgKind::ReadReq, line),
                CpuOut::Write { line } => (MsgKind::WriteReq, line),
            };
            let addr = line.to_addr(64);
            let dst = self.mem_node_of(addr.line(128));
            let pid = self.next_pid();
            let pkt = Packet::new(
                pid,
                node,
                dst,
                kind,
                Priority::Cpu,
                addr,
                64,
                self.cfg.noc.channel_bytes,
                self.now,
            );
            self.push_outbox(node, pkt);
        }
        self.cpu_out = out;
    }

    fn tick_mems(&mut self) {
        let now = self.now;
        for mi in 0..self.mems.len() {
            let node = self.mems[mi].node;
            // 1. Accept requests while unblocked (up to 2 per cycle).
            //    On a fabric-attached chip, requests for lines owned by
            //    another chip divert to the fabric egress instead of the
            //    controller (they arrived here because this node is the
            //    line's gateway); diversion is NI work and does not
            //    consume the controller's accept budget, but a full
            //    egress blocks the head (deterministic back-pressure).
            let budget = self.mems[mi].accept_budget().min(2);
            let mut accepted = 0;
            while let Some(head_addr) = self
                .nets
                .net(TrafficClass::Request)
                .peek_ejected(node)
                .map(|p| p.addr)
            {
                let remote = self
                    .port
                    .as_ref()
                    .is_some_and(|p| p.chip_of(head_addr.line(128)) != p.chip);
                if remote {
                    let port = self.port.as_ref().expect("checked above");
                    if port.egress.len() >= port.egress_cap {
                        break;
                    }
                    let pkt = self
                        .nets
                        .net_mut(TrafficClass::Request)
                        .pop_ejected(node)
                        .expect("peeked");
                    self.port
                        .as_mut()
                        .expect("checked above")
                        .egress
                        .push_back(pkt);
                    continue;
                }
                if accepted >= budget {
                    break;
                }
                let pkt = self
                    .nets
                    .net_mut(TrafficClass::Request)
                    .pop_ejected(node)
                    .expect("peeked");
                let layout = &self.layout;
                self.mems[mi].process_request(&pkt, now, |n| match layout.kind_of(n) {
                    NodeKind::Gpu(c) => Some(c),
                    _ => None,
                });
                accepted += 1;
            }
            // 2. Memory-side progress.
            self.mems[mi].tick_memory(now);
            if self.trace.enabled() || self.telemetry.is_some() {
                let blocked = self.mems[mi].blocked();
                match (self.blocked_since[mi], blocked) {
                    (None, true) => {
                        self.blocked_since[mi] = Some(now);
                        self.trace.push(
                            now,
                            Event::BlockedEnter {
                                mem: self.mems[mi].id,
                            },
                        );
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.session.episodes.enter(mi, now);
                        }
                    }
                    (Some(since), false) => {
                        self.blocked_since[mi] = None;
                        self.trace.push(
                            now,
                            Event::BlockedExit {
                                mem: self.mems[mi].id,
                                for_cycles: now - since,
                            },
                        );
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.session.episodes.exit(mi, now);
                        }
                    }
                    _ => {}
                }
                if blocked {
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.session
                            .episodes
                            .observe_depth(mi, self.mems[mi].inj_depth());
                    }
                }
            }
            // 3. Delegation: only when GPU reply injection is blocked
            //    (Section II, "Delegated Replies" — the trigger), unless
            //    the delegate-always ablation is active.
            if self.cfg.scheme == Scheme::DelegatedReplies
                && (self.cfg.dr.delegate_always
                    || self
                        .nets
                        .inject_blocked(node, TrafficClass::Reply, Priority::Gpu))
            {
                for _ in 0..self.cfg.dr.max_per_cycle {
                    if !self
                        .nets
                        .can_inject(node, TrafficClass::Request, Priority::Gpu)
                    {
                        break;
                    }
                    let Some(r) = self.mems[mi].take_delegatable() else {
                        break;
                    };
                    let target = r.delegatable_to.expect("delegatable");
                    let dst = self.layout.gpu_node(target);
                    let pid = self.next_pid();
                    let mut pkt = Packet::new(
                        pid,
                        node,
                        dst,
                        MsgKind::DelegatedReply,
                        Priority::Gpu,
                        r.addr,
                        128,
                        self.cfg.noc.channel_bytes,
                        now,
                    );
                    pkt.requester = r.dst;
                    self.nets.try_inject(pkt).expect("can_inject checked above");
                    self.mems[mi].stats.delegations += 1;
                    self.delegations_sent += 1;
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        // Flits this delegation keeps off the clogged
                        // reply network: the GPU read reply it replaces.
                        let shed = MsgKind::ReadReply.flits(128, self.cfg.noc.channel_bytes);
                        t.session.episodes.add_shed(mi, u64::from(shed));
                    }
                    self.trace.push(
                        now,
                        Event::Delegated {
                            mem: self.mems[mi].id,
                            target,
                            requester: match self.layout.kind_of(r.dst) {
                                NodeKind::Gpu(c) => c,
                                _ => CoreId(u16::MAX),
                            },
                            line: r.addr.line(128),
                        },
                    );
                }
            }
            // 4. Inject replies: one CPU attempt (bypass), then GPU FIFO.
            let mut tried_cpu = false;
            for _ in 0..4 {
                let r = if tried_cpu {
                    self.mems[mi].next_gpu_reply()
                } else {
                    self.mems[mi].next_reply()
                };
                let Some(r) = r else { break };
                let pid = self.next_pid();
                let class = r.kind.class();
                if !self.nets.can_inject(node, class, r.prio) {
                    // What a refused `try_inject` does: the packet id is
                    // spent, the reply goes back to the buffer's front,
                    // and the NI records the stall.
                    self.nets.note_refused(node, class);
                    let was_cpu = r.prio == Priority::Cpu;
                    self.mems[mi].put_back(r);
                    if was_cpu {
                        tried_cpu = true;
                        continue;
                    }
                    break;
                }
                let pkt = Packet::new(
                    pid,
                    node,
                    r.dst,
                    r.kind,
                    r.prio,
                    r.addr,
                    r.line_bytes,
                    self.cfg.noc.channel_bytes,
                    now,
                );
                self.nets.try_inject(pkt).expect("can_inject checked above");
                self.mems[mi].stats.injected_replies += 1;
            }
        }
    }

    /// Queue `pkt` in the outbox lane of its class at `node`.
    fn push_outbox(&mut self, node: NodeId, pkt: Packet) {
        debug_assert_eq!(pkt.src, node, "an outbox holds its own node's packets");
        let (lane, n) = (pkt.class() as usize, node.index());
        let q = &mut self.outboxes[n].lanes[lane];
        if q.is_empty() {
            self.outbox_heads[lane][pkt.prio as usize].insert(n);
        }
        q.push_back(pkt);
    }

    /// Rebuild node `n`'s bits in the outbox head bitsets from its lanes.
    fn note_outbox_heads(&mut self, n: usize) {
        for (lane, heads) in self.outbox_heads.iter_mut().enumerate() {
            let prio = self.outboxes[n].lanes[lane]
                .front()
                .map(|p| p.prio as usize);
            for (p, set) in heads.iter_mut().enumerate() {
                set.set(n, prio == Some(p));
            }
        }
    }

    /// Whether node `n`'s bits in the outbox head bitsets match its lanes.
    fn outbox_heads_consistent(&self, n: usize) -> bool {
        self.outbox_heads.iter().enumerate().all(|(lane, heads)| {
            let prio = self.outboxes[n].lanes[lane]
                .front()
                .map(|p| p.prio as usize);
            heads
                .iter()
                .enumerate()
                .all(|(p, set)| set.contains(n) == (prio == Some(p)))
        })
    }

    /// Hand queued outbox packets to the NIs, node by node and request
    /// lane before reply lane, each lane until its head is refused. A
    /// lane still holding packets afterwards had its head refused, which
    /// the NI records as an injection stall. Only nodes whose lane head
    /// has a free slot are visited, in node order (every node in the
    /// reference mode); the stall of every other queued node is recorded
    /// with one set operation per lane head priority.
    fn drain_outboxes(&mut self) {
        debug_assert!(
            (0..self.outboxes.len()).all(|n| self.outbox_heads_consistent(n)),
            "outbox head bitsets diverged from the lanes at cycle {}",
            self.now
        );
        // Offering at a node changes only that node's lanes and NI, so
        // the nodes to visit can be taken up front.
        let mut todo = std::mem::take(&mut self.node_todo);
        todo.clear();
        if self.idle_skip {
            for class in TrafficClass::ALL {
                for prio in [Priority::Cpu, Priority::Gpu] {
                    todo.union_with_both(
                        &self.outbox_heads[class as usize][prio as usize],
                        self.nets.free_slots(class, prio),
                    );
                }
            }
        } else {
            (0..self.outboxes.len()).for_each(|n| todo.insert(n));
        }
        for n in todo.iter() {
            for lane in 0..2 {
                while let Some(pkt) = self.outboxes[n].lanes[lane].front() {
                    if !self.nets.can_inject(pkt.src, pkt.class(), pkt.prio) {
                        break;
                    }
                    let pkt = self.outboxes[n].lanes[lane]
                        .pop_front()
                        .expect("checked above");
                    self.nets.try_inject(pkt).expect("can_inject checked above");
                }
            }
            self.note_outbox_heads(n);
        }
        self.node_todo = todo;
        for class in TrafficClass::ALL {
            for queued in &self.outbox_heads[class as usize] {
                self.nets.note_refused_all(queued, class);
            }
        }
    }

    /// The GPU subsystem (for fine-grained inspection in tests and
    /// examples).
    pub fn gpu(&self) -> &GpuSubsystem {
        &self.gpu
    }

    /// The CPU subsystem.
    pub fn cpu(&self) -> &CpuSubsystem {
        &self.cpu
    }

    /// The memory nodes.
    pub fn mems(&self) -> &[MemNode] {
        &self.mems
    }

    /// The networks.
    pub fn nets(&self) -> &Nets {
        &self.nets
    }

    /// Capture the complete system state as a versioned [`Snapshot`].
    ///
    /// Call between [`run`](Self::run) spans (never mid-tick). The
    /// snapshot embeds the config and benchmark names, so restoring
    /// needs nothing else; execution-mode knobs (fast-forward,
    /// idle-skip) are not captured — a snapshot taken under one mode
    /// restores into any other with byte-identical results.
    pub fn snapshot(&self) -> Snapshot {
        let mut w = snapshot::begin_snapshot(&self.cfg, &self.gpu_bench, &self.cpu_bench, self.now);
        // Multi-chip tag: false = this body is one plain chip. The
        // multi-chip wrapper writes true followed by a chip count and
        // one body per chip.
        w.bool(false);
        self.save_body(&mut w);
        Snapshot::from_bytes(w.into_bytes()).expect("just-written snapshot parses")
    }

    /// Serialize this chip's mutable state (everything after the
    /// identifying prefix and the multi-chip tag). The fabric egress
    /// section is present exactly when a port is attached — the restore
    /// side attaches ports before loading, so both sides agree.
    pub(crate) fn save_body(&self, w: &mut snap::SnapWriter) {
        w.u64(self.pkt_seq);
        w.u64(self.stats_epoch);
        w.u64(self.skipped_cycles);
        w.u64(self.oracle_total);
        w.u64(self.oracle_remote);
        w.u64(self.delegations_sent);
        w.usize(self.blocked_since.len());
        for b in &self.blocked_since {
            w.opt_u64(*b);
        }
        w.usize(self.outboxes.len());
        for lane in self.outboxes.iter().flat_map(|ob| &ob.lanes) {
            w.usize(lane.len());
            for p in lane {
                snap::save_packet(w, p);
            }
        }
        self.gpu.save_state(w);
        self.cpu.save_state(w);
        w.usize(self.mems.len());
        for m in &self.mems {
            m.save_state(w);
        }
        self.nets.save_state(w);
        self.trace.save_state(w);
        match self.telemetry.as_deref() {
            Some(t) => {
                w.bool(true);
                t.save_state(w);
            }
            None => w.bool(false),
        }
        match self.control.as_deref() {
            Some(c) => {
                w.bool(true);
                c.save_state(w);
            }
            None => w.bool(false),
        }
        if let Some(port) = &self.port {
            w.usize(port.egress.len());
            for p in &port.egress {
                snap::save_packet(w, p);
            }
        }
    }

    /// Rebuild a system from a [`Snapshot`]: construct a fresh system
    /// from the embedded config and benchmark names, then overlay every
    /// piece of captured mutable state. The restored system starts in
    /// the default execution mode (fast-forward and idle-skip on);
    /// apply mode knobs afterwards as desired.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot body is truncated, carries trailing
    /// bytes, or disagrees with the structure its own config implies.
    pub fn restore(snapshot: &Snapshot) -> Result<System, SnapError> {
        let mut r = snapshot::body_reader(snapshot)?;
        if r.bool()? {
            let chips = r.usize()?;
            return Err(SnapError::ChipMismatch {
                snapshot: chips,
                expected: 1,
            });
        }
        let mut sys = System::new(
            snapshot.config().clone(),
            snapshot.gpu_bench(),
            snapshot.cpu_bench(),
        );
        sys.now = snapshot.cycle();
        sys.load_body(&mut r)?;
        r.finish()?;
        Ok(sys)
    }

    /// Deserialize one chip body written by [`save_body`](Self::save_body)
    /// into a freshly-constructed system (port already attached when
    /// restoring a multi-chip package).
    pub(crate) fn load_body(&mut self, r: &mut snap::SnapReader<'_>) -> Result<(), SnapError> {
        let sys = self;
        sys.pkt_seq = r.u64()?;
        sys.stats_epoch = r.u64()?;
        sys.skipped_cycles = r.u64()?;
        sys.oracle_total = r.u64()?;
        sys.oracle_remote = r.u64()?;
        sys.delegations_sent = r.u64()?;
        if r.usize()? != sys.blocked_since.len() {
            return Err(SnapError::Corrupt("blocked_since length mismatch"));
        }
        for b in &mut sys.blocked_since {
            *b = r.opt_u64()?;
        }
        if r.usize()? != sys.outboxes.len() {
            return Err(SnapError::Corrupt("outbox count mismatch"));
        }
        for lane in sys.outboxes.iter_mut().flat_map(|ob| &mut ob.lanes) {
            let n = r.usize()?;
            lane.clear();
            for _ in 0..n {
                lane.push_back(snap::load_packet(r)?);
            }
        }
        for n in 0..sys.outboxes.len() {
            sys.note_outbox_heads(n);
        }
        sys.gpu.load_state(r)?;
        sys.cpu.load_state(r)?;
        if r.usize()? != sys.mems.len() {
            return Err(SnapError::Corrupt("memory node count mismatch"));
        }
        for m in &mut sys.mems {
            m.load_state(r)?;
        }
        sys.nets.load_state(r)?;
        sys.trace = TraceLog::load_state(r)?;
        sys.telemetry = if r.bool()? {
            Some(Box::new(SystemTelemetry::load_state(r, sys.mems.len())?))
        } else {
            None
        };
        match (r.bool()?, sys.control.as_deref_mut()) {
            (true, Some(c)) => c.load_state(r)?,
            (false, None) => {}
            _ => {
                return Err(SnapError::Corrupt(
                    "controller presence disagrees with the snapshot config",
                ))
            }
        }
        // The restored ladder level is authoritative for the active
        // scheme (the embedded config may carry either the base or an
        // escalated scheme, depending on when the snapshot was taken).
        if let Some(c) = sys.control.as_deref() {
            let scheme = c.scheme();
            if scheme != sys.cfg.scheme {
                sys.cfg.scheme = scheme;
                sys.gpu.set_scheme(scheme);
            }
        }
        if let Some(port) = &mut sys.port {
            let n = r.usize()?;
            if n > port.egress_cap {
                return Err(SnapError::Corrupt("fabric egress overflows capacity"));
            }
            port.egress.clear();
            for _ in 0..n {
                port.egress.push_back(snap::load_packet(r)?);
            }
        }
        Ok(())
    }

    /// Take the fields of `cfg` that a running (typically just-restored)
    /// system can change without a rebuild: the memory-node
    /// injection-buffer capacity and the delegations per memory node
    /// per cycle. Every other field keeps the value the system was
    /// built with; which sweep parameters may differ is the caller's
    /// list, and `cfg` must have passed [`SystemConfig::validate`].
    pub fn retarget(&mut self, cfg: &SystemConfig) {
        self.cfg.noc.mem_inj_buf_pkts = cfg.noc.mem_inj_buf_pkts;
        self.cfg.dr.max_per_cycle = cfg.dr.max_per_cycle;
        for m in &mut self.mems {
            m.set_cap(cfg.noc.mem_inj_buf_pkts);
        }
    }

    /// Switch the delegation scheme on a live system (warm-start
    /// `compare` forks one warmup into all three schemes). Safe at a
    /// run boundary: in-flight probe/delegation traffic of the old
    /// scheme is still handled on delivery, which is scheme-independent.
    pub fn set_scheme(&mut self, scheme: Scheme) {
        self.cfg.scheme = scheme;
        self.gpu.set_scheme(scheme);
        if let Some(c) = self.control.as_deref_mut() {
            c.rebase(scheme);
        }
    }

    /// The adaptive controller's decision log, when the configuration
    /// carries a control policy.
    pub fn decision_log(&self) -> Option<&DecisionLog> {
        self.control.as_deref().map(Controller::log)
    }

    /// The adaptive controller's current ladder level (`None` on an
    /// uncontrolled system).
    pub fn control_level(&self) -> Option<u8> {
        self.control.as_deref().map(Controller::level)
    }

    /// Build the figure-level report.
    pub fn report(&self) -> Report {
        let cycles = (self.now - self.stats_epoch).max(1);
        let n_gpu = self.gpu.n_cores() as f64;
        let gpu_ipc = self.gpu.total_retired() as f64 / cycles as f64;
        let rep_stats = self.nets.net(TrafficClass::Reply).stats();
        let req_stats = self.nets.net(TrafficClass::Request).stats();
        let gpu_rx_rate = self
            .layout
            .gpu_nodes()
            .map(|n| rep_stats.rx_rate(n.index()))
            .sum::<f64>()
            / n_gpu;
        let gpu_tx_rate = self
            .layout
            .gpu_nodes()
            .map(|n| req_stats.node_tx_flits[n.index()] as f64 / cycles as f64)
            .sum::<f64>()
            / n_gpu;
        let mem_blocked_rate = self
            .mems
            .iter()
            .map(|m| m.stats.blocked_cycles as f64 / cycles as f64)
            .sum::<f64>()
            / self.mems.len() as f64;
        // Busiest reply-network output link of each memory node's router.
        let reply_net = self.nets.net(TrafficClass::Reply);
        let topo = reply_net.topo();
        let mem_reply_link_util = self
            .mems
            .iter()
            .map(|m| {
                let (r, local) = topo.attach_of(m.node);
                (0..topo.port_count(r))
                    .filter(|&p| p != local)
                    .map(|p| reply_net.stats().link_utilization(r, p))
                    .fold(0.0f64, f64::max)
            })
            .sum::<f64>()
            / self.mems.len() as f64;
        let mut remote_hit = 0;
        let mut remote_miss = 0;
        let mut llc_reads = 0;
        let mut probes = 0;
        let mut frq_same = 0u64;
        let mut frq_total = 0u64;
        for i in 0..self.gpu.n_cores() {
            let s = self.gpu.stats(CoreId(i as u16));
            remote_hit += s.delegated_hits + s.delegated_delayed;
            remote_miss += s.delegated_misses;
            llc_reads += s.llc_reads;
            probes += s.probes_sent;
            frq_same += s.frq_same_line;
            frq_total += s.delegated_hits + s.delegated_delayed + s.delegated_misses;
        }
        let (l1_hits, l1_misses) = self.gpu.l1_hits_misses();
        let cpu_net_latency = req_stats.mean_latency(TrafficClass::Request, Priority::Cpu)
            + rep_stats.mean_latency(TrafficClass::Reply, Priority::Cpu);
        Report {
            cycles,
            gpu_bench: self.gpu_bench.clone(),
            cpu_bench: self.cpu_bench.clone(),
            gpu_ipc,
            cpu_performance: self.cpu.mean_performance(),
            cpu_mem_latency: self.cpu.mean_read_latency(),
            cpu_net_latency,
            gpu_rx_rate,
            gpu_tx_rate,
            mem_blocked_rate,
            mem_reply_link_util,
            delegations: self.delegations_sent,
            breakdown: MissBreakdown {
                // Every miss first reaches the LLC (llc_reads); the ones
                // that were then delegated are reclassified.
                llc_direct: llc_reads.saturating_sub(remote_hit + remote_miss),
                remote_hit,
                remote_miss,
            },
            oracle_locality: if self.oracle_total == 0 {
                0.0
            } else {
                self.oracle_remote as f64 / self.oracle_total as f64
            },
            l1_miss_rate: if l1_hits + l1_misses == 0 {
                0.0
            } else {
                l1_misses as f64 / (l1_hits + l1_misses) as f64
            },
            probes_sent: probes,
            request_packets: req_stats.injected_pkts[0],
            frq_same_line_fraction: if frq_total == 0 {
                0.0
            } else {
                frq_same as f64 / frq_total as f64
            },
            flit_hops: self.nets.total_flit_hops(),
            channel_bytes: self.cfg.noc.channel_bytes,
        }
    }
}

/// Drain one network's ejection queue at a GPU node, dispatching by
/// message kind. FRQ-bound messages (delegated replies, probes) are only
/// taken while the FRQ has space — otherwise they stay in the NI and
/// back-pressure the request network, exactly the bounded behavior the
/// paper's 8-entry FRQ implies.
fn drain_gpu(
    net: &mut Network,
    node: NodeId,
    core: CoreId,
    layout: &Layout,
    gpu: &mut GpuSubsystem,
    forwards: &mut Vec<(CoreId, GpuOut)>,
) {
    loop {
        let Some(head) = net.peek_ejected(node) else {
            return;
        };
        let needs_frq = matches!(
            head.kind,
            MsgKind::DelegatedReply | MsgKind::ProbeReq | MsgKind::FetchReq
        );
        if needs_frq && !gpu.frq_has_space(core) {
            match head.kind {
                // Delegated replies carry the reply obligation and must
                // not be dropped: leave them in the NI (back-pressure).
                MsgKind::DelegatedReply => return,
                // Probes and fetches are best-effort: a full FRQ NACKs
                // them instead of wedging the request network behind an
                // unserviced probe (the prober falls back to the LLC).
                _ => {
                    let pkt = net.pop_ejected(node).expect("peeked");
                    let line = pkt.addr.line(128);
                    let to = match layout.kind_of(pkt.src) {
                        NodeKind::Gpu(c) => c,
                        other => panic!("probe from non-GPU node {other}"),
                    };
                    forwards.push((core, GpuOut::ProbeMiss { to, line }));
                    continue;
                }
            }
        }
        let pkt = net.pop_ejected(node).expect("peeked");
        let line = pkt.addr.line(128);
        let msg = match pkt.kind {
            MsgKind::ReadReply => GpuIn::Data {
                line,
                from: match layout.kind_of(pkt.src) {
                    NodeKind::Gpu(c) => Some(c),
                    _ => None,
                },
            },
            MsgKind::WriteAck => GpuIn::WriteAck { line },
            MsgKind::ProbeMiss => GpuIn::ProbeMissReply { line },
            MsgKind::ProbeHit => GpuIn::ProbeHitReply {
                from: match layout.kind_of(pkt.src) {
                    NodeKind::Gpu(c) => c,
                    other => panic!("probe hit from non-GPU node {other}"),
                },
                line,
            },
            MsgKind::FetchReq => GpuIn::FetchReq {
                from: match layout.kind_of(pkt.requester) {
                    NodeKind::Gpu(c) => c,
                    other => panic!("fetch for non-GPU node {other}"),
                },
                line,
            },
            MsgKind::DelegatedReply => GpuIn::Delegated {
                line,
                requester: match layout.kind_of(pkt.requester) {
                    NodeKind::Gpu(c) => c,
                    other => panic!("delegation for non-GPU requester {other}"),
                },
            },
            MsgKind::ProbeReq => GpuIn::ProbeReq {
                from: match layout.kind_of(pkt.src) {
                    NodeKind::Gpu(c) => c,
                    other => panic!("probe from non-GPU node {other}"),
                },
                line,
            },
            other => panic!("GPU node got {other}"),
        };
        gpu.deliver(core, msg, forwards);
    }
}
