//! Multi-chip packages: N [`System`] chips composed under an
//! inter-chip [`FabricNetwork`].
//!
//! A [`MultiChipSystem`] owns one `System` per package slot plus the
//! fabric connecting them. Line addresses interleave across chips with
//! the *package* seed (every chip agrees on ownership); requests for a
//! line owned by another chip route — on the origin chip's ordinary
//! NoC — to a gateway memory node, cross the fabric encapsulated as
//! [`FabricMsg`]s, and are re-injected at the owner chip's gateway as
//! local requests whose requester *is* the gateway. The reply retraces
//! the path: it ejects at the owner-side gateway, crosses the fabric's
//! reply plane, and is re-injected at the origin-side gateway addressed
//! to the original requester. Delegation never applies to cross-chip
//! replies (the owner chip sees a memory-node requester, not a GPU
//! core) — the adapter is the paper's "reply path" made longer and
//! narrower, which is exactly what the fabric-degradation experiment
//! stresses.
//!
//! Determinism: chips tick in package-slot order inside one global
//! cycle, fabric handoffs drain in (chip, gateway, FIFO) order, and
//! every queue is bounded — reports are byte-identical across engine
//! modes, and a 1-chip package degenerates *structurally* to the plain
//! single-chip `System` (same object, no port, no fabric).

use crate::report::{MissBreakdown, Report};
use crate::snapshot::{self, Snapshot};
use crate::system::System;
use clognet_fabric::{FabricMsg, FabricNetwork};
use clognet_proto::snap::{self as snap, SnapError};
use clognet_proto::{
    Addr, AddressMap, Cycle, MsgKind, NodeId, Priority, Scheme, SystemConfig, TrafficClass,
};
use clognet_telemetry::{SeriesId, TelemetryConfig};
use std::collections::VecDeque;

/// Package-level fabric traffic totals since construction or the last
/// [`MultiChipSystem::reset_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FabricSummary {
    /// Flits serialized onto request-plane links.
    pub req_flits: u64,
    /// Cycles request-plane pipe heads stalled on full downstream queues.
    pub req_blocked_cycles: u64,
    /// Flits serialized onto reply-plane links.
    pub rep_flits: u64,
    /// Cycles reply-plane pipe heads stalled on full downstream queues.
    pub rep_blocked_cycles: u64,
    /// Messages delivered to arrival queues on the request plane.
    pub delivered_req: u64,
    /// Messages delivered to arrival queues on the reply plane.
    pub delivered_rep: u64,
}

/// A cross-chip request the owner chip has accepted: when the matching
/// reply ejects at the owner-side gateway, it is re-encapsulated toward
/// `origin_chip`/`origin_node`. Matching is FIFO among entries with the
/// same (addr, prio, kind) — identical-key replies are interchangeable,
/// so the match is deterministic and order-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReturnEntry {
    addr: Addr,
    prio: Priority,
    kind: MsgKind,
    origin_chip: usize,
    origin_node: NodeId,
}

fn reply_kind_of(req: MsgKind) -> MsgKind {
    match req {
        MsgKind::ReadReq => MsgKind::ReadReply,
        MsgKind::WriteReq => MsgKind::WriteAck,
        other => panic!("{other} crossed the fabric as a request"),
    }
}

fn chip_seed(package_seed: u64, chip: usize) -> u64 {
    package_seed ^ (chip as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// N chips under one inter-chip fabric, presenting the same driving
/// surface as a single [`System`].
///
/// With `cfg.chips() <= 1` the wrapper holds exactly one plain
/// `System` and no fabric — every call delegates, so reports,
/// snapshots, and engine behavior are *structurally* identical to the
/// single-chip path (the degenerate-case identity the property tests
/// enforce).
#[derive(Debug)]
pub struct MultiChipSystem {
    cfg: SystemConfig,
    gpu_bench: String,
    cpu_bench: String,
    chips: Vec<System>,
    fabric: Option<FabricNetwork>,
    /// `returns[chip][gateway]`: pending cross-chip reply obligations.
    returns: Vec<Vec<VecDeque<ReturnEntry>>>,
    gateways: usize,
    fast_forward: bool,
    /// Telemetry epoch length (0 = telemetry off).
    epoch_len: u64,
    /// Per-link fabric series ids: request-plane links then reply-plane
    /// links, each (flits, blocked-fraction, occupancy).
    fabric_series: Vec<(SeriesId, SeriesId, SeriesId)>,
    /// Per-link (cum_flits, blocked_cycles) at the previous epoch
    /// boundary, same ordering as `fabric_series`.
    fabric_prev: Vec<(u64, u64)>,
    /// Plane totals and delivered counts at the last `reset_stats`.
    base_req: (u64, u64),
    base_rep: (u64, u64),
    base_delivered: (u64, u64),
}

impl MultiChipSystem {
    /// Build a package running `gpu_bench`/`cpu_bench` on every chip.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark name is unknown or the configuration fails
    /// [`SystemConfig::validate`] (callers validate first).
    pub fn new(cfg: SystemConfig, gpu_bench: &str, cpu_bench: &str) -> Self {
        let layout = cfg.layout();
        let map = AddressMap::new(cfg.n_mem, cfg.seed);
        Self::new_prebuilt(cfg, gpu_bench, cpu_bench, layout, map)
    }

    /// Build a package from a pre-derived layout and address map (the
    /// sweep fast path; see [`System::new_prebuilt`]). The layout is
    /// seed-independent and shared by every chip; per-chip address maps
    /// are derived from per-chip seeds, so `map` is used only by the
    /// degenerate single-chip path.
    ///
    /// # Panics
    ///
    /// As [`Self::new`].
    pub fn new_prebuilt(
        cfg: SystemConfig,
        gpu_bench: &str,
        cpu_bench: &str,
        layout: clognet_proto::Layout,
        map: AddressMap,
    ) -> Self {
        cfg.validate().expect("a validated configuration");
        let n = cfg.chips();
        if n <= 1 {
            let sys = System::new_prebuilt(cfg.clone(), gpu_bench, cpu_bench, layout, map);
            return Self::from_single(cfg, sys);
        }
        let fc = cfg.fabric.expect("chips > 1 implies a fabric config");
        let mut chips = Vec::with_capacity(n);
        for i in 0..n {
            let mut ccfg = cfg.clone();
            ccfg.seed = chip_seed(cfg.seed, i);
            let cmap = AddressMap::new(ccfg.n_mem, ccfg.seed);
            let mut sys = System::new_prebuilt(ccfg, gpu_bench, cpu_bench, layout.clone(), cmap);
            sys.attach_fabric_port(i, &fc, cfg.seed);
            chips.push(sys);
        }
        let fabric = FabricNetwork::new(&fc);
        let returns = (0..n)
            .map(|_| (0..fc.gateways).map(|_| VecDeque::new()).collect())
            .collect();
        MultiChipSystem {
            gpu_bench: gpu_bench.to_string(),
            cpu_bench: cpu_bench.to_string(),
            chips,
            fabric: Some(fabric),
            returns,
            gateways: fc.gateways,
            fast_forward: true,
            epoch_len: 0,
            fabric_series: Vec::new(),
            fabric_prev: Vec::new(),
            base_req: (0, 0),
            base_rep: (0, 0),
            base_delivered: (0, 0),
            cfg,
        }
    }

    fn from_single(cfg: SystemConfig, sys: System) -> Self {
        MultiChipSystem {
            gpu_bench: String::new(),
            cpu_bench: String::new(),
            chips: vec![sys],
            fabric: None,
            returns: Vec::new(),
            gateways: 0,
            fast_forward: true,
            epoch_len: 0,
            fabric_series: Vec::new(),
            fabric_prev: Vec::new(),
            base_req: (0, 0),
            base_rep: (0, 0),
            base_delivered: (0, 0),
            cfg,
        }
    }

    /// Current cycle (all chips share one clock).
    pub fn now(&self) -> Cycle {
        self.chips[0].now()
    }

    /// The package configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The per-chip systems, in package-slot order.
    pub fn chips(&self) -> &[System] {
        &self.chips
    }

    /// The fabric, when this is a true multi-chip package.
    pub fn fabric(&self) -> Option<&FabricNetwork> {
        self.fabric.as_ref()
    }

    /// Advance the whole package by one cycle.
    pub fn tick(&mut self) {
        if self.fabric.is_none() {
            self.chips[0].tick();
            return;
        }
        self.tick_package();
    }

    /// Run for `cycles` cycles. Fast-forward jumps the package clock
    /// only when *every* chip is quiescent and the fabric is empty, so
    /// results stay byte-identical across engine modes.
    pub fn run(&mut self, cycles: u64) {
        if self.fabric.is_none() {
            self.chips[0].run(cycles);
            return;
        }
        let end = self.now() + cycles;
        while self.now() < end {
            if self.fast_forward {
                if let Some(span) = self.quiescent_span(end) {
                    for c in &mut self.chips {
                        c.advance_span(span);
                    }
                    continue;
                }
            }
            self.tick_package();
        }
    }

    /// The span every chip can provably skip, or `None` if any chip or
    /// the fabric has same-cycle work.
    fn quiescent_span(&mut self, end: Cycle) -> Option<u64> {
        // Pending return entries never block the jump on their own: an
        // entry is live only while its request is inside the owner chip
        // or the fabric, and both of those already veto quiescence.
        if !self.fabric.as_ref().expect("multi-chip").is_empty() {
            return None;
        }
        let now = self.now();
        let mut target = Cycle::MAX;
        for c in &mut self.chips {
            let (t, _) = c.quiescent_horizon(end)?;
            target = target.min(t);
        }
        debug_assert!(target > now);
        Some(target - now)
    }

    /// One global cycle of a true multi-chip package: deliver fabric
    /// arrivals, stage fabric telemetry on epoch boundaries, tick every
    /// chip in slot order, hand egress and gateway replies to the
    /// fabric, then tick the fabric.
    fn tick_package(&mut self) {
        let now = self.now();
        let n = self.chips.len();
        // 1. Fabric arrivals → gateway injection (requests, then
        //    replies; a blocked gateway leaves the queue head in place —
        //    arrival back-pressure).
        for c in 0..n {
            while let Some(msg) = self
                .fabric
                .as_ref()
                .expect("multi-chip")
                .peek_arrival(TrafficClass::Request, c)
            {
                let entry = ReturnEntry {
                    addr: msg.pkt.addr,
                    prio: msg.pkt.prio,
                    kind: reply_kind_of(msg.pkt.kind),
                    origin_chip: msg.src_chip,
                    origin_node: msg.origin,
                };
                let Some(gi) = self.chips[c].fabric_ingress_request(&msg.pkt) else {
                    break;
                };
                self.returns[c][gi].push_back(entry);
                self.fabric
                    .as_mut()
                    .expect("multi-chip")
                    .pop_arrival(TrafficClass::Request, c);
            }
            while let Some(msg) = self
                .fabric
                .as_ref()
                .expect("multi-chip")
                .peek_arrival(TrafficClass::Reply, c)
            {
                let origin = msg.origin;
                if !self.chips[c].fabric_ingress_reply(origin, &msg.pkt) {
                    break;
                }
                self.fabric
                    .as_mut()
                    .expect("multi-chip")
                    .pop_arrival(TrafficClass::Reply, c);
            }
        }
        // 2. Fabric telemetry staging, just before chip 0's epoch roll.
        //    (Fabric counters are sampled before this cycle's fabric
        //    tick — one sub-phase of skew, identical on every run.)
        if self.epoch_len > 0 && (now + 1).is_multiple_of(self.epoch_len) {
            self.stage_fabric_series();
        }
        // 3. Chips tick in package-slot order.
        for c in &mut self.chips {
            c.tick();
        }
        // 4. Chip egress → fabric send (requests), and owner-side
        //    gateway replies → fabric send (replies).
        for c in 0..n {
            while let Some(pkt) = self.chips[c].peek_egress() {
                let dst_chip = self.chips[c].fabric_chip_of(pkt.addr.line(128));
                let origin = pkt.requester;
                if !self.fabric.as_ref().expect("multi-chip").can_send(
                    TrafficClass::Request,
                    c,
                    dst_chip,
                ) {
                    break;
                }
                let pkt = self.chips[c].pop_egress().expect("peeked");
                let sent = self.fabric.as_mut().expect("multi-chip").try_send(
                    TrafficClass::Request,
                    FabricMsg::new(c, dst_chip, origin, pkt),
                );
                debug_assert!(sent, "can_send checked above");
            }
            for gi in 0..self.gateways {
                while let Some(rp) = self.chips[c].peek_gateway_reply(gi) {
                    let (addr, prio, kind) = (rp.addr, rp.prio, rp.kind);
                    let pos = self.returns[c][gi]
                        .iter()
                        .position(|e| e.addr == addr && e.prio == prio && e.kind == kind)
                        .unwrap_or_else(|| {
                            panic!(
                                "gateway reply without a return entry: chip {c} gw {gi} \
                                 kind {kind:?} prio {prio:?} addr {addr:?}; entries: {:?}",
                                self.returns[c][gi]
                            )
                        });
                    let e = self.returns[c][gi][pos];
                    if !self.fabric.as_ref().expect("multi-chip").can_send(
                        TrafficClass::Reply,
                        c,
                        e.origin_chip,
                    ) {
                        break;
                    }
                    let rp = self.chips[c].pop_gateway_reply(gi).expect("peeked");
                    let _ = self.returns[c][gi].remove(pos);
                    let sent = self.fabric.as_mut().expect("multi-chip").try_send(
                        TrafficClass::Reply,
                        FabricMsg::new(c, e.origin_chip, e.origin_node, rp),
                    );
                    debug_assert!(sent, "can_send checked above");
                }
            }
        }
        // 5. Fabric progress for this cycle.
        self.fabric.as_mut().expect("multi-chip").tick(now);
    }

    /// Enable/disable event-horizon fast-forward (on by default).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
        for c in &mut self.chips {
            c.set_fast_forward(on);
        }
    }

    /// Cycles skipped by fast-forward (package-wide jumps are uniform,
    /// so chip 0's count is the package count).
    pub fn skipped_cycles(&self) -> u64 {
        self.chips[0].skipped_cycles()
    }

    /// Enable/disable the NoC idle-router fast path on every chip.
    pub fn set_noc_idle_skip(&mut self, on: bool) {
        for c in &mut self.chips {
            c.set_noc_idle_skip(on);
        }
    }

    /// Enable time-series telemetry. Chip 0 carries the package view;
    /// on a true multi-chip package, per-fabric-link series
    /// (`fabric.<plane>.<from>-<to>.{flits,blocked,occ}`) are staged
    /// into chip 0's sampler each epoch so `timeline` and the metrics
    /// export see inter-chip clogging.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.epoch_len = cfg.epoch_len;
        self.chips[0].enable_telemetry(cfg);
        if self.fabric.is_some() {
            self.register_fabric_series();
            self.reset_fabric_prev();
        }
    }

    /// The telemetry state (chip 0's), if enabled.
    pub fn telemetry(&self) -> Option<&crate::telemetry::SystemTelemetry> {
        self.chips[0].telemetry()
    }

    fn register_fabric_series(&mut self) {
        let fab = self.fabric.as_ref().expect("multi-chip");
        let mut names = Vec::new();
        for class in [TrafficClass::Request, TrafficClass::Reply] {
            let plane = match class {
                TrafficClass::Request => "req",
                TrafficClass::Reply => "rep",
            };
            for li in 0..fab.links_per_plane() {
                let s = fab.link_stat(class, li);
                names.push((
                    format!("fabric.{plane}.{}-{}.flits", s.from, s.to),
                    format!("fabric.{plane}.{}-{}.blocked", s.from, s.to),
                    format!("fabric.{plane}.{}-{}.occ", s.from, s.to),
                ));
            }
        }
        let t = self.chips[0]
            .telemetry_mut()
            .expect("telemetry just enabled");
        self.fabric_series = names
            .iter()
            .map(|(f, b, o)| {
                (
                    t.session.sampler.series(f),
                    t.session.sampler.series(b),
                    t.session.sampler.series(o),
                )
            })
            .collect();
    }

    fn reset_fabric_prev(&mut self) {
        let fab = self.fabric.as_ref().expect("multi-chip");
        self.fabric_prev.clear();
        for class in [TrafficClass::Request, TrafficClass::Reply] {
            for li in 0..fab.links_per_plane() {
                let s = fab.link_stat(class, li);
                self.fabric_prev.push((s.cum_flits, s.blocked_cycles));
            }
        }
    }

    fn stage_fabric_series(&mut self) {
        let fab = self.fabric.as_ref().expect("multi-chip");
        let links = fab.links_per_plane();
        let epoch = self.epoch_len.max(1) as f64;
        let mut staged = Vec::with_capacity(self.fabric_series.len());
        for (k, (class, li)) in [TrafficClass::Request, TrafficClass::Reply]
            .into_iter()
            .flat_map(|c| (0..links).map(move |l| (c, l)))
            .enumerate()
        {
            let s = fab.link_stat(class, li);
            let (pf, pb) = self.fabric_prev[k];
            staged.push((
                (s.cum_flits - pf) as f64,
                (s.blocked_cycles - pb) as f64 / epoch,
                (s.queued + s.piped) as f64,
            ));
            self.fabric_prev[k] = (s.cum_flits, s.blocked_cycles);
        }
        let t = self.chips[0].telemetry_mut().expect("telemetry on");
        for (&(fid, bid, oid), (f, b, o)) in self.fabric_series.iter().zip(staged) {
            t.session.sampler.set(fid, f);
            t.session.sampler.set(bid, b);
            t.session.sampler.set(oid, o);
        }
    }

    /// Seal episodes and fill the metric registry from the package
    /// aggregate report. Returns chip 0's telemetry.
    pub fn finish_telemetry(&mut self) -> Option<&crate::telemetry::SystemTelemetry> {
        let report = self.report();
        self.chips[0].finish_telemetry_with(&report);
        self.chips[0].telemetry()
    }

    /// Export the telemetry session as JSON (see
    /// [`System::export_metrics_json`]).
    pub fn export_metrics_json(&mut self) -> Option<String> {
        if self.fabric.is_none() {
            return self.chips[0].export_metrics_json();
        }
        let scheme = format!("{:?}", self.cfg.scheme);
        let seed = self.cfg.seed;
        let gpu_bench = self.gpu_bench.clone();
        let cpu_bench = self.cpu_bench.clone();
        let cycles = self.now();
        self.finish_telemetry()?;
        let t = self.chips[0].telemetry()?;
        Some(t.session.to_json(&[
            ("gpu_bench", gpu_bench),
            ("cpu_bench", cpu_bench),
            ("scheme", scheme),
            ("seed", seed.to_string()),
            ("cycles", cycles.to_string()),
            ("chips", self.chips.len().to_string()),
        ]))
    }

    /// Export the per-epoch series as CSV. `None` if telemetry is off.
    pub fn export_series_csv(&self) -> Option<String> {
        self.chips[0].export_series_csv()
    }

    /// Zero all statistics while keeping architectural state, on every
    /// chip and the fabric (fabric totals are re-baselined).
    pub fn reset_stats(&mut self) {
        for c in &mut self.chips {
            c.reset_stats();
        }
        if let Some(fab) = &self.fabric {
            self.base_req = fab.plane_totals(TrafficClass::Request);
            self.base_rep = fab.plane_totals(TrafficClass::Reply);
            self.base_delivered = fab.delivered();
        }
    }

    /// Fabric traffic totals since the last [`Self::reset_stats`].
    /// `None` on a single-chip package.
    pub fn fabric_summary(&self) -> Option<FabricSummary> {
        let fab = self.fabric.as_ref()?;
        let req = fab.plane_totals(TrafficClass::Request);
        let rep = fab.plane_totals(TrafficClass::Reply);
        let del = fab.delivered();
        Some(FabricSummary {
            req_flits: req.0 - self.base_req.0,
            req_blocked_cycles: req.1 - self.base_req.1,
            rep_flits: rep.0 - self.base_rep.0,
            rep_blocked_cycles: rep.1 - self.base_rep.1,
            delivered_req: del.0 - self.base_delivered.0,
            delivered_rep: del.1 - self.base_delivered.1,
        })
    }

    /// Take `cfg`'s warm-applicable fields on every chip (see
    /// [`System::retarget`]); `cfg` becomes the package config, so
    /// snapshots stay coherent. It must differ from the current config
    /// only in those fields and the scheme.
    pub fn retarget(&mut self, cfg: &SystemConfig) {
        for c in &mut self.chips {
            c.retarget(cfg);
        }
        self.cfg = cfg.clone();
    }

    /// Switch the delegation scheme on every chip.
    pub fn set_scheme(&mut self, scheme: Scheme) {
        self.cfg.scheme = scheme;
        for c in &mut self.chips {
            c.set_scheme(scheme);
        }
    }

    /// Per-chip adaptive-control decision logs, in package-slot order.
    /// Empty when the configuration carries no control policy; each
    /// chip runs its own controller, so the logs can diverge.
    pub fn decision_logs(&self) -> Vec<(usize, &clognet_control::DecisionLog)> {
        self.chips
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.decision_log().map(|l| (i, l)))
            .collect()
    }

    /// Escalations plus de-escalations recorded across all chips.
    pub fn control_actuations(&self) -> usize {
        self.decision_logs()
            .iter()
            .map(|(_, l)| l.escalations() + l.de_escalations())
            .sum()
    }

    /// The package-level report: a 1-chip package returns the inner
    /// chip's report verbatim; a true package sums event counts and
    /// averages per-chip rates (each chip has equal core counts, so the
    /// unweighted mean is the package mean).
    pub fn report(&self) -> Report {
        if self.fabric.is_none() {
            return self.chips[0].report();
        }
        let reports: Vec<Report> = self.chips.iter().map(|c| c.report()).collect();
        let n = reports.len() as f64;
        let mean = |get: fn(&Report) -> f64| reports.iter().map(get).sum::<f64>() / n;
        Report {
            cycles: reports[0].cycles,
            gpu_bench: reports[0].gpu_bench.clone(),
            cpu_bench: reports[0].cpu_bench.clone(),
            gpu_ipc: mean(|r| r.gpu_ipc),
            cpu_performance: mean(|r| r.cpu_performance),
            cpu_mem_latency: mean(|r| r.cpu_mem_latency),
            cpu_net_latency: mean(|r| r.cpu_net_latency),
            gpu_rx_rate: mean(|r| r.gpu_rx_rate),
            gpu_tx_rate: mean(|r| r.gpu_tx_rate),
            mem_blocked_rate: mean(|r| r.mem_blocked_rate),
            mem_reply_link_util: mean(|r| r.mem_reply_link_util),
            delegations: reports.iter().map(|r| r.delegations).sum(),
            breakdown: MissBreakdown {
                llc_direct: reports.iter().map(|r| r.breakdown.llc_direct).sum(),
                remote_hit: reports.iter().map(|r| r.breakdown.remote_hit).sum(),
                remote_miss: reports.iter().map(|r| r.breakdown.remote_miss).sum(),
            },
            oracle_locality: mean(|r| r.oracle_locality),
            l1_miss_rate: mean(|r| r.l1_miss_rate),
            probes_sent: reports.iter().map(|r| r.probes_sent).sum(),
            request_packets: reports.iter().map(|r| r.request_packets).sum(),
            frq_same_line_fraction: mean(|r| r.frq_same_line_fraction),
            flit_hops: reports.iter().map(|r| r.flit_hops).sum(),
            channel_bytes: reports[0].channel_bytes,
        }
    }

    /// Capture the complete package state as a versioned [`Snapshot`].
    /// A 1-chip package writes the plain single-chip format (tag
    /// `false`), so its snapshots interoperate with [`System`] exactly.
    pub fn snapshot(&self) -> Snapshot {
        let Some(fab) = &self.fabric else {
            return self.chips[0].snapshot();
        };
        let mut w =
            snapshot::begin_snapshot(&self.cfg, &self.gpu_bench, &self.cpu_bench, self.now());
        w.bool(true);
        w.usize(self.chips.len());
        for c in &self.chips {
            c.save_body(&mut w);
        }
        for per_chip in &self.returns {
            for q in per_chip {
                w.usize(q.len());
                for e in q {
                    w.u64(e.addr.0);
                    w.u8(match e.prio {
                        Priority::Cpu => 0,
                        Priority::Gpu => 1,
                    });
                    w.u8(snap::msg_kind_tag(e.kind));
                    w.usize(e.origin_chip);
                    w.u16(e.origin_node.0);
                }
            }
        }
        fab.save_state(&mut w);
        w.usize(self.fabric_prev.len());
        for (f, b) in &self.fabric_prev {
            w.u64(*f);
            w.u64(*b);
        }
        for v in [
            self.base_req.0,
            self.base_req.1,
            self.base_rep.0,
            self.base_rep.1,
            self.base_delivered.0,
            self.base_delivered.1,
        ] {
            w.u64(v);
        }
        Snapshot::from_bytes(w.into_bytes()).expect("just-written snapshot parses")
    }

    /// Rebuild a package from a [`Snapshot`] (single- or multi-chip
    /// format, as long as it matches the embedded config's chip count).
    ///
    /// # Errors
    ///
    /// Fails on a corrupt body, or with [`SnapError::ChipMismatch`]
    /// when the snapshot's chip arrangement disagrees with its own
    /// config — a single-chip body under a multi-chip config or vice
    /// versa (e.g. mismatched producer/consumer builds).
    pub fn restore(snapshot: &Snapshot) -> Result<Self, SnapError> {
        let cfg = snapshot.config().clone();
        let expected = cfg.chips().max(1);
        let mut r = snapshot::body_reader(snapshot)?;
        if !r.bool()? {
            if expected > 1 {
                return Err(SnapError::ChipMismatch {
                    snapshot: 1,
                    expected,
                });
            }
            let sys = System::restore(snapshot)?;
            return Ok(Self::from_single(cfg, sys));
        }
        let chips_in = r.usize()?;
        if expected <= 1 || chips_in != expected {
            return Err(SnapError::ChipMismatch {
                snapshot: chips_in,
                expected,
            });
        }
        let mut sys = Self::new(cfg, snapshot.gpu_bench(), snapshot.cpu_bench());
        for c in &mut sys.chips {
            c.set_now(snapshot.cycle());
            c.load_body(&mut r)?;
        }
        for per_chip in &mut sys.returns {
            for q in per_chip {
                let len = r.usize()?;
                q.clear();
                for _ in 0..len {
                    let addr = Addr(r.u64()?);
                    let prio = match r.u8()? {
                        0 => Priority::Cpu,
                        1 => Priority::Gpu,
                        t => {
                            return Err(SnapError::BadTag {
                                what: "priority",
                                tag: u64::from(t),
                            })
                        }
                    };
                    let kind = snap::msg_kind_from(r.u8()?)?;
                    let origin_chip = r.usize()?;
                    if origin_chip >= chips_in {
                        return Err(SnapError::Corrupt("return entry names a bad chip"));
                    }
                    let origin_node = NodeId(r.u16()?);
                    q.push_back(ReturnEntry {
                        addr,
                        prio,
                        kind,
                        origin_chip,
                        origin_node,
                    });
                }
            }
        }
        sys.fabric
            .as_mut()
            .expect("multi-chip")
            .load_state(&mut r)?;
        let prev_len = r.usize()?;
        sys.fabric_prev.clear();
        for _ in 0..prev_len {
            sys.fabric_prev.push((r.u64()?, r.u64()?));
        }
        sys.base_req = (r.u64()?, r.u64()?);
        sys.base_rep = (r.u64()?, r.u64()?);
        sys.base_delivered = (r.u64()?, r.u64()?);
        r.finish()?;
        if sys.chips[0].telemetry().is_some() {
            sys.epoch_len = sys.chips[0].telemetry().expect("checked").epoch_len();
            sys.register_fabric_series();
        }
        Ok(sys)
    }
}
