//! The GPU subsystem: SIMT cores with warps, private (or clustered) L1
//! caches, MSHRs, the Delegated-Replies Forwarded Request Queue, and the
//! Realistic-Probing predictor/prober.
//!
//! Each core runs `warps_per_core` warps; a warp alternates
//! `compute_per_mem` compute instructions with one memory instruction
//! drawn from its benchmark stream. Up to `issue_width` warps issue per
//! cycle (two GTO schedulers in Table I), which is what makes the cores
//! latency-tolerant and bandwidth-hungry.
//!
//! The subsystem is network-agnostic: `tick` returns [`GpuOut`] messages
//! bounded by a per-core outbox budget, and the system feeds packets
//! back via `deliver`. Remote requests (FRQ entries) are served *before*
//! local warps each cycle — the deadlock-avoidance priority of
//! Section IV.

use crate::cluster::{Cluster, ClusterMode};
use crate::msg::{GpuIn, GpuOut};
use clognet_cache::{MshrFile, MshrOutcome, SetAssocCache};
use clognet_proto::snap::{SnapError, SnapReader, SnapWriter};
use clognet_proto::{Addr, CoreId, CtaSched, Cycle, FxHashMap, GpuConfig, L1Org, LineAddr, Scheme};
use clognet_workloads::{GpuProfile, GpuStream, MemAccess};
use std::collections::VecDeque;

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuCoreStats {
    /// Warp instructions retired.
    pub retired: u64,
    /// Memory instructions issued.
    pub mem_ops: u64,
    /// Cycles a ready memory instruction could not issue (ports, MSHRs,
    /// or outbox budget).
    pub mem_stall_cycles: u64,
    /// Delegated replies served with an L1 hit.
    pub delegated_hits: u64,
    /// Delegated replies attached to an outstanding miss (delayed hit).
    pub delegated_delayed: u64,
    /// Delegated replies that missed (re-sent to the LLC with DNF).
    pub delegated_misses: u64,
    /// FRQ entries that arrived while another entry for the same line
    /// was queued (the paper's 4.8% merge-opportunity statistic).
    pub frq_same_line: u64,
    /// RP probes sent.
    pub probes_sent: u64,
    /// RP probes answered with data by this core.
    pub probe_hits_served: u64,
    /// RP probes this core answered negatively.
    pub probe_misses_served: u64,
    /// Primary read misses that went straight to the LLC.
    pub llc_reads: u64,
    /// Write-throughs sent.
    pub writes: u64,
    /// L1 flushes (kernel boundaries).
    pub flushes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpState {
    /// Executing compute instructions; 0 left means the memory
    /// instruction is next.
    Compute(u32),
    /// Blocked on an outstanding read.
    WaitMem,
}

#[derive(Debug)]
struct Warp {
    state: WarpState,
    pending: Option<MemAccess>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Wake a local warp.
    Warp(u16),
    /// Forward the line to a remote core (delayed delegated hit).
    Remote(CoreId),
}

#[derive(Debug, Clone, Copy)]
enum FrqEntry {
    Delegated { line: LineAddr, requester: CoreId },
    Probe { line: LineAddr, from: CoreId },
    Fetch { line: LineAddr, from: CoreId },
}

#[derive(Debug, Clone, Default)]
struct ProbeWait {
    /// Probe (and fetch) responses still expected.
    outstanding: usize,
    /// Data already arrived.
    satisfied: bool,
    /// A fetch was dispatched to a confirmed hitter.
    fetch_sent: bool,
    /// Probe targets not yet sent (outbox budget ran out).
    to_send: Vec<CoreId>,
}

#[derive(Debug)]
struct Core {
    warps: Vec<Warp>,
    stream: GpuStream,
    mshr: MshrFile<Target>,
    frq: VecDeque<FrqEntry>,
    probe_wait: FxHashMap<LineAddr, ProbeWait>,
    /// RP: lines in `probe_wait` with unsent probe targets. The deferred
    /// probe flush walks `probe_wait` only while this is non-zero.
    /// Derived state: never serialized, recounted on restore.
    unsent: usize,
    predictor: Vec<u8>,
    probe_rr: usize,
    /// RP: misses seen (drives epsilon re-probing so the predictor can
    /// re-learn after cold-start failures).
    probe_seq: u64,
    /// RP: global probe-confidence score. Benchmarks where probing keeps
    /// failing (no findable remote copies) throttle themselves back to
    /// baseline behavior — the "best-performing configuration" knob.
    probe_score: i32,
    /// RP: cores that recently supplied data to us (probe steering).
    suppliers: VecDeque<CoreId>,
    next_flush: Option<Cycle>,
    stats: GpuCoreStats,
    /// Bit `w` set while warp `w` is not waiting on memory: the issue
    /// loop visits only these (a waiting warp is a no-op there).
    ready: Vec<u64>,
    /// Stalled-retry memo: bit `w` set while warp `w`'s pending read is
    /// known to miss both the L1 and the MSHR file. Set when the read
    /// fails as a resource-blocked miss (Private L1 only), cleared for
    /// the warp when it draws a new access and for every warp on each L1
    /// fill, invalidate and flush and each MSHR allocate and complete.
    /// Not serialized — see DESIGN.md §9.6.
    memo: Vec<u64>,
    /// Bit `w` set while warp `w`'s pending access is a write.
    writes: Vec<u64>,
}

impl Core {
    /// Drop line `line`'s unsent probe targets (the data or a hit came).
    fn cancel_probes(&mut self, line: LineAddr) {
        if let Some(w) = self.probe_wait.get_mut(&line) {
            if !w.to_send.is_empty() {
                w.to_send.clear();
                self.unsent -= 1;
            }
        }
    }

    /// Lines whose probe targets are not all sent, counted from the map.
    fn count_unsent(&self) -> usize {
        self.probe_wait
            .values()
            .filter(|w| !w.to_send.is_empty())
            .count()
    }

    /// Block warp `w` on an outstanding read.
    fn wait_mem(&mut self, w: usize) {
        self.warps[w].state = WarpState::WaitMem;
        self.ready[w / 64] &= !(1 << (w % 64));
    }

    /// Wake warp `w` with `compute` instructions before its next memory
    /// instruction.
    fn wake(&mut self, w: usize, compute: u32) {
        self.warps[w].state = WarpState::Compute(compute);
        self.ready[w / 64] |= 1 << (w % 64);
    }

    /// Give warp `w` its next memory access.
    fn draw(&mut self, w: usize, access: MemAccess) {
        self.warps[w].pending = Some(access);
        let (k, m) = (w / 64, 1u64 << (w % 64));
        self.memo[k] &= !m;
        if access.write {
            self.writes[k] |= m;
        }
    }

    /// Warp `w`'s pending read failed as a resource-blocked miss.
    fn memoize(&mut self, w: usize) {
        self.memo[w / 64] |= 1 << (w % 64);
    }

    /// The core's L1 or MSHR contents changed: every memo is stale.
    fn forget_memos(&mut self) {
        self.memo.fill(0);
    }

    /// Word `k` of the warps for which `keep` holds.
    fn word_of(&self, k: usize, keep: impl Fn(&Warp) -> bool) -> u64 {
        let warps = self.warps.iter().enumerate().skip(64 * k).take(64);
        warps
            .filter(|(_, warp)| keep(warp))
            .fold(0, |m, (w, _)| m | 1 << (w % 64))
    }

    /// Word `k` of `ready` as the warp states say it should be.
    fn ready_word(&self, k: usize) -> u64 {
        self.word_of(k, |warp| warp.state != WarpState::WaitMem)
    }

    /// Word `k` of `writes` as the pending accesses say it should be.
    fn writes_word(&self, k: usize) -> u64 {
        self.word_of(k, |warp| warp.pending.is_some_and(|a| a.write))
    }

    /// Recompute `ready` and `writes` from the warps; no memo survives.
    fn rebuild_masks(&mut self) {
        let words = self.warps.len().div_ceil(64);
        self.ready = (0..words).map(|k| self.ready_word(k)).collect();
        self.writes = (0..words).map(|k| self.writes_word(k)).collect();
        self.memo = vec![0; words];
    }

    /// Whether `ready` and `writes` match the warps (allocation-free, for
    /// per-cycle debug checks).
    fn masks_consistent(&self) -> bool {
        (0..self.ready.len())
            .all(|k| self.ready[k] == self.ready_word(k) && self.writes[k] == self.writes_word(k))
    }
}

/// The whole GPU side of the chip.
#[derive(Debug)]
pub struct GpuSubsystem {
    cfg: GpuConfig,
    scheme: Scheme,
    org: L1Org,
    /// Ablation: support the delayed-hit FRQ outcome (default true).
    delayed_hits: bool,
    cores: Vec<Core>,
    l1s: Vec<SetAssocCache<()>>,
    clusters: Vec<Cluster>,
    /// Per-core L1 port uses this cycle (private mode).
    port_used: Vec<u8>,
    /// Scratch: probe-wait lines pending a deferred flush (RP only),
    /// reused across ticks so the per-core service loop stays
    /// allocation-free.
    flush_lines: Vec<LineAddr>,
}

const PREDICTOR_ENTRIES: usize = 1024;

impl GpuSubsystem {
    /// Build `n_cores` GPU cores all running `profile` (the paper runs
    /// one GPU benchmark at a time across all cores).
    pub fn new(
        cfg: GpuConfig,
        scheme: Scheme,
        org: L1Org,
        cta: CtaSched,
        profile: GpuProfile,
        n_cores: usize,
        seed: u64,
    ) -> Self {
        let profile = profile.with_cta_sched(cta);
        let cores = (0..n_cores)
            .map(|i| {
                let id = CoreId(i as u16);
                let mut core = Core {
                    warps: (0..cfg.warps_per_core)
                        .map(|_| Warp {
                            state: WarpState::Compute(0),
                            pending: None,
                        })
                        .collect(),
                    stream: GpuStream::new(profile.clone(), id, n_cores, seed),
                    mshr: MshrFile::new(cfg.mshrs, 16),
                    frq: VecDeque::new(),
                    probe_wait: FxHashMap::default(),
                    unsent: 0,
                    predictor: vec![2u8; PREDICTOR_ENTRIES],
                    probe_rr: i, // de-correlate probe targets across cores
                    probe_seq: i as u64,
                    probe_score: 24,
                    suppliers: VecDeque::new(),
                    next_flush: cfg
                        .flush_interval
                        .map(|f| f + (i as u64 * f) / n_cores as u64),
                    stats: GpuCoreStats::default(),
                    ready: Vec::new(),
                    memo: Vec::new(),
                    writes: Vec::new(),
                };
                core.rebuild_masks();
                core
            })
            .collect();
        let l1s = (0..n_cores).map(|_| SetAssocCache::new(cfg.l1)).collect();
        let clusters = if org == L1Org::Private {
            Vec::new()
        } else {
            let n_clusters = n_cores.div_ceil(cfg.cluster_cores);
            (0..n_clusters)
                .map(|_| {
                    Cluster::new(
                        cfg.cluster_slices,
                        cfg.l1,
                        org == L1Org::DynEB,
                        cfg.dyneb_epoch,
                    )
                })
                .collect()
        };
        GpuSubsystem {
            scheme,
            org,
            delayed_hits: true,
            cores,
            l1s,
            clusters,
            port_used: vec![0; n_cores],
            flush_lines: Vec::new(),
            cfg,
        }
    }

    /// Ablation: disable the delayed-hit outcome (hits to outstanding
    /// lines become remote misses).
    pub fn set_delayed_hits(&mut self, enabled: bool) {
        self.delayed_hits = enabled;
    }

    /// Swap the delegation scheme in place. Warm-started comparisons
    /// share one warmup and apply each variant's scheme before the
    /// measurement window; in-flight probe bookkeeping stays valid
    /// because probe replies are handled scheme-independently on
    /// delivery.
    pub fn set_scheme(&mut self, scheme: Scheme) {
        self.scheme = scheme;
    }

    /// Serialize all mutable state. Config, scheme, organization and
    /// benchmark identity come from construction; per-cycle scratch
    /// (`port_used`, `flush_lines`) is reset at every tick and skipped.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.bool(self.delayed_hits);
        w.usize(self.cores.len());
        for c in &self.cores {
            w.usize(c.warps.len());
            for warp in &c.warps {
                match warp.state {
                    WarpState::Compute(left) => {
                        w.u8(0);
                        w.u32(left);
                    }
                    WarpState::WaitMem => w.u8(1),
                }
                match warp.pending {
                    Some(a) => {
                        w.bool(true);
                        w.u64(a.addr.0);
                        w.bool(a.write);
                    }
                    None => w.bool(false),
                }
            }
            c.stream.save_state(w);
            c.mshr.save_state(w, |w, t| match *t {
                Target::Warp(i) => {
                    w.u8(0);
                    w.u16(i);
                }
                Target::Remote(core) => {
                    w.u8(1);
                    w.u16(core.0);
                }
            });
            w.usize(c.frq.len());
            for e in &c.frq {
                match *e {
                    FrqEntry::Delegated { line, requester } => {
                        w.u8(0);
                        w.u64(line.0);
                        w.u16(requester.0);
                    }
                    FrqEntry::Probe { line, from } => {
                        w.u8(1);
                        w.u64(line.0);
                        w.u16(from.0);
                    }
                    FrqEntry::Fetch { line, from } => {
                        w.u8(2);
                        w.u64(line.0);
                        w.u16(from.0);
                    }
                }
            }
            let mut lines: Vec<LineAddr> = c.probe_wait.keys().copied().collect();
            lines.sort_unstable();
            w.usize(lines.len());
            for line in lines {
                let p = &c.probe_wait[&line];
                w.u64(line.0);
                w.usize(p.outstanding);
                w.bool(p.satisfied);
                w.bool(p.fetch_sent);
                w.usize(p.to_send.len());
                for t in &p.to_send {
                    w.u16(t.0);
                }
            }
            w.bytes(&c.predictor);
            w.usize(c.probe_rr);
            w.u64(c.probe_seq);
            w.i32(c.probe_score);
            w.usize(c.suppliers.len());
            for s in &c.suppliers {
                w.u16(s.0);
            }
            w.opt_u64(c.next_flush);
            let s = &c.stats;
            for v in [
                s.retired,
                s.mem_ops,
                s.mem_stall_cycles,
                s.delegated_hits,
                s.delegated_delayed,
                s.delegated_misses,
                s.frq_same_line,
                s.probes_sent,
                s.probe_hits_served,
                s.probe_misses_served,
                s.llc_reads,
                s.writes,
                s.flushes,
            ] {
                w.u64(v);
            }
        }
        w.usize(self.l1s.len());
        for l1 in &self.l1s {
            l1.save_state(w, |_, ()| {});
        }
        w.usize(self.clusters.len());
        for cl in &self.clusters {
            cl.save_state(w);
        }
    }

    /// Overlay state captured by [`GpuSubsystem::save_state`] onto a
    /// subsystem built with the same config/profile.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.delayed_hits = r.bool()?;
        if r.usize()? != self.cores.len() {
            return Err(SnapError::Corrupt("gpu core count mismatch"));
        }
        for c in &mut self.cores {
            if r.usize()? != c.warps.len() {
                return Err(SnapError::Corrupt("gpu warp count mismatch"));
            }
            for warp in &mut c.warps {
                warp.state = match r.u8()? {
                    0 => WarpState::Compute(r.u32()?),
                    1 => WarpState::WaitMem,
                    t => {
                        return Err(SnapError::BadTag {
                            what: "warp state",
                            tag: t as u64,
                        })
                    }
                };
                warp.pending = if r.bool()? {
                    Some(MemAccess {
                        addr: Addr(r.u64()?),
                        write: r.bool()?,
                    })
                } else {
                    None
                };
            }
            c.rebuild_masks();
            c.stream.load_state(r)?;
            c.mshr.load_state(r, |r| {
                Ok(match r.u8()? {
                    0 => Target::Warp(r.u16()?),
                    1 => Target::Remote(CoreId(r.u16()?)),
                    t => {
                        return Err(SnapError::BadTag {
                            what: "mshr target",
                            tag: t as u64,
                        })
                    }
                })
            })?;
            c.frq.clear();
            for _ in 0..r.usize()? {
                let tag = r.u8()?;
                let line = LineAddr(r.u64()?);
                let core = CoreId(r.u16()?);
                c.frq.push_back(match tag {
                    0 => FrqEntry::Delegated {
                        line,
                        requester: core,
                    },
                    1 => FrqEntry::Probe { line, from: core },
                    2 => FrqEntry::Fetch { line, from: core },
                    t => {
                        return Err(SnapError::BadTag {
                            what: "frq entry",
                            tag: t as u64,
                        })
                    }
                });
            }
            c.probe_wait.clear();
            for _ in 0..r.usize()? {
                let line = LineAddr(r.u64()?);
                let outstanding = r.usize()?;
                let satisfied = r.bool()?;
                let fetch_sent = r.bool()?;
                let n_send = r.usize()?;
                if n_send > self.l1s.len() {
                    return Err(SnapError::Corrupt("probe targets exceed core count"));
                }
                let mut to_send = Vec::with_capacity(n_send);
                for _ in 0..n_send {
                    to_send.push(CoreId(r.u16()?));
                }
                c.probe_wait.insert(
                    line,
                    ProbeWait {
                        outstanding,
                        satisfied,
                        fetch_sent,
                        to_send,
                    },
                );
            }
            c.unsent = c.count_unsent();
            c.predictor = r.bytes()?;
            if c.predictor.len() != PREDICTOR_ENTRIES {
                return Err(SnapError::Corrupt("predictor size mismatch"));
            }
            c.probe_rr = r.usize()?;
            c.probe_seq = r.u64()?;
            c.probe_score = r.i32()?;
            c.suppliers.clear();
            for _ in 0..r.usize()? {
                c.suppliers.push_back(CoreId(r.u16()?));
            }
            c.next_flush = r.opt_u64()?;
            c.stats = GpuCoreStats {
                retired: r.u64()?,
                mem_ops: r.u64()?,
                mem_stall_cycles: r.u64()?,
                delegated_hits: r.u64()?,
                delegated_delayed: r.u64()?,
                delegated_misses: r.u64()?,
                frq_same_line: r.u64()?,
                probes_sent: r.u64()?,
                probe_hits_served: r.u64()?,
                probe_misses_served: r.u64()?,
                llc_reads: r.u64()?,
                writes: r.u64()?,
                flushes: r.u64()?,
            };
        }
        if r.usize()? != self.l1s.len() {
            return Err(SnapError::Corrupt("gpu l1 count mismatch"));
        }
        for l1 in &mut self.l1s {
            l1.load_state(r, |_| Ok(()))?;
        }
        if r.usize()? != self.clusters.len() {
            return Err(SnapError::Corrupt("gpu cluster count mismatch"));
        }
        for cl in &mut self.clusters {
            cl.load_state(r)?;
        }
        Ok(())
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Per-core statistics.
    pub fn stats(&self, core: CoreId) -> GpuCoreStats {
        self.cores[core.index()].stats
    }

    /// Zero every core's counters (warmup exclusion); caches, MSHRs and
    /// FRQs keep their state.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.stats = GpuCoreStats::default();
        }
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
    }

    /// Total warp instructions retired (the GPU IPC numerator).
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.retired).sum()
    }

    /// Aggregate delegation outcomes over all cores:
    /// `(remote hits, delayed hits, remote misses / DNF bounces)` — the
    /// per-epoch outcome series the telemetry sampler differences.
    pub fn delegation_outcomes(&self) -> (u64, u64, u64) {
        self.cores.iter().fold((0, 0, 0), |(h, d, m), c| {
            (
                h + c.stats.delegated_hits,
                d + c.stats.delegated_delayed,
                m + c.stats.delegated_misses,
            )
        })
    }

    /// L1 tag-array stats aggregated over cores (private mode) or
    /// cluster slices (shared mode).
    pub fn l1_hits_misses(&self) -> (u64, u64) {
        let mut h = 0;
        let mut m = 0;
        for c in &self.l1s {
            h += c.stats().hits;
            m += c.stats().misses;
        }
        // Shared-slice accesses are recorded in the slices themselves;
        // fold them in through the cores' mem_ops minus private counts is
        // unnecessary — the cluster slices are separate SetAssocCaches
        // whose stats are inaccessible here, so private counters suffice
        // for the Private org; shared orgs report through mem_ops.
        (h, m)
    }

    /// Does the FRQ of `core` have room for another delegated reply or
    /// probe? The system must check before delivering
    /// [`GpuIn::Delegated`] / [`GpuIn::ProbeReq`].
    pub fn frq_has_space(&self, core: CoreId) -> bool {
        self.cores[core.index()].frq.len() < self.cfg.frq_entries
    }

    /// Oracle: is `line` resident in any L1 other than `requester`'s?
    /// (The Fig.-2 inter-core-locality measurement.)
    pub fn remote_l1_has(&self, requester: CoreId, line: LineAddr) -> bool {
        match self.org {
            L1Org::Private => self
                .l1s
                .iter()
                .enumerate()
                .any(|(i, l1)| i != requester.index() && l1.probe(line)),
            _ => {
                let my_cluster = requester.index() / self.cfg.cluster_cores;
                self.clusters
                    .iter()
                    .enumerate()
                    .any(|(ci, cl)| ci != my_cluster && cl.probe(line))
                    || self
                        .l1s
                        .iter()
                        .enumerate()
                        .any(|(i, l1)| i != requester.index() && l1.probe(line))
            }
        }
    }

    fn cluster_of(&self, core: CoreId) -> usize {
        core.index() / self.cfg.cluster_cores
    }

    /// Is `core` currently using its cluster's shared slices?
    fn uses_shared(&self, core: CoreId) -> bool {
        match self.org {
            L1Org::Private => false,
            L1Org::DcL1 => true,
            L1Org::DynEB => self.clusters[self.cluster_of(core)].mode() == ClusterMode::Shared,
        }
    }

    /// Claim an L1 port for `core` / `line`; returns false on a
    /// structural port stall.
    fn claim_port(&mut self, core: CoreId, line: LineAddr) -> bool {
        if self.uses_shared(core) {
            let cl = self.cluster_of(core);
            self.clusters[cl].claim_port(line).is_some()
        } else {
            let u = &mut self.port_used[core.index()];
            if (*u as usize) < self.cfg.l1_ports {
                *u += 1;
                let ci = self.cluster_of(core);
                if let Some(cl) = self.clusters.get_mut(ci) {
                    cl.note_private_served();
                }
                true
            } else {
                false
            }
        }
    }

    /// L1 lookup with LRU update (port must already be claimed).
    fn l1_lookup(&mut self, core: CoreId, line: LineAddr) -> bool {
        if self.uses_shared(core) {
            let cl = self.cluster_of(core);
            let s = self.clusters[cl].slice_of(line);
            self.clusters[cl].access(s, line)
        } else {
            self.l1s[core.index()].access(line)
        }
    }

    /// Side-effect-free presence check.
    fn l1_probe(&self, core: CoreId, line: LineAddr) -> bool {
        if self.uses_shared(core) {
            self.clusters[self.cluster_of(core)].probe(line)
        } else {
            self.l1s[core.index()].probe(line)
        }
    }

    fn l1_fill(&mut self, core: CoreId, line: LineAddr) {
        if self.uses_shared(core) {
            let cl = self.cluster_of(core);
            self.clusters[cl].fill(line);
        } else {
            self.l1s[core.index()].fill(line, ());
        }
        self.cores[core.index()].forget_memos();
    }

    fn l1_invalidate(&mut self, core: CoreId, line: LineAddr) {
        if self.uses_shared(core) {
            let cl = self.cluster_of(core);
            self.clusters[cl].invalidate(line);
        } else {
            self.l1s[core.index()].invalidate(line);
        }
        self.cores[core.index()].forget_memos();
    }

    /// Add `target` to core `i`'s MSHR entry for `line`, forgetting the
    /// core's memos when the file changed.
    fn mshr_allocate(&mut self, i: usize, line: LineAddr, target: Target) -> MshrOutcome {
        let outcome = self.cores[i].mshr.allocate(line, target);
        if matches!(outcome, MshrOutcome::Primary | MshrOutcome::Merged) {
            self.cores[i].forget_memos();
        }
        outcome
    }

    fn predictor_ix(line: LineAddr) -> usize {
        let x = line.0 >> 4;
        ((x ^ (x >> 10) ^ (x >> 20)) as usize) % PREDICTOR_ENTRIES
    }

    /// The earliest future cycle at which [`Self::tick`] could change
    /// observable state absent new input, assuming nonzero outbox
    /// budgets (the system only fast-forwards when every outbox is
    /// empty, so budgets are at their maximum).
    ///
    /// `Some(now)` means same-cycle work: a warp can issue a memory
    /// instruction, an FRQ entry or deferred probe is queued, or a
    /// flush / DynEB epoch boundary is due. `Some(t > now)` is a timed
    /// horizon (next kernel flush, DynEB epoch end, or the pure-compute
    /// countdown below). `None` means nothing will ever happen without
    /// a delivery.
    ///
    /// A core whose only runnable warps are mid-compute counts down
    /// deterministically — every such warp decrements and retires once
    /// per cycle — so the countdown is a *timed horizon* (`now +
    /// min(left)`), not same-cycle work, provided the arbitration is
    /// trivial: no more computing warps than `issue_width` (all are
    /// guaranteed an issue slot every cycle) and no warp stuck on a
    /// stalled memory retry (whose `mem_stall_cycles` accounting
    /// depends on issue order once slots run out).
    /// [`Self::advance`] integrates the skipped decrements and retires.
    ///
    /// A warp holding a pending read contributes no work only when the
    /// per-cycle retry provably mutates nothing: the line misses, and
    /// either the MSHR file is full (the retry bails before claiming a
    /// port) or the line's entry has a full target list — the latter
    /// only under [`L1Org::Private`], because with clusters present the
    /// port claim bumps DynEB's served counter even on a failed retry.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        let mut bump = |t: Cycle| match horizon {
            Some(h) if h <= t => {}
            _ => horizon = Some(t),
        };
        for cl in &self.clusters {
            if let Some(e) = cl.next_epoch_end() {
                if e <= now {
                    return Some(now);
                }
                bump(e);
            }
        }
        for (i, core) in self.cores.iter().enumerate() {
            if let Some(at) = core.next_flush {
                if at <= now {
                    return Some(now);
                }
                bump(at);
            }
            if !core.frq.is_empty() {
                return Some(now);
            }
            if core.unsent > 0
                && core
                    .probe_wait
                    .values()
                    .any(|w| !w.to_send.is_empty() && !w.satisfied)
            {
                return Some(now);
            }
            let id = CoreId(i as u16);
            let mut computing = 0usize;
            let mut min_left = u32::MAX;
            let mut stalled = false;
            for w in &core.warps {
                match w.state {
                    WarpState::WaitMem => {}
                    WarpState::Compute(left) if left > 0 => {
                        computing += 1;
                        min_left = min_left.min(left);
                    }
                    WarpState::Compute(_) => {
                        let Some(access) = w.pending else {
                            // Would draw the next access this cycle.
                            return Some(now);
                        };
                        if access.write {
                            return Some(now);
                        }
                        let line = access.addr.line(self.cfg.l1.line_bytes as u64);
                        if self.l1_probe(id, line) {
                            return Some(now);
                        }
                        if core.mshr.contains(line) {
                            if core.mshr.can_merge(line) || self.org != L1Org::Private {
                                return Some(now);
                            }
                        } else if core.mshr.available() > 0 {
                            return Some(now);
                        }
                        // Provably stalled: the retry mutates nothing.
                        stalled = true;
                    }
                }
            }
            if computing > 0 {
                if computing > self.cfg.issue_width || stalled {
                    return Some(now);
                }
                bump(now + u64::from(min_left));
            }
        }
        horizon
    }

    /// Integrate `span` skipped cycles into per-cycle accumulators. Only
    /// valid after [`Self::next_event`] reported no work before
    /// `now + span`: over such a span the per-cycle side effects are
    /// (a) the one `mem_stall_cycles` increment a core takes whenever
    /// at least one warp retries a provably-stalled memory instruction,
    /// and (b) one decrement + retire per computing warp (next_event
    /// guarantees every computing warp had an issue slot and that
    /// `span <= min(left)` for its core).
    pub fn advance(&mut self, span: u64) {
        for core in &mut self.cores {
            if core.warps.iter().any(|w| w.pending.is_some()) {
                core.stats.mem_stall_cycles += span;
            }
            let mut retired = 0;
            for w in &mut core.warps {
                if let WarpState::Compute(left) = w.state {
                    if left > 0 {
                        debug_assert!(u64::from(left) >= span, "overshot compute countdown");
                        w.state = WarpState::Compute(left - span as u32);
                        retired += span;
                    }
                }
            }
            core.stats.retired += retired;
        }
    }

    /// Advance every core one cycle. `budget[i]` bounds how many new
    /// *locally-initiated* messages core `i` may emit (its request-side
    /// outbox space); `remote_budget[i]` independently bounds remote
    /// (FRQ) service outputs. The separation is essential: coupling
    /// remote service to local congestion recreates exactly the circular
    /// wait the paper's remote-over-local priority is designed to break.
    pub fn tick(
        &mut self,
        now: Cycle,
        budget: &[usize],
        remote_budget: &[usize],
        out: &mut Vec<(CoreId, GpuOut)>,
    ) {
        self.port_used.iter_mut().for_each(|u| *u = 0);
        for cl in &mut self.clusters {
            cl.begin_cycle();
        }
        // DynEB adaptation at epoch boundaries. A mode switch flushes
        // the affected caches, so the cores must also announce a flush —
        // otherwise the LLC keeps stale core pointers and delegations
        // bounce as remote misses.
        for ci in 0..self.clusters.len() {
            if self.clusters[ci].maybe_adapt(now) {
                self.clusters[ci].flush();
                let lo = ci * self.cfg.cluster_cores;
                let hi = ((ci + 1) * self.cfg.cluster_cores).min(self.l1s.len());
                for l1 in &mut self.l1s[lo..hi] {
                    l1.flush();
                }
                for core in lo..hi.min(self.cores.len()) {
                    self.cores[core].forget_memos();
                    out.push((CoreId(core as u16), GpuOut::Flushed));
                }
            }
        }
        for i in 0..self.cores.len() {
            let mut b = budget[i];
            let mut rb = remote_budget[i];
            self.tick_core(i, now, &mut b, &mut rb, out);
        }
    }

    fn tick_core(
        &mut self,
        i: usize,
        now: Cycle,
        budget: &mut usize,
        remote_budget: &mut usize,
        out: &mut Vec<(CoreId, GpuOut)>,
    ) {
        let id = CoreId(i as u16);
        // Kernel-boundary flush (software coherence).
        if let Some(at) = self.cores[i].next_flush {
            if now >= at && *budget > 0 {
                if self.uses_shared(id) {
                    let cl = self.cluster_of(id);
                    self.clusters[cl].flush();
                } else {
                    self.l1s[i].flush();
                }
                self.cores[i].forget_memos();
                self.cores[i].next_flush =
                    Some(at + self.cfg.flush_interval.expect("flush scheduled"));
                self.cores[i].stats.flushes += 1;
                out.push((id, GpuOut::Flushed));
                *budget -= 1;
            }
        }
        // 1. Remote service (FRQ) — strictly before local issue, on its
        //    own budget (reply-lane outbox space). Under a shared L1 the
        //    slices are the scarce resource, so remote service is paced
        //    to one entry per cycle to avoid starving local warps.
        let mut frq_served = 0usize;
        let frq_cap = if self.uses_shared(id) { 1 } else { usize::MAX };
        while *remote_budget > 0 && frq_served < frq_cap {
            frq_served += 1;
            let Some(&entry) = self.cores[i].frq.front() else {
                break;
            };
            let line = match entry {
                FrqEntry::Delegated { line, .. }
                | FrqEntry::Probe { line, .. }
                | FrqEntry::Fetch { line, .. } => line,
            };
            // Private L1s serve remote requests through their ports;
            // shared slices expose a dedicated snoop port (paced to one
            // remote request per cycle above).
            if !self.uses_shared(id) && !self.claim_port(id, line) {
                break; // port stall: retry next cycle
            }
            self.cores[i].frq.pop_front();
            match entry {
                FrqEntry::Delegated { line, requester } => {
                    if self.l1_lookup(id, line) {
                        self.cores[i].stats.delegated_hits += 1;
                        out.push((
                            id,
                            GpuOut::CoreReply {
                                to: requester,
                                line,
                            },
                        ));
                        *remote_budget -= 1;
                    } else if self.delayed_hits && self.cores[i].mshr.contains(line) {
                        // Delayed hit: forward when the miss returns.
                        match self.mshr_allocate(i, line, Target::Remote(requester)) {
                            MshrOutcome::Merged => {
                                self.cores[i].stats.delegated_delayed += 1;
                            }
                            _ => {
                                // Target list full: treat as remote miss.
                                self.cores[i].stats.delegated_misses += 1;
                                out.push((
                                    id,
                                    GpuOut::LlcRead {
                                        line,
                                        dnf: true,
                                        requester,
                                    },
                                ));
                                *remote_budget -= 1;
                            }
                        }
                    } else {
                        // Remote miss: bounce to the LLC with DNF set.
                        self.cores[i].stats.delegated_misses += 1;
                        out.push((
                            id,
                            GpuOut::LlcRead {
                                line,
                                dnf: true,
                                requester,
                            },
                        ));
                        *remote_budget -= 1;
                    }
                }
                FrqEntry::Probe { line, from } => {
                    if self.l1_probe(id, line) {
                        self.cores[i].stats.probe_hits_served += 1;
                        out.push((id, GpuOut::ProbeHitAck { to: from, line }));
                    } else {
                        self.cores[i].stats.probe_misses_served += 1;
                        out.push((id, GpuOut::ProbeMiss { to: from, line }));
                    }
                    *remote_budget -= 1;
                }
                FrqEntry::Fetch { line, from } => {
                    if self.l1_probe(id, line) {
                        out.push((id, GpuOut::CoreReply { to: from, line }));
                    } else {
                        // Evicted between the probe and the fetch.
                        out.push((id, GpuOut::ProbeMiss { to: from, line }));
                    }
                    *remote_budget -= 1;
                }
            }
        }
        // 2. Flush deferred probe targets as budget allows. With no line
        // holding unsent targets the walk would list nothing.
        debug_assert_eq!(
            self.cores[i].unsent,
            self.cores[i].count_unsent(),
            "unsent-probe count diverged"
        );
        if matches!(self.scheme, Scheme::RealisticProbing { .. }) && self.cores[i].unsent > 0 {
            let mut lines = std::mem::take(&mut self.flush_lines);
            lines.clear();
            lines.extend(
                self.cores[i]
                    .probe_wait
                    .iter()
                    .filter(|(_, w)| !w.to_send.is_empty() && !w.satisfied)
                    .map(|(&l, _)| l),
            );
            // Visit lines in a canonical order: hash-map iteration order
            // depends on insertion history, which a snapshot restore
            // cannot reproduce, and under a tight budget the visit order
            // decides which line's probes go out first.
            lines.sort_unstable();
            for &line in &lines {
                if *budget == 0 {
                    break;
                }
                let c = &mut self.cores[i];
                let w = c.probe_wait.get_mut(&line).expect("listed");
                while *budget > 0 {
                    let Some(t) = w.to_send.pop() else { break };
                    w.outstanding += 1;
                    out.push((id, GpuOut::Probe { to: t, line }));
                    *budget -= 1;
                }
                if w.to_send.is_empty() {
                    c.unsent -= 1;
                }
                self.cores[i].stats.probes_sent += 1; // approximate batch count
            }
            self.flush_lines = lines;
        }
        // 3. Local warp issue (up to issue_width), in warp order over
        //    the warps not waiting on memory. A core blocked here (no
        //    budget or a full MSHR file) stays blocked for the whole
        //    loop: budget and MSHR space only shrink, no L1 fill happens,
        //    and no line enters the MSHR file (a primary miss needs both
        //    budget and a free entry). So a memoized read, and with no
        //    budget any write, must fail again with no side effect: the
        //    loop skips it and only accounts the stall it would have
        //    counted.
        debug_assert!(self.cores[i].masks_consistent(), "warp masks diverged");
        let width = self.cfg.issue_width;
        let blocked = *budget == 0 || self.cores[i].mshr.available() == 0;
        let skip_writes = if *budget == 0 { u64::MAX } else { 0 };
        let mut issued = 0;
        let mut stalled_mem = false;
        'issue: for word in 0..self.cores[i].ready.len() {
            if issued >= width {
                break;
            }
            let core = &self.cores[i];
            let skip = if blocked {
                core.memo[word] | (core.writes[word] & skip_writes)
            } else {
                0
            };
            let skipped = core.ready[word] & skip;
            let mut ready = core.ready[word] & !skip;
            debug_assert!(
                (0..64)
                    .filter(|b| skipped & (1 << b) != 0)
                    .all(|b| self.retry_fails(i, word * 64 + b, *budget)),
                "blocked-core skip passed over a warp that could issue"
            );
            while ready != 0 {
                let w = word * 64 + ready.trailing_zeros() as usize;
                ready &= ready - 1;
                let ok = match self.cores[i].warps[w].state {
                    WarpState::WaitMem => unreachable!("warp {w} waits but is marked ready"),
                    WarpState::Compute(left) if left > 0 => {
                        self.cores[i].warps[w].state = WarpState::Compute(left - 1);
                        self.cores[i].stats.retired += 1;
                        true
                    }
                    WarpState::Compute(_) => {
                        // Memory instruction is next.
                        if self.cores[i].warps[w].pending.is_none() {
                            let a = self.cores[i].stream.next_access();
                            self.cores[i].draw(w, a);
                        }
                        let access = self.cores[i].warps[w].pending.expect("set above");
                        if !access.write && self.retry_memoized(i, w, *budget) {
                            false
                        } else {
                            self.try_mem(i, w, access, budget, out)
                        }
                    }
                };
                if !ok {
                    stalled_mem = true;
                    continue;
                }
                issued += 1;
                if issued >= width {
                    // The full scan stops after this warp: of the skipped
                    // warps, it visited (and failed) those below it.
                    stalled_mem |= skipped & ((1 << (w % 64)) - 1) != 0;
                    break 'issue;
                }
            }
            stalled_mem |= skipped != 0;
        }
        if stalled_mem {
            self.cores[i].stats.mem_stall_cycles += 1;
        }
    }

    /// Whether warp `w`'s pending read is a resource-blocked miss that
    /// must fail again: it failed that way before, the core is still
    /// blocked (no outbox budget or a full MSHR file), and its memo bit
    /// survived, so neither the L1 probe nor the MSHR lookup can answer
    /// differently. The retry then skips both.
    fn retry_memoized(&self, i: usize, w: usize, budget: usize) -> bool {
        let core = &self.cores[i];
        let memoized =
            core.memo[w / 64] & (1 << (w % 64)) != 0 && (budget == 0 || core.mshr.available() == 0);
        debug_assert!(
            !memoized || self.retry_fails(i, w, budget),
            "stalled-warp memo skipped a retry whose line is present"
        );
        memoized
    }

    /// Whether warp `w`'s pending access must fail right now without a
    /// side effect: a write with no budget, or a read that misses the L1
    /// and the MSHR file of a blocked core. For debug checks.
    fn retry_fails(&self, i: usize, w: usize, budget: usize) -> bool {
        let core = &self.cores[i];
        let Some(access) = core.warps[w].pending else {
            return false;
        };
        if access.write {
            return budget == 0;
        }
        let line = access.addr.line(self.cfg.l1.line_bytes as u64);
        (budget == 0 || core.mshr.available() == 0)
            && !self.l1_probe(CoreId(i as u16), line)
            && !core.mshr.contains(line)
    }

    /// Attempt the memory instruction of warp `w`; returns true if it
    /// issued (retiring one instruction).
    fn try_mem(
        &mut self,
        i: usize,
        w: usize,
        access: MemAccess,
        budget: &mut usize,
        out: &mut Vec<(CoreId, GpuOut)>,
    ) -> bool {
        let id = CoreId(i as u16);
        let line = access.addr.line(self.cfg.l1.line_bytes as u64);
        let cpm = self.cores[i].stream.compute_per_mem();
        if access.write {
            // Write-through, write-evict, no-allocate; fire-and-forget.
            if *budget == 0 || !self.claim_port(id, line) {
                return false;
            }
            self.l1_invalidate(id, line);
            out.push((id, GpuOut::LlcWrite { line }));
            *budget -= 1;
            let c = &mut self.cores[i];
            c.stats.writes += 1;
            c.stats.mem_ops += 1;
            c.stats.retired += 1;
            c.warps[w].pending = None;
            c.writes[w / 64] &= !(1 << (w % 64));
            c.warps[w].state = WarpState::Compute(cpm);
            return true;
        }
        // Read. Probe first so a structurally-stalled retry does not
        // pollute hit/miss statistics or burn an L1 port every cycle.
        let blocked = *budget == 0 || self.cores[i].mshr.available() == 0;
        let hit = self.l1_probe(id, line);
        let merged = !hit && self.cores[i].mshr.contains(line);
        if !hit && !merged && blocked {
            // A request must go out but cannot. Shared-L1 slices change
            // with other cores' traffic, so only private L1s memoize.
            if self.org == L1Org::Private {
                self.cores[i].memoize(w);
            }
            return false;
        }
        if !self.claim_port(id, line) {
            return false;
        }
        if merged {
            // Hit to an outstanding line: merges into the MSHR without
            // touching the tag array (GPGPU-sim's "hit_reserved" — not a
            // demand miss, so it does not distort the miss rate).
            match self.mshr_allocate(i, line, Target::Warp(w as u16)) {
                MshrOutcome::Merged => {
                    let c = &mut self.cores[i];
                    c.stats.mem_ops += 1;
                    c.stats.retired += 1;
                    c.warps[w].pending = None;
                    c.wait_mem(w);
                    return true;
                }
                // Target list full: structural stall, retry next cycle.
                _ => return false,
            }
        }
        if self.l1_lookup(id, line) {
            let c = &mut self.cores[i];
            c.stats.mem_ops += 1;
            c.stats.retired += 1;
            c.warps[w].pending = None;
            c.warps[w].state = WarpState::Compute(cpm);
            return true;
        }
        match self.mshr_allocate(i, line, Target::Warp(w as u16)) {
            MshrOutcome::Merged => {
                let c = &mut self.cores[i];
                c.stats.mem_ops += 1;
                c.stats.retired += 1;
                c.warps[w].pending = None;
                c.wait_mem(w);
                true
            }
            MshrOutcome::Primary => {
                // RP: predict-and-probe; otherwise straight to the LLC.
                let mut probed = false;
                if let Scheme::RealisticProbing { fanout } = self.scheme {
                    let fanout = fanout.min(self.cores.len() - 1);
                    let ix = Self::predictor_ix(line);
                    self.cores[i].probe_seq += 1;
                    // Epsilon exploration: occasionally probe even for
                    // predicted-private regions so the predictor can
                    // recover once remote caches warm up.
                    let confident =
                        self.cores[i].predictor[ix] >= 2 && self.cores[i].probe_score > 4;
                    let explore = self.cores[i].probe_seq.is_multiple_of(64);
                    if fanout > 0 && *budget > 0 && (confident || explore) {
                        let n = self.cores.len();
                        // Probe CTA-adjacent cores first (round-robin CTA
                        // scheduling puts stencil neighbors on adjacent
                        // SMs), then recent suppliers, then rotate; send
                        // what the outbox allows now, defer the rest.
                        let mut targets: Vec<CoreId> = Vec::with_capacity(fanout);
                        for d in [1usize, n - 1] {
                            if targets.len() < fanout {
                                targets.push(CoreId(((i + d) % n) as u16));
                            }
                        }
                        for &s in &self.cores[i].suppliers {
                            if targets.len() == fanout {
                                break;
                            }
                            if s.index() != i && !targets.contains(&s) {
                                targets.push(s);
                            }
                        }
                        let start = self.cores[i].probe_rr;
                        self.cores[i].probe_rr = (start + 1) % n;
                        let mut t = start;
                        while targets.len() < fanout {
                            t = (t + 1) % n;
                            let c = CoreId(t as u16);
                            if t != i && !targets.contains(&c) {
                                targets.push(c);
                            }
                        }
                        let send_now = targets.len().min(*budget);
                        let deferred: Vec<CoreId> = targets.split_off(send_now);
                        let sent = targets.len();
                        for c in targets {
                            out.push((id, GpuOut::Probe { to: c, line }));
                        }
                        self.cores[i].stats.probes_sent += sent as u64;
                        *budget -= sent;
                        let c = &mut self.cores[i];
                        c.unsent += usize::from(!deferred.is_empty());
                        let old = c.probe_wait.insert(
                            line,
                            ProbeWait {
                                outstanding: sent,
                                satisfied: false,
                                fetch_sent: false,
                                to_send: deferred,
                            },
                        );
                        if old.is_some_and(|w| !w.to_send.is_empty()) {
                            c.unsent -= 1;
                        }
                        probed = true;
                    }
                }
                if !probed {
                    out.push((
                        id,
                        GpuOut::LlcRead {
                            line,
                            dnf: false,
                            requester: id,
                        },
                    ));
                    self.cores[i].stats.llc_reads += 1;
                    *budget -= 1;
                }
                let c = &mut self.cores[i];
                c.stats.mem_ops += 1;
                c.stats.retired += 1;
                c.warps[w].pending = None;
                c.wait_mem(w);
                true
            }
            MshrOutcome::NoEntry | MshrOutcome::NoTarget => false,
        }
    }

    /// Deliver a message to `core`; any responses are appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a [`GpuIn::Delegated`] or [`GpuIn::ProbeReq`] arrives
    /// while the FRQ is full (the system must gate on
    /// [`Self::frq_has_space`]).
    pub fn deliver(&mut self, core: CoreId, msg: GpuIn, out: &mut Vec<(CoreId, GpuOut)>) {
        let i = core.index();
        match msg {
            GpuIn::Data { line, from } => {
                self.l1_fill(core, line);
                if let Some(supplier) = from {
                    let c = &mut self.cores[i];
                    c.suppliers.retain(|&s| s != supplier);
                    c.suppliers.push_front(supplier);
                    c.suppliers.truncate(8);
                }
                // RP bookkeeping: data may satisfy a probe burst.
                self.cores[i].cancel_probes(line);
                if let Some(pw) = self.cores[i].probe_wait.get_mut(&line) {
                    pw.satisfied = true;
                    let ix = Self::predictor_ix(line);
                    let p = &mut self.cores[i].predictor[ix];
                    *p = (*p + 1).min(3);
                    if self.cores[i].probe_wait[&line].outstanding == 0 {
                        self.cores[i].probe_wait.remove(&line);
                    }
                }
                let cpm = self.cores[i].stream.compute_per_mem();
                self.cores[i].forget_memos();
                for t in self.cores[i].mshr.complete(line) {
                    match t {
                        Target::Warp(w) => self.cores[i].wake(w as usize, cpm),
                        Target::Remote(requester) => {
                            self.cores[i].stats.delegated_hits += 1;
                            out.push((
                                core,
                                GpuOut::CoreReply {
                                    to: requester,
                                    line,
                                },
                            ));
                        }
                    }
                }
            }
            GpuIn::WriteAck { .. } => {}
            GpuIn::Delegated { line, requester } => {
                assert!(
                    self.frq_has_space(core),
                    "FRQ overflow at {core}: gate deliveries on frq_has_space"
                );
                if self.cores[i]
                    .frq
                    .iter()
                    .any(|e| matches!(e, FrqEntry::Delegated { line: l, .. } if *l == line))
                {
                    self.cores[i].stats.frq_same_line += 1;
                }
                self.cores[i]
                    .frq
                    .push_back(FrqEntry::Delegated { line, requester });
            }
            GpuIn::ProbeReq { from, line } => {
                assert!(
                    self.frq_has_space(core),
                    "FRQ overflow at {core}: gate deliveries on frq_has_space"
                );
                self.cores[i].frq.push_back(FrqEntry::Probe { line, from });
            }
            GpuIn::FetchReq { from, line } => {
                assert!(
                    self.frq_has_space(core),
                    "FRQ overflow at {core}: gate deliveries on frq_has_space"
                );
                self.cores[i].frq.push_back(FrqEntry::Fetch { line, from });
            }
            GpuIn::ProbeHitReply { from, line } => {
                let Some(w) = self.cores[i].probe_wait.get_mut(&line) else {
                    return;
                };
                w.outstanding -= 1;
                if !w.satisfied && !w.fetch_sent {
                    // Fetch from the first confirmed hitter; ignore the
                    // later acks. No more probes needed either.
                    w.fetch_sent = true;
                    w.outstanding += 1; // the fetch response
                    self.cores[i].cancel_probes(line);
                    let ix = Self::predictor_ix(line);
                    let p = &mut self.cores[i].predictor[ix];
                    *p = (*p + 1).min(3);
                    self.cores[i].probe_score = (self.cores[i].probe_score + 8).min(64);
                    out.push((core, GpuOut::Fetch { to: from, line }));
                } else if w.outstanding == 0 {
                    let satisfied = w.satisfied;
                    let fetch_sent = w.fetch_sent;
                    self.cores[i].probe_wait.remove(&line);
                    if !satisfied && !fetch_sent {
                        unreachable!("hit ack implies a fetch or data");
                    }
                }
            }
            GpuIn::ProbeMissReply { line } => {
                let Some(pw) = self.cores[i].probe_wait.get_mut(&line) else {
                    return;
                };
                pw.outstanding -= 1;
                if pw.outstanding == 0 && pw.to_send.is_empty() {
                    let satisfied = pw.satisfied;
                    self.cores[i].probe_wait.remove(&line);
                    if !satisfied {
                        // Every probe missed (or the fetch bounced):
                        // fall back to the LLC.
                        let ix = Self::predictor_ix(line);
                        let p = &mut self.cores[i].predictor[ix];
                        *p = p.saturating_sub(1);
                        self.cores[i].probe_score = (self.cores[i].probe_score - 1).max(0);
                        self.cores[i].stats.llc_reads += 1;
                        out.push((
                            core,
                            GpuOut::LlcRead {
                                line,
                                dnf: false,
                                requester: core,
                            },
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_workloads::gpu_benchmark;

    fn subsystem(scheme: Scheme, org: L1Org) -> GpuSubsystem {
        let cfg = GpuConfig {
            flush_interval: None,
            ..GpuConfig::default()
        };
        GpuSubsystem::new(
            cfg,
            scheme,
            org,
            CtaSched::RoundRobin,
            gpu_benchmark("HS").unwrap(),
            8,
            42,
        )
    }

    fn run_cycles(
        g: &mut GpuSubsystem,
        cycles: u64,
        mut on_out: impl FnMut(&mut GpuSubsystem, Vec<(CoreId, GpuOut)>, Cycle),
    ) {
        let budget = vec![8usize; g.n_cores()];
        for now in 0..cycles {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            on_out(g, out, now);
        }
    }

    /// A zero-latency perfect memory: every LlcRead returns data next
    /// call.
    fn perfect_memory(g: &mut GpuSubsystem, out: Vec<(CoreId, GpuOut)>, _now: Cycle) {
        let mut replies = Vec::new();
        for (core, o) in out {
            if let GpuOut::LlcRead {
                line, requester, ..
            } = o
            {
                let _ = core;
                replies.push((requester, line));
            }
        }
        let mut sink = Vec::new();
        for (to, line) in replies {
            g.deliver(to, GpuIn::Data { line, from: None }, &mut sink);
        }
        // Serve any forwards produced by delivery.
        for (core, o) in sink {
            let _ = (core, o);
        }
    }

    #[test]
    fn warps_make_progress_with_perfect_memory() {
        let mut g = subsystem(Scheme::Baseline, L1Org::Private);
        run_cycles(&mut g, 2000, perfect_memory);
        let retired = g.total_retired();
        // 8 cores x up to 2 IPC x 2000 cycles = 32000 max.
        assert!(retired > 8_000, "retired {retired}");
        assert!(retired <= 32_000);
    }

    #[test]
    fn stalls_without_any_memory_replies() {
        let mut g = subsystem(Scheme::Baseline, L1Org::Private);
        run_cycles(&mut g, 3000, |_, _, _| {});
        // All warps eventually block on memory (or MSHRs fill).
        let s = g.stats(CoreId(0));
        assert!(s.mem_stall_cycles > 0 || s.retired < 3000 * 2);
        let before = g.total_retired();
        let budget = vec![8usize; g.n_cores()];
        let mut out = Vec::new();
        g.tick(3000, &budget, &budget, &mut out);
        assert_eq!(g.total_retired(), before, "no progress when starved");
    }

    #[test]
    fn read_miss_emits_one_llc_read_with_merging() {
        let mut g = subsystem(Scheme::Baseline, L1Org::Private);
        let budget = vec![64usize; g.n_cores()];
        let mut reads = 0;
        let mut lines = std::collections::HashSet::new();
        for now in 0..50 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            for (_c, o) in out {
                if let GpuOut::LlcRead { line, .. } = o {
                    reads += 1;
                    lines.insert(line);
                }
            }
        }
        assert!(reads > 0);
        // Merging: outstanding lines are unique per core; with 8 cores
        // sharing hot lines, some duplication across cores is expected
        // but within a core reads == unique lines. Aggregate sanity:
        assert!(
            lines.len() * 8 >= reads,
            "MSHR merging broken: {reads} reads, {} lines",
            lines.len()
        );
    }

    #[test]
    fn delegated_hit_produces_core_reply() {
        let mut g = subsystem(Scheme::DelegatedReplies, L1Org::Private);
        // Warm core 0's L1 with a line.
        let line = LineAddr(0x4000_0000_0000 / 128);
        let mut out = Vec::new();
        g.deliver(CoreId(0), GpuIn::Data { line, from: None }, &mut out);
        assert!(g.l1_probe(CoreId(0), line));
        // Delegate a reply for core 3 to core 0.
        g.deliver(
            CoreId(0),
            GpuIn::Delegated {
                line,
                requester: CoreId(3),
            },
            &mut out,
        );
        let budget = vec![8usize; g.n_cores()];
        let mut out = Vec::new();
        g.tick(0, &budget, &budget, &mut out);
        assert!(
            out.iter().any(|(c, o)| *c == CoreId(0)
                && *o
                    == GpuOut::CoreReply {
                        to: CoreId(3),
                        line
                    }),
            "no CoreReply in {out:?}"
        );
        assert_eq!(g.stats(CoreId(0)).delegated_hits, 1);
    }

    #[test]
    fn delegated_miss_bounces_to_llc_with_dnf() {
        let mut g = subsystem(Scheme::DelegatedReplies, L1Org::Private);
        let line = LineAddr(12345);
        let mut out = Vec::new();
        g.deliver(
            CoreId(1),
            GpuIn::Delegated {
                line,
                requester: CoreId(5),
            },
            &mut out,
        );
        let budget = vec![8usize; g.n_cores()];
        let mut out = Vec::new();
        g.tick(0, &budget, &budget, &mut out);
        assert!(
            out.iter().any(|(c, o)| *c == CoreId(1)
                && *o
                    == GpuOut::LlcRead {
                        line,
                        dnf: true,
                        requester: CoreId(5)
                    }),
            "no DNF resend in {out:?}"
        );
        assert_eq!(g.stats(CoreId(1)).delegated_misses, 1);
    }

    #[test]
    fn delegated_delayed_hit_forwards_on_fill() {
        let mut g = subsystem(Scheme::DelegatedReplies, L1Org::Private);
        // Create an outstanding miss on core 0 by running it without
        // memory until it issues reads.
        let budget = vec![8usize; g.n_cores()];
        let mut first_line = None;
        for now in 0..50 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            for (c, o) in out {
                if c == CoreId(0) {
                    if let GpuOut::LlcRead { line, .. } = o {
                        first_line.get_or_insert(line);
                    }
                }
            }
            if first_line.is_some() {
                break;
            }
        }
        let line = first_line.expect("core 0 issued a read");
        // Delegate that same line to core 0 while its miss is in flight.
        let mut out = Vec::new();
        g.deliver(
            CoreId(0),
            GpuIn::Delegated {
                line,
                requester: CoreId(7),
            },
            &mut out,
        );
        let mut out = Vec::new();
        g.tick(100, &budget, &budget, &mut out);
        assert_eq!(g.stats(CoreId(0)).delegated_delayed, 1);
        // Now the data arrives: the forward must go out.
        let mut out = Vec::new();
        g.deliver(CoreId(0), GpuIn::Data { line, from: None }, &mut out);
        assert!(
            out.iter().any(|(c, o)| *c == CoreId(0)
                && *o
                    == GpuOut::CoreReply {
                        to: CoreId(7),
                        line
                    }),
            "delayed forward missing: {out:?}"
        );
    }

    #[test]
    fn frq_capacity_is_enforced() {
        let mut g = subsystem(Scheme::DelegatedReplies, L1Org::Private);
        let mut out = Vec::new();
        for k in 0..8 {
            assert!(g.frq_has_space(CoreId(2)));
            g.deliver(
                CoreId(2),
                GpuIn::Delegated {
                    line: LineAddr(k),
                    requester: CoreId(0),
                },
                &mut out,
            );
        }
        assert!(!g.frq_has_space(CoreId(2)));
    }

    #[test]
    fn rp_probes_fan_out_and_fall_back() {
        let mut g = subsystem(Scheme::RealisticProbing { fanout: 4 }, L1Org::Private);
        let budget = vec![16usize; g.n_cores()];
        // Collect first probe burst from any core.
        let mut probes: Vec<(CoreId, CoreId, LineAddr)> = Vec::new();
        for now in 0..50 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            for (c, o) in out {
                if let GpuOut::Probe { to, line } = o {
                    probes.push((c, to, line));
                }
            }
            if !probes.is_empty() {
                break;
            }
        }
        assert!(!probes.is_empty(), "no probes under RP");
        let (prober, _, line) = probes[0];
        let burst: Vec<_> = probes
            .iter()
            .filter(|(c, _, l)| *c == prober && *l == line)
            .collect();
        assert_eq!(burst.len(), 4, "fanout respected");
        assert!(burst.iter().all(|(c, to, _)| to != c));
        // All probes miss -> fallback LlcRead.
        let mut fallback = Vec::new();
        for k in 0..4 {
            let mut out = Vec::new();
            g.deliver(prober, GpuIn::ProbeMissReply { line }, &mut out);
            if k == 3 {
                fallback = out;
            } else {
                assert!(out.is_empty(), "early fallback");
            }
        }
        assert!(
            fallback.iter().any(|(c, o)| *c == prober
                && matches!(o, GpuOut::LlcRead { line: l, dnf: false, .. } if *l == line)),
            "no fallback in {fallback:?}"
        );
    }

    #[test]
    fn probe_request_served_from_frq() {
        let mut g = subsystem(Scheme::RealisticProbing { fanout: 4 }, L1Org::Private);
        let line = LineAddr(0x4000_0000_0000 / 128);
        let mut out = Vec::new();
        g.deliver(CoreId(0), GpuIn::Data { line, from: None }, &mut out);
        g.deliver(
            CoreId(0),
            GpuIn::ProbeReq {
                from: CoreId(4),
                line,
            },
            &mut out,
        );
        g.deliver(
            CoreId(0),
            GpuIn::ProbeReq {
                from: CoreId(5),
                line: LineAddr(999_999),
            },
            &mut out,
        );
        let budget = vec![8usize; g.n_cores()];
        let mut out = Vec::new();
        g.tick(0, &budget, &budget, &mut out);
        assert!(out.contains(&(
            CoreId(0),
            GpuOut::ProbeHitAck {
                to: CoreId(4),
                line
            }
        )));
        assert!(out.contains(&(
            CoreId(0),
            GpuOut::ProbeMiss {
                to: CoreId(5),
                line: LineAddr(999_999)
            }
        )));
        // The confirmed hitter transfers the data on a fetch.
        let mut out = Vec::new();
        g.deliver(
            CoreId(0),
            GpuIn::FetchReq {
                from: CoreId(4),
                line,
            },
            &mut out,
        );
        let mut out = Vec::new();
        g.tick(1, &budget, &budget, &mut out);
        assert!(out.contains(&(
            CoreId(0),
            GpuOut::CoreReply {
                to: CoreId(4),
                line
            }
        )));
    }

    #[test]
    fn writes_are_write_through_and_evict() {
        let mut g = subsystem(Scheme::Baseline, L1Org::Private);
        let budget = vec![32usize; g.n_cores()];
        let mut wrote = false;
        for now in 0..2000 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            for (c, o) in &out {
                if let GpuOut::LlcWrite { line } = o {
                    wrote = true;
                    assert!(!g.l1_probe(*c, *line), "write must evict the L1 copy");
                }
            }
            perfect_memory(&mut g, out, now);
            if wrote {
                break;
            }
        }
        assert!(wrote, "HS has a 10% write share; 2000 cycles must write");
    }

    #[test]
    fn kernel_flush_emits_flushed_and_empties_l1() {
        let cfg = GpuConfig {
            flush_interval: Some(100),
            ..GpuConfig::default()
        };
        let mut g = GpuSubsystem::new(
            cfg,
            Scheme::DelegatedReplies,
            L1Org::Private,
            CtaSched::RoundRobin,
            gpu_benchmark("NN").unwrap(),
            4,
            1,
        );
        let budget = vec![8usize; 4];
        let mut flushed = Vec::new();
        for now in 0..500 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            for (c, o) in &out {
                if *o == GpuOut::Flushed {
                    flushed.push(*c);
                }
            }
            perfect_memory(&mut g, out, now);
        }
        assert!(
            !flushed.is_empty(),
            "no flushes in 500 cycles at interval 100"
        );
        assert!(g.stats(CoreId(0)).flushes >= 1);
    }

    #[test]
    fn shared_org_serializes_hot_line() {
        // All cores of one cluster hammering one line: DC-L1 serves at
        // most 1 access/cycle for it, private serves cluster-wide.
        let hot = LineAddr(0x4000_0000_0000 / 128);
        let mk = |org| {
            let cfg = GpuConfig {
                flush_interval: None,
                ..GpuConfig::default()
            };
            let mut g = GpuSubsystem::new(
                cfg,
                Scheme::Baseline,
                org,
                CtaSched::RoundRobin,
                gpu_benchmark("NN").unwrap(),
                8,
                3,
            );
            let mut out = Vec::new();
            for c in 0..8 {
                g.deliver(
                    CoreId(c),
                    GpuIn::Data {
                        line: hot,
                        from: None,
                    },
                    &mut out,
                );
            }
            g
        };
        let mut shared = mk(L1Org::DcL1);
        let mut private = mk(L1Org::Private);
        // Count L1 port grants for the hot line over some cycles.
        let mut grants_shared = 0;
        let mut grants_private = 0;
        for _ in 0..100 {
            shared.port_used.iter_mut().for_each(|u| *u = 0);
            for cl in &mut shared.clusters {
                cl.begin_cycle();
            }
            private.port_used.iter_mut().for_each(|u| *u = 0);
            for c in 0..8 {
                if shared.claim_port(CoreId(c), hot) {
                    grants_shared += 1;
                }
                if private.claim_port(CoreId(c), hot) {
                    grants_private += 1;
                }
            }
        }
        assert_eq!(grants_shared, 100, "one slice port per cycle");
        assert_eq!(grants_private, 800, "private L1s all proceed");
    }

    #[test]
    fn delayed_hits_ablation_turns_them_into_remote_misses() {
        let mut g = subsystem(Scheme::DelegatedReplies, L1Org::Private);
        g.set_delayed_hits(false);
        // Create an outstanding miss on core 0.
        let budget = vec![8usize; g.n_cores()];
        let mut line = None;
        for now in 0..50 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            for (c, o) in out {
                if c == CoreId(0) {
                    if let GpuOut::LlcRead { line: l, .. } = o {
                        line.get_or_insert(l);
                    }
                }
            }
            if line.is_some() {
                break;
            }
        }
        let line = line.expect("core 0 issued a read");
        let mut out = Vec::new();
        g.deliver(
            CoreId(0),
            GpuIn::Delegated {
                line,
                requester: CoreId(7),
            },
            &mut out,
        );
        let mut out = Vec::new();
        g.tick(100, &budget, &budget, &mut out);
        assert_eq!(g.stats(CoreId(0)).delegated_delayed, 0);
        assert_eq!(g.stats(CoreId(0)).delegated_misses, 1);
        assert!(out.iter().any(|(c, o)| *c == CoreId(0)
            && matches!(o, GpuOut::LlcRead { dnf: true, requester, .. } if *requester == CoreId(7))));
    }

    #[test]
    fn deferred_probe_targets_flush_over_cycles() {
        // A probe burst bigger than the cycle budget must trickle out
        // over later cycles instead of being dropped.
        let mut g = subsystem(Scheme::RealisticProbing { fanout: 6 }, L1Org::Private);
        // Tiny budget: one message per cycle.
        let budget = vec![1usize; g.n_cores()];
        let mut probes = 0;
        for now in 0..400 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            probes += out
                .iter()
                .filter(|(c, o)| *c == CoreId(0) && matches!(o, GpuOut::Probe { .. }))
                .count();
        }
        assert!(
            probes >= 6,
            "deferred probes never flushed: only {probes} sent"
        );
    }

    #[test]
    fn probe_confidence_throttles_hopeless_probing() {
        // Feed core 0 nothing but probe failures; its global confidence
        // must collapse and probing must (mostly) stop.
        let mut g = subsystem(Scheme::RealisticProbing { fanout: 2 }, L1Org::Private);
        let budget = vec![16usize; g.n_cores()];
        let mut outstanding: Vec<(CoreId, LineAddr)> = Vec::new();
        let mut sent_late = 0usize;
        for now in 0..6_000u64 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            let mut sink = Vec::new();
            for (c, o) in out {
                match o {
                    GpuOut::Probe { line, .. } => {
                        outstanding.push((c, line));
                        if now > 4_000 {
                            sent_late += 1;
                        }
                    }
                    GpuOut::LlcRead {
                        line, requester, ..
                    } => {
                        // Perfect memory keeps the cores alive.
                        g.deliver(requester, GpuIn::Data { line, from: None }, &mut sink);
                    }
                    _ => {}
                }
            }
            // Every probe misses.
            for (c, line) in outstanding.drain(..) {
                g.deliver(c, GpuIn::ProbeMissReply { line }, &mut sink);
                g.deliver(c, GpuIn::ProbeMissReply { line }, &mut sink);
                for (cc, oo) in sink.drain(..) {
                    if let GpuOut::LlcRead { line, .. } = oo {
                        let mut s2 = Vec::new();
                        g.deliver(cc, GpuIn::Data { line, from: None }, &mut s2);
                    }
                }
            }
        }
        // Only the epsilon trickle (1/64 misses) may still probe.
        let total: u64 = (0..8).map(|i| g.stats(CoreId(i)).probes_sent).sum();
        assert!(total > 0, "never probed at all");
        assert!(
            sent_late < 200,
            "throttle failed: {sent_late} probes after confidence collapse"
        );
    }

    #[test]
    fn dyneb_clusters_adapt_at_epochs() {
        let cfg = GpuConfig {
            flush_interval: None,
            dyneb_epoch: 64,
            ..GpuConfig::default()
        };
        let mut g = GpuSubsystem::new(
            cfg,
            Scheme::Baseline,
            L1Org::DynEB,
            CtaSched::RoundRobin,
            gpu_benchmark("NN").unwrap(),
            8,
            5,
        );
        // Run with perfect memory long enough to cross several epochs;
        // the cluster must settle into SOME mode and keep retiring.
        let budget = vec![8usize; 8];
        for now in 0..2_000 {
            let mut out = Vec::new();
            g.tick(now, &budget, &budget, &mut out);
            perfect_memory(&mut g, out, now);
        }
        assert!(g.total_retired() > 2_000, "DynEB stalled the cores");
    }

    #[test]
    fn quiescent_ticks_equal_advance_integration() {
        // Starve two identical GPUs until next_event stops reporting
        // same-cycle work, then walk one through 500 dead cycles while
        // the other integrates them with advance(): stats must match.
        let mut a = subsystem(Scheme::Baseline, L1Org::Private);
        let mut b = subsystem(Scheme::Baseline, L1Org::Private);
        let budget = vec![16usize; a.n_cores()];
        let mut out = Vec::new();
        let mut now = 0u64;
        while a.next_event(now) == Some(now) {
            out.clear();
            a.tick(now, &budget, &budget, &mut out);
            out.clear();
            b.tick(now, &budget, &budget, &mut out);
            now += 1;
            assert!(now < 10_000, "starved GPU never quiesced");
        }
        assert_eq!(a.next_event(now), None, "no flush scheduled, no horizon");
        for t in now..now + 500 {
            out.clear();
            a.tick(t, &budget, &budget, &mut out);
            assert!(out.is_empty(), "quiescent GPU emitted {out:?}");
        }
        b.advance(500);
        for i in 0..a.n_cores() {
            let c = CoreId(i as u16);
            assert_eq!(a.stats(c), b.stats(c), "core {i} diverged");
        }
        assert_eq!(a.next_event(now + 500), None, "still quiescent");
    }

    #[test]
    fn next_event_reports_flush_and_epoch_horizons() {
        // Kernel flushes and DynEB epoch ends are timed horizons that
        // fast-forward must clamp to.
        let cfg = GpuConfig {
            flush_interval: Some(1000),
            ..GpuConfig::default()
        };
        let g = GpuSubsystem::new(
            cfg,
            Scheme::Baseline,
            L1Org::Private,
            CtaSched::RoundRobin,
            gpu_benchmark("HS").unwrap(),
            4,
            7,
        );
        // Fresh cores have same-cycle work (warps want to issue).
        assert_eq!(g.next_event(0), Some(0));
        let cfg = GpuConfig {
            flush_interval: None,
            dyneb_epoch: 64,
            ..GpuConfig::default()
        };
        let mut g = GpuSubsystem::new(
            cfg,
            Scheme::Baseline,
            L1Org::DynEB,
            CtaSched::RoundRobin,
            gpu_benchmark("HS").unwrap(),
            4,
            7,
        );
        let budget = vec![16usize; 4];
        let mut out = Vec::new();
        let mut now = 0u64;
        while g.next_event(now) == Some(now) {
            out.clear();
            g.tick(now, &budget, &budget, &mut out);
            now += 1;
            assert!(now < 10_000, "starved GPU never quiesced");
        }
        // A DynEB cluster always has a bounded horizon: at the latest
        // its epoch end (a lingering pure-compute countdown may report
        // an even earlier cycle, but never one past the boundary).
        let h = g.next_event(now).expect("DynEB keeps a horizon");
        assert!(h > now);
        let boundary = (now / 64 + 1) * 64;
        assert!(h <= boundary, "horizon {h} skips the epoch end {boundary}");
    }

    #[test]
    fn dcl1_dedups_shared_capacity() {
        // Fill the same shared lines via all cores; the cluster stores
        // each once, while private mode stores 8 copies.
        let cfg = GpuConfig {
            flush_interval: None,
            ..GpuConfig::default()
        };
        let mut g = GpuSubsystem::new(
            cfg,
            Scheme::Baseline,
            L1Org::DcL1,
            CtaSched::RoundRobin,
            gpu_benchmark("SC").unwrap(),
            8,
            3,
        );
        let mut out = Vec::new();
        for c in 0..8 {
            for l in 0..100u64 {
                g.deliver(
                    CoreId(c),
                    GpuIn::Data {
                        line: LineAddr(l),
                        from: None,
                    },
                    &mut out,
                );
            }
        }
        let total: usize = g
            .clusters
            .iter()
            .map(|cl| (0..100u64).filter(|&l| cl.probe(LineAddr(l))).count())
            .sum();
        assert_eq!(total, 100, "each line stored once in the cluster");
    }
}
