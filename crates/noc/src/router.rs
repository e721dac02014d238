//! Flat per-router state of one network: input-VC flit rings, VC
//! allocations, output-VC ownership, credits, the rotating iSLIP
//! pointers, and per-router occupancy/allocation bitsets.
//!
//! Every router's state lives in structure-of-arrays form on one
//! [`RouterState`]. Input VC (router `r`, port `p`, VC `v`) has the
//! router-local *bit* `p·V + v` and the flat index `vc_base[r] + bit`;
//! output VCs share that indexing (a router has as many output as input
//! ports). Per-port state — links, free-output-VC masks, iSLIP pointers,
//! congestion history — is indexed `port_base[r] + p`.
//!
//! Two bitsets per router mirror the VC state the tick loop searches:
//! `occ` (the VC buffers a flit) and `allocated` (the VC holds a route +
//! output VC). Two more park VCs that provably cannot move until one
//! event: `credit_wait` (an allocated head whose output VC has no credit;
//! only [`RouterState::return_credit`] on that VC wakes it) and
//! `va_sleep` (a head whose [`VaWait`] range has no free VC; only
//! [`RouterState::release_out`] of a VC in that range wakes it). Bit
//! `p·V + v` of a router lives in its word `word_base[r] + bit / 64`, so
//! a router with more than 64 input VCs (the 64-port crossbar) spans
//! several words.
//!
//! The switch- and VC-allocation *algorithms* live in
//! [`crate::network`], which has access to the packet slab and the
//! network interfaces; this module defines the state they operate on and
//! keeps the bitsets in step with it.

use crate::flit::{Flit, Slot};
use crate::topology::{PortLink, TopologyGraph};
use clognet_proto::snap::{SnapError, SnapReader, SnapWriter};
use clognet_proto::{Cycle, NodeId, Priority, TrafficClass, MAX_VCS_PER_PORT};
use std::ops::Range;

/// An output allocation held by an input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Alloc {
    /// Output port.
    pub port: u8,
    /// Output VC on that port (meaningless for ejection ports).
    pub vc: u8,
    /// True when the output port is the router's locally attached node
    /// (ejection): no output-VC ownership or credits apply, the NI eject
    /// buffer gates transfer instead.
    pub eject: bool,
}

/// A head flit's failed VC allocation on its single candidate port: it
/// waits for one of output VCs `lo..hi` of `port` to lose its owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VaWait {
    /// The candidate output port.
    pub port: u8,
    /// First output VC the head may take.
    pub lo: u8,
    /// One past the last output VC the head may take.
    pub hi: u8,
}

/// A [`PortLink`] packed into 32 bits: all ones for an unwired port,
/// bit 31 plus the node id for a node, else `router << 8 | port`. The
/// tick reads a link per traversal, and the packed form puts 16 ports
/// in a cache line where the 24-byte enum put fewer than 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link(u32);

impl Link {
    const UNUSED: u32 = u32::MAX;
    const NODE: u32 = 1 << 31;

    fn pack(l: PortLink) -> Link {
        match l {
            PortLink::Node(n) => Link(Self::NODE | u32::from(n.0)),
            PortLink::Router { router, port } => {
                assert!(router < 1 << 23 && port < 1 << 8, "link does not pack");
                Link((router as u32) << 8 | port as u32)
            }
            PortLink::Unused => Link(Self::UNUSED),
        }
    }

    fn unpack(self) -> PortLink {
        if self.0 == Self::UNUSED {
            PortLink::Unused
        } else if self.0 & Self::NODE != 0 {
            PortLink::Node(NodeId(self.0 as u16))
        } else {
            PortLink::Router {
                router: (self.0 >> 8) as usize,
                port: (self.0 & 0xff) as usize,
            }
        }
    }
}

/// Mask of bits `lo..hi` of a `u64` (`hi <= 64`).
fn range_mask(lo: usize, hi: usize) -> u64 {
    if lo >= hi {
        return 0;
    }
    (u64::MAX >> (64 - hi)) & (u64::MAX << lo)
}

/// State of every router of one network, flattened.
#[derive(Debug)]
pub(crate) struct RouterState {
    /// VCs per port (`V`).
    vcs: usize,
    /// Flit slots per input VC ring.
    depth: usize,
    /// `vc_base[r]..vc_base[r + 1]` — router `r`'s input (and output) VCs.
    vc_base: Vec<usize>,
    /// `port_base[r]..port_base[r + 1]` — router `r`'s ports.
    port_base: Vec<usize>,
    /// `word_base[r]..word_base[r + 1]` — router `r`'s bitset words.
    word_base: Vec<usize>,
    /// Per input VC: `depth` flit slots, a ring starting at `head`.
    ring: Vec<Flit>,
    head: Vec<u8>,
    len: Vec<u8>,
    /// Per input VC: route + output VC allocated to the packet at the
    /// head (set by VA when its head flit reaches the front, cleared when
    /// its tail flit departs).
    alloc: Vec<Option<Alloc>>,
    /// Per input VC: set when VA failed for the head flit on its single
    /// candidate port. The port and VC range are a pure function of the
    /// head at this router, so later attempts only re-test the port's
    /// free-VC mask. Cleared when the VC is allocated (the head cannot
    /// leave before), rebuilt empty on restore; never serialized.
    va_wait: Vec<Option<VaWait>>,
    /// Per output VC: which (input port, input VC) owns the downstream VC
    /// (`None` = free). Ejection ports never take owners.
    owner: Vec<Option<(u8, u8)>>,
    /// Per output VC: free buffer slots in the downstream input VC.
    credits: Vec<u8>,
    /// Per port: what the port connects to.
    links: Vec<Link>,
    /// Per port: bit `v` set while output VC `v` has no owner.
    out_free: Vec<u64>,
    /// Per port: iSLIP grant pointer (rotates over input-VC ids).
    pub grant_ptr: Vec<usize>,
    /// Per port: iSLIP accept pointer (rotates over the port's VCs).
    pub accept_ptr: Vec<usize>,
    /// Per port: HARE congestion history (EWMA of free credits).
    pub hare_score: Vec<f64>,
    /// Per port: Footprint's cycle of the last profitable adaptive use.
    pub footprint: Vec<Cycle>,
    /// Per router words: the four bitsets of 64 input VCs, side by side
    /// so the tick's test of a router reads one 32-byte record.
    bits: Vec<Word>,
}

/// Four bitsets over 64 input VCs of one router.
#[derive(Debug, Clone, Copy, Default)]
struct Word {
    /// The input VC buffers at least one flit.
    occ: u64,
    /// The input VC holds an allocation.
    allocated: u64,
    /// Allocated, non-ejecting input VC whose output VC has no credit.
    /// Its head cannot traverse, so it keeps its output VC until a credit
    /// returns there. Derived state: never serialized, cleared on
    /// restore.
    credit_wait: u64,
    /// Unallocated input VC whose [`VaWait`] range has no free output
    /// VC. Only a release in that range can change the answer. Derived
    /// state, like `credit_wait`.
    va_sleep: u64,
}

const EMPTY_FLIT: Flit = Flit {
    slot: 0,
    idx: 0,
    total: 0,
    prio: Priority::Gpu,
    class: TrafficClass::Request,
    eligible: 0,
};

impl RouterState {
    /// State for every router of `topo`: `vcs` VCs per port, `depth`
    /// flits of buffer per input VC and as much credit per output VC.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` exceeds the 64 bits of a free-VC mask
    /// ([`MAX_VCS_PER_PORT`]).
    pub fn new(topo: &TopologyGraph, vcs: usize, depth: u8) -> Self {
        assert!(
            vcs <= MAX_VCS_PER_PORT,
            "at most {MAX_VCS_PER_PORT} VCs per port"
        );
        let routers = topo.routers();
        let (mut vc_base, mut port_base, mut word_base) = (vec![0], vec![0], vec![0]);
        let mut links = Vec::new();
        for r in 0..routers {
            let ports = topo.port_count(r);
            links.extend((0..ports).map(|p| Link::pack(topo.link(r, p))));
            port_base.push(port_base[r] + ports);
            vc_base.push(vc_base[r] + ports * vcs);
            word_base.push(word_base[r] + (ports * vcs).div_ceil(64));
        }
        let (n_vcs, n_ports, n_words) = (vc_base[routers], port_base[routers], word_base[routers]);
        let depth = depth as usize;
        RouterState {
            vcs,
            depth,
            ring: vec![EMPTY_FLIT; n_vcs * depth],
            head: vec![0; n_vcs],
            len: vec![0; n_vcs],
            alloc: vec![None; n_vcs],
            va_wait: vec![None; n_vcs],
            owner: vec![None; n_vcs],
            credits: vec![depth as u8; n_vcs],
            links,
            out_free: vec![range_mask(0, vcs); n_ports],
            grant_ptr: vec![0; n_ports],
            accept_ptr: vec![0; n_ports],
            hare_score: vec![0.0; n_ports],
            footprint: vec![0; n_ports],
            bits: vec![Word::default(); n_words],
            vc_base,
            port_base,
            word_base,
        }
    }

    /// Ports of router `r`.
    pub fn ports(&self, r: usize) -> usize {
        self.port_base[r + 1] - self.port_base[r]
    }

    /// Input VCs of router `r` (`ports · V`, the router's bit count).
    pub fn bits(&self, r: usize) -> usize {
        self.vc_base[r + 1] - self.vc_base[r]
    }

    /// Flat index of router `r`'s port `p`.
    pub fn port_ix(&self, r: usize, p: usize) -> usize {
        self.port_base[r] + p
    }

    /// Flat index of router `r`'s input (or output) VC `bit`.
    pub fn vc_ix(&self, r: usize, bit: usize) -> usize {
        self.vc_base[r] + bit
    }

    /// What router `r`'s port `p` connects to.
    pub fn link(&self, r: usize, p: usize) -> PortLink {
        self.links[self.port_base[r] + p].unpack()
    }

    /// Router `r`'s bitset words, as flat word indices.
    pub fn words(&self, r: usize) -> Range<usize> {
        self.word_base[r]..self.word_base[r + 1]
    }

    /// Whether router `r` has an input VC the tick visits (occupied and
    /// not parked). Without one, neither VA nor SA has anything to do at
    /// the router.
    pub fn has_work(&self, r: usize) -> bool {
        self.words(r)
            .any(|w| self.unallocated_word(w) | self.allocated_word(w) != 0)
    }

    /// Occupied input VCs of word `w` that still need VC allocation and
    /// are not asleep.
    pub fn unallocated_word(&self, w: usize) -> u64 {
        let b = &self.bits[w];
        b.occ & !b.allocated & !b.va_sleep
    }

    /// Occupied input VCs of word `w` that hold an allocation and are not
    /// waiting for a credit.
    pub fn allocated_word(&self, w: usize) -> u64 {
        let b = &self.bits[w];
        b.occ & b.allocated & !b.credit_wait
    }

    /// Flits buffered in input VC `ix`.
    pub fn len(&self, ix: usize) -> usize {
        self.len[ix] as usize
    }

    /// The allocation held by input VC `ix`.
    pub fn alloc(&self, ix: usize) -> Option<Alloc> {
        self.alloc[ix]
    }

    /// The recorded VA failure of input VC `ix`'s head flit.
    pub fn va_wait(&self, ix: usize) -> Option<VaWait> {
        self.va_wait[ix]
    }

    /// Record that router `r`'s input VC `bit` failed VA as `wait` says,
    /// and put it to sleep until an output VC in that range is released.
    pub fn set_va_wait(&mut self, r: usize, bit: usize, wait: VaWait) {
        self.va_wait[self.vc_base[r] + bit] = Some(wait);
        let (w, m) = self.bit_of(r, bit);
        self.bits[w].va_sleep |= m;
    }

    /// Park router `r`'s input VC `bit` (allocated, not ejecting) until a
    /// credit returns to its output VC, which is empty now.
    pub fn park_credit(&mut self, r: usize, bit: usize) {
        let (w, m) = self.bit_of(r, bit);
        self.bits[w].credit_wait |= m;
    }

    /// The flit at the head of input VC `ix`, if any.
    pub fn front(&self, ix: usize) -> Option<&Flit> {
        (self.len[ix] > 0).then(|| &self.ring[ix * self.depth + self.head[ix] as usize])
    }

    fn bit_of(&self, r: usize, bit: usize) -> (usize, u64) {
        (self.word_base[r] + bit / 64, 1u64 << (bit % 64))
    }

    /// Append `f` to router `r`'s input VC `bit`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full: credits (or the NI's own check) must
    /// have prevented the send.
    pub fn push(&mut self, r: usize, bit: usize, f: Flit) {
        let ix = self.vc_base[r] + bit;
        let len = self.len[ix] as usize;
        assert!(
            len < self.depth,
            "VC overflow at router {r} port {} vc {}: credits violated",
            bit / self.vcs,
            bit % self.vcs
        );
        let mut slot = self.head[ix] as usize + len;
        if slot >= self.depth {
            slot -= self.depth;
        }
        self.ring[ix * self.depth + slot] = f;
        self.len[ix] += 1;
        let (w, m) = self.bit_of(r, bit);
        self.bits[w].occ |= m;
    }

    /// Remove and return the head flit of router `r`'s input VC `bit`.
    pub fn pop(&mut self, r: usize, bit: usize) -> Flit {
        let ix = self.vc_base[r] + bit;
        assert!(self.len[ix] > 0, "pop from an empty VC");
        let head = self.head[ix] as usize;
        let f = self.ring[ix * self.depth + head];
        self.head[ix] = if head + 1 == self.depth {
            0
        } else {
            head as u8 + 1
        };
        self.len[ix] -= 1;
        if self.len[ix] == 0 {
            let (w, m) = self.bit_of(r, bit);
            self.bits[w].occ &= !m;
        }
        f
    }

    /// Give router `r`'s input VC `bit` its allocation.
    pub fn set_alloc(&mut self, r: usize, bit: usize, a: Alloc) {
        self.alloc[self.vc_base[r] + bit] = Some(a);
        self.va_wait[self.vc_base[r] + bit] = None;
        let (w, m) = self.bit_of(r, bit);
        self.bits[w].allocated |= m;
    }

    /// Drop router `r`'s input VC `bit`'s allocation (its tail left).
    pub fn clear_alloc(&mut self, r: usize, bit: usize) {
        self.alloc[self.vc_base[r] + bit] = None;
        let (w, m) = self.bit_of(r, bit);
        self.bits[w].allocated &= !m;
    }

    /// Lowest output VC in `lo..hi` of router `r`'s port `p` without an
    /// owner. `use_mask` reads the port's free-VC mask; without it the
    /// owner array is scanned (the reference mode); both agree.
    pub fn first_free_out(
        &self,
        r: usize,
        p: usize,
        lo: usize,
        hi: usize,
        use_mask: bool,
    ) -> Option<usize> {
        if use_mask {
            let free = self.out_free[self.port_base[r] + p] & range_mask(lo, hi);
            (free != 0).then(|| free.trailing_zeros() as usize)
        } else {
            let base = self.vc_base[r] + p * self.vcs;
            (lo..hi).find(|&v| self.owner[base + v].is_none())
        }
    }

    /// Hand router `r`'s output VC (`p`, `v`) to input (`i`, `iv`).
    pub fn claim_out(&mut self, r: usize, p: usize, v: usize, i: usize, iv: usize) {
        self.owner[self.vc_base[r] + p * self.vcs + v] = Some((i as u8, iv as u8));
        self.out_free[self.port_base[r] + p] &= !(1 << v);
    }

    /// Free router `r`'s output VC (`p`, `v`) (its packet's tail left),
    /// waking the router's VA sleepers that wait on port `p` with `v` in
    /// their range.
    pub fn release_out(&mut self, r: usize, p: usize, v: usize) {
        self.owner[self.vc_base[r] + p * self.vcs + v] = None;
        self.out_free[self.port_base[r] + p] |= 1 << v;
        let (vb, wb) = (self.vc_base[r], self.word_base[r]);
        for w in self.words(r) {
            let mut sleepers = self.bits[w].va_sleep;
            while sleepers != 0 {
                let low = sleepers.trailing_zeros() as usize;
                let (bit, m) = ((w - wb) * 64 + low, 1u64 << low);
                sleepers &= sleepers - 1;
                let wait = self.va_wait[vb + bit].expect("a sleeper holds a VaWait");
                if wait.port as usize == p && (wait.lo as usize..wait.hi as usize).contains(&v) {
                    self.bits[w].va_sleep &= !m;
                }
            }
        }
    }

    /// Credits of router `r`'s output VC (`p`, `v`).
    pub fn credits(&self, r: usize, p: usize, v: usize) -> u8 {
        self.credits[self.vc_base[r] + p * self.vcs + v]
    }

    /// Spend one credit of router `r`'s output VC (`p`, `v`).
    pub fn take_credit(&mut self, r: usize, p: usize, v: usize) {
        let c = &mut self.credits[self.vc_base[r] + p * self.vcs + v];
        debug_assert!(*c > 0);
        *c -= 1;
    }

    /// Return one credit to router `r`'s output VC (`p`, `v`). The first
    /// credit back unparks the input VC that owns the output VC: a parked
    /// owner cannot traverse without a credit, so it is still the owner.
    ///
    /// # Panics
    ///
    /// Panics if the VC would hold more credits than the downstream
    /// buffer has slots.
    pub fn return_credit(&mut self, r: usize, p: usize, v: usize) {
        let ix = self.vc_base[r] + p * self.vcs + v;
        let c = &mut self.credits[ix];
        *c += 1;
        assert!(
            *c as usize <= self.depth,
            "credit overflow at router {r} port {p} vc {v}"
        );
        if *c == 1 {
            if let Some((i, iv)) = self.owner[ix] {
                let (w, m) = self.bit_of(r, i as usize * self.vcs + iv as usize);
                self.bits[w].credit_wait &= !m;
            }
        }
    }

    /// Total free credits over the VC index range `[lo, hi)` of router
    /// `r`'s output port `p` (the DyXY congestion metric).
    pub fn free_credits(&self, r: usize, p: usize, lo: usize, hi: usize) -> u32 {
        let base = self.vc_base[r] + p * self.vcs;
        self.credits[base + lo..base + hi]
            .iter()
            .map(|&c| c as u32)
            .sum()
    }

    /// Total flits buffered in router `r`.
    pub fn buffered(&self, r: usize) -> usize {
        self.len[self.vc_base[r]..self.vc_base[r + 1]]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }

    /// Total flits buffered in every router.
    pub fn buffered_total(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    /// Whether router `r`'s bitsets and free-VC masks equal what its
    /// buffers, allocations and owners say, and every parked VC really
    /// cannot move: a credit waiter is occupied, allocated, not ejecting
    /// and its output VC has no credit; a VA sleeper is occupied,
    /// unallocated and its `VaWait` range has no free VC.
    /// Allocation-free, so debug builds can check it after every tick.
    pub fn bitsets_consistent(&self, r: usize) -> bool {
        let (vb, wb, bits) = (self.vc_base[r], self.word_base[r], self.bits(r));
        let bits_ok = (0..bits).all(|bit| {
            let (w, m) = (wb + bit / 64, 1u64 << (bit % 64));
            let (ix, occ) = (vb + bit, self.bits[w].occ & m != 0);
            let alloc = self.alloc[ix];
            let credit_ok = self.bits[w].credit_wait & m == 0
                || occ
                    && alloc.is_some_and(|a| {
                        !a.eject && self.credits(r, a.port as usize, a.vc as usize) == 0
                    });
            let sleep_ok = self.bits[w].va_sleep & m == 0
                || occ
                    && alloc.is_none()
                    && self.va_wait[ix].is_some_and(|wait| {
                        let (p, lo, hi) = (wait.port as usize, wait.lo as usize, wait.hi as usize);
                        self.first_free_out(r, p, lo, hi, true).is_none()
                    });
            (self.len[ix] > 0) == occ
                && alloc.is_some() == (self.bits[w].allocated & m != 0)
                && credit_ok
                && sleep_ok
        });
        // Bits past the router's last VC stay clear.
        let last = self.word_base[r + 1] - 1;
        let spare = !range_mask(0, bits - 64 * (last - wb));
        let spare_ok = {
            let b = &self.bits[last];
            (b.occ | b.allocated | b.credit_wait | b.va_sleep) & spare == 0
        };
        let free_ok = (0..self.ports(r))
            .all(|p| self.out_free[self.port_base[r] + p] == self.owner_free(r, p));
        bits_ok && spare_ok && free_ok
    }

    /// Router `r`'s port `p` free-VC mask, as its owner array says.
    fn owner_free(&self, r: usize, p: usize) -> u64 {
        let base = self.vc_base[r] + p * self.vcs;
        (0..self.vcs)
            .filter(|&v| self.owner[base + v].is_none())
            .fold(0, |m, v| m | 1 << v)
    }

    /// Serialize router after router in the original nested order: each
    /// input VC's flits and allocation (port-major), then output-VC
    /// owners, credits, and the per-port pointers and histories.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for r in 0..self.port_base.len() - 1 {
            let vcs = self.vc_base[r]..self.vc_base[r + 1];
            for ix in vcs.clone() {
                w.usize(self.len[ix] as usize);
                for k in 0..self.len[ix] as usize {
                    let f = &self.ring[ix * self.depth + (self.head[ix] as usize + k) % self.depth];
                    w.u32(f.slot);
                    w.u8(f.idx);
                    w.u8(f.total);
                    w.u64(f.eligible);
                }
                match self.alloc[ix] {
                    Some(a) => {
                        w.bool(true);
                        w.u8(a.port);
                        w.u8(a.vc);
                        w.bool(a.eject);
                    }
                    None => w.bool(false),
                }
            }
            for ix in vcs.clone() {
                match self.owner[ix] {
                    Some((i, v)) => {
                        w.bool(true);
                        w.u8(i);
                        w.u8(v);
                    }
                    None => w.bool(false),
                }
            }
            for ix in vcs {
                w.u8(self.credits[ix]);
            }
            let ports = self.port_base[r]..self.port_base[r + 1];
            for p in ports.clone() {
                w.usize(self.grant_ptr[p]);
            }
            for p in ports.clone() {
                w.usize(self.accept_ptr[p]);
            }
            for p in ports.clone() {
                w.f64(self.hare_score[p]);
            }
            for p in ports {
                w.u64(self.footprint[p]);
            }
        }
    }

    /// Inverse of [`Self::save_state`]. `meta` resolves a flit's packet
    /// slot to the (priority, class) the flit caches; the bitsets and
    /// free-VC masks are rebuilt from the restored arrays.
    pub fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        meta: impl Fn(Slot) -> Option<(Priority, TrafficClass)>,
    ) -> Result<(), SnapError> {
        for router in 0..self.port_base.len() - 1 {
            let vcs = self.vc_base[router]..self.vc_base[router + 1];
            for ix in vcs.clone() {
                let n = r.usize()?;
                if n > self.depth {
                    return Err(SnapError::Corrupt("VC holds more flits than its buffer"));
                }
                self.head[ix] = 0;
                self.len[ix] = n as u8;
                for k in 0..n {
                    let slot = r.u32()?;
                    let (idx, total) = (r.u8()?, r.u8()?);
                    let (prio, class) =
                        meta(slot).ok_or(SnapError::Corrupt("flit of a dead packet"))?;
                    self.ring[ix * self.depth + k] = Flit {
                        slot,
                        idx,
                        total,
                        prio,
                        class,
                        eligible: r.u64()?,
                    };
                }
                self.alloc[ix] = if r.bool()? {
                    Some(Alloc {
                        port: r.u8()?,
                        vc: r.u8()?,
                        eject: r.bool()?,
                    })
                } else {
                    None
                };
            }
            for ix in vcs.clone() {
                self.owner[ix] = if r.bool()? {
                    Some((r.u8()?, r.u8()?))
                } else {
                    None
                };
            }
            for ix in vcs {
                self.credits[ix] = r.u8()?;
            }
            let ports = self.port_base[router]..self.port_base[router + 1];
            for p in ports.clone() {
                self.grant_ptr[p] = r.usize()?;
            }
            for p in ports.clone() {
                self.accept_ptr[p] = r.usize()?;
            }
            for p in ports.clone() {
                self.hare_score[p] = r.f64()?;
            }
            for p in ports {
                self.footprint[p] = r.u64()?;
            }
        }
        self.rebuild_bitsets();
        Ok(())
    }

    fn rebuild_bitsets(&mut self) {
        self.va_wait.fill(None);
        self.bits.fill(Word::default());
        for r in 0..self.port_base.len() - 1 {
            for bit in 0..self.bits(r) {
                let ix = self.vc_base[r] + bit;
                let (w, m) = self.bit_of(r, bit);
                if self.len[ix] > 0 {
                    self.bits[w].occ |= m;
                }
                if self.alloc[ix].is_some() {
                    self.bits[w].allocated |= m;
                }
            }
            for p in 0..self.ports(r) {
                self.out_free[self.port_base[r] + p] = self.owner_free(r, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_proto::Topology;

    fn state(vcs: usize) -> RouterState {
        // Router 0 of a 2x2 mesh: 5 ports (local + 4 directions).
        RouterState::new(&TopologyGraph::build(Topology::Mesh, 2, 2), vcs, 4)
    }

    fn flit(slot: Slot) -> Flit {
        Flit { slot, ..EMPTY_FLIT }
    }

    #[test]
    fn new_router_is_empty_with_full_credits() {
        let s = state(4);
        assert_eq!(s.ports(0), 5);
        assert_eq!(s.bits(0), 20);
        assert_eq!(s.buffered(0), 0);
        assert_eq!(s.unallocated_word(s.words(0).start), 0);
        assert_eq!(s.free_credits(0, 2, 0, 4), 16);
    }

    #[test]
    fn packed_links_round_trip_on_every_topology() {
        for kind in Topology::ALL {
            let topo = TopologyGraph::build(kind, 8, 8);
            let s = RouterState::new(&topo, 2, 4);
            for r in 0..topo.routers() {
                for p in 0..topo.port_count(r) {
                    assert_eq!(
                        s.link(r, p),
                        topo.link(r, p),
                        "{kind:?} router {r} port {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn free_credits_respects_range() {
        let mut s = state(4);
        for _ in 0..4 {
            s.take_credit(0, 1, 0);
        }
        s.take_credit(0, 1, 1);
        s.take_credit(0, 1, 1);
        assert_eq!(s.free_credits(0, 1, 0, 2), 2);
        assert_eq!(s.free_credits(0, 1, 2, 4), 8);
    }

    #[test]
    fn ring_is_fifo_across_wraparound_and_tracks_occupancy() {
        let mut s = state(2);
        let bit = 3; // port 1, vc 1
        for round in 0..3u32 {
            for k in 0..3 {
                s.push(0, bit, flit(round * 10 + k));
            }
            assert_eq!(s.buffered(0), 3);
            assert_eq!(s.unallocated_word(s.words(0).start), 1 << bit);
            for k in 0..3 {
                assert_eq!(s.pop(0, bit).slot, round * 10 + k);
            }
            assert_eq!(s.unallocated_word(s.words(0).start), 0);
        }
        assert!(s.bitsets_consistent(0));
    }

    #[test]
    fn wide_routers_span_several_words() {
        // A 64-port crossbar with 4 VCs has 256 input VCs: four words.
        let mut s = RouterState::new(&TopologyGraph::build(Topology::Crossbar, 8, 8), 4, 4);
        assert_eq!(s.words(0).len(), 4);
        s.push(0, 200, flit(1));
        s.set_alloc(
            0,
            200,
            Alloc {
                port: 9,
                vc: 0,
                eject: true,
            },
        );
        assert_eq!(s.allocated_word(3), 1 << (200 - 192));
        assert_eq!(s.unallocated_word(3), 0);
        assert!(s.bitsets_consistent(0));
    }

    #[test]
    fn free_vc_mask_agrees_with_owner_scan() {
        let mut s = state(4);
        s.claim_out(0, 2, 0, 1, 0);
        s.claim_out(0, 2, 2, 3, 1);
        for (lo, hi) in [(0, 4), (1, 4), (2, 3), (3, 4), (2, 2)] {
            assert_eq!(
                s.first_free_out(0, 2, lo, hi, true),
                s.first_free_out(0, 2, lo, hi, false),
                "{lo}..{hi}"
            );
        }
        assert_eq!(s.first_free_out(0, 2, 0, 4, true), Some(1));
        s.release_out(0, 2, 0);
        assert_eq!(s.first_free_out(0, 2, 0, 4, true), Some(0));
        assert!(s.bitsets_consistent(0));
    }

    /// Occupy router 0's input VC `bit` and allocate it output VC
    /// (`port`, `vc`), which it claims.
    fn allocated(s: &mut RouterState, bit: usize, port: usize, vc: usize) {
        s.push(0, bit, flit(bit as Slot));
        s.claim_out(0, port, vc, bit / s.vcs, bit % s.vcs);
        let a = Alloc {
            port: port as u8,
            vc: vc as u8,
            eject: false,
        };
        s.set_alloc(0, bit, a);
    }

    #[test]
    fn return_credit_unparks_exactly_the_owning_input_vc() {
        let mut s = state(2);
        // Input VCs 2 and 5 own output VCs 0 and 1 of port 3.
        allocated(&mut s, 2, 3, 0);
        allocated(&mut s, 5, 3, 1);
        for v in 0..2 {
            for _ in 0..4 {
                s.take_credit(0, 3, v);
            }
        }
        s.park_credit(0, 2);
        s.park_credit(0, 5);
        let w = s.words(0).start;
        assert_eq!(s.allocated_word(w), 0);
        assert!(s.bitsets_consistent(0));
        // The first credit back to an output VC nobody owns unparks
        // nobody.
        for _ in 0..4 {
            s.take_credit(0, 4, 0);
        }
        s.return_credit(0, 4, 0);
        assert_eq!(s.allocated_word(w), 0);
        s.return_credit(0, 3, 1);
        assert_eq!(s.allocated_word(w), 1 << 5);
        s.return_credit(0, 3, 0);
        assert_eq!(s.allocated_word(w), 1 << 2 | 1 << 5);
        assert!(s.bitsets_consistent(0));
    }

    #[test]
    fn release_out_wakes_only_sleepers_whose_range_holds_the_vc() {
        let mut s = state(2);
        // Every output VC of ports 2 and 3 is owned (by input VCs of
        // ports 1 and 4).
        allocated(&mut s, 2, 2, 0);
        allocated(&mut s, 3, 2, 1);
        allocated(&mut s, 8, 3, 0);
        allocated(&mut s, 9, 3, 1);
        // Three heads wait: port 2 VCs 0..2, port 2 VC 1, port 3 VCs 0..2.
        let waits = [(0, 2, 0, 2), (1, 2, 1, 2), (6, 3, 0, 2)];
        for (bit, port, lo, hi) in waits {
            s.push(0, bit, flit(bit as Slot));
            s.set_va_wait(0, bit, VaWait { port, lo, hi });
        }
        let w = s.words(0).start;
        assert_eq!(s.unallocated_word(w), 0);
        assert!(s.bitsets_consistent(0));
        s.release_out(0, 2, 0);
        assert_eq!(s.unallocated_word(w), 1 << 0, "only port 2's 0..2 waiter");
        s.release_out(0, 3, 1);
        assert_eq!(s.unallocated_word(w), 1 << 0 | 1 << 6);
        assert!(s.bitsets_consistent(0));
    }
}
