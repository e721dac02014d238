//! Versioned binary snapshot encoding.
//!
//! The snapshot/restore engine serializes the complete mutable state of a
//! running simulation so a warmed-up `System` can be forked into many
//! parameter variants, resumed in a later process, or cached by the
//! simulation service. The encoding is deliberately simple and fully
//! deterministic:
//!
//! * every integer is written as a fixed-width little-endian value
//!   (`u8`/`u32`/`u64`); `usize` is widened to `u64`;
//! * `f64` round-trips through [`f64::to_bits`], so restored floats are
//!   bit-identical (the HARE routing scores are EWMAs);
//! * collections are written as a `u64` length followed by the elements
//!   in a canonical order (hash maps are always sorted by key before
//!   encoding);
//! * the stream starts with an 8-byte magic and a `u32` format version,
//!   so truncated or foreign bytes are rejected before any state is
//!   touched.
//!
//! Byte-stability is a hard requirement: the warm-start sweep machinery
//! certifies itself by `cmp`-ing reports from forked and cold runs, and
//! the serve-side snapshot cache keys entries by content fingerprint.
//! Anything order-dependent (hash-map iteration) must therefore never
//! leak into the encoding. See DESIGN §12 for the full field-order
//! specification.
//!
//! ## Example
//!
//! ```
//! use clognet_proto::snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::with_header();
//! w.u64(7);
//! w.str("hello");
//! w.f64(0.25);
//! let bytes = w.into_bytes();
//!
//! let mut r = SnapReader::new(&bytes).unwrap();
//! assert_eq!(r.u64().unwrap(), 7);
//! assert_eq!(r.str().unwrap(), "hello");
//! assert_eq!(r.f64().unwrap(), 0.25);
//! r.finish().unwrap();
//! ```

use crate::config::{
    CacheGeometry, ConfigError, ControlConfig, ControlPolicyKind, CpuConfig, CtaSched, DrKnobs,
    DramConfig, FabricConfig, FabricInterleave, FabricTopology, GpuConfig, L1Org, LayoutKind,
    LlcConfig, NocConfig, RoutingPolicy, Scheme, SystemConfig, Topology, VirtualNetConfig,
};
use crate::ids::{Addr, NodeId};
use crate::knobs::Knob;
use crate::packet::{MsgKind, Packet, PacketId, Priority};
use std::fmt;

/// Magic bytes opening every snapshot stream.
pub const SNAP_MAGIC: [u8; 8] = *b"CLOGSNAP";

/// Snapshot format version. Bump whenever the field order or the set of
/// serialized fields changes; old snapshots are rejected rather than
/// misinterpreted.
///
/// * v1 — initial format.
/// * v2 — [`SystemConfig`] gained the optional inter-chip fabric tail,
///   and system bodies open with a chip-arrangement tag (single-chip
///   vs. multi-chip).
/// * v3 — [`SystemConfig`] gained the optional adaptive-control tail;
///   system bodies carry the controller state + decision log, and the
///   telemetry episode detector carries its configurable thresholds
///   plus merge bookkeeping.
/// * v4 — [`SystemConfig`] lost four fields nothing simulated (the GPU
///   and CPU L1 hit latencies, the core-side injection queue depth and
///   threads per warp); network bodies no longer carry the per-NI
///   refused-injection flags, which are always clear at a snapshot
///   boundary.
pub const SNAP_VERSION: u32 = 4;

/// Why a snapshot byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected field.
    Truncated,
    /// The stream does not start with [`SNAP_MAGIC`] — not a snapshot.
    BadMagic,
    /// The stream is a snapshot of an incompatible format version.
    BadVersion(u32),
    /// An enum tag outside the known range; `what` names the field.
    BadTag {
        /// The field being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// Decoding finished with unread bytes left over.
    TrailingBytes(usize),
    /// A decoded value violates a structural invariant (e.g. a slot
    /// index beyond the packet table).
    Corrupt(&'static str),
    /// The snapshot's chip arrangement does not match the restoring
    /// system: a single-chip snapshot fed to a multi-chip config, or
    /// vice versa, or a different chip count.
    ChipMismatch {
        /// Chips recorded in the snapshot (1 = single-chip body).
        snapshot: usize,
        /// Chips the restoring system expects.
        expected: usize,
    },
    /// The decoded configuration fails [`SystemConfig::validate`]: no
    /// system can be built from it.
    Config(ConfigError),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a clognet snapshot (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAP_VERSION})"
                )
            }
            SnapError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            SnapError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::ChipMismatch { snapshot, expected } => write!(
                f,
                "snapshot chip arrangement mismatch: snapshot has {snapshot} chip(s), \
                 system expects {expected}"
            ),
            SnapError::Config(e) => write!(f, "snapshot config cannot be built: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder producing a snapshot byte stream (after the
/// caller-written header; see [`SnapWriter::header`]).
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Empty writer (no header yet).
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Writer opened with the magic + version header.
    pub fn with_header() -> Self {
        let mut w = SnapWriter::new();
        w.header();
        w
    }

    /// Write the magic + version header.
    pub fn header(&mut self) {
        self.buf.extend_from_slice(&SNAP_MAGIC);
        self.u32(SNAP_VERSION);
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i32` (two's complement, little-endian).
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write an `f64` via its IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write an `Option<u64>` as presence byte + value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }
}

/// Cursor decoding a snapshot byte stream produced by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Open a reader and validate the magic + version header.
    pub fn new(buf: &'a [u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::raw(buf);
        r.check_header()?;
        Ok(r)
    }

    /// Open a reader with no header (for embedded sub-streams).
    pub fn raw(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn check_header(&mut self) -> Result<(), SnapError> {
        let magic = self.take(8)?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = self.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapError> {
        Ok(i32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `usize` (written as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Read a `bool`; any byte other than 0/1 is an error.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag {
                what: "bool",
                tag: u64::from(t),
            }),
        }
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the whole stream was consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

fn tag_err(what: &'static str, tag: u8) -> SnapError {
    SnapError::BadTag {
        what,
        tag: u64::from(tag),
    }
}

/// Encode a [`Packet`] (all ten fields, including the stored flit count —
/// flit counts are captured, not re-derived, so snapshots survive config
/// overlays).
pub fn save_packet(w: &mut SnapWriter, p: &Packet) {
    w.u64(p.id.0);
    w.u16(p.src.0);
    w.u16(p.dst.0);
    w.u8(msg_kind_tag(p.kind));
    w.u8(match p.prio {
        Priority::Cpu => 0,
        Priority::Gpu => 1,
    });
    w.u64(p.addr.0);
    w.u8(p.flits);
    w.u64(p.created);
    w.u16(p.requester.0);
    w.bool(p.dnf);
}

/// Decode a [`Packet`] written by [`save_packet`].
pub fn load_packet(r: &mut SnapReader<'_>) -> Result<Packet, SnapError> {
    Ok(Packet {
        id: PacketId(r.u64()?),
        src: NodeId(r.u16()?),
        dst: NodeId(r.u16()?),
        kind: msg_kind_from(r.u8()?)?,
        prio: match r.u8()? {
            0 => Priority::Cpu,
            1 => Priority::Gpu,
            t => return Err(tag_err("priority", t)),
        },
        addr: Addr(r.u64()?),
        flits: r.u8()?,
        created: r.u64()?,
        requester: NodeId(r.u16()?),
        dnf: r.bool()?,
    })
}

/// The stable wire tag of a [`MsgKind`] (shared by packet and
/// reply-queue codecs).
pub fn msg_kind_tag(k: MsgKind) -> u8 {
    match k {
        MsgKind::ReadReq => 0,
        MsgKind::WriteReq => 1,
        MsgKind::ReadReply => 2,
        MsgKind::WriteAck => 3,
        MsgKind::DelegatedReply => 4,
        MsgKind::ProbeReq => 5,
        MsgKind::ProbeMiss => 6,
        MsgKind::ProbeHit => 7,
        MsgKind::FetchReq => 8,
    }
}

/// Decode a [`MsgKind`] wire tag written by [`msg_kind_tag`].
pub fn msg_kind_from(t: u8) -> Result<MsgKind, SnapError> {
    Ok(match t {
        0 => MsgKind::ReadReq,
        1 => MsgKind::WriteReq,
        2 => MsgKind::ReadReply,
        3 => MsgKind::WriteAck,
        4 => MsgKind::DelegatedReply,
        5 => MsgKind::ProbeReq,
        6 => MsgKind::ProbeMiss,
        7 => MsgKind::ProbeHit,
        8 => MsgKind::FetchReq,
        t => return Err(tag_err("msg_kind", t)),
    })
}

fn save_geometry(w: &mut SnapWriter, g: &CacheGeometry) {
    w.u64(g.capacity_bytes);
    w.u32(g.ways);
    w.u32(g.line_bytes);
}

fn load_geometry(r: &mut SnapReader<'_>) -> Result<CacheGeometry, SnapError> {
    Ok(CacheGeometry {
        capacity_bytes: r.u64()?,
        ways: r.u32()?,
        line_bytes: r.u32()?,
    })
}

/// Encode the full [`SystemConfig`] (every field, declaration order;
/// enums as their [`Knob`] tags). Execution-mode knobs (`--threads`,
/// `--no-ff`) are not part of `SystemConfig` and therefore
/// never enter a snapshot — nor the job fingerprint, which hashes these
/// bytes.
pub fn save_config(w: &mut SnapWriter, c: &SystemConfig) {
    c.layout.save(w);
    w.usize(c.mesh_width);
    w.usize(c.mesh_height);
    w.usize(c.n_gpu);
    w.usize(c.n_cpu);
    w.usize(c.n_mem);
    // gpu
    w.usize(c.gpu.warps_per_core);
    w.usize(c.gpu.issue_width);
    save_geometry(w, &c.gpu.l1);
    w.usize(c.gpu.mshrs);
    w.usize(c.gpu.frq_entries);
    w.usize(c.gpu.l1_ports);
    w.usize(c.gpu.cluster_cores);
    w.usize(c.gpu.cluster_slices);
    w.u64(c.gpu.dyneb_epoch);
    w.opt_u64(c.gpu.flush_interval);
    // cpu
    save_geometry(w, &c.cpu.l1);
    w.usize(c.cpu.window);
    // llc
    save_geometry(w, &c.llc.slice);
    w.u32(c.llc.latency);
    w.usize(c.llc.ports);
    // dram
    w.usize(c.dram.banks);
    w.u32(c.dram.t_cl);
    w.u32(c.dram.t_rp);
    w.u32(c.dram.t_rc);
    w.u32(c.dram.t_ras);
    w.u32(c.dram.t_rcd);
    w.u32(c.dram.t_rrd);
    w.u32(c.dram.t_ccd);
    w.u32(c.dram.t_wr);
    w.u32(c.dram.t_refi);
    w.u32(c.dram.t_rfc);
    w.u32(c.dram.burst);
    w.usize(c.dram.queue);
    // noc
    c.noc.topology.save(w);
    c.noc.routing_request.save(w);
    c.noc.routing_reply.save(w);
    w.u32(c.noc.channel_bytes);
    w.usize(c.noc.vcs);
    w.usize(c.noc.vc_buf_flits);
    w.u32(c.noc.pipeline);
    match c.noc.virtual_nets {
        Some(v) => {
            w.bool(true);
            w.usize(v.request_vcs);
            w.usize(v.reply_vcs);
        }
        None => w.bool(false),
    }
    w.usize(c.noc.mem_inj_buf_pkts);
    w.usize(c.noc.sa_iterations);
    c.scheme.save(w);
    // dr knobs
    w.bool(c.dr.delegate_always);
    w.bool(c.dr.delayed_hits);
    w.usize(c.dr.max_per_cycle);
    c.l1_org.save(w);
    c.cta_sched.save(w);
    w.u64(c.seed);
    // fabric (v2 tail)
    match &c.fabric {
        Some(fab) => {
            w.bool(true);
            w.usize(fab.chips);
            fab.topology.save(w);
            w.u32(fab.link_flits);
            w.u32(fab.hop_latency);
            w.usize(fab.queue_pkts);
            w.usize(fab.gateways);
            fab.interleave.save(w);
            w.u32(fab.reply_link_flits);
            w.u32(fab.reply_hop_latency);
        }
        None => w.bool(false),
    }
    // control (v3 tail)
    match &c.control {
        Some(ctl) => {
            w.bool(true);
            ctl.policy.save(w);
            w.u64(ctl.interval);
            w.u32(ctl.enter_blocked_pm);
            w.u32(ctl.exit_blocked_pm);
            w.u64(ctl.enter_episode);
            w.u64(ctl.exit_episode);
            w.u64(ctl.dwell);
        }
        None => w.bool(false),
    }
}

/// Decode a [`SystemConfig`] written by [`save_config`].
pub fn load_config(r: &mut SnapReader<'_>) -> Result<SystemConfig, SnapError> {
    let layout = LayoutKind::load(r)?;
    let mesh_width = r.usize()?;
    let mesh_height = r.usize()?;
    let n_gpu = r.usize()?;
    let n_cpu = r.usize()?;
    let n_mem = r.usize()?;
    let gpu = GpuConfig {
        warps_per_core: r.usize()?,
        issue_width: r.usize()?,
        l1: load_geometry(r)?,
        mshrs: r.usize()?,
        frq_entries: r.usize()?,
        l1_ports: r.usize()?,
        cluster_cores: r.usize()?,
        cluster_slices: r.usize()?,
        dyneb_epoch: r.u64()?,
        flush_interval: r.opt_u64()?,
    };
    let cpu = CpuConfig {
        l1: load_geometry(r)?,
        window: r.usize()?,
    };
    let llc = LlcConfig {
        slice: load_geometry(r)?,
        latency: r.u32()?,
        ports: r.usize()?,
    };
    let dram = DramConfig {
        banks: r.usize()?,
        t_cl: r.u32()?,
        t_rp: r.u32()?,
        t_rc: r.u32()?,
        t_ras: r.u32()?,
        t_rcd: r.u32()?,
        t_rrd: r.u32()?,
        t_ccd: r.u32()?,
        t_wr: r.u32()?,
        t_refi: r.u32()?,
        t_rfc: r.u32()?,
        burst: r.u32()?,
        queue: r.usize()?,
    };
    let topology = Topology::load(r)?;
    let routing_request = RoutingPolicy::load(r)?;
    let routing_reply = RoutingPolicy::load(r)?;
    let channel_bytes = r.u32()?;
    let vcs = r.usize()?;
    let vc_buf_flits = r.usize()?;
    let pipeline = r.u32()?;
    let virtual_nets = if r.bool()? {
        Some(VirtualNetConfig {
            request_vcs: r.usize()?,
            reply_vcs: r.usize()?,
        })
    } else {
        None
    };
    let noc = NocConfig {
        topology,
        routing_request,
        routing_reply,
        channel_bytes,
        vcs,
        vc_buf_flits,
        pipeline,
        virtual_nets,
        mem_inj_buf_pkts: r.usize()?,
        sa_iterations: r.usize()?,
    };
    let scheme = Scheme::load(r)?;
    let dr = DrKnobs {
        delegate_always: r.bool()?,
        delayed_hits: r.bool()?,
        max_per_cycle: r.usize()?,
    };
    let l1_org = L1Org::load(r)?;
    let cta_sched = CtaSched::load(r)?;
    let seed = r.u64()?;
    let fabric = if r.bool()? {
        Some(FabricConfig {
            chips: r.usize()?,
            topology: FabricTopology::load(r)?,
            link_flits: r.u32()?,
            hop_latency: r.u32()?,
            queue_pkts: r.usize()?,
            gateways: r.usize()?,
            interleave: FabricInterleave::load(r)?,
            reply_link_flits: r.u32()?,
            reply_hop_latency: r.u32()?,
        })
    } else {
        None
    };
    let control = if r.bool()? {
        Some(ControlConfig {
            policy: ControlPolicyKind::load(r)?,
            interval: r.u64()?,
            enter_blocked_pm: r.u32()?,
            exit_blocked_pm: r.u32()?,
            enter_episode: r.u64()?,
            exit_episode: r.u64()?,
            dwell: r.u64()?,
        })
    } else {
        None
    };
    Ok(SystemConfig {
        layout,
        mesh_width,
        mesh_height,
        n_gpu,
        n_cpu,
        n_mem,
        gpu,
        cpu,
        llc,
        dram,
        noc,
        scheme,
        dr,
        l1_org,
        cta_sched,
        seed,
        fabric,
        control,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::with_header();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i32(-7);
        w.usize(42);
        w.bool(true);
        w.f64(-0.125);
        w.str("warm");
        w.bytes(&[1, 2, 3]);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        let b = w.into_bytes();
        let mut r = SnapReader::new(&b).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i32().unwrap(), -7);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "warm");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        r.finish().unwrap();
    }

    #[test]
    fn header_rejects_foreign_and_truncated_bytes() {
        assert_eq!(
            SnapReader::new(b"not a snapshot at all").unwrap_err(),
            SnapError::BadMagic
        );
        assert_eq!(
            SnapReader::new(&SNAP_MAGIC[..4]).unwrap_err(),
            SnapError::Truncated
        );
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&SNAP_MAGIC);
        w.u32(SNAP_VERSION + 1);
        assert_eq!(
            SnapReader::new(&w.into_bytes()).unwrap_err(),
            SnapError::BadVersion(SNAP_VERSION + 1)
        );
    }

    #[test]
    fn truncated_body_is_an_error_not_a_panic() {
        let mut w = SnapWriter::with_header();
        w.u64(5);
        let b = w.into_bytes();
        let mut r = SnapReader::new(&b[..b.len() - 1]).unwrap();
        assert_eq!(r.u64().unwrap_err(), SnapError::Truncated);
    }

    /// Every field of every config struct set away from its default,
    /// as literals without `..Default::default()`: a new field does not
    /// compile here until it gets a value, and the round trip below
    /// fails until the codec — and so the fingerprint — carries it.
    fn every_field_set() -> SystemConfig {
        let geometry = |capacity_bytes, ways, line_bytes| CacheGeometry {
            capacity_bytes,
            ways,
            line_bytes,
        };
        SystemConfig {
            layout: LayoutKind::DistributedD,
            mesh_width: 10,
            mesh_height: 10,
            n_gpu: 70,
            n_cpu: 20,
            n_mem: 10,
            gpu: GpuConfig {
                warps_per_core: 32,
                issue_width: 1,
                l1: geometry(64 * 1024, 8, 64),
                mshrs: 32,
                frq_entries: 4,
                l1_ports: 1,
                cluster_cores: 4,
                cluster_slices: 2,
                dyneb_epoch: 2_048,
                flush_interval: None,
            },
            cpu: CpuConfig {
                l1: geometry(16 * 1024, 2, 128),
                window: 4,
            },
            llc: LlcConfig {
                slice: geometry(2 * 1024 * 1024, 8, 64),
                latency: 30,
                ports: 2,
            },
            dram: DramConfig {
                banks: 8,
                t_cl: 13,
                t_rp: 14,
                t_rc: 41,
                t_ras: 29,
                t_rcd: 15,
                t_rrd: 7,
                t_ccd: 3,
                t_wr: 16,
                t_refi: 0,
                t_rfc: 181,
                burst: 4,
                queue: 32,
            },
            noc: NocConfig {
                topology: Topology::Dragonfly,
                routing_request: RoutingPolicy::Hare,
                routing_reply: RoutingPolicy::Footprint,
                channel_bytes: 32,
                vcs: 3,
                vc_buf_flits: 5,
                pipeline: 3,
                virtual_nets: Some(VirtualNetConfig {
                    request_vcs: 2,
                    reply_vcs: 3,
                }),
                mem_inj_buf_pkts: 4,
                sa_iterations: 2,
            },
            scheme: Scheme::RealisticProbing { fanout: 3 },
            dr: DrKnobs {
                delegate_always: true,
                delayed_hits: false,
                max_per_cycle: 5,
            },
            l1_org: L1Org::DynEB,
            cta_sched: CtaSched::Distributed,
            seed: 0x1357_9BDF,
            fabric: Some(FabricConfig {
                chips: 3,
                topology: FabricTopology::Ring,
                link_flits: 2,
                hop_latency: 9,
                queue_pkts: 5,
                gateways: 4,
                interleave: FabricInterleave::Modulo,
                reply_link_flits: 1,
                reply_hop_latency: 40,
            }),
            control: Some(ControlConfig {
                policy: ControlPolicyKind::NoOp,
                interval: 250,
                enter_blocked_pm: 400,
                exit_blocked_pm: 25,
                enter_episode: 1_500,
                exit_episode: 3_000,
                dwell: 3,
            }),
        }
    }

    #[test]
    fn config_round_trips_all_fields() {
        let c = every_field_set();
        let mut w = SnapWriter::new();
        save_config(&mut w, &c);
        let b = w.into_bytes();
        let mut r = SnapReader::raw(&b);
        let back = load_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, c);
        let fp = |c: &SystemConfig| crate::job_fingerprint(c, "HS", "bodytrack", 500, 2_000);
        assert_ne!(fp(&c), fp(&SystemConfig::default()));
    }

    #[test]
    fn packet_round_trips() {
        let p = Packet {
            id: PacketId(77),
            src: NodeId(3),
            dst: NodeId(9),
            kind: MsgKind::DelegatedReply,
            prio: Priority::Gpu,
            addr: Addr::new(0xABC0),
            flits: 9,
            created: 1234,
            requester: NodeId(5),
            dnf: true,
        };
        let mut w = SnapWriter::new();
        save_packet(&mut w, &p);
        let b = w.into_bytes();
        let mut r = SnapReader::raw(&b);
        assert_eq!(load_packet(&mut r).unwrap(), p);
        r.finish().unwrap();
    }
}
