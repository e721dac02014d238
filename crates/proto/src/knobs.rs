//! The configuration vocabulary, declared once.
//!
//! Every config enum implements [`Knob`]: one [`Row`] per variant holds
//! the variant, its canonical option name, the other spellings the CLI
//! accepts, and its figure label. A row's index is the variant's
//! snapshot tag. Labels, the `ALL` constants, CLI parsing, `clognet
//! list` and the [`SystemConfig`] codec in [`snap`](crate::snap) all
//! read these rows, and the job fingerprint hashes the codec's bytes.
//!
//! [`RUN_KEYS`] does the same for the `clognet run` options that set
//! [`SystemConfig`] fields: each key parses its value into a config
//! and renders a config back to a canonical value, so
//! [`canonical_options`] prints an option line that rebuilds the config
//! it was rendered from.
//!
//! ## Example
//!
//! ```
//! use clognet_proto::knobs::{canonical_options, Knob};
//! use clognet_proto::{LayoutKind, Scheme, SystemConfig};
//!
//! assert_eq!(LayoutKind::parse("Edge"), Ok(LayoutKind::EdgeB));
//! assert_eq!(LayoutKind::EdgeB.name(), "b");
//! assert_eq!(Scheme::parse("rp:8").unwrap().name(), "rp:8");
//! let line = canonical_options(&SystemConfig::default());
//! assert!(line.starts_with("--scheme baseline --layout a --topology mesh --routing yx-xy"));
//! ```

use crate::config::{
    ControlConfig, ControlPolicyKind, CtaSched, FabricConfig, FabricInterleave, FabricTopology,
    L1Org, LayoutKind, RoutingPolicy, Scheme, SystemConfig, Topology, VirtualNetConfig,
};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use std::mem::discriminant;
use std::str::FromStr;

/// One variant of a config enum.
#[derive(Debug)]
pub struct Row<T> {
    /// The variant (with its default payload, if it carries one).
    pub value: T,
    /// Canonical option value, the spelling renderers print.
    pub name: &'static str,
    /// Other spellings the CLI accepts.
    pub aliases: Names,
    /// Figure label.
    pub label: &'static str,
}

type Names = &'static [&'static str];

const fn row<T>(value: T, name: &'static str, aliases: Names, label: &'static str) -> Row<T> {
    Row {
        value,
        name,
        aliases,
        label,
    }
}

/// A config enum whose vocabulary is a table of [`Row`]s.
pub trait Knob: Copy + 'static {
    /// What a value of the enum configures, for messages.
    const WHAT: &'static str;
    /// One row per variant; a row's index is the variant's snapshot tag.
    const ROWS: &'static [Row<Self>];

    /// The number a variant carries after its name (`rp:<fanout>`) and
    /// after its snapshot tag. Only [`Scheme::RealisticProbing`] has one.
    fn payload(self) -> Option<usize> {
        None
    }

    /// `self` carrying `payload` instead (variants without one ignore it).
    fn with_payload(self, _payload: usize) -> Self {
        self
    }

    /// The snapshot tag: the index of this variant's row.
    fn tag(self) -> u8 {
        let d = discriminant(&self);
        let i = Self::ROWS.iter().position(|r| discriminant(&r.value) == d);
        i.expect("every variant has a row") as u8
    }

    /// Figure label ("DR", "Mesh", ...).
    fn label(self) -> &'static str {
        Self::ROWS[usize::from(self.tag())].label
    }

    /// Canonical option value: the row's name, plus `:<payload>`.
    fn name(self) -> String {
        let name = Self::ROWS[usize::from(self.tag())].name;
        match self.payload() {
            Some(p) => format!("{name}:{p}"),
            None => name.to_string(),
        }
    }

    /// Parse an option value, ignoring case: a row's name or alias, or
    /// `<name>:<n>` for a variant that carries a payload.
    ///
    /// # Errors
    ///
    /// Unknown spellings and bad payloads, listing what is accepted.
    fn parse(s: &str) -> Result<Self, String> {
        let (head, payload) = s.split_once(':').map_or((s, None), |(h, p)| (h, Some(p)));
        let is = |name: &str| name.eq_ignore_ascii_case(head);
        let row = Self::ROWS.iter().find(|r| match payload {
            None => is(r.name) || r.aliases.iter().any(|a| is(a)),
            Some(_) => is(r.name) && r.value.payload().is_some(),
        });
        let (what, lower) = (Self::WHAT, || s.to_ascii_lowercase());
        match (row, payload) {
            (Some(r), None) => Ok(r.value),
            (Some(r), Some(p)) => p
                .parse()
                .map(|n| r.value.with_payload(n))
                .map_err(|_| format!("bad {what} `{}`", lower())),
            (None, _) => Err(format!(
                "unknown {what} `{}` ({})",
                lower(),
                Self::spellings()
            )),
        }
    }

    /// Every accepted spelling: `name (alias, ...)` per row, and
    /// `name:<n>` after a row whose variant carries a payload.
    fn spellings() -> String {
        let rows = Self::ROWS.iter().map(|r| {
            let mut s = r.name.to_string();
            if !r.aliases.is_empty() {
                s += &format!(" ({})", r.aliases.join(", "));
            }
            if r.value.payload().is_some() {
                s += &format!(" | {}:<n>", r.name);
            }
            s
        });
        rows.collect::<Vec<_>>().join(" | ")
    }

    /// Write the tag, then the payload if the variant carries one.
    fn save(self, w: &mut SnapWriter) {
        w.u8(self.tag());
        if let Some(p) = self.payload() {
            w.usize(p);
        }
    }

    /// Read what [`Knob::save`] wrote.
    ///
    /// # Errors
    ///
    /// A truncated stream, or a tag with no row.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let tag = r.u8()?;
        let row = Self::ROWS.get(usize::from(tag)).ok_or(SnapError::BadTag {
            what: Self::WHAT,
            tag: u64::from(tag),
        })?;
        match row.value.payload() {
            Some(_) => Ok(row.value.with_payload(r.usize()?)),
            None => Ok(row.value),
        }
    }
}

/// The variants of `rows`, in row order: the `ALL` constants.
pub const fn variants<T: Copy, const N: usize>(rows: &[Row<T>]) -> [T; N] {
    assert!(rows.len() == N, "an ALL constant must list every row");
    let mut out = [rows[0].value; N];
    let mut i = 1;
    while i < N {
        out[i] = rows[i].value;
        i += 1;
    }
    out
}

impl Knob for Scheme {
    const WHAT: &'static str = "scheme";
    const ROWS: &'static [Row<Self>] = &[
        row(Scheme::Baseline, "baseline", &["base"], "Baseline"),
        row(
            Scheme::DelegatedReplies,
            "dr",
            &["delegated", "delegated-replies"],
            "DR",
        ),
        row(Scheme::rp_default(), "rp", &["realistic-probing"], "RP"),
    ];

    fn payload(self) -> Option<usize> {
        match self {
            Scheme::RealisticProbing { fanout } => Some(fanout),
            _ => None,
        }
    }

    fn with_payload(self, fanout: usize) -> Self {
        match self {
            Scheme::RealisticProbing { .. } => Scheme::RealisticProbing { fanout },
            other => other,
        }
    }
}

impl Knob for LayoutKind {
    const WHAT: &'static str = "layout";
    const ROWS: &'static [Row<Self>] = &[
        row(LayoutKind::Baseline, "a", &["baseline"], "Baseline"),
        row(LayoutKind::EdgeB, "b", &["edge"], "B"),
        row(LayoutKind::ClusteredC, "c", &["clustered"], "C"),
        row(LayoutKind::DistributedD, "d", &["distributed"], "D"),
    ];
}

impl Knob for Topology {
    const WHAT: &'static str = "topology";
    const ROWS: &'static [Row<Self>] = &[
        row(Topology::Mesh, "mesh", &[], "Mesh"),
        row(Topology::Crossbar, "crossbar", &["xbar"], "Crossbar"),
        row(
            Topology::FlattenedButterfly,
            "fbfly",
            &["flattened-butterfly"],
            "FButterfly",
        ),
        row(Topology::Dragonfly, "dragonfly", &[], "Dragonfly"),
    ];
}

impl Knob for RoutingPolicy {
    const WHAT: &'static str = "routing";
    const ROWS: &'static [Row<Self>] = &[
        row(RoutingPolicy::DorXY, "xy", &[], "XY"),
        row(RoutingPolicy::DorYX, "yx", &[], "YX"),
        row(RoutingPolicy::DyXY, "dyxy", &[], "DyXY"),
        row(RoutingPolicy::Footprint, "footprint", &[], "Footprint"),
        row(RoutingPolicy::Hare, "hare", &[], "HARE"),
    ];
}

impl Knob for L1Org {
    const WHAT: &'static str = "l1org";
    const ROWS: &'static [Row<Self>] = &[
        row(L1Org::Private, "private", &[], "Private"),
        row(L1Org::DcL1, "dcl1", &["dc-l1"], "DC-L1"),
        row(L1Org::DynEB, "dyneb", &[], "DynEB"),
    ];
}

impl Knob for CtaSched {
    const WHAT: &'static str = "cta policy";
    const ROWS: &'static [Row<Self>] = &[
        row(CtaSched::RoundRobin, "rr", &["round-robin"], "RR"),
        row(CtaSched::Distributed, "dist", &["distributed"], "Dist"),
    ];
}

impl Knob for FabricTopology {
    const WHAT: &'static str = "fabric topology";
    const ROWS: &'static [Row<Self>] = &[
        row(FabricTopology::Pair, "pair", &[], "Pair"),
        row(FabricTopology::Ring, "ring", &[], "Ring"),
        row(FabricTopology::All, "all", &["full"], "All"),
    ];
}

impl Knob for FabricInterleave {
    const WHAT: &'static str = "fabric interleave";
    const ROWS: &'static [Row<Self>] = &[
        row(FabricInterleave::Hash, "hash", &[], "Hash"),
        row(FabricInterleave::Modulo, "modulo", &["mod"], "Modulo"),
    ];
}

impl Knob for ControlPolicyKind {
    const WHAT: &'static str = "control policy";
    const ROWS: &'static [Row<Self>] = &[
        row(ControlPolicyKind::NoOp, "noop", &["no-op"], "NoOp"),
        row(
            ControlPolicyKind::Hysteresis,
            "hysteresis",
            &["adaptive"],
            "Hysteresis",
        ),
    ];
}

/// Which part of [`SystemConfig`] a run key sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Single-chip fields.
    Core,
    /// The inter-chip fabric. Any fabric key attaches a
    /// [`FabricConfig`] with defaults filled in; the group's first key,
    /// `chips`, sizes the package.
    Fabric,
    /// The adaptive controller. The group's first key, `control`,
    /// switches it on; the others only tune a controller it switched on.
    Control,
}

type Set = fn(&mut SystemConfig, &str) -> Result<(), String>;
type Get = fn(&SystemConfig) -> Option<String>;

/// One `clognet run` option that sets [`SystemConfig`] fields.
#[derive(Debug)]
pub struct RunKey {
    /// Option name, without the leading `--`.
    pub name: &'static str,
    /// The part of the config it sets.
    pub group: Group,
    /// Parse a value into a config, with the key's side effects: a
    /// layout or topology resets the routing, a mesh derives its node
    /// counts.
    pub set: Set,
    /// The canonical value for a config, or `None` when the config has
    /// no such setting (no virtual networks, fabric or controller).
    pub get: Get,
    /// Every accepted spelling, for the keys that take a name.
    pub values: Option<fn() -> String>,
}

const fn key(name: &'static str, group: Group, set: Set, get: Get) -> RunKey {
    RunKey {
        name,
        group,
        set,
        get,
        values: None,
    }
}

const fn choice<T: Knob>(name: &'static str, group: Group, set: Set, get: Get) -> RunKey {
    RunKey {
        values: Some(T::spellings),
        ..key(name, group, set, get)
    }
}

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| "not a valid number".to_string())
}

fn fabric(c: &mut SystemConfig) -> &mut FabricConfig {
    c.fabric.get_or_insert_with(FabricConfig::default)
}

/// A key that sets one field to a number, or to a name of the enum given
/// first. `Fabric` fields attach a fabric; a `Control` field without a
/// controller is only checked (`config_from` rejects the orphan option).
macro_rules! field {
    ($name:literal, Core, $($f:ident).+) => {
        key($name, Group::Core, |c, v| num(v).map(|n| c.$($f).+ = n), |c| {
            Some(c.$($f).+.to_string())
        })
    };
    ($name:literal, Fabric, $f:ident) => {
        key($name, Group::Fabric, |c, v| num(v).map(|n| fabric(c).$f = n), |c| {
            Some(c.fabric?.$f.to_string())
        })
    };
    ($name:literal, Control, $f:ident) => {
        key($name, Group::Control, |c, v| {
            num(v).map(|n| if let Some(ctl) = &mut c.control { ctl.$f = n })
        }, |c| Some(c.control?.$f.to_string()))
    };
    ($name:literal, $T:ident, Core, $f:ident) => {
        choice::<$T>($name, Group::Core, |c, v| $T::parse(v).map(|x| c.$f = x), |c| {
            Some(c.$f.name())
        })
    };
    ($name:literal, $T:ident, Fabric, $f:ident) => {
        choice::<$T>($name, Group::Fabric, |c, v| $T::parse(v).map(|x| fabric(c).$f = x), |c| {
            Some(c.fabric?.$f.name())
        })
    };
}

/// `--control <policy>` switches a controller on with default
/// thresholds; `none`, the default, switches it off.
fn control(c: &mut SystemConfig, v: &str) -> Result<(), String> {
    c.control = if ["none", "off"].iter().any(|o| o.eq_ignore_ascii_case(v)) {
        None
    } else {
        Some(ControlConfig {
            policy: ControlPolicyKind::parse(v)
                .map_err(|_| format!("unknown control ({})", control_spellings()))?,
            ..ControlConfig::default()
        })
    };
    Ok(())
}

fn control_spellings() -> String {
    format!("none (off) | {}", ControlPolicyKind::spellings())
}

fn mesh(c: &mut SystemConfig, v: &str) -> Result<(), String> {
    let (w, h) = v.split_once('x').ok_or("must be <w>x<h>, e.g. 10x10")?;
    let (w, h): (usize, usize) = (num(w)?, num(h)?);
    // The node mix scales with the rows: one memory node and two CPU
    // cores per row, GPU cores everywhere else (`SystemConfig::validate`
    // refuses a grid too narrow to hold them).
    let (gpu, cpu) = (w.saturating_sub(3).saturating_mul(h), h.saturating_mul(2));
    (c.mesh_width, c.mesh_height, c.n_gpu, c.n_mem, c.n_cpu) = (w, h, gpu, h, cpu);
    Ok(())
}

/// Every `clognet run` option that sets [`SystemConfig`] fields, in the
/// order `config_from` applies them: routing follows layout and
/// topology, and each group's switch comes first. Range checks
/// (`--injbuf`, `--control-interval`) are [`SystemConfig::validate`]'s.
pub const RUN_KEYS: &[RunKey] = &[
    field!("scheme", Scheme, Core, scheme),
    choice::<LayoutKind>(
        "layout",
        Group::Core,
        |c, v| {
            c.layout = LayoutKind::parse(v)?;
            let routing = SystemConfig::best_routing_for(c.layout);
            (c.noc.routing_request, c.noc.routing_reply) = routing;
            Ok(())
        },
        |c| Some(c.layout.name()),
    ),
    choice::<Topology>(
        "topology",
        Group::Core,
        |c, v| {
            c.noc.topology = Topology::parse(v)?;
            if c.noc.topology != Topology::Mesh {
                c.noc.routing_request = RoutingPolicy::DorXY;
                c.noc.routing_reply = RoutingPolicy::DorXY;
            }
            Ok(())
        },
        |c| Some(c.noc.topology.name()),
    ),
    choice::<RoutingPolicy>(
        "routing",
        Group::Core,
        |c, v| {
            let (req, rep) = v.split_once('-').ok_or("must be <req>-<rep>, e.g. yx-xy")?;
            c.noc.routing_request = RoutingPolicy::parse(req)?;
            c.noc.routing_reply = RoutingPolicy::parse(rep)?;
            Ok(())
        },
        |c| {
            let (req, rep) = (c.noc.routing_request, c.noc.routing_reply);
            Some(format!("{}-{}", req.name(), rep.name()))
        },
    ),
    field!("width", Core, noc.channel_bytes),
    field!("l1org", L1Org, Core, l1_org),
    field!("cta", CtaSched, Core, cta_sched),
    key(
        "vnets",
        Group::Core,
        |c, v| {
            let (req, rep) = v
                .split_once('+')
                .ok_or("must be <reqVCs>+<repVCs>, e.g. 2+2")?;
            c.noc.virtual_nets = Some(VirtualNetConfig {
                request_vcs: num(req)?,
                reply_vcs: num(rep)?,
            });
            Ok(())
        },
        |c| {
            let v = c.noc.virtual_nets?;
            Some(format!("{}+{}", v.request_vcs, v.reply_vcs))
        },
    ),
    field!("seed", Core, seed),
    key("mesh", Group::Core, mesh, |c| {
        Some(format!("{}x{}", c.mesh_width, c.mesh_height))
    }),
    field!("injbuf", Core, noc.mem_inj_buf_pkts),
    field!("chips", Fabric, chips),
    field!("fabric-topology", FabricTopology, Fabric, topology),
    field!("fabric-width", Fabric, link_flits),
    field!("fabric-latency", Fabric, hop_latency),
    field!("fabric-queue", Fabric, queue_pkts),
    field!("fabric-gateways", Fabric, gateways),
    field!("fabric-interleave", FabricInterleave, Fabric, interleave),
    field!("fabric-reply-width", Fabric, reply_link_flits),
    field!("fabric-reply-latency", Fabric, reply_hop_latency),
    RunKey {
        values: Some(control_spellings),
        ..key("control", Group::Control, control, |c| {
            Some(c.control?.policy.name())
        })
    },
    field!("control-interval", Control, interval),
    field!("control-enter", Control, enter_blocked_pm),
    field!("control-exit", Control, exit_blocked_pm),
    field!("control-enter-episode", Control, enter_episode),
    field!("control-exit-episode", Control, exit_episode),
    field!("control-dwell", Control, dwell),
];

/// The names of the run keys in `group` (all of them for `None`), in
/// table order. `N` must be their count, which the compiler checks when
/// the result is a constant.
pub const fn key_names<const N: usize>(group: Option<Group>) -> [&'static str; N] {
    let (mut out, mut i, mut n) = ([""; N], 0, 0);
    while i < RUN_KEYS.len() {
        let key = &RUN_KEYS[i];
        if group.is_none() || key.group as u8 == group.unwrap() as u8 {
            out[n] = key.name;
            n += 1;
        }
        i += 1;
    }
    assert!(n == N, "N must count the keys");
    out
}

/// The canonical option line for `cfg`: every run key that has a value,
/// in table order. For any config the run keys can build, parsing the
/// line gives the config back; routing comes after layout and topology,
/// so it is exact.
pub fn canonical_options(cfg: &SystemConfig) -> String {
    let opts = RUN_KEYS
        .iter()
        .filter_map(|k| (k.get)(cfg).map(|v| format!("--{} {v}", k.name)));
    opts.collect::<Vec<_>>().join(" ")
}

/// The job fields, then [`canonical_options`]: the option line that
/// `clognet run` and `clognet fingerprint` take for one job.
pub fn job_options(cfg: &SystemConfig, gpu: &str, cpu: &str, warm: u64, cycles: u64) -> String {
    format!(
        "--gpu {gpu} --cpu {cpu} --warm {warm} --cycles {cycles} {}",
        canonical_options(cfg)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::save_config;
    use std::fmt::Debug;

    /// `table` lists every spelling the CLI accepts as `spelling=Variant`
    /// (the variant's `Debug` form without spaces), so a spelling that is
    /// dropped or re-pointed fails here. Each parses to its variant in
    /// any case, and each variant's rendered name parses back to it.
    fn accepts<T: Knob + PartialEq + Debug>(table: &str) {
        for pair in table.split_whitespace() {
            let (s, want) = pair.split_once('=').unwrap();
            for s in [s.to_string(), s.to_ascii_uppercase()] {
                let v = T::parse(&s).unwrap();
                assert_eq!(format!("{v:?}").replace(' ', ""), want, "{s}");
                assert_eq!(T::parse(&v.name()), Ok(v));
            }
        }
        let rows = T::ROWS.iter().map(|r| 1 + r.aliases.len()).sum::<usize>();
        let listed = table
            .split_whitespace()
            .filter(|p| !p.split('=').next().unwrap().contains(':'));
        assert_eq!(listed.count(), rows, "{}: list every row spelling", T::WHAT);
        assert!(T::parse("nope").is_err());
    }

    #[test]
    fn every_spelling_parses_and_every_variant_renders_back() {
        accepts::<Scheme>(
            "baseline=Baseline base=Baseline dr=DelegatedReplies delegated=DelegatedReplies \
             delegated-replies=DelegatedReplies rp=RealisticProbing{fanout:4} \
             realistic-probing=RealisticProbing{fanout:4} rp:7=RealisticProbing{fanout:7}",
        );
        accepts::<LayoutKind>(
            "a=Baseline baseline=Baseline b=EdgeB edge=EdgeB c=ClusteredC clustered=ClusteredC \
             d=DistributedD distributed=DistributedD",
        );
        accepts::<Topology>(
            "mesh=Mesh crossbar=Crossbar xbar=Crossbar fbfly=FlattenedButterfly \
             flattened-butterfly=FlattenedButterfly dragonfly=Dragonfly",
        );
        accepts::<RoutingPolicy>("xy=DorXY yx=DorYX dyxy=DyXY footprint=Footprint hare=Hare");
        accepts::<L1Org>("private=Private dcl1=DcL1 dc-l1=DcL1 dyneb=DynEB");
        accepts::<CtaSched>(
            "rr=RoundRobin round-robin=RoundRobin dist=Distributed distributed=Distributed",
        );
        accepts::<FabricTopology>("pair=Pair ring=Ring all=All full=All");
        accepts::<FabricInterleave>("hash=Hash modulo=Modulo mod=Modulo");
        accepts::<ControlPolicyKind>(
            "noop=NoOp no-op=NoOp hysteresis=Hysteresis adaptive=Hysteresis",
        );
        // Only the canonical name of a payload row takes a payload.
        for bad in ["rp:", "rp:x", "dr:2", "realistic-probing:2"] {
            assert!(Scheme::parse(bad).is_err(), "{bad}");
        }
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pin the `save_config` bytes of configs that between them use
    /// every variant of every config enum, built by name: reordering a
    /// table's rows would renumber tags that snapshots already carry.
    /// The digest changes only together with `SNAP_VERSION`.
    #[test]
    fn config_bytes_are_pinned() {
        let mut w = SnapWriter::new();
        for (i, line) in [
            "layout=a topology=mesh routing=xy-dyxy scheme=baseline l1org=private cta=rr",
            "layout=b topology=crossbar routing=yx-footprint scheme=dr l1org=dcl1 cta=dist \
             fabric-topology=ring fabric-interleave=modulo",
            "layout=c topology=fbfly routing=dyxy-hare scheme=rp:4 l1org=dyneb cta=rr vnets=1+3 \
             fabric-topology=all fabric-interleave=hash",
            "layout=d topology=dragonfly routing=footprint-xy scheme=rp:9 l1org=private cta=dist \
             fabric-topology=pair fabric-interleave=modulo control=hysteresis",
            "layout=a topology=mesh routing=hare-yx scheme=baseline l1org=dcl1 cta=rr \
             fabric-topology=ring fabric-interleave=hash control=noop",
        ]
        .into_iter()
        .enumerate()
        {
            let mut c = SystemConfig::default();
            let opts: Vec<_> = line.split_whitespace().map(|o| o.split_once('=')).collect();
            for key in RUN_KEYS {
                if let Some((_, v)) = opts.iter().flatten().find(|(k, _)| *k == key.name) {
                    (key.set)(&mut c, v).unwrap();
                }
            }
            if i == 1 {
                c.gpu.flush_interval = None;
            }
            save_config(&mut w, &c);
        }
        let got = fnv1a(&w.into_bytes());
        assert_eq!(
            got, 0x30f1_762f_bd4d_7fc6,
            "config bytes moved: {got:#018x}"
        );
    }
}
