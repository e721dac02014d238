//! Translate CLI options into a [`SystemConfig`].

use crate::args::{Args, ParseArgsError};
use clognet_proto::{
    ControlConfig, ControlPolicyKind, CtaSched, FabricConfig, FabricInterleave, FabricTopology,
    L1Org, LayoutKind, RoutingPolicy, Scheme, SystemConfig, Topology, VirtualNetConfig,
};

/// Options shared by `run`, `compare`, and `sweep`.
pub const CONFIG_KEYS: [&str; 29] = [
    "gpu",
    "cpu",
    "scheme",
    "layout",
    "topology",
    "routing",
    "width",
    "l1org",
    "cta",
    "vnets",
    "seed",
    "mesh",
    "injbuf",
    "chips",
    "fabric-topology",
    "fabric-width",
    "fabric-latency",
    "fabric-queue",
    "fabric-gateways",
    "fabric-interleave",
    "fabric-reply-width",
    "fabric-reply-latency",
    "control",
    "control-interval",
    "control-enter",
    "control-exit",
    "control-enter-episode",
    "control-exit-episode",
    "control-dwell",
];

/// The fabric subset of [`CONFIG_KEYS`] (every one an identity knob —
/// see the fingerprint tests in `clognet-proto`).
pub const FABRIC_KEYS: [&str; 9] = [
    "chips",
    "fabric-topology",
    "fabric-width",
    "fabric-latency",
    "fabric-queue",
    "fabric-gateways",
    "fabric-interleave",
    "fabric-reply-width",
    "fabric-reply-latency",
];

/// The adaptive-control subset of [`CONFIG_KEYS`] (every one an
/// identity knob — see the fingerprint tests in `clognet-proto`).
pub const CONTROL_KEYS: [&str; 7] = [
    "control",
    "control-interval",
    "control-enter",
    "control-exit",
    "control-enter-episode",
    "control-exit-episode",
    "control-dwell",
];

/// Parse a scheme name.
///
/// # Errors
///
/// Unknown scheme names.
pub fn parse_scheme(s: &str) -> Result<Scheme, ParseArgsError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" | "base" => Ok(Scheme::Baseline),
        "dr" | "delegated" | "delegated-replies" => Ok(Scheme::DelegatedReplies),
        "rp" | "realistic-probing" => Ok(Scheme::rp_default()),
        other => {
            if let Some(f) = other.strip_prefix("rp:") {
                let fanout = f
                    .parse()
                    .map_err(|_| ParseArgsError(format!("bad RP fanout `{f}`")))?;
                Ok(Scheme::RealisticProbing { fanout })
            } else {
                Err(ParseArgsError(format!(
                    "unknown scheme `{other}` (baseline | dr | rp | rp:<fanout>)"
                )))
            }
        }
    }
}

/// Parse a layout name.
///
/// # Errors
///
/// Unknown layout names.
pub fn parse_layout(s: &str) -> Result<LayoutKind, ParseArgsError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" | "a" => Ok(LayoutKind::Baseline),
        "b" | "edge" => Ok(LayoutKind::EdgeB),
        "c" | "clustered" => Ok(LayoutKind::ClusteredC),
        "d" | "distributed" => Ok(LayoutKind::DistributedD),
        other => Err(ParseArgsError(format!(
            "unknown layout `{other}` (a|b|c|d)"
        ))),
    }
}

/// Check that `gpu` and `cpu` name benchmarks of the workload tables
/// (`clognet list`). Every subcommand that builds a system calls this
/// before building one, and the service resolves job specs through it,
/// so an unknown name is a usage error instead of a panic.
///
/// # Errors
///
/// The first name the tables do not know.
pub fn check_benchmarks(gpu: &str, cpu: &str) -> Result<(), ParseArgsError> {
    if clognet_workloads::gpu_benchmark(gpu).is_none() {
        return Err(ParseArgsError(format!(
            "unknown GPU benchmark `{gpu}` (see `clognet list`)"
        )));
    }
    if clognet_workloads::cpu_benchmark(cpu).is_none() {
        return Err(ParseArgsError(format!(
            "unknown CPU benchmark `{cpu}` (see `clognet list`)"
        )));
    }
    Ok(())
}

/// Build a [`SystemConfig`] from the parsed arguments.
///
/// # Errors
///
/// Any unparseable option.
pub fn config_from(args: &Args) -> Result<SystemConfig, ParseArgsError> {
    let mut cfg = SystemConfig::default();
    if let Some(s) = args.get("scheme") {
        cfg.scheme = parse_scheme(s)?;
    }
    if let Some(s) = args.get("layout") {
        cfg.layout = parse_layout(s)?;
        let (req, rep) = SystemConfig::best_routing_for(cfg.layout);
        cfg.noc.routing_request = req;
        cfg.noc.routing_reply = rep;
    }
    if let Some(s) = args.get("topology") {
        cfg.noc.topology = match s.to_ascii_lowercase().as_str() {
            "mesh" => Topology::Mesh,
            "crossbar" | "xbar" => Topology::Crossbar,
            "fbfly" | "flattened-butterfly" => Topology::FlattenedButterfly,
            "dragonfly" => Topology::Dragonfly,
            other => {
                return Err(ParseArgsError(format!(
                    "unknown topology `{other}` (mesh|crossbar|fbfly|dragonfly)"
                )))
            }
        };
        if cfg.noc.topology != Topology::Mesh {
            cfg.noc.routing_request = RoutingPolicy::DorXY;
            cfg.noc.routing_reply = RoutingPolicy::DorXY;
        }
    }
    if let Some(s) = args.get("routing") {
        let pol = |p: &str| -> Result<RoutingPolicy, ParseArgsError> {
            match p.to_ascii_lowercase().as_str() {
                "xy" => Ok(RoutingPolicy::DorXY),
                "yx" => Ok(RoutingPolicy::DorYX),
                "dyxy" => Ok(RoutingPolicy::DyXY),
                "footprint" => Ok(RoutingPolicy::Footprint),
                "hare" => Ok(RoutingPolicy::Hare),
                other => Err(ParseArgsError(format!("unknown routing `{other}`"))),
            }
        };
        let (req, rep) = s
            .split_once('-')
            .ok_or_else(|| ParseArgsError("routing must be <req>-<rep>, e.g. yx-xy".into()))?;
        cfg.noc.routing_request = pol(req)?;
        cfg.noc.routing_reply = pol(rep)?;
    }
    if let Some(w) = args.get("width") {
        cfg.noc.channel_bytes = w
            .parse()
            .map_err(|_| ParseArgsError(format!("bad channel width `{w}`")))?;
    }
    if let Some(s) = args.get("l1org") {
        cfg.l1_org = match s.to_ascii_lowercase().as_str() {
            "private" => L1Org::Private,
            "dcl1" | "dc-l1" => L1Org::DcL1,
            "dyneb" => L1Org::DynEB,
            other => return Err(ParseArgsError(format!("unknown l1org `{other}`"))),
        };
    }
    if let Some(s) = args.get("cta") {
        cfg.cta_sched = match s.to_ascii_lowercase().as_str() {
            "rr" | "round-robin" => CtaSched::RoundRobin,
            "dist" | "distributed" => CtaSched::Distributed,
            other => return Err(ParseArgsError(format!("unknown cta policy `{other}`"))),
        };
    }
    if let Some(v) = args.get("vnets") {
        let (rq, rp) = v
            .split_once('+')
            .ok_or_else(|| ParseArgsError("vnets must be <reqVCs>+<repVCs>, e.g. 2+2".into()))?;
        cfg.noc.virtual_nets = Some(VirtualNetConfig {
            request_vcs: rq
                .parse()
                .map_err(|_| ParseArgsError(format!("bad vnets `{v}`")))?,
            reply_vcs: rp
                .parse()
                .map_err(|_| ParseArgsError(format!("bad vnets `{v}`")))?,
        });
    }
    if let Some(m) = args.get("mesh") {
        let (w, h) = m
            .split_once('x')
            .ok_or_else(|| ParseArgsError("mesh must be <w>x<h>, e.g. 10x10".into()))?;
        let w: usize = w
            .parse()
            .map_err(|_| ParseArgsError(format!("bad mesh `{m}`")))?;
        let h: usize = h
            .parse()
            .map_err(|_| ParseArgsError(format!("bad mesh `{m}`")))?;
        cfg.mesh_width = w;
        cfg.mesh_height = h;
        cfg.n_mem = h;
        cfg.n_cpu = 2 * h;
        cfg.n_gpu = w * h - 3 * h;
    }
    cfg.seed = args.get_num("seed", cfg.seed)?;
    cfg.noc.mem_inj_buf_pkts = args.get_num("injbuf", cfg.noc.mem_inj_buf_pkts)?;
    if cfg.noc.mem_inj_buf_pkts == 0 {
        return Err(ParseArgsError("--injbuf must be at least 1".into()));
    }
    apply_fabric(args, &mut cfg)?;
    apply_control(args, &mut cfg)?;
    Ok(cfg)
}

/// Fold the `--chips` / `--fabric-*` options into `cfg.fabric`. Any
/// fabric option present switches the config to an explicit
/// [`FabricConfig`] (defaults filled in); `--chips 1` alone keeps the
/// plain single-chip config (`fabric: None`), byte-identical to builds
/// that never mention the fabric.
fn apply_fabric(args: &Args, cfg: &mut SystemConfig) -> Result<(), ParseArgsError> {
    if !FABRIC_KEYS.iter().any(|k| args.get(k).is_some()) {
        return Ok(());
    }
    let d = FabricConfig::default();
    let chips = args.get_num("chips", d.chips)?;
    if chips == 1 {
        if FABRIC_KEYS[1..].iter().any(|k| args.get(k).is_some()) {
            return Err(ParseArgsError(
                "--fabric-* options require --chips 2 or more".into(),
            ));
        }
        cfg.fabric = None;
        return Ok(());
    }
    let topology = match args.get("fabric-topology") {
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "pair" => FabricTopology::Pair,
            "ring" => FabricTopology::Ring,
            "all" | "full" => FabricTopology::All,
            other => {
                return Err(ParseArgsError(format!(
                    "unknown fabric topology `{other}` (pair|ring|all)"
                )))
            }
        },
        // The pair default only spans two chips; larger packages get a
        // ring unless told otherwise.
        None if chips > 2 => FabricTopology::Ring,
        None => d.topology,
    };
    let interleave = match args.get("fabric-interleave") {
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "hash" => FabricInterleave::Hash,
            "modulo" | "mod" => FabricInterleave::Modulo,
            other => {
                return Err(ParseArgsError(format!(
                    "unknown fabric interleave `{other}` (hash|modulo)"
                )))
            }
        },
        None => d.interleave,
    };
    cfg.fabric = Some(FabricConfig {
        chips,
        topology,
        interleave,
        link_flits: args.get_num("fabric-width", d.link_flits)?,
        hop_latency: args.get_num("fabric-latency", d.hop_latency)?,
        queue_pkts: args.get_num("fabric-queue", d.queue_pkts)?,
        gateways: args.get_num("fabric-gateways", d.gateways)?,
        reply_link_flits: args.get_num("fabric-reply-width", d.reply_link_flits)?,
        reply_hop_latency: args.get_num("fabric-reply-latency", d.reply_hop_latency)?,
    });
    Ok(())
}

/// Fold the `--control*` options into `cfg.control`, mirroring
/// [`apply_fabric`]: `--control <policy>` switches the adaptive loop on
/// (threshold defaults filled in from [`ControlConfig::default`]);
/// `--control none` keeps the static config (`control: None`),
/// byte-identical to builds that never mention the controller.
fn apply_control(args: &Args, cfg: &mut SystemConfig) -> Result<(), ParseArgsError> {
    if !CONTROL_KEYS.iter().any(|k| args.get(k).is_some()) {
        return Ok(());
    }
    let thresholds_given = CONTROL_KEYS[1..].iter().any(|k| args.get(k).is_some());
    let policy = match args.get("control") {
        None => {
            return Err(ParseArgsError(
                "--control-* options require --control noop|hysteresis".into(),
            ))
        }
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "none" | "off" => {
                if thresholds_given {
                    return Err(ParseArgsError(
                        "--control-* options require --control noop|hysteresis".into(),
                    ));
                }
                cfg.control = None;
                return Ok(());
            }
            "noop" | "no-op" => ControlPolicyKind::NoOp,
            "hysteresis" | "adaptive" => ControlPolicyKind::Hysteresis,
            other => {
                return Err(ParseArgsError(format!(
                    "unknown control policy `{other}` (none|noop|hysteresis)"
                )))
            }
        },
    };
    let d = ControlConfig::default();
    let interval = args.get_num("control-interval", d.interval)?;
    if interval == 0 {
        return Err(ParseArgsError(
            "--control-interval must be at least 1".into(),
        ));
    }
    let enter_blocked_pm = args.get_num("control-enter", d.enter_blocked_pm)?;
    let exit_blocked_pm = args.get_num("control-exit", d.exit_blocked_pm)?;
    if exit_blocked_pm > enter_blocked_pm {
        return Err(ParseArgsError(format!(
            "--control-exit {exit_blocked_pm} must not exceed --control-enter \
             {enter_blocked_pm} (hysteresis needs exit <= enter)"
        )));
    }
    cfg.control = Some(ControlConfig {
        policy,
        interval,
        enter_blocked_pm,
        exit_blocked_pm,
        enter_episode: args.get_num("control-enter-episode", d.enter_episode)?,
        exit_episode: args.get_num("control-exit-episode", d.exit_episode)?,
        dwell: args.get_num("control-dwell", d.dwell)?,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn scheme_names() {
        assert_eq!(parse_scheme("dr").unwrap(), Scheme::DelegatedReplies);
        assert_eq!(parse_scheme("baseline").unwrap(), Scheme::Baseline);
        assert_eq!(
            parse_scheme("rp:7").unwrap(),
            Scheme::RealisticProbing { fanout: 7 }
        );
        assert!(parse_scheme("nope").is_err());
    }

    #[test]
    fn full_config_line() {
        let a = parse(
            "run --scheme dr --layout b --routing xy-yx --width 32 --l1org dyneb \
             --cta dist --vnets 1+3 --seed 9 --mesh 10x10",
        );
        let c = config_from(&a).unwrap();
        assert_eq!(c.scheme, Scheme::DelegatedReplies);
        assert_eq!(c.layout, LayoutKind::EdgeB);
        assert_eq!(c.noc.routing_request, RoutingPolicy::DorXY);
        assert_eq!(c.noc.routing_reply, RoutingPolicy::DorYX);
        assert_eq!(c.noc.channel_bytes, 32);
        assert_eq!(c.l1_org, L1Org::DynEB);
        assert_eq!(c.cta_sched, CtaSched::Distributed);
        assert_eq!(c.noc.virtual_nets.unwrap().reply_vcs, 3);
        assert_eq!(c.seed, 9);
        assert_eq!((c.mesh_width, c.n_gpu, c.n_cpu, c.n_mem), (10, 70, 20, 10));
    }

    #[test]
    fn layout_sets_best_routing() {
        let c = config_from(&parse("run --layout d")).unwrap();
        assert_eq!(c.noc.routing_request, RoutingPolicy::DorXY);
        assert_eq!(c.noc.routing_reply, RoutingPolicy::DorXY);
    }

    #[test]
    fn bad_values_error() {
        assert!(config_from(&parse("run --topology torus")).is_err());
        assert!(config_from(&parse("run --vnets 22")).is_err());
        assert!(config_from(&parse("run --mesh big")).is_err());
        assert!(config_from(&parse("run --routing diagonal")).is_err());
        assert!(config_from(&parse("run --injbuf 0")).is_err());
    }

    #[test]
    fn injbuf_retargets_the_injection_buffer() {
        let c = config_from(&parse("run --injbuf 4")).unwrap();
        assert_eq!(c.noc.mem_inj_buf_pkts, 4);
        let d = config_from(&parse("run")).unwrap();
        assert_eq!(
            d.noc.mem_inj_buf_pkts,
            SystemConfig::default().noc.mem_inj_buf_pkts
        );
    }

    #[test]
    fn control_defaults_to_none_and_switches_on_explicitly() {
        assert_eq!(config_from(&parse("run")).unwrap().control, None);
        assert_eq!(
            config_from(&parse("run --control none")).unwrap().control,
            None
        );
        let c = config_from(&parse("run --control hysteresis")).unwrap();
        assert_eq!(c.control, Some(ControlConfig::default()));
        let c = config_from(&parse("run --control noop")).unwrap();
        assert_eq!(c.control.unwrap().policy, ControlPolicyKind::NoOp);
    }

    #[test]
    fn control_thresholds_override_the_defaults() {
        let c = config_from(&parse(
            "run --control hysteresis --control-interval 250 --control-enter 400 \
             --control-exit 10 --control-enter-episode 800 --control-exit-episode 1600 \
             --control-dwell 3",
        ))
        .unwrap();
        let ctl = c.control.unwrap();
        assert_eq!(ctl.interval, 250);
        assert_eq!(ctl.enter_blocked_pm, 400);
        assert_eq!(ctl.exit_blocked_pm, 10);
        assert_eq!(ctl.enter_episode, 800);
        assert_eq!(ctl.exit_episode, 1600);
        assert_eq!(ctl.dwell, 3);
    }

    #[test]
    fn degenerate_control_combinations_error() {
        // Threshold knobs without a policy, or alongside an explicit
        // `none`, are contradictions, not silent defaults.
        assert!(config_from(&parse("run --control-interval 100")).is_err());
        assert!(config_from(&parse("run --control none --control-dwell 1")).is_err());
        assert!(config_from(&parse("run --control bogus")).is_err());
        assert!(config_from(&parse("run --control hysteresis --control-interval 0")).is_err());
        // An exit threshold above the enter threshold inverts the
        // hysteresis band.
        assert!(config_from(&parse(
            "run --control hysteresis --control-enter 100 --control-exit 200"
        ))
        .is_err());
    }
}
