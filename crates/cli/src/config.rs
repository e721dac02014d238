//! Translate CLI options into a [`SystemConfig`] by walking the
//! run-key table of [`clognet_proto::knobs`].

use crate::args::{Args, ParseArgsError};
use clognet_proto::knobs::{self, Group, Knob};
#[cfg(test)]
use clognet_proto::{ControlConfig, ControlPolicyKind, CtaSched, L1Org, LayoutKind, RoutingPolicy};
use clognet_proto::{FabricTopology, Scheme, SystemConfig};

/// The job fields every simulating command takes beside its config.
pub const JOB_KEYS: [&str; 4] = ["gpu", "cpu", "warm", "cycles"];

/// Execution-mode options: they choose how a job runs, never what it
/// computes, so they are not `SystemConfig` fields and move neither the
/// job fingerprint nor the snapshot key.
pub const EXEC_KEYS: [&str; 1] = ["no-ff"];

/// Every option that sets `SystemConfig` fields, in
/// [`knobs::RUN_KEYS`] order.
pub const CONFIG_KEYS: [&str; 27] = knobs::key_names(None);

/// The fabric subset of [`CONFIG_KEYS`], its switch `chips` first.
pub const FABRIC_KEYS: [&str; 9] = knobs::key_names(Some(Group::Fabric));

/// The adaptive-control subset of [`CONFIG_KEYS`], its switch first.
pub const CONTROL_KEYS: [&str; 7] = knobs::key_names(Some(Group::Control));

/// Parse a scheme name.
///
/// # Errors
///
/// Unknown scheme names.
pub fn parse_scheme(s: &str) -> Result<Scheme, ParseArgsError> {
    Scheme::parse(s).map_err(ParseArgsError)
}

/// Check that `gpu` and `cpu` name benchmarks of the workload tables
/// (`clognet list`), so an unknown name is a usage error instead of a
/// panic inside system construction.
fn check_benchmarks(gpu: &str, cpu: &str) -> Result<(), ParseArgsError> {
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

/// One simulation job, resolved: the workload pair, the cycle budget,
/// a validated config and the engine mode.
#[derive(Debug, Clone)]
pub struct Job<'a> {
    /// GPU benchmark (Table II).
    pub gpu: &'a str,
    /// CPU benchmark (PARSEC).
    pub cpu: &'a str,
    /// Warmup cycles.
    pub warm: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// The configuration, past [`SystemConfig::validate`].
    pub cfg: SystemConfig,
    /// Event-horizon fast-forward (off under `--no-ff`).
    pub ff: bool,
}

/// Resolve the job `args` describe, taking `gpu`, `cpu`, `warm` and
/// `cycles` where the options leave them out: the one path from options
/// to a buildable job, shared by every simulating command and the
/// service, so all of them refuse the same jobs with the same message.
///
/// # Errors
///
/// Unknown benchmarks, unparseable options, and configs that fail
/// [`SystemConfig::validate`].
pub fn resolve_job<'a>(
    args: &'a Args,
    gpu: &'a str,
    cpu: &'a str,
    warm: u64,
    cycles: u64,
) -> Result<Job<'a>, ParseArgsError> {
    let (gpu, cpu) = (args.get_or("gpu", gpu), args.get_or("cpu", cpu));
    check_benchmarks(gpu, cpu)?;
    Ok(Job {
        gpu,
        cpu,
        warm: args.get_num("warm", warm)?,
        cycles: args.get_num("cycles", cycles)?,
        cfg: config_from(args)?,
        ff: !args.flag("no-ff"),
    })
}

/// Build a [`SystemConfig`] from the parsed arguments: apply each
/// [`knobs::RUN_KEYS`] option present, in table order, then the rules
/// about which options were given together, then
/// [`SystemConfig::validate`].
///
/// # Errors
///
/// Any unparseable option, fabric or control options without the option
/// that switches their group on, and configs that cannot be built.
pub fn config_from(args: &Args) -> Result<SystemConfig, ParseArgsError> {
    let mut cfg = SystemConfig::default();
    for key in knobs::RUN_KEYS {
        if let Some(v) = args.get(key.name) {
            (key.set)(&mut cfg, v)
                .map_err(|e| ParseArgsError(format!("--{} {v}: {e}", key.name)))?;
        }
    }
    let given = |keys: &[&str]| keys.iter().any(|k| args.get(k).is_some());
    if let Some(fab) = &mut cfg.fabric {
        if fab.chips == 1 {
            // `--chips 1` alone keeps the plain single-chip config,
            // byte-identical to never mentioning the fabric.
            if given(&FABRIC_KEYS[1..]) {
                return Err(ParseArgsError(
                    "--fabric-* options require --chips 2 or more".into(),
                ));
            }
            cfg.fabric = None;
        } else if fab.chips > 2 && args.get("fabric-topology").is_none() {
            // The pair default only spans two chips; larger packages
            // get a ring unless told otherwise.
            fab.topology = FabricTopology::Ring;
        }
    }
    // Threshold knobs without a policy, or beside an explicit `none`,
    // are contradictions, not silent defaults.
    if cfg.control.is_none() && given(&CONTROL_KEYS[1..]) {
        return Err(ParseArgsError(
            "--control-* options require --control noop|hysteresis".into(),
        ));
    }
    cfg.validate()?;
    Ok(cfg)
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
        // Every traffic class needs a VC it may use: one, or two under
        // dragonfly, which moves in-group hops up to VC 1.
        assert!(config_from(&parse("run --vnets 0+4")).is_err());
        assert!(config_from(&parse("run --topology dragonfly --vnets 1+3")).is_err());
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

    #[test]
    fn canonical_options_rebuild_the_config() {
        for line in [
            "run",
            "run --layout b --routing yx-xy",
            "run --layout c --topology fbfly",
            "run --scheme rp:8 --vnets 2+2 --mesh 10x10 --injbuf 4 --seed 7 --cta dist",
            "run --topology dragonfly --vnets 2+2",
            "run --chips 3",
            "run --chips 2 --fabric-interleave mod --fabric-reply-latency 40",
            "run --control noop --control-dwell 1",
        ] {
            let cfg = config_from(&parse(line)).unwrap();
            let canonical = format!("run {}", knobs::canonical_options(&cfg));
            assert_eq!(config_from(&parse(&canonical)).unwrap(), cfg, "{canonical}");
        }
        // A mesh too narrow for the node mix is an error, not a panic.
        assert!(config_from(&parse("run --mesh 2x4")).is_err());
    }
}
