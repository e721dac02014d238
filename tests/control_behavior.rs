//! End-to-end properties of the adaptive control loop: a controller
//! that never acts must be byte-invisible across every scheme and
//! engine mode, a controller that does act must be replayable through
//! the snapshot engine (decision log included), and the hysteresis
//! policy must actually fire on the paper's clog-heavy workload.

use clognet_core::System;
use clognet_proto::{ControlConfig, ControlPolicyKind, Scheme, SystemConfig};

/// A hysteresis config whose thresholds sit past the physically
/// possible range: blocked fractions cap at 1000‰ and hot streaks
/// never reach `u64::MAX`, so the policy holds at the base rung
/// forever.
fn never_firing() -> ControlConfig {
    ControlConfig {
        policy: ControlPolicyKind::Hysteresis,
        enter_blocked_pm: 1_001,
        enter_episode: u64::MAX,
        exit_episode: u64::MAX,
        ..ControlConfig::default()
    }
}

fn report_of(cfg: SystemConfig, ff: bool, warm: u64, cycles: u64) -> (System, u64) {
    let mut sys = System::new(cfg, "NN", "canneal");
    sys.set_fast_forward(ff);
    sys.run(warm);
    sys.reset_stats();
    sys.run(cycles);
    (sys, warm + cycles)
}

/// A controller that never switches schemes must leave the simulation
/// byte-identical to an uncontrolled run — under every scheme, with
/// fast-forward on and off. This is the
/// license to leave `--control noop` on in production telemetry runs.
#[test]
fn inert_controllers_are_byte_invisible() {
    for scheme in [
        Scheme::Baseline,
        Scheme::rp_default(),
        Scheme::DelegatedReplies,
    ] {
        for ff in [true, false] {
            let cfg = SystemConfig::default().with_scheme(scheme);
            let (plain, _) = report_of(cfg.clone(), ff, 300, 900);

            let mut noop = cfg.clone();
            noop.control = Some(ControlConfig::noop());
            let (controlled, _) = report_of(noop, ff, 300, 900);
            assert_eq!(
                plain.report(),
                controlled.report(),
                "noop policy diverged: {scheme:?} ff={ff}"
            );
            // The controller still ran: every boundary is on the log.
            let log = controlled.decision_log().expect("controller attached");
            assert!(!log.is_empty(), "no decisions logged");
            assert_eq!(log.escalations() + log.de_escalations(), 0);

            let mut held = cfg;
            held.control = Some(never_firing());
            let (controlled, _) = report_of(held, ff, 300, 900);
            assert_eq!(
                plain.report(),
                controlled.report(),
                "never-firing hysteresis diverged: {scheme:?} ff={ff}"
            );
            let log = controlled.decision_log().expect("controller attached");
            assert_eq!(log.escalations() + log.de_escalations(), 0);
        }
    }
}

/// The paper's clog-heavy pairing under a starved injection buffer
/// must push the default hysteresis ladder off the baseline rung —
/// the CLI acceptance run (`clognet run --control hysteresis`) in
/// test form.
#[test]
fn hysteresis_escalates_on_a_clogged_workload() {
    let mut cfg = SystemConfig::default();
    cfg.noc.mem_inj_buf_pkts = 4;
    cfg.control = Some(ControlConfig::default());
    let (sys, _) = report_of(cfg, true, 4_000, 10_000);
    let log = sys.decision_log().expect("controller attached");
    assert!(
        log.escalations() >= 1,
        "expected at least one escalation, log: {:?}",
        log.entries()
    );
    // Escalations walk the ladder upward one step at a time from the
    // base rung, and the recorded observations justify each one.
    for d in log.entries() {
        if d.to_level > d.from_level {
            assert_eq!(d.to_level - d.from_level, 1, "{d:?}");
        }
    }
    assert!(sys.control_level().expect("controller attached") > 0 || log.de_escalations() > 0);
}

/// A controlled run must fork through the snapshot engine exactly like
/// an uncontrolled one: restore mid-escalation, run both sides to the
/// same horizon, and demand identical reports, identical decision
/// logs (the log rides the CLOGSNAP body), and identical bytes.
#[test]
fn controlled_runs_snapshot_and_restore_mid_escalation() {
    let mut cfg = SystemConfig::default();
    cfg.noc.mem_inj_buf_pkts = 4;
    cfg.control = Some(ControlConfig {
        interval: 250,
        enter_blocked_pm: 100,
        exit_blocked_pm: 0,
        ..ControlConfig::default()
    });
    let mut straight = System::new(cfg.clone(), "NN", "canneal");
    let mut warm = System::new(cfg, "NN", "canneal");
    straight.run(5_000);
    warm.run(5_000);
    // The point of the test: the fork happens while the controller is
    // already off the base rung.
    assert!(
        warm.control_level().expect("controller attached") > 0,
        "escalate before the snapshot, log: {:?}",
        warm.decision_log().expect("controller attached").entries()
    );
    let snap =
        clognet_core::Snapshot::from_bytes(warm.snapshot().into_bytes()).expect("snapshot parses");
    let mut forked = System::restore(&snap).expect("snapshot restores");
    assert_eq!(
        straight.decision_log(),
        forked.decision_log(),
        "decision log did not round-trip through CLOGSNAP"
    );
    straight.run(5_000);
    forked.run(5_000);
    assert_eq!(straight.report(), forked.report(), "reports diverged");
    assert_eq!(
        straight.decision_log(),
        forked.decision_log(),
        "decision logs diverged after the fork"
    );
    assert_eq!(
        straight.snapshot().as_bytes(),
        forked.snapshot().as_bytes(),
        "snapshot bytes diverged: restored controller state is not byte-stable"
    );
}
