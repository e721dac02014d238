//! System-level check that the NoC and endpoint skips do not change
//! simulation results: a run with every skip disabled (reference mode
//! via [`System::set_noc_idle_skip`]) produces a
//! [`Report`](clognet_core::Report) equal field-for-field to the default
//! run, and the same [`System::snapshot`] bytes, which also cover the
//! per-node injection-stall counters and the packet ids the report
//! leaves out.

use clognet_core::{Report, System};
use clognet_proto::{Scheme, SystemConfig, TrafficClass};

fn run(scheme: Scheme, gpu: &str, cpu: &str, idle_skip: bool) -> (Report, Vec<u8>, u64) {
    let cfg = SystemConfig::default().with_scheme(scheme);
    let mut sys = System::new(cfg, gpu, cpu);
    sys.set_noc_idle_skip(idle_skip);
    sys.run(1_000);
    sys.reset_stats();
    sys.run(3_000);
    let stalls = TrafficClass::ALL
        .iter()
        .map(|&c| {
            sys.nets()
                .net(c)
                .stats()
                .node_inj_stall_cycles
                .iter()
                .sum::<u64>()
        })
        .sum();
    (sys.report(), sys.snapshot().as_bytes().to_vec(), stalls)
}

/// Run `gpu` + `cpu` under each scheme with the skips on and off, and
/// return the fast runs' injection-stall cycles.
fn assert_skips_invisible(gpu: &str, cpu: &str, schemes: &[Scheme]) -> Vec<u64> {
    let mut stalls = Vec::new();
    for &scheme in schemes {
        let (fast, fast_snap, fast_stalls) = run(scheme, gpu, cpu, true);
        let (reference, ref_snap, _) = run(scheme, gpu, cpu, false);
        assert!(fast.gpu_ipc > 0.0, "simulation never ran");
        assert_eq!(
            fast, reference,
            "the skips changed the {gpu}+{cpu} {scheme:?} report"
        );
        assert!(
            fast_snap == ref_snap,
            "the skips changed the {gpu}+{cpu} {scheme:?} snapshot bytes"
        );
        stalls.push(fast_stalls);
    }
    stalls
}

#[test]
fn idle_skip_report_matches_reference() {
    assert_skips_invisible(
        "HS",
        "bodytrack",
        &[Scheme::Baseline, Scheme::DelegatedReplies],
    );
}

#[test]
fn idle_skip_matches_reference_on_the_clogging_pair() {
    // NN + canneal clogs: memory nodes block, NIs stall and park, and
    // memory-node replies are refused at the NI.
    let stalls = assert_skips_invisible(
        "NN",
        "canneal",
        &[
            Scheme::Baseline,
            Scheme::DelegatedReplies,
            Scheme::rp_default(),
        ],
    );
    assert!(
        stalls.iter().all(|&s| s > 0),
        "no injection stalls, so the NI skips went untested: {stalls:?}"
    );
}
