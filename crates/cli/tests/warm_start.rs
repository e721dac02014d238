//! Warm-start equivalence at the driver level: `--warm-from fork`
//! (simulate the warmup once, fork the snapshot into every variant)
//! must render byte-identical output to `--warm-from each` (re-warm
//! per variant), and a snapshot file written up front must fork the
//! same way. This is the same invariant the CI warm-start smoke
//! checks end-to-end through the binary.

use clognet_cli::config::Job;
use clognet_cli::driver::{
    parse_warm_start, run_compare_warm, run_sweep_warm, sweep_point_json, WarmStart,
};
use clognet_cli::{config_from, report, Args};
use clognet_core::System;
use clognet_proto::SystemConfig;
use std::collections::BTreeMap;

const GPU: &str = "HS";
const CPU: &str = "bodytrack";
const WARM: u64 = 600;
const CYCLES: u64 = 900;

fn base() -> SystemConfig {
    config_from(&Args::from_opts("run", &BTreeMap::new())).expect("default config")
}

/// `gpu`+[`CPU`] on `cfg` at the test budget.
fn job(gpu: &'static str, cfg: SystemConfig) -> Job<'static> {
    Job {
        gpu,
        cpu: CPU,
        warm: WARM,
        cycles: CYCLES,
        cfg,
        ff: true,
    }
}

fn sweep_lines(param: &str, values: &[u64], mode: &WarmStart) -> Vec<String> {
    let points =
        run_sweep_warm(&job(GPU, base()), param, values, 2, mode).expect("warm sweep runs");
    points.iter().map(|p| sweep_point_json(param, p)).collect()
}

#[test]
fn forked_sweep_is_byte_identical_to_rewarmed_sweep() {
    let values = [2, 4, 8];
    let fork = sweep_lines("injbuf", &values, &WarmStart::Fork);
    let each = sweep_lines("injbuf", &values, &WarmStart::Each);
    assert_eq!(fork, each, "fork and each must render identical points");
}

#[test]
fn drmax_sweep_forks_deterministically() {
    let values = [1, 2, 4];
    let fork = sweep_lines("drmax", &values, &WarmStart::Fork);
    let again = sweep_lines("drmax", &values, &WarmStart::Fork);
    let each = sweep_lines("drmax", &values, &WarmStart::Each);
    assert_eq!(fork, again, "forked sweeps are run-to-run deterministic");
    assert_eq!(fork, each, "drmax applies identically after either warmup");
}

#[test]
fn forked_compare_is_byte_identical_to_rewarmed_compare() {
    let fork = run_compare_warm(&job(GPU, base()), 2, &WarmStart::Fork).expect("warm compare runs");
    let each = run_compare_warm(&job(GPU, base()), 2, &WarmStart::Each).expect("warm compare runs");
    assert_eq!(fork.len(), each.len());
    for ((fs, fr), (es, er)) in fork.iter().zip(&each) {
        assert_eq!(fs, es, "schemes come back in table order");
        assert_eq!(
            report::report_json(*fs, fr),
            report::report_json(*es, er),
            "{fs:?} diverged between fork and each"
        );
    }
}

#[test]
fn snapshot_files_fork_like_inline_snapshots() {
    let cfg = base();
    let mut sys = System::new(cfg.clone(), GPU, CPU);
    sys.run(WARM);
    let path = std::env::temp_dir().join(format!("warm_start_test_{}.snap", std::process::id()));
    std::fs::write(&path, sys.snapshot().into_bytes()).expect("write snapshot");

    let file_mode = parse_warm_start(path.to_str().expect("utf-8 temp path"));
    assert!(matches!(file_mode, WarmStart::File(_)));
    let values = [2, 6];
    let from_file = sweep_lines("injbuf", &values, &file_mode);
    let forked = sweep_lines("injbuf", &values, &WarmStart::Fork);
    std::fs::remove_file(&path).ok();
    assert_eq!(from_file, forked, "file-based warm start == inline fork");
}

#[test]
fn mismatched_snapshot_files_are_rejected_up_front() {
    let cfg = base();
    let mut sys = System::new(cfg.clone(), GPU, CPU);
    sys.run(WARM);
    let path =
        std::env::temp_dir().join(format!("warm_start_mismatch_{}.snap", std::process::id()));
    std::fs::write(&path, sys.snapshot().into_bytes()).expect("write snapshot");
    let mode = WarmStart::File(path.to_str().expect("utf-8 temp path").to_string());

    let wrong_bench =
        run_sweep_warm(&job("MM", cfg.clone()), "injbuf", &[2], 1, &mode).unwrap_err();
    assert!(
        wrong_bench.0.contains("was taken on"),
        "bench mismatch names the snapshot's workloads: {wrong_bench:?}"
    );

    let mut other = cfg.clone();
    other.noc.channel_bytes *= 2;
    let wrong_cfg = run_sweep_warm(&job(GPU, other), "injbuf", &[2], 1, &mode).unwrap_err();
    assert!(
        wrong_cfg.0.contains("different configuration"),
        "config mismatch is detected: {wrong_cfg:?}"
    );

    let structural =
        run_sweep_warm(&job(GPU, cfg), "width", &[16], 1, &WarmStart::Fork).unwrap_err();
    assert!(
        structural.0.contains("structural"),
        "structural params cannot be warm-forked: {structural:?}"
    );
    std::fs::remove_file(&path).ok();
}
