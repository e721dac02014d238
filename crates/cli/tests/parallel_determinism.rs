//! Determinism under parallelism: the `--json` documents `compare` and
//! `sweep` print must be **byte-identical** between `--threads 1` and
//! `--threads N` — and between fast-forward and the per-cycle
//! reference loop. Every job owns its `System` (seeded PRNG, no shared
//! state) and the runner returns results in submission order, so
//! neither thread count nor execution mode can change what's printed.

use clognet_cli::config::Job;
use clognet_cli::driver;
use clognet_cli::report;
use clognet_proto::SystemConfig;

const WARM: u64 = 300;
const CYCLES: u64 = 900;

/// The default chip running `gpu`+`cpu` at the test budget.
fn job(gpu: &'static str, cpu: &'static str, ff: bool) -> Job<'static> {
    Job {
        gpu,
        cpu,
        warm: WARM,
        cycles: CYCLES,
        cfg: SystemConfig::default(),
        ff,
    }
}

#[test]
fn compare_json_identical_across_thread_counts_and_ff_modes() {
    let seq = driver::run_compare(&job("HS", "bodytrack", true), 1);
    let par = driver::run_compare(&job("HS", "bodytrack", true), 4);
    let no_ff = driver::run_compare(&job("HS", "bodytrack", false), 4);
    assert_eq!(
        report::comparison_json(&seq),
        report::comparison_json(&par),
        "compare --json differs between --threads 1 and --threads 4"
    );
    assert_eq!(
        report::comparison_json(&seq),
        report::comparison_json(&no_ff),
        "compare --json differs between fast-forward and --no-ff"
    );
}

#[test]
fn sweep_json_identical_across_thread_counts_and_ff_modes() {
    let values = [8u64, 16];
    let render = |points: &[driver::SweepPoint]| {
        points
            .iter()
            .map(|p| driver::sweep_point_json("width", p))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let sweep =
        |ff, threads| driver::run_sweep(&job("MM", "canneal", ff), "width", &values, threads);
    let seq = sweep(true, 1).unwrap();
    let par = sweep(true, 3).unwrap();
    let no_ff = sweep(false, 3).unwrap();
    assert_eq!(
        render(&seq),
        render(&par),
        "sweep --json differs between --threads 1 and --threads 3"
    );
    assert_eq!(
        render(&seq),
        render(&no_ff),
        "sweep --json differs between fast-forward and --no-ff"
    );
}
