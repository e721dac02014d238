//! Determinism under parallelism: the `--json` documents `compare` and
//! `sweep` print must be **byte-identical** between `--threads 1` and
//! `--threads N` — and between fast-forward and the per-cycle
//! reference loop. Every job owns its `System` (seeded PRNG, no shared
//! state) and the runner returns results in submission order, so
//! neither thread count nor execution mode can change what's printed.

use clognet_cli::driver;
use clognet_cli::report;
use clognet_proto::SystemConfig;

const WARM: u64 = 300;
const CYCLES: u64 = 900;

#[test]
fn compare_json_identical_across_thread_counts_and_ff_modes() {
    let cfg = SystemConfig::default();
    let seq = driver::run_compare(&cfg, "HS", "bodytrack", WARM, CYCLES, 1, true);
    let par = driver::run_compare(&cfg, "HS", "bodytrack", WARM, CYCLES, 4, true);
    let no_ff = driver::run_compare(&cfg, "HS", "bodytrack", WARM, CYCLES, 4, false);
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
    let cfg = SystemConfig::default();
    let values = [8u64, 16];
    let render = |points: &[driver::SweepPoint]| {
        points
            .iter()
            .map(|p| driver::sweep_point_json("width", p))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let seq = driver::run_sweep(
        &cfg, "width", &values, "MM", "canneal", WARM, CYCLES, 1, true,
    )
    .unwrap();
    let par = driver::run_sweep(
        &cfg, "width", &values, "MM", "canneal", WARM, CYCLES, 3, true,
    )
    .unwrap();
    let no_ff = driver::run_sweep(
        &cfg, "width", &values, "MM", "canneal", WARM, CYCLES, 3, false,
    )
    .unwrap();
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
