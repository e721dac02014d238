//! CLI-level multi-chip checks: the driver path every subcommand now
//! routes through ([`driver::measure`] on a [`MultiChipSystem`]) must
//! be invisible for single-chip configs and engine-invariant for
//! packages — the same contracts the core-level property tests assert,
//! re-checked through the CLI's own plumbing.

use clognet_cli::driver::measure;
use clognet_core::System;
use clognet_proto::{FabricConfig, Scheme, SystemConfig};

#[test]
fn one_chip_cli_measurement_matches_a_plain_system() {
    // `clognet run` without `--chips` must produce exactly what it
    // produced before packages existed.
    let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let via_cli = measure(cfg.clone(), "HS", "bodytrack", 400, 800, true);
    let mut sys = System::new(cfg, "HS", "bodytrack");
    sys.run(400);
    sys.reset_stats();
    sys.run(800);
    assert_eq!(via_cli, sys.report());
}

#[test]
fn two_chip_cli_measurements_are_engine_invariant() {
    let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    cfg.fabric = Some(FabricConfig::default());
    let reference = measure(cfg.clone(), "HS", "bodytrack", 300, 700, true);
    let no_ff = measure(cfg, "HS", "bodytrack", 300, 700, false);
    assert_eq!(reference, no_ff, "--no-ff changed a 2-chip report");
}
