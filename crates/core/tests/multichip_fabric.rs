//! Property tests for the multi-chip package engine
//! ([`MultiChipSystem`]): the 1-chip package must be *invisible* (byte-
//! identical to a plain [`System`] with fast-forward on and off),
//! multi-chip packages must be engine-invariant the same way single
//! chips are, and package snapshots must round-trip — with typed
//! rejection when a snapshot and a restore target disagree about the
//! chip count.

use clognet_core::{MultiChipSystem, System};
use clognet_proto::{FabricConfig, Scheme, SnapError, SystemConfig};
use clognet_telemetry::TelemetryConfig;

fn two_chip_cfg(scheme: Scheme) -> SystemConfig {
    let mut cfg = SystemConfig::default().with_scheme(scheme);
    cfg.fabric = Some(FabricConfig::default()); // 2 chips, pair fabric
    cfg
}

#[test]
fn one_chip_package_is_byte_identical_to_a_plain_system() {
    // The degenerate package must not merely be "close": reports,
    // clocks, telemetry series, and snapshot bytes all match the plain
    // single-chip engine exactly, with fast-forward on and off.
    for ff in [true, false] {
        let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
        let mut package = MultiChipSystem::new(cfg.clone(), "HS", "bodytrack");
        let mut plain = System::new(cfg, "HS", "bodytrack");
        package.set_fast_forward(ff);
        plain.set_fast_forward(ff);
        package.enable_telemetry(TelemetryConfig {
            epoch_len: 256,
            ring_cap: 64,
            ..TelemetryConfig::default()
        });
        plain.enable_telemetry(TelemetryConfig {
            epoch_len: 256,
            ring_cap: 64,
            ..TelemetryConfig::default()
        });
        package.run(700);
        plain.run(700);
        package.reset_stats();
        plain.reset_stats();
        package.run(1_300);
        plain.run(1_300);
        assert_eq!(package.now(), plain.now(), "clocks (ff={ff})");
        assert_eq!(package.report(), plain.report(), "report (ff={ff})");
        assert_eq!(
            package.export_series_csv(),
            plain.export_series_csv(),
            "telemetry series (ff={ff})"
        );
        assert_eq!(
            package.snapshot().as_bytes(),
            plain.snapshot().as_bytes(),
            "snapshot bytes (ff={ff})"
        );
        assert!(package.fabric_summary().is_none(), "1 chip has no fabric");
    }
}

fn assert_two_chip_engine_invariance(scheme: Scheme) {
    let cfg = two_chip_cfg(scheme);
    let mut reference = MultiChipSystem::new(cfg.clone(), "HS", "bodytrack");
    let mut no_ff = MultiChipSystem::new(cfg, "HS", "bodytrack");
    no_ff.set_fast_forward(false);
    for sys in [&mut reference, &mut no_ff] {
        sys.enable_telemetry(TelemetryConfig {
            epoch_len: 256,
            ring_cap: 64,
            ..TelemetryConfig::default()
        });
        sys.run(500);
        sys.reset_stats();
        sys.run(1_500);
    }
    assert_eq!(reference.now(), no_ff.now());
    assert_eq!(
        reference.report(),
        no_ff.report(),
        "fast-forward changed a 2-chip report under {scheme:?}"
    );
    assert_eq!(reference.export_series_csv(), no_ff.export_series_csv());
    // The fabric is not decorative: the package actually moved
    // messages between chips in the measured span.
    let summary = reference.fabric_summary().expect("2 chips have a fabric");
    assert!(
        summary.delivered_req > 0 && summary.delivered_rep > 0,
        "no cross-chip traffic: {summary:?}"
    );
}

#[test]
fn two_chip_reports_are_engine_invariant_across_schemes() {
    assert_two_chip_engine_invariance(Scheme::Baseline);
    assert_two_chip_engine_invariance(Scheme::DelegatedReplies);
    assert_two_chip_engine_invariance(Scheme::rp_default());
}

#[test]
fn two_chip_snapshot_round_trips_byte_identically() {
    let cfg = two_chip_cfg(Scheme::DelegatedReplies);
    let mut source = MultiChipSystem::new(cfg, "MM", "canneal");
    source.run(900);
    let snap = source.snapshot();
    // A freshly restored package continues exactly where the source
    // does: same reports and same re-snapshot bytes, arbitrarily far.
    let mut restored = MultiChipSystem::restore(&snap).expect("2-chip snapshot restores");
    assert_eq!(restored.now(), source.now());
    for chunk in 0..2 {
        source.run(700);
        restored.run(700);
        assert_eq!(
            source.report(),
            restored.report(),
            "fork diverged at checkpoint {chunk}"
        );
    }
    assert_eq!(
        source.snapshot().as_bytes(),
        restored.snapshot().as_bytes(),
        "re-snapshot bytes diverged"
    );
    // The round trip also survives the byte-level codec.
    let bytes = snap.as_bytes().to_vec();
    let reparsed = clognet_core::Snapshot::from_bytes(bytes).expect("bytes parse");
    MultiChipSystem::restore(&reparsed).expect("reparsed snapshot restores");
}

#[test]
fn chip_count_mismatches_are_typed_errors_both_directions() {
    // A 2-chip snapshot refuses to restore into a plain System...
    let mut package = MultiChipSystem::new(two_chip_cfg(Scheme::Baseline), "HS", "bodytrack");
    package.run(300);
    let snap = package.snapshot();
    match System::restore(&snap) {
        Err(SnapError::ChipMismatch { snapshot, expected }) => {
            assert_eq!((snapshot, expected), (2, 1));
        }
        other => panic!("expected ChipMismatch, got {other:?}"),
    }
    // ...and a single-chip *body* under a 2-chip config refuses to
    // restore into a package (a plain System built from a fabric
    // config simulates one chip and snapshots as one).
    let mut lone = System::new(two_chip_cfg(Scheme::Baseline), "HS", "bodytrack");
    lone.run(300);
    let snap = lone.snapshot();
    match MultiChipSystem::restore(&snap) {
        Err(SnapError::ChipMismatch { snapshot, expected }) => {
            assert_eq!((snapshot, expected), (1, 2));
        }
        other => panic!("expected ChipMismatch, got {other:?}"),
    }
}

#[test]
fn degenerate_fabric_configs_are_rejected_up_front() {
    let reject = |mutate: fn(&mut FabricConfig)| {
        let mut cfg = SystemConfig::default();
        let mut f = FabricConfig::default();
        mutate(&mut f);
        cfg.fabric = Some(f);
        cfg.validate().unwrap_err().to_string()
    };
    assert!(reject(|f| f.chips = 0).contains("chip"));
    assert!(reject(|f| f.link_flits = 0).contains("link width"));
    assert!(reject(|f| f.reply_link_flits = 0).contains("reply link width"));
    assert!(reject(|f| f.queue_pkts = 0).contains("queue"));
    assert!(reject(|f| f.gateways = 0).contains("gateway"));
    assert!(reject(|f| f.gateways = 1).contains("at least 2"));
    assert!(reject(|f| f.gateways = 999).contains("memory nodes"));
    assert!(reject(|f| f.chips = 3).contains("pair"));
    // A shared-VC net cannot host the gateway adapter: the fabric path
    // separates cross-chip replies from local requests by physical
    // network. (Composition found by `clognet fuzz`.)
    let mut cfg = SystemConfig {
        fabric: Some(FabricConfig::default()),
        ..SystemConfig::default()
    };
    cfg.noc.virtual_nets = Some(clognet_proto::VirtualNetConfig {
        request_vcs: 2,
        reply_vcs: 2,
    });
    assert!(cfg.validate().unwrap_err().to_string().contains("vnets"));
    // No fabric at all is always fine.
    SystemConfig::default().validate().unwrap();
}
