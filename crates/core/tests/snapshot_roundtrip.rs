//! Property tests for the snapshot/fork engine: snapshot-at-K →
//! restore → run-to-N must be **byte-identical** to a straight
//! run-to-N — same report, same telemetry series, and the same
//! serialized snapshot bytes at N — across topologies, schemes,
//! engine modes (fast-forward, idle-skip), and with warmup
//! stats-reset in the middle.

use clognet_core::{Snapshot, System};
use clognet_proto::{Scheme, SnapError, SystemConfig, Topology, VirtualNetConfig, SNAP_VERSION};
use clognet_telemetry::TelemetryConfig;

/// Run `straight` to K+M in one go; fork `forked` at K through a full
/// serialize/parse/restore cycle, run both to K+M, and demand
/// byte-identical state at the end.
fn assert_roundtrip(cfg: SystemConfig, gpu: &str, cpu: &str, k: u64, m: u64) {
    let mut straight = System::new(cfg.clone(), gpu, cpu);
    let mut warm = System::new(cfg, gpu, cpu);
    straight.run(k);
    warm.run(k);
    let snap_bytes = warm.snapshot().into_bytes();
    let snap = Snapshot::from_bytes(snap_bytes).expect("snapshot parses");
    assert_eq!(snap.cycle(), k);
    let mut forked = System::restore(&snap).expect("snapshot restores");
    assert_eq!(forked.now(), k, "restored clock");
    straight.run(m);
    forked.run(m);
    assert_eq!(straight.now(), forked.now(), "clocks diverged");
    assert_eq!(straight.report(), forked.report(), "reports diverged");
    assert_eq!(
        straight.snapshot().as_bytes(),
        forked.snapshot().as_bytes(),
        "snapshot bytes at K+M diverged: restored state is not byte-stable"
    );
}

#[test]
fn roundtrip_across_schemes() {
    for scheme in [
        Scheme::Baseline,
        Scheme::DelegatedReplies,
        Scheme::rp_default(),
    ] {
        let cfg = SystemConfig::default().with_scheme(scheme);
        assert_roundtrip(cfg, "HS", "bodytrack", 1_500, 1_500);
    }
}

#[test]
fn roundtrip_across_topologies() {
    for topo in [Topology::Crossbar, Topology::FlattenedButterfly] {
        let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
        cfg.noc.topology = topo;
        assert_roundtrip(cfg, "NN", "blackscholes", 1_000, 1_000);
    }
}

#[test]
fn roundtrip_on_shared_network() {
    let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    cfg.noc.virtual_nets = Some(VirtualNetConfig {
        request_vcs: 2,
        reply_vcs: 2,
    });
    assert_roundtrip(cfg, "HS", "bodytrack", 1_200, 1_200);
}

/// A snapshot taken under one engine mode must restore into any other
/// with identical results: run the warmup with fast-forward and the
/// NoC idle-skip, restore with both off, and compare against a straight
/// run with both off.
#[test]
fn roundtrip_crosses_engine_modes() {
    let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let mut straight = System::new(cfg.clone(), "HS", "bodytrack");
    straight.set_fast_forward(false);
    straight.set_noc_idle_skip(false);
    straight.run(2_000);

    let mut warm = System::new(cfg, "HS", "bodytrack");
    warm.run(1_000);
    let snap = warm.snapshot();
    let mut forked = System::restore(&snap).expect("restore");
    forked.set_fast_forward(false);
    forked.set_noc_idle_skip(false);
    forked.run(1_000);
    assert_eq!(straight.now(), forked.now());
    assert_eq!(straight.report(), forked.report());
}

/// Snapshot → restore → reset_stats → measure must equal
/// run-warmup → reset_stats → measure (the warm-start sweep pattern).
#[test]
fn roundtrip_preserves_warmup_reset_semantics() {
    let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let mut cold = System::new(cfg.clone(), "HS", "bodytrack");
    cold.run(2_000);
    cold.reset_stats();
    cold.run(1_000);

    let mut warm = System::new(cfg, "HS", "bodytrack");
    warm.run(2_000);
    let snap = warm.snapshot();
    let mut forked = System::restore(&snap).unwrap();
    forked.reset_stats();
    forked.run(1_000);

    assert_eq!(cold.report(), forked.report());
}

/// Telemetry sessions (sampler rings, episodes, delta baselines)
/// survive the round trip.
#[test]
fn roundtrip_carries_telemetry() {
    let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let tcfg = TelemetryConfig {
        epoch_len: 256,
        ring_cap: 64,
        ..TelemetryConfig::default()
    };
    let mut straight = System::new(cfg.clone(), "HS", "bodytrack");
    straight.enable_telemetry(tcfg);
    straight.run(2_000);

    let mut warm = System::new(cfg, "HS", "bodytrack");
    warm.enable_telemetry(tcfg);
    warm.run(1_000);
    let mut forked = System::restore(&warm.snapshot()).unwrap();
    forked.run(1_000);

    assert_eq!(straight.report(), forked.report());
    assert_eq!(
        straight.export_series_csv(),
        forked.export_series_csv(),
        "telemetry series diverged across the round trip"
    );
}

/// Warm-applied parameters: forking a warmup and retargeting `injbuf` /
/// `drmax` must equal a cold run that takes the same config at the same
/// cycle. (Which parameters may be retargeted, and to what values, is
/// the sweep's and `SystemConfig::validate`'s to decide.)
#[test]
fn warm_params_retarget_a_forked_system() {
    let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let mut retargeted = cfg.clone();
    retargeted.noc.mem_inj_buf_pkts = 4;
    retargeted.dr.max_per_cycle = 1;
    let mut cold = System::new(cfg.clone(), "HS", "bodytrack");
    cold.run(1_500);
    cold.retarget(&retargeted);
    cold.reset_stats();
    cold.run(1_500);

    let mut warm = System::new(cfg, "HS", "bodytrack");
    warm.run(1_500);
    let snap = warm.snapshot();
    let mut forked = System::restore(&snap).unwrap();
    forked.retarget(&retargeted);
    forked.reset_stats();
    forked.run(1_500);

    assert_eq!(cold.report(), forked.report());
    assert_eq!(forked.config(), &retargeted);
}

/// A snapshot whose config no system can be built from (here its mesh
/// height patched to 3, so the 64 nodes no longer tile the grid) is a
/// decode error, not a panic inside the rebuild.
#[test]
fn snapshots_of_unbuildable_configs_are_errors() {
    let mut bytes = System::new(SystemConfig::default(), "HS", "bodytrack")
        .snapshot()
        .into_bytes();
    // Header (8-byte magic, 4-byte version), layout tag, mesh width:
    // the low byte of the mesh height is at 0x15.
    assert_eq!(bytes[0x15], 8);
    bytes[0x15] = 3;
    match Snapshot::from_bytes(bytes) {
        Err(SnapError::Config(e)) => assert!(e.to_string().contains("8x3"), "{e}"),
        other => panic!("expected SnapError::Config, got {other:?}"),
    }
}

/// Scheme warm-apply: forking one Baseline warmup into a
/// DelegatedReplies measurement must equal a cold run that switches
/// scheme at the same cycle.
#[test]
fn scheme_switches_warm_apply() {
    let cfg = SystemConfig::default().with_scheme(Scheme::Baseline);
    let mut cold = System::new(cfg.clone(), "HS", "bodytrack");
    cold.run(1_500);
    cold.set_scheme(Scheme::DelegatedReplies);
    cold.reset_stats();
    cold.run(1_500);

    let mut warm = System::new(cfg, "HS", "bodytrack");
    warm.run(1_500);
    let mut forked = System::restore(&warm.snapshot()).unwrap();
    forked.set_scheme(Scheme::DelegatedReplies);
    forked.reset_stats();
    forked.run(1_500);

    assert_eq!(cold.report(), forked.report());
    assert!(forked.report().delegations > 0 || cold.report().delegations == 0);
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pin the snapshot bytes themselves. The round-trip tests above cannot
/// catch a save/load pair that reorders state in step (say, router VCs
/// written and read in a new order); a digest of the bytes can. The
/// digests change only together with `SNAP_VERSION`: an internal layout
/// change must leave them alone, and a deliberate format change bumps
/// the version and re-records them.
#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(
        SNAP_VERSION, 4,
        "new snapshot format: re-record the digests below"
    );
    let dr = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let mut shared = dr.clone();
    shared.noc.virtual_nets = Some(VirtualNetConfig {
        request_vcs: 2,
        reply_vcs: 2,
    });
    for (chip, cfg, want) in [
        ("default DR chip", dr, 0x882c_9acf_e0f7_7fb6),
        ("shared-network chip", shared, 0xa7c3_91fb_dbb2_adc0),
    ] {
        let mut sys = System::new(cfg, "HS", "bodytrack");
        sys.run(1_500);
        let got = fnv1a(sys.snapshot().as_bytes());
        assert_eq!(
            got, want,
            "{chip}: snapshot bytes moved (digest {got:#018x})"
        );
    }
}
