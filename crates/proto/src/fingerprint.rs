//! Job fingerprints and snapshot keys.
//!
//! The simulator is deterministic: a (configuration, workload, cycle
//! budget) triple fully determines its report, byte for byte, so
//! `clognet-serve` memoizes reports under a **fingerprint** of the job.
//!
//! The fingerprint is [`FxHasher`](crate::fxhash::FxHasher) over a
//! version tag, the bytes [`save_config`] writes for the resolved
//! [`SystemConfig`], and the job fields. Hashing the *resolved* config
//! collapses spelling variants (`--scheme dr` vs `--scheme
//! delegated-replies`); hashing the codec's bytes puts every field the
//! codec carries — which its round-trip test makes every field — in the
//! key. The version **must** be bumped whenever reports change for an
//! unchanged config: a stale cache entry would break byte identity.

use crate::config::SystemConfig;
use crate::fxhash::FxHasher;
use crate::snap::{save_config, SnapWriter};
use std::hash::Hasher;

/// Bump on any change to the fingerprint preimage *or* to simulation
/// behavior that alters reports for an unchanged config.
///
/// v2: the GPU probe-wait deferred-flush scan visits lines in sorted
/// order, which can reorder RP probe sends and so shift reports. v3 and
/// v4: [`SystemConfig`] gained the optional fabric and controller, every
/// field of each an identity knob. v5: the preimage is the snapshot
/// codec's config bytes instead of a second, hand-kept list of fields.
pub const FINGERPRINT_VERSION: u32 = 5;

/// The bytes a key hashes: the version tag, `cfg`'s snapshot bytes, and
/// whatever `tail` appends.
fn preimage(cfg: &SystemConfig, tail: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.str("clognet-fp-v");
    w.u32(FINGERPRINT_VERSION);
    save_config(&mut w, cfg);
    tail(&mut w);
    w.into_bytes()
}

/// FxHash over [`preimage`].
fn hash_config(cfg: &SystemConfig, tail: impl FnOnce(&mut SnapWriter)) -> u64 {
    let mut h = FxHasher::default();
    h.write(&preimage(cfg, tail));
    h.finish()
}

/// 64-bit fingerprint of a job: the config plus workload pairing, warmup
/// and measured cycles.
pub fn job_fingerprint(cfg: &SystemConfig, gpu: &str, cpu: &str, warm: u64, cycles: u64) -> u64 {
    hash_config(cfg, |w| {
        w.str(gpu);
        w.str(cpu);
        w.u64(warm);
        w.u64(cycles);
    })
}

/// Render a fingerprint the way the wire protocol and CLI print it:
/// 16 lowercase hex digits.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// 64-bit key of a warmup snapshot: the config, the workload pairing,
/// and the cycle the snapshot was taken at — but *not* the measurement
/// cycle budget, so jobs that differ only in how long they run after
/// warmup share the same snapshot. Execution-mode knobs (`--threads`,
/// `--shards`, `--no-ff`) are not [`SystemConfig`] fields and so cannot
/// move the key.
pub fn snapshot_key(cfg: &SystemConfig, gpu: &str, cpu: &str, cycle: u64) -> u64 {
    hash_config(cfg, |w| {
        w.str(gpu);
        w.str(cpu);
        w.u64(cycle);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ControlConfig, FabricConfig, Scheme, VirtualNetConfig};
    use crate::snap::{load_config, SnapReader};

    #[test]
    fn identical_configs_fingerprint_identically() {
        let a = SystemConfig::default();
        let b = SystemConfig::default();
        assert_eq!(
            job_fingerprint(&a, "HS", "bodytrack", 500, 2000),
            job_fingerprint(&b, "HS", "bodytrack", 500, 2000)
        );
    }

    #[test]
    fn canonical_string_is_versioned_and_covers_options() {
        let mut cfg = SystemConfig::default()
            .with_fabric(FabricConfig::default())
            .with_control(ControlConfig::default());
        cfg.noc.virtual_nets = Some(VirtualNetConfig {
            request_vcs: 1,
            reply_vcs: 3,
        });
        cfg.gpu.flush_interval = None;
        let s = preimage(&cfg, |w| w.str("HS"));
        let mut r = SnapReader::raw(&s);
        assert_eq!(r.str().unwrap(), "clognet-fp-v");
        assert_eq!(r.u32().unwrap(), FINGERPRINT_VERSION);
        // The config bytes decode to the config, so every option is in.
        assert_eq!(load_config(&mut r).unwrap(), cfg);
        assert_eq!(r.str().unwrap(), "HS");
        r.finish().unwrap();
        // Optional fields must differ from their `none` spellings.
        assert_ne!(s, preimage(&SystemConfig::default(), |w| w.str("HS")));
    }

    #[test]
    fn every_job_dimension_moves_the_fingerprint() {
        let base = SystemConfig::default();
        let fp = job_fingerprint(&base, "HS", "bodytrack", 500, 2000);
        assert_ne!(fp, job_fingerprint(&base, "MM", "bodytrack", 500, 2000));
        assert_ne!(fp, job_fingerprint(&base, "HS", "canneal", 500, 2000));
        assert_ne!(fp, job_fingerprint(&base, "HS", "bodytrack", 501, 2000));
        assert_ne!(fp, job_fingerprint(&base, "HS", "bodytrack", 500, 2001));
        // Config fields, each optional one set versus absent: a default
        // fabric or controller is still not none.
        let changes: [fn(&mut SystemConfig); 7] = [
            |c| c.scheme = Scheme::DelegatedReplies,
            |c| c.seed = 7,
            |c| c.noc.channel_bytes = 32,
            |c| {
                c.noc.virtual_nets = Some(VirtualNetConfig {
                    request_vcs: 1,
                    reply_vcs: 3,
                })
            },
            |c| c.gpu.flush_interval = None,
            |c| c.fabric = Some(FabricConfig::default()),
            |c| c.control = Some(ControlConfig::default()),
        ];
        for change in changes {
            let mut cfg = base.clone();
            change(&mut cfg);
            let other = job_fingerprint(&cfg, "HS", "bodytrack", 500, 2000);
            assert_ne!(fp, other, "{cfg:?}");
        }
    }

    #[test]
    fn every_fabric_knob_is_an_identity_knob() {
        use crate::config::FabricInterleave;
        use crate::config::FabricTopology;
        let base = SystemConfig::default().with_fabric(FabricConfig::default());
        let fp = job_fingerprint(&base, "HS", "bodytrack", 500, 2000);
        let sk = snapshot_key(&base, "HS", "bodytrack", 500);
        // Attaching a fabric at all must move both keys.
        let plain = SystemConfig::default();
        assert_ne!(fp, job_fingerprint(&plain, "HS", "bodytrack", 500, 2000));
        assert_ne!(sk, snapshot_key(&plain, "HS", "bodytrack", 500));
        // Every FabricConfig field must move both keys.
        let variants: [fn(&mut FabricConfig); 9] = [
            |f| f.chips = 4,
            |f| f.topology = FabricTopology::Ring,
            |f| f.link_flits = 1,
            |f| f.hop_latency = 40,
            |f| f.queue_pkts = 3,
            |f| f.gateways = 1,
            |f| f.interleave = FabricInterleave::Modulo,
            |f| f.reply_link_flits = 1,
            |f| f.reply_hop_latency = 40,
        ];
        for v in variants {
            let mut cfg = base.clone();
            v(cfg.fabric.as_mut().unwrap());
            assert_ne!(fp, job_fingerprint(&cfg, "HS", "bodytrack", 500, 2000));
            assert_ne!(sk, snapshot_key(&cfg, "HS", "bodytrack", 500));
        }
    }

    #[test]
    fn every_control_knob_is_an_identity_knob() {
        use crate::config::ControlPolicyKind;
        let base = SystemConfig::default().with_control(ControlConfig::default());
        let fp = job_fingerprint(&base, "HS", "bodytrack", 500, 2000);
        let sk = snapshot_key(&base, "HS", "bodytrack", 500);
        // Attaching a controller at all must move both keys.
        let plain = SystemConfig::default();
        assert_ne!(fp, job_fingerprint(&plain, "HS", "bodytrack", 500, 2000));
        assert_ne!(sk, snapshot_key(&plain, "HS", "bodytrack", 500));
        // Every ControlConfig field must move both keys.
        let variants: [fn(&mut ControlConfig); 7] = [
            |c| c.policy = ControlPolicyKind::NoOp,
            |c| c.interval = 250,
            |c| c.enter_blocked_pm = 999,
            |c| c.exit_blocked_pm = 1,
            |c| c.enter_episode = 77,
            |c| c.exit_episode = 7_777,
            |c| c.dwell = 9,
        ];
        for v in variants {
            let mut cfg = base.clone();
            v(cfg.control.as_mut().unwrap());
            assert_ne!(fp, job_fingerprint(&cfg, "HS", "bodytrack", 500, 2000));
            assert_ne!(sk, snapshot_key(&cfg, "HS", "bodytrack", 500));
        }
    }

    #[test]
    fn rp_fanout_is_part_of_the_scheme_tag() {
        let a = SystemConfig::default().with_scheme(Scheme::RealisticProbing { fanout: 4 });
        let b = SystemConfig::default().with_scheme(Scheme::RealisticProbing { fanout: 8 });
        assert_ne!(
            job_fingerprint(&a, "HS", "bodytrack", 500, 2000),
            job_fingerprint(&b, "HS", "bodytrack", 500, 2000)
        );
    }

    #[test]
    fn hex_rendering_is_fixed_width() {
        assert_eq!(fingerprint_hex(0xAB), "00000000000000ab");
        assert_eq!(fingerprint_hex(u64::MAX), "ffffffffffffffff");
    }
}
