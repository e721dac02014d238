//! Versioned, byte-stable snapshots of a full [`System`](crate::System).
//!
//! A [`Snapshot`] captures everything that determines future simulation
//! behavior — config, benchmark names, cycle clock, packet sequencing,
//! every subsystem's architectural and statistical state, in-flight
//! network traffic, trace log, and telemetry session — behind the
//! `CLOGSNAP` versioned header from `clognet_proto::snap`. Restoring a
//! snapshot and running to cycle `N` is byte-identical to running the
//! original system straight to `N`, under every engine mode.
//!
//! Execution-mode knobs (fast-forward, idle-skip, thread counts) are
//! deliberately **not** part of a snapshot: they never change results,
//! so one snapshot can be resumed under any of them. See DESIGN.md
//! §12 for the wire format.

use clognet_proto::snap::{self, SnapError, SnapReader, SnapWriter};
use clognet_proto::{snapshot_key, Cycle, SystemConfig};

/// An opaque, self-describing snapshot of one [`System`](crate::System).
///
/// The identifying prefix (config, benchmark names, cycle) is parsed
/// eagerly so callers can inspect a snapshot — or compute its cache
/// key — without paying for a full restore.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) bytes: Vec<u8>,
    pub(crate) cfg: SystemConfig,
    pub(crate) gpu_bench: String,
    pub(crate) cpu_bench: String,
    pub(crate) cycle: Cycle,
}

impl Snapshot {
    /// Validate and adopt raw snapshot bytes (e.g. read from a file or
    /// received over the wire).
    ///
    /// # Errors
    ///
    /// Fails on a bad magic/version header, a truncated/corrupt
    /// identifying prefix, an unknown benchmark, or a config no system
    /// can be built from ([`SnapError::Config`]), so a parsed snapshot
    /// always rebuilds. The body is validated lazily by
    /// [`System::restore`](crate::System::restore).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(&bytes)?;
        let cfg = snap::load_config(&mut r)?;
        cfg.validate().map_err(SnapError::Config)?;
        let gpu_bench = r.str()?;
        let cpu_bench = r.str()?;
        let gpu_known = clognet_workloads::gpu_benchmark(&gpu_bench).is_some();
        if !gpu_known || clognet_workloads::cpu_benchmark(&cpu_bench).is_none() {
            return Err(SnapError::Corrupt("unknown benchmark in snapshot"));
        }
        let cycle = r.u64()?;
        Ok(Snapshot {
            bytes,
            cfg,
            gpu_bench,
            cpu_bench,
            cycle,
        })
    }

    /// The serialized form (header included) — what `clognet snapshot`
    /// writes to disk and the cluster replicates.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the serialized form.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The configuration the snapshotted system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// GPU benchmark name.
    pub fn gpu_bench(&self) -> &str {
        &self.gpu_bench
    }

    /// CPU benchmark name.
    pub fn cpu_bench(&self) -> &str {
        &self.cpu_bench
    }

    /// The cycle the snapshot was taken at.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The content-address for snapshot caching: hashes the canonical
    /// config (execution knobs excluded), benchmark names, and cycle.
    pub fn key(&self) -> u64 {
        snapshot_key(&self.cfg, &self.gpu_bench, &self.cpu_bench, self.cycle)
    }
}

/// Writer-side entry point used by [`System::snapshot`](crate::System::snapshot); kept here so
/// the identifying-prefix layout lives in one file with its reader.
pub(crate) fn begin_snapshot(
    cfg: &SystemConfig,
    gpu_bench: &str,
    cpu_bench: &str,
    now: Cycle,
) -> SnapWriter {
    let mut w = SnapWriter::with_header();
    snap::save_config(&mut w, cfg);
    w.str(gpu_bench);
    w.str(cpu_bench);
    w.u64(now);
    w
}

/// Reader-side entry point used by [`System::restore`](crate::System::restore): re-validates
/// the header and skips the already-parsed identifying prefix.
pub(crate) fn body_reader(snapshot: &Snapshot) -> Result<SnapReader<'_>, SnapError> {
    let mut r = SnapReader::new(&snapshot.bytes)?;
    let _ = snap::load_config(&mut r)?;
    let _ = r.str()?;
    let _ = r.str()?;
    let _ = r.u64()?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;
    use clognet_proto::snap::SNAP_VERSION;

    #[test]
    fn foreign_bytes_are_rejected() {
        assert!(matches!(
            Snapshot::from_bytes(b"not a snapshot at all".to_vec()),
            Err(SnapError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::from_bytes(Vec::new()),
            Err(SnapError::Truncated)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let sys = System::new(SystemConfig::default(), "HS", "bodytrack");
        let mut bytes = sys.snapshot().into_bytes();
        // Bump the version field (bytes 8..12, little-endian).
        bytes[8..12].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(SnapError::BadVersion(v)) if v == SNAP_VERSION + 1
        ));
    }

    #[test]
    fn truncated_body_fails_restore_not_parse() {
        let mut sys = System::new(SystemConfig::default(), "HS", "bodytrack");
        sys.run(500);
        let full = sys.snapshot().into_bytes();
        let cut = full[..full.len() - 7].to_vec();
        // The identifying prefix is intact, so parsing succeeds...
        let snap = Snapshot::from_bytes(cut).expect("prefix intact");
        // ...but the body is short, so restore must fail cleanly.
        assert!(System::restore(&snap).is_err());
    }

    #[test]
    fn trailing_garbage_fails_restore() {
        let sys = System::new(SystemConfig::default(), "HS", "bodytrack");
        let mut bytes = sys.snapshot().into_bytes();
        bytes.extend_from_slice(&[0u8; 9]);
        let snap = Snapshot::from_bytes(bytes).expect("prefix intact");
        assert!(matches!(
            System::restore(&snap),
            Err(SnapError::TrailingBytes(9))
        ));
    }

    #[test]
    fn prefix_accessors_report_identity() {
        let cfg = SystemConfig::default();
        let mut sys = System::new(cfg.clone(), "HS", "bodytrack");
        sys.run(1_000);
        let snap = sys.snapshot();
        assert_eq!(snap.cycle(), 1_000);
        assert_eq!(snap.gpu_bench(), "HS");
        assert_eq!(snap.cpu_bench(), "bodytrack");
        assert_eq!(
            snap.key(),
            snapshot_key(&cfg, "HS", "bodytrack", 1_000),
            "key must match the serve-side derivation"
        );
        // Round-trips through bytes preserve identity and key.
        let back = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        assert_eq!(back.key(), snap.key());
    }
}
