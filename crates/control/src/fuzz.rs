//! Seeded scenario generator for `clognet fuzz`.
//!
//! Each case is a random-but-**valid** combination of system
//! configuration, workload pairing, scheme, fabric, control policy,
//! cycle budget, and shard count — valid *by construction*, so the
//! fuzz driver never wastes a case on an up-front validation error.
//! The grammar (DESIGN.md §14) only draws from combinations every
//! engine mode supports:
//!
//! * the mesh stays 8×8 (so shard counts 1/2/4 always partition it);
//!   non-mesh topologies force `shards = 1`;
//! * multi-chip packages stay at 2 chips on the pair fabric with
//!   valid gateway counts, and never combine with `--vnets` (the
//!   gateway adapter needs physically separate networks);
//! * control thresholds are drawn from both the always-firing and the
//!   never-firing ends, so adaptive actuation is exercised in lockstep
//!   across engines.
//!
//! Determinism: one `u64` seed fully determines the case sequence
//! (xoshiro256++ behind [`SmallRng`]), so a failing case is
//! reproducible from its printed command line alone.

use clognet_proto::{
    knobs, ControlConfig, ControlPolicyKind, FabricConfig, LayoutKind, Scheme, SystemConfig,
    Topology, VirtualNetConfig,
};
use clognet_rng::{Rng, SeedableRng, SmallRng};

/// One generated fuzz case: everything a single `clognet run`
/// invocation needs, plus the shard count to cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Case index within the sequence (for progress display).
    pub index: usize,
    /// Full system configuration (scheme, fabric, control included).
    pub cfg: SystemConfig,
    /// GPU benchmark name.
    pub gpu: String,
    /// CPU benchmark name.
    pub cpu: String,
    /// Warmup cycles.
    pub warm: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// Shard count for the sharded-engine legs (1 = sequential only).
    pub shards: usize,
}

impl FuzzCase {
    /// Render the case as a `clognet run` command line that rebuilds
    /// exactly this configuration — the reproducer printed when a case
    /// fails the lockstep check.
    pub fn repro_line(&self) -> String {
        let opts = knobs::job_options(&self.cfg, &self.gpu, &self.cpu, self.warm, self.cycles);
        let mut line = format!("clognet run {opts}");
        if self.shards > 1 {
            line += &format!(" --shards {}", self.shards);
        }
        line
    }
}

/// Deterministic stream of fuzz cases from one seed.
#[derive(Debug)]
pub struct ScenarioGen<'a> {
    rng: SmallRng,
    gpus: &'a [&'a str],
    cpus: &'a [&'a str],
    next_index: usize,
}

impl<'a> ScenarioGen<'a> {
    /// Generator drawing workload pairings from the given benchmark
    /// name lists (both must be non-empty).
    pub fn new(seed: u64, gpus: &'a [&'a str], cpus: &'a [&'a str]) -> Self {
        assert!(!gpus.is_empty() && !cpus.is_empty());
        ScenarioGen {
            rng: SmallRng::seed_from_u64(seed ^ 0xC106_FA22_5CEA_0001),
            gpus,
            cpus,
            next_index: 0,
        }
    }

    fn pick<'b>(&mut self, list: &'b [&'b str]) -> &'b str {
        list[self.rng.gen_range(0..list.len())]
    }

    /// Draw the next case.
    #[allow(clippy::field_reassign_with_default)] // built dimension by dimension
    pub fn next_case(&mut self) -> FuzzCase {
        let rng = &mut self.rng;
        let mut cfg = SystemConfig::default();
        cfg.seed = rng.gen_range(0..u64::MAX);
        cfg.layout = LayoutKind::ALL[rng.gen_range(0..4u32) as usize];
        let (req, rep) = SystemConfig::best_routing_for(cfg.layout);
        cfg.noc.routing_request = req;
        cfg.noc.routing_reply = rep;
        // Mostly mesh (sharding needs it); occasionally another
        // topology, which forces the sequential engine.
        cfg.noc.topology = match rng.gen_range(0..8u32) {
            0 => Topology::Crossbar,
            1 => Topology::FlattenedButterfly,
            2 => Topology::Dragonfly,
            _ => Topology::Mesh,
        };
        cfg.scheme = match rng.gen_range(0..4u32) {
            0 => Scheme::Baseline,
            1 => Scheme::DelegatedReplies,
            2 => Scheme::rp_default(),
            _ => Scheme::RealisticProbing { fanout: 2 },
        };
        if rng.gen_bool(0.25) {
            cfg.noc.virtual_nets = Some(match rng.gen_range(0..3u32) {
                0 => VirtualNetConfig {
                    request_vcs: 1,
                    reply_vcs: 3,
                },
                1 => VirtualNetConfig {
                    request_vcs: 2,
                    reply_vcs: 2,
                },
                _ => VirtualNetConfig {
                    request_vcs: 3,
                    reply_vcs: 1,
                },
            });
        }
        // Small injection buffers make clogging (and therefore
        // adaptive actuation) likely within a short budget.
        cfg.noc.mem_inj_buf_pkts = [4usize, 8, 16][rng.gen_range(0..3usize)];
        // Multi-chip occasionally: 2 chips, pair fabric, maybe a
        // degraded reply plane. The fabric gateway adapter needs
        // physically separate request/reply networks (`validate_fabric`
        // rejects --vnets with --chips), so a package drops the shared
        // net.
        if rng.gen_bool(0.2) {
            cfg.noc.virtual_nets = None;
            let mut fab = FabricConfig::default();
            if rng.gen_bool(0.5) {
                fab.reply_hop_latency = [16u32, 40][rng.gen_range(0..2usize)];
            }
            cfg.fabric = Some(fab);
        }
        // Control: none / no-op / hysteresis, with thresholds drawn
        // from both the hair-trigger and the never-firing ends.
        match rng.gen_range(0..3u32) {
            0 => {}
            1 => cfg.control = Some(ControlConfig::noop()),
            _ => {
                let enter_blocked_pm = [1u32, 100, 400, 1001][rng.gen_range(0..4usize)];
                cfg.control = Some(ControlConfig {
                    policy: ControlPolicyKind::Hysteresis,
                    interval: [100u64, 250, 500][rng.gen_range(0..3usize)],
                    enter_blocked_pm,
                    // Hysteresis needs exit <= enter (the CLI rejects the
                    // inversion), so the draw is clamped.
                    exit_blocked_pm: [0u32, 50][rng.gen_range(0..2usize)].min(enter_blocked_pm),
                    enter_episode: [200u64, 1_000, u64::MAX][rng.gen_range(0..3usize)],
                    exit_episode: [200u64, 2_000][rng.gen_range(0..2usize)],
                    dwell: rng.gen_range(0..3u64),
                });
            }
        }
        let shards = if cfg.noc.topology == Topology::Mesh {
            [1usize, 2, 4][rng.gen_range(0..3usize)]
        } else {
            1
        };
        let case = FuzzCase {
            index: self.next_index,
            cfg,
            gpu: self.pick(self.gpus).to_string(),
            cpu: self.pick(self.cpus).to_string(),
            warm: 100 * self.rng.gen_range(2..10u64),
            cycles: 100 * self.rng.gen_range(4..20u64),
            shards,
        };
        self.next_index += 1;
        case
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GPUS: [&str; 3] = ["HS", "NN", "MM"];
    const CPUS: [&str; 3] = ["bodytrack", "canneal", "ferret"];

    #[test]
    fn same_seed_same_cases() {
        let mut a = ScenarioGen::new(7, &GPUS, &CPUS);
        let mut b = ScenarioGen::new(7, &GPUS, &CPUS);
        for _ in 0..50 {
            assert_eq!(a.next_case(), b.next_case());
        }
        let mut c = ScenarioGen::new(8, &GPUS, &CPUS);
        let diverges = (0..50).any(|_| {
            let mut a = ScenarioGen::new(7, &GPUS, &CPUS);
            a.next_case() != c.next_case()
        });
        assert!(diverges, "different seeds must diverge");
    }

    #[test]
    fn cases_are_valid_by_construction() {
        let mut g = ScenarioGen::new(1, &GPUS, &CPUS);
        for _ in 0..200 {
            let c = g.next_case();
            // Shards always partition the 8-row mesh; non-mesh
            // topologies never shard.
            assert!(c.cfg.mesh_height.is_multiple_of(c.shards) || c.shards == 1);
            if c.cfg.noc.topology != Topology::Mesh {
                assert_eq!(c.shards, 1);
            }
            if let Some(f) = &c.cfg.fabric {
                assert_eq!(f.chips, 2);
                assert!(f.gateways <= c.cfg.n_mem);
                assert!(c.cfg.noc.virtual_nets.is_none(), "fabric excludes --vnets");
            }
            assert!(c.warm >= 200 && c.cycles >= 400);
        }
    }
}
