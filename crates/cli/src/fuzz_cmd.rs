//! `clognet fuzz`: deterministic scenario fuzzing of the engine-
//! equivalence contract.
//!
//! Each seeded case (see [`clognet_control::fuzz::ScenarioGen`]) is a
//! random-but-valid config + workload + scheme + fabric + control
//! combination. The driver runs every case through the engine modes in
//! lockstep — fast-forward on (the reference), the per-cycle loop
//! (`--no-ff`), and the sharded engine when the case shards — and
//! asserts the reports are identical. A mismatch is minimized greedily
//! (drop one dimension at a time while the failure persists) and
//! printed as a single `clognet run` reproducer line.

use crate::args::{Args, ParseArgsError};
use crate::driver::measure;
use clognet_control::fuzz::{FuzzCase, ScenarioGen};
use clognet_core::Report;
use clognet_proto::Knob;

/// Run one case through every applicable engine mode. `Ok` carries the
/// reference report; `Err` names the leg that diverged.
fn run_case(case: &FuzzCase) -> Result<Report, String> {
    let leg = |ff: bool, shards: usize| {
        measure(
            case.cfg.clone(),
            &case.gpu,
            &case.cpu,
            case.warm,
            case.cycles,
            ff,
            shards,
        )
    };
    let reference = leg(true, 1);
    if leg(false, 1) != reference {
        return Err("--no-ff (per-cycle reference loop)".into());
    }
    if case.shards > 1 && leg(true, case.shards) != reference {
        return Err(format!("--shards {} (sharded engine)", case.shards));
    }
    Ok(reference)
}

/// Greedily shrink a failing case: apply one simplification at a time
/// and keep it only when the case still fails, repeating until a full
/// pass removes nothing. Every candidate preserves validity by
/// construction (the generator's own invariants).
fn minimize(mut case: FuzzCase) -> FuzzCase {
    use clognet_proto::{LayoutKind, NocConfig, Scheme, SystemConfig, Topology};
    type Simplify = fn(&mut FuzzCase) -> bool;
    // Each candidate returns false when it is already a no-op (so the
    // loop does not re-run an unchanged case).
    let candidates: &[Simplify] = &[
        |c| c.cfg.fabric.take().is_some(),
        |c| c.cfg.control.take().is_some(),
        |c| c.cfg.noc.virtual_nets.take().is_some(),
        |c| {
            if c.cfg.scheme == Scheme::Baseline {
                return false;
            }
            c.cfg.scheme = Scheme::Baseline;
            true
        },
        |c| {
            if c.cfg.noc.topology == Topology::Mesh {
                return false;
            }
            c.cfg.noc.topology = Topology::Mesh;
            true
        },
        |c| {
            if c.cfg.layout == LayoutKind::Baseline {
                return false;
            }
            c.cfg.layout = LayoutKind::Baseline;
            let (req, rep) = SystemConfig::best_routing_for(c.cfg.layout);
            c.cfg.noc.routing_request = req;
            c.cfg.noc.routing_reply = rep;
            true
        },
        |c| {
            let default = NocConfig::default().mem_inj_buf_pkts;
            if c.cfg.noc.mem_inj_buf_pkts == default {
                return false;
            }
            c.cfg.noc.mem_inj_buf_pkts = default;
            true
        },
        |c| {
            if c.shards <= 2 {
                return false;
            }
            c.shards = 2;
            true
        },
        |c| {
            if c.warm < 200 {
                return false;
            }
            c.warm /= 2;
            true
        },
        |c| {
            if c.cycles < 200 {
                return false;
            }
            c.cycles /= 2;
            true
        },
    ];
    loop {
        let mut shrunk = false;
        for candidate in candidates {
            let mut trial = case.clone();
            if !candidate(&mut trial) {
                continue;
            }
            if run_case(&trial).is_err() {
                case = trial;
                shrunk = true;
            }
        }
        if !shrunk {
            return case;
        }
    }
}

/// Drive `cases` seeded scenarios through the lockstep engine check.
///
/// # Errors
///
/// Bad options, or an engine divergence (after minimization, with the
/// reproducer line printed).
pub fn cmd_fuzz(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&["seed", "cases"])?;
    let seed = args.get_num("seed", 1u64)?;
    let cases = args.get_num("cases", 25usize)?;
    if cases == 0 {
        return Err(ParseArgsError("--cases must be at least 1".into()));
    }
    let gpu_profiles = clognet_workloads::gpu_benchmarks();
    let cpu_profiles = clognet_workloads::cpu_benchmarks();
    let gpus: Vec<&str> = gpu_profiles.iter().map(|p| p.name).collect();
    let cpus: Vec<&str> = cpu_profiles.iter().map(|p| p.name).collect();
    let mut gen = ScenarioGen::new(seed, &gpus, &cpus);
    for i in 0..cases {
        let case = gen.next_case();
        match run_case(&case) {
            Ok(report) => eprintln!(
                "case {:>3}/{cases}: ok  {}+{} {} shards={} ipc={:.2}",
                i + 1,
                case.gpu,
                case.cpu,
                case.cfg.scheme.label(),
                case.shards,
                report.gpu_ipc
            ),
            Err(leg) => {
                eprintln!(
                    "case {:>3}/{cases}: FAIL — {leg} diverged from the reference; minimizing...",
                    i + 1
                );
                let small = minimize(case);
                let leg = run_case(&small).expect_err("minimize preserves the failure");
                println!("reproducer (diverging leg: {leg}):");
                println!("  {}", small.repro_line());
                return Err(ParseArgsError(format!(
                    "fuzz seed {seed} case {i}: engine modes disagree (reproducer above)"
                )));
            }
        }
    }
    println!("fuzz: {cases} cases from seed {seed}, all engine modes byte-identical");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeded_cases_pass_the_lockstep_check() {
        let gpus = ["HS", "NN"];
        let cpus = ["bodytrack", "swaptions"];
        let mut gen = ScenarioGen::new(42, &gpus, &cpus);
        for _ in 0..3 {
            let mut case = gen.next_case();
            // Keep the unit test quick; the CI smoke runs full budgets.
            case.warm = case.warm.min(300);
            case.cycles = case.cycles.min(500);
            assert!(run_case(&case).is_ok(), "{}", case.repro_line());
        }
    }

    #[test]
    fn reproducers_rebuild_their_case() {
        use crate::config::config_from;
        use clognet_proto::job_fingerprint;
        let (gpus, cpus) = (["HS", "NN", "MM", "BP"], ["bodytrack", "canneal", "x264"]);
        for seed in 1..=8 {
            let mut gen = ScenarioGen::new(seed, &gpus, &cpus);
            for _ in 0..25 {
                let case = gen.next_case();
                let line = case.repro_line();
                let words = line.split_whitespace().skip(1).map(String::from);
                let args = Args::parse(words).unwrap();
                assert!(line.starts_with("clognet run ") && args.command == "run");
                let cfg = config_from(&args).unwrap();
                assert_eq!(cfg, case.cfg, "{line}");
                let num = |k: &str| args.get_num(k, 0u64).unwrap();
                let (gpu, cpu) = (args.get_or("gpu", ""), args.get_or("cpu", ""));
                assert_eq!(
                    job_fingerprint(&cfg, gpu, cpu, num("warm"), num("cycles")),
                    job_fingerprint(&case.cfg, &case.gpu, &case.cpu, case.warm, case.cycles),
                    "{line}"
                );
                assert_eq!(args.get_num("shards", 1usize).unwrap(), case.shards);
            }
        }
    }

    #[test]
    fn fuzz_rejects_bad_options() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from)).unwrap();
        assert!(cmd_fuzz(&parse("fuzz --cases 0")).is_err());
        assert!(cmd_fuzz(&parse("fuzz --bogus 1")).is_err());
    }
}
