//! The simulator workloads: `chip-8x8` and `mesh-16x16`.
//!
//! Each job is run cold, one at a time, as `clognet compare` runs it:
//! `MultiChipSystem::new`, a warm-up `run`, `reset_stats`, the measured
//! `run` cut into fixed slices, then `report`. Slicing changes nothing
//! simulated (`run(a)` then `run(b)` equals `run(a + b)`), and the
//! traced run cuts at the same cycle boundaries, so both runs do the
//! same work.

use crate::golden::{digest, Golden};
use crate::host::process_cpu_ns;
use crate::trace::Tracer;
use clognet_cli::report::report_json;
use clognet_cli::{config_from, Args};
use clognet_core::{MultiChipSystem, Nets};
use clognet_proto::{CoreId, SystemConfig};
use clognet_serve::JobSpec;

/// One simulation job: a `clognet run` spec, its configuration resolved
/// as the CLI resolves it, and the measured span's slice length.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The job's name in the golden table.
    pub label: String,
    /// Workloads, warm-up cycles, measured cycles and options.
    pub spec: JobSpec,
    /// The resolved configuration.
    pub cfg: SystemConfig,
    /// Cycles per measured slice.
    pub slice: u64,
}

impl SimJob {
    /// Resolve `spec` through `config_from`, as `clognet run` does.
    ///
    /// # Panics
    ///
    /// If the spec's options do not resolve: the benchmark's specs are
    /// fixed.
    pub fn new(label: String, spec: JobSpec, slice: u64) -> SimJob {
        let cfg =
            config_from(&Args::from_opts("run", &spec.opts)).expect("benchmark specs resolve");
        SimJob {
            label,
            spec,
            cfg,
            slice,
        }
    }
}

/// The schemes `clognet compare` runs, as `--scheme` spells them.
const SCHEMES: [&str; 3] = ["baseline", "rp", "dr"];

/// The job list of one round of a sim workload; `None` for other names.
pub fn jobs(workload: &str, seed: u64) -> Option<Vec<SimJob>> {
    let job = |gpu: &str, cpu: &str, scheme: &str, warm, cycles, slice, mesh: Option<&str>| {
        let mut spec = JobSpec::new(gpu, cpu);
        spec.warm = warm;
        spec.cycles = cycles;
        spec.opts.insert("scheme".into(), scheme.into());
        spec.opts.insert("seed".into(), seed.to_string());
        if let Some(m) = mesh {
            spec.opts.insert("mesh".into(), m.into());
        }
        SimJob::new(format!("{gpu}+{cpu}/{scheme}"), spec, slice)
    };
    match workload {
        // The paper's Table-I chip under every scheme `compare` runs.
        "chip-8x8" => Some(
            [("NN", "canneal"), ("HS", "bodytrack"), ("BP", "ferret")]
                .into_iter()
                .flat_map(|(gpu, cpu)| {
                    SCHEMES
                        .iter()
                        .map(move |scheme| job(gpu, cpu, scheme, 2_000, 5_000, 100, None))
                })
                .collect(),
        ),
        // `shard_bench_config`'s chip: 256 routers, 208 GPU cores,
        // sequential engine.
        "mesh-16x16" => Some(vec![job(
            "HS",
            "bodytrack",
            "dr",
            500,
            2_000,
            25,
            Some("16x16"),
        )]),
        _ => None,
    }
}

/// Names of the counters read at slice boundaries, in [`Counters`]
/// order.
pub const COUNTER_NAMES: [&str; 17] = [
    "noc.flit_hops",
    "noc.injected_pkts",
    "noc.inj_stall_cycles",
    "gpu.retired",
    "gpu.mem_ops",
    "gpu.mem_stall_cycles",
    "gpu.delegated_hits",
    "gpu.delegated_misses",
    "gpu.probes_sent",
    "cpu.processed",
    "mem.requests",
    "mem.llc_misses",
    "mem.blocked_cycles",
    "mem.delegations",
    "dram.reads",
    "dram.row_hits",
    "dram.row_misses",
];

/// The public counters of every layer, summed over chips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters(pub [u64; COUNTER_NAMES.len()]);

impl Counters {
    /// Read every counter through the layers' public accessors.
    pub fn read(sys: &MultiChipSystem) -> Counters {
        let mut c = [0u64; COUNTER_NAMES.len()];
        for chip in sys.chips() {
            let nets = match chip.nets() {
                Nets::Separate { request, reply } => vec![request, reply],
                Nets::Shared(n) => vec![n],
            };
            for n in nets {
                let st = n.stats();
                c[0] += st.link_flits.iter().flatten().sum::<u64>();
                c[1] += st.injected_pkts.iter().sum::<u64>();
                c[2] += st.node_inj_stall_cycles.iter().sum::<u64>();
            }
            let gpu = chip.gpu();
            for i in 0..gpu.n_cores() {
                let s = gpu.stats(CoreId(i as u16));
                c[3] += s.retired;
                c[4] += s.mem_ops;
                c[5] += s.mem_stall_cycles;
                c[6] += s.delegated_hits;
                c[7] += s.delegated_misses;
                c[8] += s.probes_sent;
            }
            c[9] += chip.cpu().total_processed();
            for m in chip.mems() {
                c[10] += m.stats.requests;
                c[11] += m.stats.llc_misses;
                c[12] += m.stats.blocked_cycles;
                c[13] += m.stats.delegations;
                let d = m.dram_stats();
                c[14] += d.reads;
                c[15] += d.row_hits;
                c[16] += d.row_misses;
            }
        }
        Counters(c)
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Add `other` in place.
    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// The named counter.
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTER_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("known counter name");
        self.0[i]
    }

    fn attrs(&self) -> Vec<(&'static str, u64)> {
        COUNTER_NAMES.iter().copied().zip(self.0).collect()
    }
}

/// What one job measured. Times are CPU ns of the whole process, which
/// the hypervisor's steal does not inflate and which counts every
/// thread the simulator may run on.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// `report_json` of the final report.
    pub report: String,
    /// In `MultiChipSystem::new`.
    pub build_ns: u64,
    /// In the warm-up `run`.
    pub warm_ns: u64,
    /// In each measured slice's `run`.
    pub slice_ns: Vec<u64>,
    /// In `report`.
    pub report_ns: u64,
    /// The whole job.
    pub job_ns: u64,
    /// Counters over the measured span.
    pub counters: Counters,
    /// Cycles fast-forward skipped, warm-up plus measured span.
    pub skipped: u64,
}

impl JobResult {
    /// In the measured `run` slices.
    pub fn measure_ns(&self) -> u64 {
        self.slice_ns.iter().sum()
    }
}

/// Run one job; with a tracer, record spans around each layer call and
/// read every counter at each slice boundary.
pub fn run_job(job: &SimJob, tracer: Option<&Tracer>) -> JobResult {
    let job_start = process_cpu_ns();
    let root = tracer.map(|t| t.open("sim.job", None));
    let mut r = JobResult::default();

    let t = tracer.map(|t| t.now());
    let t0 = process_cpu_ns();
    let mut sys = MultiChipSystem::new(job.cfg.clone(), &job.spec.gpu, &job.spec.cpu);
    r.build_ns = process_cpu_ns() - t0;
    if let (Some(tr), Some(t)) = (tracer, t) {
        tr.record("core.build", t, root);
    }

    let t = tracer.map(|t| t.now());
    let t0 = process_cpu_ns();
    sys.run(job.spec.warm);
    r.warm_ns = process_cpu_ns() - t0;
    if let (Some(tr), Some(t)) = (tracer, t) {
        tr.record("core.run_warm", t, root);
    }
    r.skipped = sys.skipped_cycles();

    let t = tracer.map(|t| t.now());
    sys.reset_stats();
    if let (Some(tr), Some(t)) = (tracer, t) {
        tr.record("core.reset_stats", t, root);
    }

    let start = Counters::read(&sys);
    let mut prev = start;
    let mut left = job.spec.cycles;
    while left > 0 {
        let step = left.min(job.slice);
        let t = tracer.map(|t| t.now());
        let t0 = process_cpu_ns();
        sys.run(step);
        r.slice_ns.push(process_cpu_ns() - t0);
        if let (Some(tr), Some(t)) = (tracer, t) {
            let id = tr.record("core.run_measure", t, root);
            let now = Counters::read(&sys);
            tr.annotate(id, now.since(&prev).attrs());
            prev = now;
        }
        left -= step;
    }
    r.skipped += sys.skipped_cycles();
    r.counters = Counters::read(&sys).since(&start);

    let t = tracer.map(|t| t.now());
    let t0 = process_cpu_ns();
    let report = sys.report();
    r.report_ns = process_cpu_ns() - t0;
    if let (Some(tr), Some(t)) = (tracer, t) {
        tr.record("core.report", t, root);
    }
    r.report = report_json(job.cfg.scheme, &report);
    r.job_ns = process_cpu_ns() - job_start;
    if let (Some(tr), Some(id)) = (tracer, root) {
        tr.close(id);
    }
    r
}

/// Record golden digest lines for every job of `workload` at `seed`.
pub fn golden_lines(workload: &str, seed: u64) -> Vec<String> {
    jobs(workload, seed)
        .expect("sim workload")
        .iter()
        .map(|j| {
            let r = run_job(j, None);
            format!(
                "sim {workload} {seed} {} {:016x}",
                j.label,
                digest(r.report.as_bytes())
            )
        })
        .collect()
}

/// One round's outcome: per-job results, and the failure of each job
/// that panicked or failed the output check.
#[derive(Debug, Default)]
pub struct Round {
    /// Jobs that ran to their report (in job order).
    pub results: Vec<JobResult>,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Sum of the measured-span counters of the round's jobs.
    pub counters: Counters,
}

/// Run every job once, checking each report against the golden table
/// and against the first round's report of the same job.
pub fn run_round(
    workload: &str,
    seed: u64,
    jobs: &[SimJob],
    golden: &Golden,
    first: &mut Vec<Option<u64>>,
    tracer: Option<&Tracer>,
) -> Round {
    let mut round = Round::default();
    first.resize(jobs.len(), None);
    for (i, job) in jobs.iter().enumerate() {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(job, tracer)));
        let r = match outcome {
            Ok(r) => r,
            Err(_) => {
                round.failures.push(format!("{}: panicked", job.label));
                continue;
            }
        };
        let d = digest(r.report.as_bytes());
        if let Err(e) = golden.check_sim(workload, seed, &job.label, &r.report) {
            round.failures.push(e);
        } else if *first[i].get_or_insert(d) != d {
            round
                .failures
                .push(format!("{}: report differs between rounds", job.label));
        }
        // A job that failed the check was still timed; its figures
        // count, and the run reports `correct: false`.
        round.counters.add(&r.counters);
        round.results.push(r);
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reaches_every_job_config() {
        for w in ["chip-8x8", "mesh-16x16"] {
            let a = jobs(w, 1).unwrap();
            let b = jobs(w, 2).unwrap();
            assert!(a.iter().all(|j| j.cfg.seed == 1));
            assert!(b.iter().all(|j| j.cfg.seed == 2));
            assert!(a.iter().zip(&b).all(|(x, y)| x.label == y.label));
        }
        assert_eq!(jobs("chip-8x8", 1).unwrap().len(), 9);
        assert!(jobs("nope", 1).is_none());
    }

    #[test]
    fn same_seed_same_report_and_counts_other_seed_differs() {
        let mut spec = JobSpec::new("HS", "bodytrack");
        spec.warm = 300;
        spec.cycles = 600;
        spec.opts.insert("scheme".into(), "dr".into());
        spec.opts.insert("seed".into(), "1".into());
        let mut job = SimJob::new("t".into(), spec, 150);
        let tracer = Tracer::default();
        let a = run_job(&job, None);
        let b = run_job(&job, Some(&tracer));
        assert_eq!(a.report, b.report, "tracing must not change the simulation");
        assert_eq!(a.counters, b.counters);
        assert_eq!(b.slice_ns.len(), 4);
        assert!(a.counters.get("noc.flit_hops") > 0);
        let spans = tracer.take();
        let slices: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "core.run_measure")
            .collect();
        assert_eq!(slices.len(), 4);
        let hops: u64 = slices
            .iter()
            .map(|s| {
                s.attrs
                    .iter()
                    .find(|(k, _)| *k == "noc.flit_hops")
                    .unwrap()
                    .1
            })
            .sum();
        assert_eq!(hops, b.counters.get("noc.flit_hops"), "slice deltas add up");
        job.cfg.seed = 2;
        assert_ne!(
            run_job(&job, None).report,
            a.report,
            "the seed reaches the simulation"
        );
    }
}
