//! In-process drivers for the multi-run subcommands (`compare`, `sweep`,
//! `bench`): job construction, parallel execution on the
//! [`clognet_bench::runner`], and output assembly.
//!
//! This lives in the library (not `main.rs`) so tests can assert the
//! exact bytes an invocation produces — in particular that `--json`
//! output is identical between `--threads 1` and `--threads N`. Each
//! job builds its own [`System`] from an owned config and the runner
//! returns results in submission order, so thread count can never
//! change what gets printed.

use crate::args::ParseArgsError;
use crate::report;
use clognet_bench::runner::{run_jobs, run_jobs_with_state, timed};
use clognet_core::{MultiChipSystem, Report, Snapshot, System, TickEngine};
use clognet_proto::{AddressMap, ControlConfig, FabricConfig, Layout, Scheme, SystemConfig};

/// Build, warm, measure, and report one workload under one config.
/// `ff` selects event-horizon fast-forward (the default) or the
/// per-cycle reference loop (`--no-ff`); `shards` > 1 runs the spatial
/// sharding engine. Reports are identical across both knobs — that
/// equivalence is what the CI smoke steps assert.
#[allow(clippy::too_many_arguments)] // mirrors the CLI surface 1:1
pub fn measure(
    cfg: SystemConfig,
    gpu: &str,
    cpu: &str,
    warm: u64,
    cycles: u64,
    ff: bool,
    shards: usize,
) -> Report {
    let mut sys = MultiChipSystem::new(cfg, gpu, cpu);
    sys.set_fast_forward(ff);
    if shards > 1 {
        sys.set_tick_engine(TickEngine::Sharded(shards))
            .expect("shard plan validated before job construction");
    }
    sys.run(warm);
    sys.reset_stats();
    sys.run(cycles);
    sys.report()
}

/// The three schemes `compare` pits against each other, in table order.
pub fn compare_schemes() -> [Scheme; 3] {
    [
        Scheme::Baseline,
        Scheme::rp_default(),
        Scheme::DelegatedReplies,
    ]
}

/// Run the scheme comparison across `threads` workers; rows come back
/// in scheme order regardless of which finishes first.
#[allow(clippy::too_many_arguments)] // mirrors the CLI surface 1:1
pub fn run_compare(
    base: &SystemConfig,
    gpu: &str,
    cpu: &str,
    warm: u64,
    cycles: u64,
    threads: usize,
    ff: bool,
    shards: usize,
) -> Vec<(Scheme, Report)> {
    let jobs: Vec<(Scheme, SystemConfig)> = compare_schemes()
        .into_iter()
        .map(|scheme| {
            let mut cfg = base.clone();
            cfg.scheme = scheme;
            (scheme, cfg)
        })
        .collect();
    run_jobs(jobs, threads, |(scheme, cfg)| {
        (scheme, measure(cfg, gpu, cpu, warm, cycles, ff, shards))
    })
}

/// One sweep point: the swept value and both scheme reports.
#[derive(Debug)]
pub struct SweepPoint {
    /// The swept parameter's value at this point.
    pub value: u64,
    /// Report under [`Scheme::Baseline`].
    pub baseline: Report,
    /// Report under [`Scheme::DelegatedReplies`].
    pub dr: Report,
}

/// Parse a `--values v1,v2,...` list once, up front.
///
/// # Errors
///
/// Fails on any non-numeric entry.
pub fn parse_sweep_values(s: &str) -> Result<Vec<u64>, ParseArgsError> {
    s.split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|_| ParseArgsError(format!("bad sweep value `{v}`")))
        })
        .collect()
}

/// One parameter `clognet sweep --param` can vary: its name, whether a
/// warmed system takes it without a rebuild (so `--warm-from` can fork
/// it; see [`System::apply_warm_param`]), and how it retargets a config.
pub type SweepParam = (&'static str, bool, fn(&mut SystemConfig, u64));

/// Every sweep parameter. None moves nodes or re-interleaves addresses,
/// so [`run_sweep`] derives the layout and [`AddressMap`] once.
const SWEEP_PARAMS: [SweepParam; 5] = [
    ("width", false, |c, v| c.noc.channel_bytes = v as u32),
    ("l1kb", false, |c, v| c.gpu.l1.capacity_bytes = v * 1024),
    ("llcmb", false, |c, v| {
        c.llc.slice.capacity_bytes = v * 1024 * 1024 / c.n_mem as u64
    }),
    ("injbuf", true, |c, v| c.noc.mem_inj_buf_pkts = v as usize),
    ("drmax", true, |c, v| c.dr.max_per_cycle = v as usize),
];

/// The sweep parameter names (only the warm-applicable ones when
/// `warm_only`), `|`-separated, for messages.
pub fn sweep_param_names(warm_only: bool) -> String {
    let names = SWEEP_PARAMS.iter().filter(|p| p.1 || !warm_only);
    names.map(|p| p.0).collect::<Vec<_>>().join("|")
}

/// Look up a sweep parameter by name.
///
/// # Errors
///
/// Fails on an unknown parameter name.
pub fn sweep_param(name: &str) -> Result<SweepParam, ParseArgsError> {
    let known = SWEEP_PARAMS.into_iter().find(|p| p.0 == name);
    known.ok_or_else(|| {
        let names = sweep_param_names(false);
        ParseArgsError(format!("unknown sweep param `{name}` ({names})"))
    })
}

/// Apply one sweep parameter to a config.
///
/// # Errors
///
/// Fails on an unknown parameter name.
pub fn apply_sweep_param(
    cfg: &mut SystemConfig,
    param: &str,
    v: u64,
) -> Result<(), ParseArgsError> {
    let (_, _, apply) = sweep_param(param)?;
    apply(cfg, v);
    Ok(())
}

/// How a multi-variant command (`sweep`, `compare`) obtains its warmed
/// starting state when `--warm-from` is given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmStart {
    /// Simulate the warmup once, snapshot, and fork the snapshot into
    /// every variant on the parallel runner.
    Fork,
    /// Re-simulate the warmup per variant with the same
    /// apply-after-warmup semantics as `Fork` — the cold reference leg
    /// the CI equivalence smoke compares `Fork` against.
    Each,
    /// Fork from a snapshot file written earlier by `clognet snapshot`.
    File(String),
}

/// Parse a `--warm-from` value: `fork`, `each`, or a snapshot path.
pub fn parse_warm_start(s: &str) -> WarmStart {
    match s {
        "fork" => WarmStart::Fork,
        "each" => WarmStart::Each,
        path => WarmStart::File(path.to_string()),
    }
}

/// Whether a sweep parameter can be retargeted on a warmed system
/// without rebuilding it (see [`System::apply_warm_param`]).
pub fn is_warm_param(param: &str) -> bool {
    sweep_param(param).is_ok_and(|(_, warm, _)| warm)
}

/// Load and identity-check a snapshot file for `--warm-from <path>`:
/// the embedded config and benchmark names must match what the command
/// would otherwise simulate, or every variant would silently measure a
/// different chip.
fn load_warm_snapshot(
    path: &str,
    base: &SystemConfig,
    gpu: &str,
    cpu: &str,
) -> Result<Snapshot, ParseArgsError> {
    let bytes = std::fs::read(path).map_err(|e| ParseArgsError(format!("reading {path}: {e}")))?;
    let snap = Snapshot::from_bytes(bytes)
        .map_err(|e| ParseArgsError(format!("{path} is not a usable snapshot: {e}")))?;
    if snap.gpu_bench() != gpu || snap.cpu_bench() != cpu {
        return Err(ParseArgsError(format!(
            "{path} was taken on {}+{}, not {gpu}+{cpu}",
            snap.gpu_bench(),
            snap.cpu_bench()
        )));
    }
    if snap.config() != base {
        return Err(ParseArgsError(format!(
            "{path} was taken under a different configuration; \
             rerun `clognet snapshot` with the same options"
        )));
    }
    Ok(snap)
}

/// Run a warm-started parameter sweep: one shared warmup (simulated
/// once and forked, re-simulated per variant, or loaded from a file per
/// `mode`), then each (scheme, value) variant applied *after* warmup,
/// stats reset, and the measured span run. `Fork` and `Each` produce
/// byte-identical points — that equivalence is what the CI warm-start
/// smoke asserts — and `Fork` pays for the warmup once instead of once
/// per variant.
///
/// # Errors
///
/// Fails on a structural (non-warm-applicable) parameter, a bad value,
/// or an unreadable/mismatched snapshot file.
#[allow(clippy::too_many_arguments)] // mirrors the CLI surface 1:1
pub fn run_sweep_warm(
    base: &SystemConfig,
    param: &str,
    values: &[u64],
    gpu: &str,
    cpu: &str,
    warm: u64,
    cycles: u64,
    threads: usize,
    mode: &WarmStart,
) -> Result<Vec<SweepPoint>, ParseArgsError> {
    if !is_warm_param(param) {
        return Err(ParseArgsError(format!(
            "--warm-from sweeps only warm-applicable params ({}); \
             `{param}` is structural — rerun without --warm-from",
            sweep_param_names(true)
        )));
    }
    if param == "injbuf" && values.contains(&0) {
        return Err(ParseArgsError("injbuf must be at least 1".into()));
    }
    let jobs: Vec<(Scheme, u64)> = values
        .iter()
        .flat_map(|&v| {
            [Scheme::Baseline, Scheme::DelegatedReplies]
                .into_iter()
                .map(move |s| (s, v))
        })
        .collect();
    let measure_fork = |sys: &mut MultiChipSystem, scheme: Scheme, v: u64| {
        sys.set_scheme(scheme);
        sys.apply_warm_param(param, v)
            .expect("warm param validated up front");
        sys.reset_stats();
        sys.run(cycles);
        sys.report()
    };
    let reports = match mode {
        WarmStart::Each => run_jobs(jobs, threads, |(scheme, v)| {
            let mut sys = MultiChipSystem::new(base.clone(), gpu, cpu);
            sys.run(warm);
            measure_fork(&mut sys, scheme, v)
        }),
        WarmStart::Fork => {
            let mut sys = MultiChipSystem::new(base.clone(), gpu, cpu);
            sys.run(warm);
            let snap = sys.snapshot();
            run_jobs(jobs, threads, |(scheme, v)| {
                let mut sys =
                    MultiChipSystem::restore(&snap).expect("just-taken snapshot restores");
                measure_fork(&mut sys, scheme, v)
            })
        }
        WarmStart::File(path) => {
            let snap = load_warm_snapshot(path, base, gpu, cpu)?;
            run_jobs(jobs, threads, |(scheme, v)| {
                let mut sys = MultiChipSystem::restore(&snap).expect("snapshot validated up front");
                measure_fork(&mut sys, scheme, v)
            })
        }
    };
    let mut it = reports.into_iter();
    Ok(values
        .iter()
        .map(|&value| SweepPoint {
            value,
            baseline: it.next().expect("one report per job"),
            dr: it.next().expect("one report per job"),
        })
        .collect())
}

/// Run a warm-started scheme comparison: warm once under the base
/// config's scheme, then fork (or re-warm, per `mode`) into each
/// compared scheme via [`System::set_scheme`].
///
/// Note the semantics differ from cold `compare`: here every scheme
/// shares one warmup trajectory (under `base.scheme`) and switches
/// scheme at the fork point, so scheme-dependent warmup effects are
/// deliberately held constant across rows.
///
/// # Errors
///
/// Fails on an unreadable/mismatched snapshot file.
#[allow(clippy::too_many_arguments)] // mirrors the CLI surface 1:1
pub fn run_compare_warm(
    base: &SystemConfig,
    gpu: &str,
    cpu: &str,
    warm: u64,
    cycles: u64,
    threads: usize,
    mode: &WarmStart,
) -> Result<Vec<(Scheme, Report)>, ParseArgsError> {
    let jobs: Vec<Scheme> = compare_schemes().to_vec();
    let measure_fork = |sys: &mut MultiChipSystem, scheme: Scheme| {
        sys.set_scheme(scheme);
        sys.reset_stats();
        sys.run(cycles);
        sys.report()
    };
    let reports = match mode {
        WarmStart::Each => run_jobs(jobs.clone(), threads, |scheme| {
            let mut sys = MultiChipSystem::new(base.clone(), gpu, cpu);
            sys.run(warm);
            measure_fork(&mut sys, scheme)
        }),
        WarmStart::Fork => {
            let mut sys = MultiChipSystem::new(base.clone(), gpu, cpu);
            sys.run(warm);
            let snap = sys.snapshot();
            run_jobs(jobs.clone(), threads, |scheme| {
                let mut sys =
                    MultiChipSystem::restore(&snap).expect("just-taken snapshot restores");
                measure_fork(&mut sys, scheme)
            })
        }
        WarmStart::File(path) => {
            let snap = load_warm_snapshot(path, base, gpu, cpu)?;
            run_jobs(jobs.clone(), threads, |scheme| {
                let mut sys = MultiChipSystem::restore(&snap).expect("snapshot validated up front");
                measure_fork(&mut sys, scheme)
            })
        }
    };
    Ok(jobs.into_iter().zip(reports).collect())
}

/// Run a parameter sweep (each point under baseline and DR) across
/// `threads` workers, reusing one pre-derived layout/address map.
///
/// # Errors
///
/// Fails on an unknown parameter name.
#[allow(clippy::too_many_arguments)] // mirrors the CLI surface 1:1
pub fn run_sweep(
    base: &SystemConfig,
    param: &str,
    values: &[u64],
    gpu: &str,
    cpu: &str,
    warm: u64,
    cycles: u64,
    threads: usize,
    ff: bool,
    shards: usize,
) -> Result<Vec<SweepPoint>, ParseArgsError> {
    // None of the sweep parameters move nodes or re-interleave
    // addresses, so derive both once instead of per (point, scheme).
    let layout = base.layout();
    let map = AddressMap::new(base.n_mem, base.seed);
    let mut jobs = Vec::with_capacity(values.len() * 2);
    for &v in values {
        for scheme in [Scheme::Baseline, Scheme::DelegatedReplies] {
            let mut cfg = base.clone();
            cfg.scheme = scheme;
            apply_sweep_param(&mut cfg, param, v)?;
            jobs.push(cfg);
        }
    }
    let reports = run_jobs(jobs, threads, |cfg| {
        let mut sys = MultiChipSystem::new_prebuilt(cfg, gpu, cpu, layout.clone(), map);
        sys.set_fast_forward(ff);
        if shards > 1 {
            sys.set_tick_engine(TickEngine::Sharded(shards))
                .expect("shard plan validated before job construction");
        }
        sys.run(warm);
        sys.reset_stats();
        sys.run(cycles);
        sys.report()
    });
    let mut it = reports.into_iter();
    Ok(values
        .iter()
        .map(|&value| SweepPoint {
            value,
            baseline: it.next().expect("one report per job"),
            dr: it.next().expect("one report per job"),
        })
        .collect())
}

/// Render one sweep point as its NDJSON line (without trailing newline).
pub fn sweep_point_json(param: &str, p: &SweepPoint) -> String {
    format!(
        "{{\"param\":\"{param}\",\"value\":{},\"baseline\":{},\"dr\":{}}}",
        p.value,
        report::report_json(Scheme::Baseline, &p.baseline),
        report::report_json(Scheme::DelegatedReplies, &p.dr)
    )
}

/// Repetitions per timed leg. The minimum is the headline number (the
/// standard microbenchmark defense against scheduler noise); the mean
/// and standard deviation across reps are reported alongside so a
/// noisy host is visible in the data rather than silently folded away.
pub const LEG_REPS: usize = 3;

/// Min / mean / population standard deviation of a rep sample.
fn rep_stats(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (min, mean, var.sqrt())
}

/// One timed leg of the throughput benchmark.
pub struct BenchLeg {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole batch (minimum over reps).
    pub wall_s: f64,
    /// Mean wall-clock seconds across reps.
    pub wall_s_mean: f64,
    /// Standard deviation of wall-clock seconds across reps.
    pub wall_s_stddev: f64,
    /// Aggregate simulated cycles per wall-clock second (best rep).
    pub sim_cycles_per_s: f64,
}

/// One timed leg of the fast-forward benchmark: the low-intensity
/// matrix run single-threaded with fast-forward on or off.
pub struct FfLeg {
    /// Wall-clock seconds for the measured span (minimum over reps,
    /// warmup excluded).
    pub wall_s: f64,
    /// Mean wall-clock seconds across reps.
    pub wall_s_mean: f64,
    /// Standard deviation of wall-clock seconds across reps.
    pub wall_s_stddev: f64,
    /// Total cycles the measured span skipped (0 with fast-forward off).
    pub skipped: u64,
}

/// Result of `clognet bench`: the job matrix and both timed legs, plus
/// the low-intensity fast-forward legs.
pub struct BenchResult {
    /// Number of (config, workload, scheme) jobs in the matrix.
    pub jobs: usize,
    /// Simulated cycles per job (warm + measured).
    pub cycles_per_job: u64,
    /// Single-threaded leg.
    pub single: BenchLeg,
    /// Multi-threaded leg.
    pub multi: BenchLeg,
    /// Jobs in the low-intensity fast-forward matrix.
    pub low_jobs: usize,
    /// Measured (timed) cycles per low-intensity job.
    pub low_cycles_per_job: u64,
    /// Low-intensity leg with fast-forward engaged.
    pub ff_on: FfLeg,
    /// Low-intensity leg on the per-cycle reference loop.
    pub ff_off: FfLeg,
}

impl BenchResult {
    /// Multi-threaded speedup over single-threaded (wall-clock).
    pub fn speedup(&self) -> f64 {
        if self.multi.wall_s > 0.0 {
            self.single.wall_s / self.multi.wall_s
        } else {
            0.0
        }
    }

    /// Fast-forward speedup over the per-cycle loop (wall-clock, on the
    /// low-intensity matrix).
    pub fn ff_speedup(&self) -> f64 {
        if self.ff_on.wall_s > 0.0 {
            self.ff_off.wall_s / self.ff_on.wall_s
        } else {
            0.0
        }
    }

    /// Fraction of the low-intensity measured cycles fast-forward
    /// skipped instead of ticking.
    pub fn skipped_ratio(&self) -> f64 {
        let total = self.low_jobs as u64 * self.low_cycles_per_job;
        if total > 0 {
            self.ff_on.skipped as f64 / total as f64
        } else {
            0.0
        }
    }

    /// The `BENCH_*.json` document: a flat object matching the schema
    /// EXPERIMENTS.md records perf data points in.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"harness\":\"clognet bench\",\"jobs\":{},\"cycles_per_job\":{},\"reps\":{},\
             \"threads_single\":{},\"wall_s_single\":{:.6},\
             \"wall_s_single_mean\":{:.6},\"wall_s_single_stddev\":{:.6},\
             \"sim_cycles_per_s_single\":{:.1},\
             \"threads_multi\":{},\"wall_s_multi\":{:.6},\
             \"wall_s_multi_mean\":{:.6},\"wall_s_multi_stddev\":{:.6},\
             \"sim_cycles_per_s_multi\":{:.1},\
             \"speedup\":{:.3},\
             \"low_jobs\":{},\"low_cycles_per_job\":{},\
             \"wall_s_ff_on\":{:.6},\"wall_s_ff_on_mean\":{:.6},\"wall_s_ff_on_stddev\":{:.6},\
             \"wall_s_ff_off\":{:.6},\"wall_s_ff_off_mean\":{:.6},\"wall_s_ff_off_stddev\":{:.6},\
             \"skipped_cycles\":{},\"skipped_ratio\":{:.3},\"ff_speedup\":{:.3}}}",
            self.jobs,
            self.cycles_per_job,
            LEG_REPS,
            self.single.threads,
            self.single.wall_s,
            self.single.wall_s_mean,
            self.single.wall_s_stddev,
            self.single.sim_cycles_per_s,
            self.multi.threads,
            self.multi.wall_s,
            self.multi.wall_s_mean,
            self.multi.wall_s_stddev,
            self.multi.sim_cycles_per_s,
            self.speedup(),
            self.low_jobs,
            self.low_cycles_per_job,
            self.ff_on.wall_s,
            self.ff_on.wall_s_mean,
            self.ff_on.wall_s_stddev,
            self.ff_off.wall_s,
            self.ff_off.wall_s_mean,
            self.ff_off.wall_s_stddev,
            self.ff_on.skipped,
            self.skipped_ratio(),
            self.ff_speedup()
        )
    }
}

/// The fixed `compare`-shaped workload matrix the benchmark times:
/// every scheme over a small, diverse set of Table-II pairings.
pub fn bench_matrix() -> Vec<(SystemConfig, &'static str, &'static str)> {
    let pairs = [("HS", "bodytrack"), ("MM", "canneal"), ("BP", "ferret")];
    let mut jobs = Vec::new();
    for (gpu, cpu) in pairs {
        for scheme in compare_schemes() {
            jobs.push((SystemConfig::default().with_scheme(scheme), gpu, cpu));
        }
    }
    jobs
}

/// Dead-cycle-dominated matrix for the fast-forward legs: a 2x2 mesh
/// with one single-warp GPU core whose working set is fully L1-resident
/// (large L1, periodic flush off) and an L1-resident CPU workload
/// leaves the NoC drained most cycles, so the quiescence engine is the
/// dominant factor in wall-clock time.
pub fn low_intensity_matrix() -> Vec<(SystemConfig, &'static str, &'static str)> {
    let pairs = [("NN", "blackscholes"), ("NN", "swaptions")];
    let mut jobs = Vec::new();
    for (gpu, cpu) in pairs {
        for scheme in compare_schemes() {
            let mut cfg = SystemConfig::default().with_scheme(scheme);
            cfg.mesh_width = 2;
            cfg.mesh_height = 2;
            cfg.n_gpu = 1;
            cfg.n_cpu = 1;
            cfg.n_mem = 2;
            cfg.gpu.warps_per_core = 1;
            cfg.gpu.issue_width = 1;
            cfg.gpu.l1.capacity_bytes = 1024 * 1024;
            cfg.gpu.flush_interval = None;
            jobs.push((cfg, gpu, cpu));
        }
    }
    jobs
}

/// Time the low-intensity matrix with fast-forward on or off. Systems
/// are built and warmed *outside* the timer — the cold-miss-dominated
/// warmup is identical in both modes (both warm fast-forwarded), so
/// the timed span compares steady-state throughput only. The leg runs
/// [`LEG_REPS`] times on freshly built systems (the simulation is
/// deterministic, so every rep does identical work) and reports the
/// minimum wall time alongside the mean and standard deviation.
fn time_ff_leg(
    jobs: &[(SystemConfig, &'static str, &'static str)],
    ff: bool,
    warm: u64,
    cycles: u64,
) -> FfLeg {
    let mut samples = Vec::with_capacity(LEG_REPS);
    let mut skipped = 0;
    for _ in 0..LEG_REPS {
        let mut systems: Vec<System> = jobs
            .iter()
            .map(|(cfg, gpu, cpu)| {
                let mut sys = System::new(cfg.clone(), gpu, cpu);
                sys.run(warm);
                sys.reset_stats();
                sys.set_fast_forward(ff);
                sys
            })
            .collect();
        let start = std::time::Instant::now();
        for sys in &mut systems {
            sys.run(cycles);
        }
        samples.push(start.elapsed().as_secs_f64());
        skipped = systems.iter().map(System::skipped_cycles).sum();
    }
    let (wall_s, wall_s_mean, wall_s_stddev) = rep_stats(&samples);
    FfLeg {
        wall_s,
        wall_s_mean,
        wall_s_stddev,
        skipped,
    }
}

fn time_leg(
    jobs: Vec<(SystemConfig, &str, &str)>,
    threads: usize,
    warm: u64,
    cycles: u64,
) -> BenchLeg {
    let n = jobs.len() as f64;
    let mut samples = Vec::with_capacity(LEG_REPS);
    for _ in 0..LEG_REPS {
        let rep_jobs = jobs.clone();
        let start = std::time::Instant::now();
        // Every job in the matrix shares the default chip shape, so
        // each worker derives the node layout and address map once and
        // reuses them for every job it claims instead of re-deriving
        // per job (the PR 2 alloc-free idiom, per worker).
        let reports = run_jobs_with_state(
            rep_jobs,
            threads,
            || None::<(Layout, AddressMap)>,
            |prebuilt, (cfg, gpu, cpu)| {
                let (layout, map) = prebuilt
                    .get_or_insert_with(|| (cfg.layout(), AddressMap::new(cfg.n_mem, cfg.seed)));
                let mut sys = System::new_prebuilt(cfg, gpu, cpu, layout.clone(), *map);
                sys.run(warm);
                sys.reset_stats();
                sys.run(cycles);
                sys.report()
            },
        );
        samples.push(start.elapsed().as_secs_f64());
        assert_eq!(reports.len() as f64, n, "runner dropped a job");
    }
    let (wall_s, wall_s_mean, wall_s_stddev) = rep_stats(&samples);
    let sim_cycles = n * (warm + cycles) as f64;
    BenchLeg {
        threads,
        wall_s,
        wall_s_mean,
        wall_s_stddev,
        sim_cycles_per_s: if wall_s > 0.0 {
            sim_cycles / wall_s
        } else {
            0.0
        },
    }
}

/// Warmup for the fast-forward legs: small chips tick fast but need a
/// long warmup before their L1-resident workloads stop missing cold —
/// only then do dead cycles dominate.
const LOW_WARM: u64 = 20_000;

/// Time the fixed matrix single- and multi-threaded, then the
/// low-intensity matrix with fast-forward on vs off.
pub fn run_bench(threads: usize, warm: u64, cycles: u64) -> BenchResult {
    let matrix = bench_matrix();
    let jobs = matrix.len();
    let single = time_leg(matrix.clone(), 1, warm, cycles);
    let multi = time_leg(matrix, threads.max(2), warm, cycles);
    let low = low_intensity_matrix();
    let low_cycles = 12 * cycles;
    let ff_off = time_ff_leg(&low, false, LOW_WARM, low_cycles);
    let ff_on = time_ff_leg(&low, true, LOW_WARM, low_cycles);
    BenchResult {
        jobs,
        cycles_per_job: warm + cycles,
        single,
        multi,
        low_jobs: low.len(),
        low_cycles_per_job: low_cycles,
        ff_on,
        ff_off,
    }
}

/// One timed leg of the intra-run shard-scaling benchmark.
pub struct ShardLeg {
    /// Shard count for this leg (1 = sequential engine).
    pub shards: usize,
    /// Wall-clock seconds for the measured span (minimum over reps).
    pub wall_s: f64,
    /// Mean wall-clock seconds across reps.
    pub wall_s_mean: f64,
    /// Standard deviation of wall-clock seconds across reps.
    pub wall_s_stddev: f64,
    /// Simulated cycles per wall-clock second (best rep).
    pub sim_cycles_per_s: f64,
}

/// Result of `clognet bench --shards <max>`: a strong-scaling curve
/// for one simulation spatially sharded across cores, on a mesh big
/// enough (16x16) that per-cycle router work dwarfs barrier overhead.
pub struct ShardBenchResult {
    /// Mesh dimensions of the benchmarked chip.
    pub mesh: (usize, usize),
    /// Warmup cycles per leg (excluded from the timed span).
    pub warm: u64,
    /// Measured cycles per leg.
    pub cycles: u64,
    /// One leg per shard count, ascending, starting at 1.
    pub legs: Vec<ShardLeg>,
    /// Whether every sharded leg reproduced the sequential leg's
    /// report byte-for-byte (the determinism contract, re-checked on
    /// the benchmark's own runs).
    pub identical_reports: bool,
}

impl ShardBenchResult {
    /// Wall-clock speedup of the `shards`-way leg over the sequential
    /// leg, or 0 when that leg was not run.
    pub fn speedup_at(&self, shards: usize) -> f64 {
        let seq = self.legs.iter().find(|l| l.shards == 1);
        let leg = self.legs.iter().find(|l| l.shards == shards);
        match (seq, leg) {
            (Some(s), Some(l)) if l.wall_s > 0.0 => s.wall_s / l.wall_s,
            _ => 0.0,
        }
    }

    /// Whether any benchmarked leg ran more shards than the host has
    /// hardware threads. Shard workers are busy-wait barrier peers, so
    /// oversubscribing them serializes (and then some) — speedups from
    /// such a run describe scheduler behavior, not the engine. See
    /// DESIGN.md §9.5.
    pub fn shards_gt_host_threads(&self) -> bool {
        let host = std::thread::available_parallelism().map_or(1, usize::from);
        self.legs.iter().map(|l| l.shards).max().unwrap_or(1) > host
    }

    /// The `BENCH_shards.json` document: scaling legs plus the
    /// headline 4-shard speedup. Single-core CI hosts record the curve
    /// without enforcing a ratio, so the host's parallelism is included
    /// for interpretation, and `shards_gt_host_threads` flags a curve
    /// whose wall-clock numbers are not meaningful speedups.
    pub fn to_json(&self) -> String {
        let legs: Vec<String> = self
            .legs
            .iter()
            .map(|l| {
                format!(
                    "{{\"shards\":{},\"wall_s\":{:.6},\"wall_s_mean\":{:.6},\
                     \"wall_s_stddev\":{:.6},\"sim_cycles_per_s\":{:.1},\"speedup\":{:.3}}}",
                    l.shards,
                    l.wall_s,
                    l.wall_s_mean,
                    l.wall_s_stddev,
                    l.sim_cycles_per_s,
                    self.speedup_at(l.shards)
                )
            })
            .collect();
        format!(
            "{{\"harness\":\"clognet bench --shards\",\"mesh\":\"{}x{}\",\
             \"warm\":{},\"cycles\":{},\"reps\":{},\"host_threads\":{},\
             \"shards_gt_host_threads\":{},\
             \"legs\":[{}],\"speedup_at_4\":{:.3},\"identical_reports\":{}}}",
            self.mesh.0,
            self.mesh.1,
            self.warm,
            self.cycles,
            LEG_REPS,
            std::thread::available_parallelism().map_or(1, usize::from),
            self.shards_gt_host_threads(),
            legs.join(","),
            self.speedup_at(4),
            self.identical_reports
        )
    }
}

/// The chip the shard-scaling benchmark runs: a 16x16 mesh (4x the
/// default router count) under Delegated Replies, following the
/// `--mesh` convention for node counts (one memory node per row, CPUs
/// at twice that, GPU cores on the remaining tiles).
pub fn shard_bench_config() -> SystemConfig {
    let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    cfg.mesh_width = 16;
    cfg.mesh_height = 16;
    cfg.n_mem = 16;
    cfg.n_cpu = 32;
    cfg.n_gpu = 16 * 16 - 3 * 16;
    cfg
}

/// Time one simulation at shard counts 1, 2, 4, ... up to
/// `max_shards` (skipping counts that do not divide the mesh rows).
/// Build and warmup happen outside the timer; each leg runs
/// [`LEG_REPS`] times on freshly built systems and reports the minimum
/// wall time. Every leg's report is checked against the sequential
/// leg's — a sharded run that got faster by diverging would be a bug,
/// not a speedup.
pub fn run_shard_bench(max_shards: usize, warm: u64, cycles: u64) -> ShardBenchResult {
    let cfg = shard_bench_config();
    let (gpu, cpu) = ("HS", "bodytrack");
    let mut counts = vec![1];
    let mut s = 2;
    while s <= max_shards {
        if cfg.mesh_height.is_multiple_of(s) {
            counts.push(s);
        }
        s *= 2;
    }
    let mut legs = Vec::with_capacity(counts.len());
    let mut reference: Option<Report> = None;
    let mut identical_reports = true;
    for shards in counts {
        let mut samples = Vec::with_capacity(LEG_REPS);
        let mut last_report = None;
        for _ in 0..LEG_REPS {
            let mut sys = System::new(cfg.clone(), gpu, cpu);
            if shards > 1 {
                sys.set_tick_engine(TickEngine::Sharded(shards))
                    .expect("power-of-two shard counts divide the 16 mesh rows");
            }
            sys.run(warm);
            sys.reset_stats();
            let start = std::time::Instant::now();
            sys.run(cycles);
            samples.push(start.elapsed().as_secs_f64());
            last_report = Some(sys.report());
        }
        match (&reference, last_report) {
            (None, report) => reference = report,
            (Some(reference), Some(report)) => {
                identical_reports &= *reference == report;
            }
            _ => {}
        }
        let (wall_s, wall_s_mean, wall_s_stddev) = rep_stats(&samples);
        legs.push(ShardLeg {
            shards,
            wall_s,
            wall_s_mean,
            wall_s_stddev,
            sim_cycles_per_s: if wall_s > 0.0 {
                cycles as f64 / wall_s
            } else {
                0.0
            },
        });
    }
    ShardBenchResult {
        mesh: (cfg.mesh_width, cfg.mesh_height),
        warm,
        cycles,
        legs,
        identical_reports,
    }
}

/// The injbuf values the warm-start benchmark sweeps: 8 variants, each
/// measured under both schemes (16 forked systems per leg).
pub const WARMSTART_VALUES: [u64; 8] = [2, 3, 4, 6, 8, 12, 16, 24];

/// Result of `clognet bench --warm-start`: the same warm-started
/// injbuf sweep timed cold (`--warm-from each`: warmup re-simulated
/// per variant) and forked (`--warm-from fork`: warmup simulated once,
/// snapshot forked per variant), on the same thread count.
pub struct WarmStartBenchResult {
    /// Swept values (each under baseline + DR).
    pub values: Vec<u64>,
    /// Warmup cycles (shared prefix the fork amortizes).
    pub warm: u64,
    /// Measured cycles per variant.
    pub cycles: u64,
    /// Worker threads for both legs.
    pub threads: usize,
    /// Wall-clock seconds for the cold (`each`) leg.
    pub cold_wall_s: f64,
    /// Wall-clock seconds for the forked leg (warmup included).
    pub forked_wall_s: f64,
    /// Whether every forked sweep point matched its cold twin
    /// byte-for-byte — the run self-certifies the snapshot contract.
    pub identical_reports: bool,
}

impl WarmStartBenchResult {
    /// Wall-clock speedup of the forked leg over the cold leg.
    pub fn speedup(&self) -> f64 {
        if self.forked_wall_s > 0.0 {
            self.cold_wall_s / self.forked_wall_s
        } else {
            0.0
        }
    }

    /// Fraction of each cold variant's simulated cycles spent in the
    /// shared warmup — the budget forking can reclaim.
    pub fn warm_fraction(&self) -> f64 {
        let total = self.warm + self.cycles;
        if total > 0 {
            self.warm as f64 / total as f64
        } else {
            0.0
        }
    }

    /// The `BENCH_warmstart.json` document.
    pub fn to_json(&self) -> String {
        let values: Vec<String> = self.values.iter().map(u64::to_string).collect();
        format!(
            "{{\"harness\":\"clognet bench --warm-start\",\"param\":\"injbuf\",\
             \"values\":[{}],\"schemes\":2,\"jobs\":{},\
             \"warm\":{},\"cycles\":{},\"warm_fraction\":{:.3},\"threads\":{},\
             \"wall_s_cold\":{:.6},\"wall_s_forked\":{:.6},\
             \"speedup\":{:.3},\"identical_reports\":{}}}",
            values.join(","),
            self.values.len() * 2,
            self.warm,
            self.cycles,
            self.warm_fraction(),
            self.threads,
            self.cold_wall_s,
            self.forked_wall_s,
            self.speedup(),
            self.identical_reports
        )
    }
}

/// Time the warm-started injbuf sweep cold vs forked and check the
/// per-variant outputs match byte-for-byte. Cold runs first so the
/// forked leg cannot ride its cache warmth.
pub fn run_warmstart_bench(threads: usize, warm: u64, cycles: u64) -> WarmStartBenchResult {
    let base = SystemConfig::default();
    let values = WARMSTART_VALUES.to_vec();
    let (gpu, cpu) = ("HS", "bodytrack");
    let (cold, cold_wall_s) = timed(|| {
        run_sweep_warm(
            &base,
            "injbuf",
            &values,
            gpu,
            cpu,
            warm,
            cycles,
            threads,
            &WarmStart::Each,
        )
        .expect("injbuf is warm-applicable")
    });
    let (forked, forked_wall_s) = timed(|| {
        run_sweep_warm(
            &base,
            "injbuf",
            &values,
            gpu,
            cpu,
            warm,
            cycles,
            threads,
            &WarmStart::Fork,
        )
        .expect("injbuf is warm-applicable")
    });
    let render = |points: &[SweepPoint]| {
        points
            .iter()
            .map(|p| sweep_point_json("injbuf", p))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let identical_reports = render(&cold) == render(&forked);
    WarmStartBenchResult {
        values,
        warm,
        cycles,
        threads,
        cold_wall_s,
        forked_wall_s,
        identical_reports,
    }
}

/// The fabric reply-path degradation points `bench --fabric` sweeps:
/// per-hop reply latency multiplier x reply link width in flits/cycle,
/// from the healthy interconnect to a clogged one (10x slower, 1/4 the
/// width) — the inter-chip analogue of the paper's reply-net clog.
pub const FABRIC_POINTS: [(u32, u32); 4] = [(1, 4), (2, 4), (4, 2), (10, 1)];

/// One degradation point of the fabric benchmark: all three schemes on
/// the same degraded package.
pub struct FabricPoint {
    /// Reply per-hop latency as a multiple of the request path's.
    pub lat_mult: u32,
    /// Reply link width in flits/cycle.
    pub reply_width: u32,
    /// Report under [`Scheme::Baseline`].
    pub baseline: Report,
    /// Report under the default Realistic Probing fanout.
    pub rp: Report,
    /// Report under [`Scheme::DelegatedReplies`].
    pub dr: Report,
}

/// Result of `clognet bench --fabric`: the scheme matrix across the
/// reply-link degradation points on a 2-chip package, plus the
/// engine-equivalence self-check (the `BENCH_fabric.json` artifact).
pub struct FabricBenchResult {
    /// Chips in the benchmarked package.
    pub chips: usize,
    /// Warmup cycles per cell (excluded from the measured span).
    pub warm: u64,
    /// Measured cycles per cell.
    pub cycles: u64,
    /// One entry per degradation point, in [`FABRIC_POINTS`] order.
    pub points: Vec<FabricPoint>,
    /// Whether every DR cell reproduced byte-for-byte on the per-cycle
    /// reference loop (`--no-ff`) and on the sharded engine — the
    /// determinism contract, re-checked on the benchmark's own runs.
    pub identical_reports: bool,
}

impl FabricBenchResult {
    /// The `BENCH_fabric.json` document.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"lat_mult\":{},\"reply_width\":{},\"baseline\":{},\"rp\":{},\"dr\":{},\
                     \"dr_over_baseline\":{:.3}}}",
                    p.lat_mult,
                    p.reply_width,
                    report::report_json(Scheme::Baseline, &p.baseline),
                    report::report_json(Scheme::rp_default(), &p.rp),
                    report::report_json(Scheme::DelegatedReplies, &p.dr),
                    if p.baseline.gpu_ipc > 0.0 {
                        p.dr.gpu_ipc / p.baseline.gpu_ipc
                    } else {
                        0.0
                    }
                )
            })
            .collect();
        format!(
            "{{\"harness\":\"clognet bench --fabric\",\"chips\":{},\
             \"warm\":{},\"cycles\":{},\
             \"points\":[{}],\"identical_reports\":{}}}",
            self.chips,
            self.warm,
            self.cycles,
            points.join(","),
            self.identical_reports
        )
    }
}

/// The package the fabric benchmark degrades: two default-mesh chips
/// on a pair fabric whose reply links run at `lat_mult` x the request
/// hop latency and `reply_width` flits/cycle.
pub fn fabric_bench_config(lat_mult: u32, reply_width: u32) -> SystemConfig {
    let d = FabricConfig::default();
    SystemConfig {
        fabric: Some(FabricConfig {
            reply_hop_latency: d.reply_hop_latency * lat_mult,
            reply_link_flits: reply_width,
            ..d
        }),
        ..SystemConfig::default()
    }
}

/// Run the scheme matrix across [`FABRIC_POINTS`] and self-check the
/// DR cells (the scheme whose engine path exercises delegation plus the
/// fabric) against the reference loop and the sharded engine.
pub fn run_fabric_bench(warm: u64, cycles: u64) -> FabricBenchResult {
    let (gpu, cpu) = ("HS", "bodytrack");
    let mut points = Vec::with_capacity(FABRIC_POINTS.len());
    let mut identical_reports = true;
    for (lat_mult, reply_width) in FABRIC_POINTS {
        let base = fabric_bench_config(lat_mult, reply_width);
        let run = |scheme: Scheme, ff: bool, shards: usize| {
            let mut cfg = base.clone();
            cfg.scheme = scheme;
            measure(cfg, gpu, cpu, warm, cycles, ff, shards)
        };
        let baseline = run(Scheme::Baseline, true, 1);
        let rp = run(Scheme::rp_default(), true, 1);
        let dr = run(Scheme::DelegatedReplies, true, 1);
        identical_reports &= run(Scheme::DelegatedReplies, false, 1) == dr;
        identical_reports &= run(Scheme::DelegatedReplies, true, 2) == dr;
        points.push(FabricPoint {
            lat_mult,
            reply_width,
            baseline,
            rp,
            dr,
        });
    }
    FabricBenchResult {
        chips: fabric_bench_config(1, 4).chips(),
        warm,
        cycles,
        points,
        identical_reports,
    }
}

/// Like [`measure`], but also report how many times the adaptive
/// controller actuated a scheme switch (0 for static configs).
pub fn control_measure(
    cfg: SystemConfig,
    gpu: &str,
    cpu: &str,
    warm: u64,
    cycles: u64,
) -> (Report, usize) {
    let mut sys = MultiChipSystem::new(cfg, gpu, cpu);
    sys.run(warm);
    sys.reset_stats();
    sys.run(cycles);
    let actuations = sys.control_actuations();
    (sys.report(), actuations)
}

/// The workload-intensity matrix `bench --adaptive` sweeps: workload
/// pairings from clog-heavy to nearly idle, each at a tight and a
/// roomy memory-node injection buffer. The adaptive controller should
/// track the best static scheme at both ends.
pub const CONTROL_POINTS: [(&str, &str, usize); 4] = [
    ("HS", "bodytrack", 4),
    ("HS", "bodytrack", 16),
    ("MM", "canneal", 4),
    ("NN", "swaptions", 16),
];

/// One point of the adaptive-control benchmark: the three static
/// schemes and the hysteresis controller on the same workload.
pub struct ControlPoint {
    /// GPU benchmark.
    pub gpu: &'static str,
    /// CPU benchmark.
    pub cpu: &'static str,
    /// Memory-node injection buffer depth (packets).
    pub injbuf: usize,
    /// Report under static [`Scheme::Baseline`].
    pub baseline: Report,
    /// Report under the static default Realistic Probing fanout.
    pub rp: Report,
    /// Report under static [`Scheme::DelegatedReplies`].
    pub dr: Report,
    /// Report under the hysteresis controller (base scheme Baseline).
    pub adaptive: Report,
    /// Scheme switches the controller actuated across warm + measured.
    pub actuations: usize,
}

impl ControlPoint {
    /// GPU IPC of the best static scheme at this point.
    pub fn best_static_ipc(&self) -> f64 {
        self.baseline
            .gpu_ipc
            .max(self.rp.gpu_ipc)
            .max(self.dr.gpu_ipc)
    }

    /// GPU IPC of the worst static scheme at this point.
    pub fn worst_static_ipc(&self) -> f64 {
        self.baseline
            .gpu_ipc
            .min(self.rp.gpu_ipc)
            .min(self.dr.gpu_ipc)
    }
}

/// Result of `clognet bench --adaptive`: the adaptive-vs-static matrix
/// plus the no-op-policy byte-identity self-check (the
/// `BENCH_control.json` artifact).
pub struct ControlBenchResult {
    /// Warmup cycles per cell (controller active, stats excluded).
    pub warm: u64,
    /// Measured cycles per cell.
    pub cycles: u64,
    /// One entry per matrix point, in [`CONTROL_POINTS`] order.
    pub points: Vec<ControlPoint>,
    /// Whether every no-op-policy cell reproduced its uncontrolled
    /// twin byte-for-byte — the controller's observe-only contract,
    /// re-checked on the benchmark's own runs.
    pub identical_reports: bool,
}

impl ControlBenchResult {
    /// Whether the adaptive controller landed within 5% of the best
    /// static scheme's GPU IPC on *every* matrix point.
    pub fn within_5pct_everywhere(&self) -> bool {
        self.points
            .iter()
            .all(|p| p.adaptive.gpu_ipc >= 0.95 * p.best_static_ipc())
    }

    /// Whether the adaptive controller beat the worst static scheme on
    /// at least one matrix point — the payoff for not having to pick.
    pub fn beats_worst_somewhere(&self) -> bool {
        self.points
            .iter()
            .any(|p| p.adaptive.gpu_ipc > p.worst_static_ipc())
    }

    /// Controller actuations summed across the matrix.
    pub fn total_actuations(&self) -> usize {
        self.points.iter().map(|p| p.actuations).sum()
    }

    /// The `BENCH_control.json` document.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"gpu\":\"{}\",\"cpu\":\"{}\",\"injbuf\":{},\
                     \"baseline_ipc\":{:.4},\"rp_ipc\":{:.4},\"dr_ipc\":{:.4},\
                     \"adaptive_ipc\":{:.4},\"actuations\":{},\
                     \"adaptive_over_best\":{:.3},\"adaptive_over_worst\":{:.3}}}",
                    p.gpu,
                    p.cpu,
                    p.injbuf,
                    p.baseline.gpu_ipc,
                    p.rp.gpu_ipc,
                    p.dr.gpu_ipc,
                    p.adaptive.gpu_ipc,
                    p.actuations,
                    if p.best_static_ipc() > 0.0 {
                        p.adaptive.gpu_ipc / p.best_static_ipc()
                    } else {
                        0.0
                    },
                    if p.worst_static_ipc() > 0.0 {
                        p.adaptive.gpu_ipc / p.worst_static_ipc()
                    } else {
                        0.0
                    }
                )
            })
            .collect();
        format!(
            "{{\"harness\":\"clognet bench --adaptive\",\"warm\":{},\"cycles\":{},\
             \"points\":[{}],\"total_actuations\":{},\
             \"within_5pct_of_best_everywhere\":{},\"beats_worst_somewhere\":{},\
             \"identical_reports\":{}}}",
            self.warm,
            self.cycles,
            points.join(","),
            self.total_actuations(),
            self.within_5pct_everywhere(),
            self.beats_worst_somewhere(),
            self.identical_reports
        )
    }
}

/// Run the adaptive-vs-static matrix. Each point measures the three
/// static schemes, the hysteresis controller rooted at Baseline, and a
/// no-op-policy leg whose report must match the uncontrolled Baseline
/// cell byte-for-byte.
pub fn run_control_bench(warm: u64, cycles: u64) -> ControlBenchResult {
    let mut points = Vec::with_capacity(CONTROL_POINTS.len());
    let mut identical_reports = true;
    for (gpu, cpu, injbuf) in CONTROL_POINTS {
        let mut base = SystemConfig::default();
        base.noc.mem_inj_buf_pkts = injbuf;
        let run_static = |scheme: Scheme| {
            let mut cfg = base.clone();
            cfg.scheme = scheme;
            measure(cfg, gpu, cpu, warm, cycles, true, 1)
        };
        let baseline = run_static(Scheme::Baseline);
        let rp = run_static(Scheme::rp_default());
        let dr = run_static(Scheme::DelegatedReplies);
        let mut adaptive_cfg = base.clone();
        adaptive_cfg.scheme = Scheme::Baseline;
        adaptive_cfg.control = Some(ControlConfig::default());
        let (adaptive, actuations) = control_measure(adaptive_cfg, gpu, cpu, warm, cycles);
        let mut noop_cfg = base.clone();
        noop_cfg.scheme = Scheme::Baseline;
        noop_cfg.control = Some(ControlConfig::noop());
        identical_reports &= measure(noop_cfg, gpu, cpu, warm, cycles, true, 1) == baseline;
        points.push(ControlPoint {
            gpu,
            cpu,
            injbuf,
            baseline,
            rp,
            dr,
            adaptive,
            actuations,
        });
    }
    ControlBenchResult {
        warm,
        cycles,
        points,
        identical_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_values_parse_and_reject() {
        assert_eq!(parse_sweep_values("8, 16,24").unwrap(), vec![8, 16, 24]);
        assert!(parse_sweep_values("8,x").is_err());
    }

    #[test]
    fn sweep_param_application() {
        let mut cfg = SystemConfig::default();
        apply_sweep_param(&mut cfg, "width", 32).unwrap();
        assert_eq!(cfg.noc.channel_bytes, 32);
        apply_sweep_param(&mut cfg, "l1kb", 64).unwrap();
        assert_eq!(cfg.gpu.l1.capacity_bytes, 64 * 1024);
        apply_sweep_param(&mut cfg, "drmax", 5).unwrap();
        assert_eq!(cfg.dr.max_per_cycle, 5);
        assert!(apply_sweep_param(&mut cfg, "bogus", 1).is_err());
    }

    #[test]
    fn warm_start_modes_parse() {
        assert_eq!(parse_warm_start("fork"), WarmStart::Fork);
        assert_eq!(parse_warm_start("each"), WarmStart::Each);
        assert_eq!(
            parse_warm_start("snap.bin"),
            WarmStart::File("snap.bin".into())
        );
        assert!(is_warm_param("injbuf") && is_warm_param("drmax"));
        assert!(!is_warm_param("width") && !is_warm_param("l1kb"));
    }

    #[test]
    fn warm_sweep_rejects_structural_params_and_zero_injbuf() {
        let cfg = SystemConfig::default();
        let err = run_sweep_warm(
            &cfg,
            "width",
            &[8, 16],
            "HS",
            "bodytrack",
            100,
            100,
            1,
            &WarmStart::Fork,
        )
        .unwrap_err();
        assert!(err.0.contains("structural"), "{err}");
        assert!(run_sweep_warm(
            &cfg,
            "injbuf",
            &[4, 0],
            "HS",
            "bodytrack",
            100,
            100,
            1,
            &WarmStart::Fork,
        )
        .is_err());
    }

    #[test]
    fn warm_sweep_rejects_missing_or_foreign_snapshot_files() {
        let cfg = SystemConfig::default();
        let run = |path: &str| {
            run_sweep_warm(
                &cfg,
                "injbuf",
                &[4],
                "HS",
                "bodytrack",
                100,
                100,
                1,
                &WarmStart::File(path.to_string()),
            )
        };
        assert!(run("/nonexistent/snap.bin").is_err());
        let dir = std::env::temp_dir().join("clognet-warm-from-test");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"definitely not a snapshot").unwrap();
        let err = run(junk.to_str().unwrap()).unwrap_err();
        assert!(err.0.contains("not a usable snapshot"), "{err}");
        // A real snapshot of the wrong workload is caught by identity.
        let mut sys = System::new(cfg.clone(), "MM", "canneal");
        sys.run(50);
        let other = dir.join("other.bin");
        std::fs::write(&other, sys.snapshot().as_bytes()).unwrap();
        let err = run(other.to_str().unwrap()).unwrap_err();
        assert!(err.0.contains("MM+canneal"), "{err}");
    }

    #[test]
    fn warmstart_json_is_flat_and_balanced() {
        let r = WarmStartBenchResult {
            values: vec![2, 4, 8],
            warm: 2000,
            cycles: 1000,
            threads: 4,
            cold_wall_s: 3.0,
            forked_wall_s: 1.5,
            identical_reports: true,
        };
        let j = r.to_json();
        assert!(j.contains("\"harness\":\"clognet bench --warm-start\""));
        assert!(j.contains("\"values\":[2,4,8]"));
        assert!(j.contains("\"jobs\":6"));
        assert!(j.contains("\"warm_fraction\":0.667"));
        assert!(j.contains("\"speedup\":2.000"));
        assert!(j.contains("\"identical_reports\":true"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn bench_json_is_flat_and_balanced() {
        let r = BenchResult {
            jobs: 9,
            cycles_per_job: 100,
            single: BenchLeg {
                threads: 1,
                wall_s: 2.0,
                wall_s_mean: 2.125,
                wall_s_stddev: 0.25,
                sim_cycles_per_s: 450.0,
            },
            multi: BenchLeg {
                threads: 4,
                wall_s: 0.5,
                wall_s_mean: 0.5,
                wall_s_stddev: 0.0,
                sim_cycles_per_s: 1800.0,
            },
            low_jobs: 6,
            low_cycles_per_job: 1000,
            ff_on: FfLeg {
                wall_s: 0.25,
                wall_s_mean: 0.3,
                wall_s_stddev: 0.05,
                skipped: 3000,
            },
            ff_off: FfLeg {
                wall_s: 1.0,
                wall_s_mean: 1.0,
                wall_s_stddev: 0.0,
                skipped: 0,
            },
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"speedup\":4.000"));
        assert!(j.contains("\"ff_speedup\":4.000"));
        assert!(j.contains("\"skipped_ratio\":0.500"));
        assert!(j.contains("\"skipped_cycles\":3000"));
        // Per-leg rep statistics (min is the headline wall_s).
        assert!(j.contains("\"reps\":3"));
        assert!(j.contains("\"wall_s_single\":2.000000"));
        assert!(j.contains("\"wall_s_single_mean\":2.125000"));
        assert!(j.contains("\"wall_s_single_stddev\":0.250000"));
        assert!(j.contains("\"wall_s_multi_mean\":0.500000"));
        assert!(j.contains("\"wall_s_multi_stddev\":0.000000"));
        assert!(j.contains("\"wall_s_ff_on_mean\":0.300000"));
        assert!(j.contains("\"wall_s_ff_on_stddev\":0.050000"));
        assert!(j.contains("\"wall_s_ff_off_mean\":1.000000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn rep_stats_min_mean_stddev() {
        let (min, mean, stddev) = rep_stats(&[2.0, 4.0, 6.0]);
        assert_eq!(min, 2.0);
        assert_eq!(mean, 4.0);
        assert!((stddev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let (min, mean, stddev) = rep_stats(&[1.5]);
        assert_eq!((min, mean, stddev), (1.5, 1.5, 0.0));
    }

    #[test]
    fn shard_bench_config_fills_the_big_mesh() {
        let cfg = shard_bench_config();
        assert_eq!((cfg.mesh_width, cfg.mesh_height), (16, 16));
        assert_eq!(cfg.n_gpu + cfg.n_cpu + cfg.n_mem, cfg.nodes());
        assert_eq!(cfg.scheme, Scheme::DelegatedReplies);
    }

    #[test]
    fn shard_bench_json_is_flat_and_balanced() {
        let leg = |shards, wall_s, per_s| ShardLeg {
            shards,
            wall_s,
            wall_s_mean: wall_s,
            wall_s_stddev: 0.0,
            sim_cycles_per_s: per_s,
        };
        let r = ShardBenchResult {
            mesh: (16, 16),
            warm: 10,
            cycles: 100,
            legs: vec![leg(1, 2.0, 50.0), leg(4, 0.5, 200.0)],
            identical_reports: true,
        };
        let j = r.to_json();
        assert!(j.contains("\"harness\":\"clognet bench --shards\""));
        assert!(j.contains("\"mesh\":\"16x16\""));
        assert!(j.contains("\"speedup_at_4\":4.000"));
        assert!(j.contains("\"identical_reports\":true"));
        assert!(j.contains("\"shards_gt_host_threads\":"));
        assert!(j.contains("\"shards\":1"));
        assert!(j.contains("\"speedup\":4.000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // A leg that was never run reports no speedup rather than NaN.
        assert_eq!(r.speedup_at(2), 0.0);
    }

    #[test]
    fn control_bench_json_is_flat_and_balanced() {
        let mut sys = System::new(SystemConfig::default(), "HS", "bodytrack");
        sys.run(1_000);
        let r = sys.report();
        let mut dr = r.clone();
        dr.gpu_ipc = r.gpu_ipc * 2.0;
        let mut adaptive = r.clone();
        adaptive.gpu_ipc = r.gpu_ipc * 1.95;
        let result = ControlBenchResult {
            warm: 100,
            cycles: 400,
            points: vec![ControlPoint {
                gpu: "HS",
                cpu: "bodytrack",
                injbuf: 4,
                baseline: r.clone(),
                rp: r.clone(),
                dr,
                adaptive,
                actuations: 2,
            }],
            identical_reports: true,
        };
        // Adaptive is within 5% of the doubled-IPC DR leg and beats
        // the baseline/rp legs.
        assert!(result.within_5pct_everywhere());
        assert!(result.beats_worst_somewhere());
        assert_eq!(result.total_actuations(), 2);
        let j = result.to_json();
        assert!(j.contains("\"harness\":\"clognet bench --adaptive\""));
        assert!(j.contains("\"within_5pct_of_best_everywhere\":true"));
        assert!(j.contains("\"beats_worst_somewhere\":true"));
        assert!(j.contains("\"identical_reports\":true"));
        assert!(j.contains("\"actuations\":2"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn low_intensity_matrix_is_tiny_and_schemed() {
        let m = low_intensity_matrix();
        assert_eq!(m.len() % 2, 0, "each pairing runs under both schemes");
        for (cfg, _, _) in &m {
            assert_eq!(cfg.nodes(), 4, "low-intensity chips stay 2x2");
            assert_eq!(cfg.n_gpu + cfg.n_cpu + cfg.n_mem, cfg.nodes());
        }
    }
}
