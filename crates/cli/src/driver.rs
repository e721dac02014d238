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
use crate::bench_doc::{ratio, BenchDoc, Leg};
use crate::config::Job;
use crate::report::report_json;
use clognet_bench::runner::{run_jobs, run_jobs_with_state, timed};
use clognet_core::{MultiChipSystem, Report, Snapshot, System};
use clognet_proto::{AddressMap, ControlConfig, FabricConfig, Layout, Scheme, SystemConfig};

/// Build, warm, measure, and report one workload under one config.
/// `ff` selects event-horizon fast-forward (the default) or the
/// per-cycle reference loop (`--no-ff`). Reports are identical either
/// way — that equivalence is what the CI smoke steps assert.
pub fn measure(
    cfg: SystemConfig,
    gpu: &str,
    cpu: &str,
    warm: u64,
    cycles: u64,
    ff: bool,
) -> Report {
    let mut sys = MultiChipSystem::new(cfg, gpu, cpu);
    sys.set_fast_forward(ff);
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

/// Run the scheme comparison of `job` across `threads` workers; rows
/// come back in scheme order regardless of which finishes first.
pub fn run_compare(job: &Job, threads: usize) -> Vec<(Scheme, Report)> {
    let schemes = compare_schemes().map(|s| (s, job.cfg.clone().with_scheme(s)));
    run_jobs(schemes.to_vec(), threads, |(scheme, cfg)| {
        let report = measure(cfg, job.gpu, job.cpu, job.warm, job.cycles, job.ff);
        (scheme, report)
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
/// it; see [`MultiChipSystem::retarget`]), and how it sets a config
/// field, failing on a value the field cannot hold.
pub type SweepParam = (&'static str, bool, fn(&mut SystemConfig, u64) -> Option<()>);

/// Every sweep parameter: the only list of the warm-applicable ones.
/// None moves nodes or re-interleaves addresses, so [`run_sweep`]
/// derives the layout and [`AddressMap`] once.
const SWEEP_PARAMS: [SweepParam; 5] = [
    ("width", false, |c, v| {
        v.try_into().ok().map(|v| c.noc.channel_bytes = v)
    }),
    ("l1kb", false, |c, v| {
        v.checked_mul(1 << 10).map(|b| c.gpu.l1.capacity_bytes = b)
    }),
    ("llcmb", false, |c, v| {
        let n_mem = c.n_mem as u64;
        v.checked_mul(1 << 20)
            .map(|b| c.llc.slice.capacity_bytes = b / n_mem)
    }),
    ("injbuf", true, |c, v| {
        v.try_into().ok().map(|v| c.noc.mem_inj_buf_pkts = v)
    }),
    ("drmax", true, |c, v| {
        v.try_into().ok().map(|v| c.dr.max_per_cycle = v)
    }),
];

/// The sweep parameter names (only the warm-applicable ones when
/// `warm_only`), `|`-separated, for messages.
pub fn sweep_param_names(warm_only: bool) -> String {
    let names = SWEEP_PARAMS.iter().filter(|p| p.1 || !warm_only);
    names.map(|p| p.0).collect::<Vec<_>>().join("|")
}

/// Look up a sweep parameter by name; with `warm`, only one a warmed
/// system takes without a rebuild.
///
/// # Errors
///
/// Fails on an unknown parameter name, or a structural one with `warm`.
pub fn sweep_param(name: &str, warm: bool) -> Result<SweepParam, ParseArgsError> {
    let names = sweep_param_names(warm);
    match SWEEP_PARAMS.into_iter().find(|p| p.0 == name) {
        None => Err(ParseArgsError(format!(
            "unknown sweep param `{name}` ({names})"
        ))),
        Some(p) if warm && !p.1 => Err(ParseArgsError(format!(
            "`{name}` is structural: a warmed system takes only {names}"
        ))),
        Some(p) => Ok(p),
    }
}

/// Set one sweep parameter on a config. The result is not validated.
///
/// # Errors
///
/// Fails on an unknown parameter name, or a value its field cannot hold.
pub fn apply_sweep_param(
    cfg: &mut SystemConfig,
    param: &str,
    v: u64,
) -> Result<(), ParseArgsError> {
    let (_, _, set) = sweep_param(param, false)?;
    set(cfg, v).ok_or_else(|| ParseArgsError(format!("{param}={v}: value out of range")))
}

/// Every sweep point as its pair of jobs, baseline then DR: `param` set
/// to each value on a copy of `base`, validated, so a point that cannot
/// be built fails before any job starts.
///
/// # Errors
///
/// Fails on an unknown parameter name or a point that cannot be built.
pub fn sweep_configs(
    base: &SystemConfig,
    param: &str,
    values: &[u64],
) -> Result<Vec<SystemConfig>, ParseArgsError> {
    let mut jobs = Vec::with_capacity(values.len() * 2);
    for &v in values {
        let mut cfg = base.clone();
        apply_sweep_param(&mut cfg, param, v)?;
        cfg.validate()
            .map_err(|e| ParseArgsError(format!("{param}={v}: {e}")))?;
        for scheme in [Scheme::Baseline, Scheme::DelegatedReplies] {
            jobs.push(cfg.clone().with_scheme(scheme));
        }
    }
    Ok(jobs)
}

/// Pair a sweep's reports, in [`sweep_configs`] order, into points.
fn sweep_points(values: &[u64], reports: Vec<Report>) -> Vec<SweepPoint> {
    let mut it = reports.into_iter();
    let mut next = || it.next().expect("one report per job");
    let points = values.iter().map(|&value| SweepPoint {
        value,
        baseline: next(),
        dr: next(),
    });
    points.collect()
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

/// Load and identity-check a snapshot file for `--warm-from <path>`:
/// the embedded config and benchmark names must match what the command
/// would otherwise simulate, or every variant would silently measure a
/// different chip.
fn load_warm_snapshot(path: &str, job: &Job) -> Result<Snapshot, ParseArgsError> {
    let (gpu, cpu) = (job.gpu, job.cpu);
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
    if snap.config() != &job.cfg {
        return Err(ParseArgsError(format!(
            "{path} was taken under a different configuration; \
             rerun `clognet snapshot` with the same options"
        )));
    }
    Ok(snap)
}

/// Hand each of `jobs` a system warmed `job.warm` cycles under
/// `job.cfg` and collect `f`'s results in order on `threads` workers.
/// `mode` says where the warmup comes from: re-simulated per job
/// (`Each`), simulated once and its snapshot restored per job (`Fork`),
/// or a snapshot file restored per job (`File`, identity-checked up
/// front).
fn run_warm_jobs<J: Send, T: Send>(
    job: &Job,
    jobs: Vec<J>,
    threads: usize,
    mode: &WarmStart,
    f: impl Fn(&mut MultiChipSystem, J) -> T + Sync,
) -> Result<Vec<T>, ParseArgsError> {
    let warmed = || {
        let mut sys = MultiChipSystem::new(job.cfg.clone(), job.gpu, job.cpu);
        sys.run(job.warm);
        sys
    };
    let snap = match mode {
        WarmStart::Each => None,
        WarmStart::Fork => Some(warmed().snapshot()),
        WarmStart::File(path) => Some(load_warm_snapshot(path, job)?),
    };
    Ok(run_jobs(jobs, threads, |variant| {
        let mut sys = match &snap {
            Some(snap) => MultiChipSystem::restore(snap).expect("snapshot taken or validated"),
            None => warmed(),
        };
        f(&mut sys, variant)
    }))
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
/// Fails on a structural (non-warm-applicable) parameter, a point that
/// cannot be built, or an unreadable/mismatched snapshot file.
pub fn run_sweep_warm(
    job: &Job,
    param: &str,
    values: &[u64],
    threads: usize,
    mode: &WarmStart,
) -> Result<Vec<SweepPoint>, ParseArgsError> {
    sweep_param(param, true).map_err(|e| ParseArgsError(format!("--warm-from: {e}")))?;
    let jobs = sweep_configs(&job.cfg, param, values)?;
    let reports = run_warm_jobs(job, jobs, threads, mode, |sys, cfg| {
        sys.set_scheme(cfg.scheme);
        sys.retarget(&cfg);
        sys.reset_stats();
        sys.run(job.cycles);
        sys.report()
    })?;
    Ok(sweep_points(values, reports))
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
pub fn run_compare_warm(
    job: &Job,
    threads: usize,
    mode: &WarmStart,
) -> Result<Vec<(Scheme, Report)>, ParseArgsError> {
    let jobs = compare_schemes().to_vec();
    run_warm_jobs(job, jobs, threads, mode, |sys, scheme| {
        sys.set_scheme(scheme);
        sys.reset_stats();
        sys.run(job.cycles);
        (scheme, sys.report())
    })
}

/// Run a parameter sweep (each point under baseline and DR) across
/// `threads` workers, reusing one pre-derived layout/address map.
///
/// # Errors
///
/// Fails on an unknown parameter name or a point that cannot be built.
pub fn run_sweep(
    job: &Job,
    param: &str,
    values: &[u64],
    threads: usize,
) -> Result<Vec<SweepPoint>, ParseArgsError> {
    let jobs = sweep_configs(&job.cfg, param, values)?;
    // None of the sweep parameters move nodes or re-interleave
    // addresses, so derive both once instead of per (point, scheme).
    let layout = job.cfg.layout();
    let map = AddressMap::new(job.cfg.n_mem, job.cfg.seed);
    let reports = run_jobs(jobs, threads, |cfg| {
        let mut sys = MultiChipSystem::new_prebuilt(cfg, job.gpu, job.cpu, layout.clone(), map);
        sys.set_fast_forward(job.ff);
        sys.run(job.warm);
        sys.reset_stats();
        sys.run(job.cycles);
        sys.report()
    });
    Ok(sweep_points(values, reports))
}

impl SweepPoint {
    /// Both reports as `report_json` documents, baseline first.
    pub fn report_docs(&self) -> [String; 2] {
        [
            report_json(Scheme::Baseline, &self.baseline),
            report_json(Scheme::DelegatedReplies, &self.dr),
        ]
    }
}

/// Render one sweep point as its NDJSON line (without trailing newline).
pub fn sweep_point_json(param: &str, p: &SweepPoint) -> String {
    let [baseline, dr] = p.report_docs();
    let value = p.value;
    format!("{{\"param\":\"{param}\",\"value\":{value},\"baseline\":{baseline},\"dr\":{dr}}}")
}

/// Repetitions per timed leg of the throughput benchmark: the minimum
/// is the headline (the standard defense against scheduler noise), and
/// the mean and standard deviation show how noisy the host was.
pub const LEG_REPS: usize = 3;

/// One job of a timed leg: its config and workload pair.
type LegJob = (SystemConfig, &'static str, &'static str);

/// `cfg` under every compared scheme, for each workload pair in turn.
fn scheme_matrix(cfg: &SystemConfig, pairs: &[(&'static str, &'static str)]) -> Vec<LegJob> {
    let jobs = pairs.iter().flat_map(|&(gpu, cpu)| {
        let with = move |scheme| (cfg.clone().with_scheme(scheme), gpu, cpu);
        compare_schemes().into_iter().map(with)
    });
    jobs.collect()
}

/// The fixed `compare`-shaped workload matrix the benchmark times:
/// every scheme over a small, diverse set of Table-II pairings.
pub fn bench_matrix() -> Vec<LegJob> {
    let pairs = [("HS", "bodytrack"), ("MM", "canneal"), ("BP", "ferret")];
    scheme_matrix(&SystemConfig::default(), &pairs)
}

/// Dead-cycle-dominated matrix for the fast-forward legs: a 2x2 mesh
/// with one single-warp GPU core whose working set is fully L1-resident
/// (large L1, periodic flush off) and an L1-resident CPU workload
/// leaves the NoC drained most cycles, so the quiescence engine is the
/// dominant factor in wall-clock time.
pub fn low_intensity_matrix() -> Vec<LegJob> {
    let mut cfg = SystemConfig {
        mesh_width: 2,
        mesh_height: 2,
        n_gpu: 1,
        n_cpu: 1,
        n_mem: 2,
        ..SystemConfig::default()
    };
    cfg.gpu.warps_per_core = 1;
    cfg.gpu.issue_width = 1;
    cfg.gpu.l1.capacity_bytes = 1024 * 1024;
    cfg.gpu.flush_interval = None;
    scheme_matrix(&cfg, &[("NN", "blackscholes"), ("NN", "swaptions")])
}

/// What the clock of a timed leg covers.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// The whole batch on the default engine, build and warmup included.
    Batch,
    /// Only each job's measured span, summed, run with fast-forward on
    /// or off after an untimed warmup that is the same either way, so
    /// two such legs compare steady-state throughput.
    Span { ff: bool },
}

/// Time `jobs` [`LEG_REPS`] times on `threads` workers over what `clock`
/// covers, each rep on freshly built systems (the simulation is
/// deterministic, so every rep does identical work).
fn time_leg(
    label: &str,
    jobs: &[LegJob],
    threads: usize,
    warm: u64,
    cycles: u64,
    clock: Clock,
) -> Leg {
    let ff = !matches!(clock, Clock::Span { ff: false });
    let mut walls = Vec::with_capacity(LEG_REPS);
    let mut runs = Vec::new();
    for _ in 0..LEG_REPS {
        let rep_jobs = jobs.to_vec();
        // Every job in a matrix shares one chip shape, so each worker
        // derives the node layout and address map once and reuses them
        // for every job it claims.
        let (done, wall) = timed(|| {
            run_jobs_with_state(
                rep_jobs,
                threads,
                || None::<(Layout, AddressMap)>,
                |prebuilt, (cfg, gpu, cpu)| {
                    let (layout, map) = prebuilt.get_or_insert_with(|| {
                        (cfg.layout(), AddressMap::new(cfg.n_mem, cfg.seed))
                    });
                    let mut sys = System::new_prebuilt(cfg, gpu, cpu, layout.clone(), *map);
                    sys.run(warm);
                    sys.reset_stats();
                    sys.set_fast_forward(ff);
                    let ((), span) = timed(|| sys.run(cycles));
                    (sys.report(), sys.skipped_cycles(), span)
                },
            )
        });
        walls.push(match clock {
            Clock::Batch => wall,
            Clock::Span { .. } => done.iter().map(|r| r.2).sum(),
        });
        runs = done;
    }
    let per_job = match clock {
        Clock::Batch => warm + cycles,
        Clock::Span { .. } => cycles,
    };
    let docs: Vec<String> = (runs.iter().zip(jobs))
        .map(|((r, ..), (cfg, ..))| report_json(cfg.scheme, r))
        .collect();
    let mut leg = Leg::new(label, threads, walls, jobs.len() as u64 * per_job, &docs);
    leg.skipped_cycles = Some(runs.iter().map(|r| r.1).sum());
    leg
}

/// Warmup for the fast-forward legs: small chips tick fast but need a
/// long warmup before their L1-resident workloads stop missing cold —
/// only then do dead cycles dominate.
const LOW_WARM: u64 = 20_000;

/// `clognet bench`: time the fixed matrix single- and multi-threaded,
/// then the low-intensity matrix with fast-forward off vs on.
pub fn run_bench(threads: usize, warm: u64, cycles: u64) -> BenchDoc {
    let matrix = bench_matrix();
    let single = time_leg("single", &matrix, 1, warm, cycles, Clock::Batch);
    let multi = time_leg("multi", &matrix, threads.max(2), warm, cycles, Clock::Batch);
    let (low, low_cycles) = (low_intensity_matrix(), 12 * cycles);
    let (off, on) = (Clock::Span { ff: false }, Clock::Span { ff: true });
    let ff_off = time_leg("ff_off", &low, 1, LOW_WARM, low_cycles, off);
    let ff_on = time_leg("ff_on", &low, 1, LOW_WARM, low_cycles, on);
    throughput_doc([single, multi, ff_off, ff_on], low_cycles, warm, cycles)
}

/// The throughput document from its four legs in run order: the matrix
/// at 1 and N threads, then the low-intensity matrix at `low_cycles`
/// measured cycles per job with fast-forward off and on.
fn throughput_doc(legs: [Leg; 4], low_cycles: u64, warm: u64, cycles: u64) -> BenchDoc {
    let [single, multi, ff_off, ff_on] = legs;
    let (speedup, ff_speedup) = (multi.speedup_over(&single), ff_on.speedup_over(&ff_off));
    let skipped = ff_on.skipped_cycles.unwrap_or(0) as f64;
    let skipped_ratio = ratio(skipped, (ff_on.jobs as u64 * low_cycles) as f64);
    let title = format!(
        "throughput: {} jobs at 1 and {} threads, then {} low-intensity jobs with \
         fast-forward off and on",
        single.jobs, multi.threads, ff_off.jobs
    );
    let mut doc = BenchDoc::new("clognet bench", title, warm, cycles);
    let low_budget = |leg: Leg| leg.metric("warm", LOW_WARM).metric("cycles", low_cycles);
    doc.push_pair(single, multi.metric("speedup", format!("{speedup:.3}")));
    let ff_on = low_budget(ff_on).metric("speedup", format!("{ff_speedup:.3}"));
    let ff_on = ff_on.metric("skipped_ratio", format!("{skipped_ratio:.3}"));
    doc.push_pair(low_budget(ff_off), ff_on);
    doc
}

/// The injbuf values the warm-start benchmark sweeps: 8 variants, each
/// measured under both schemes (16 forked systems per leg).
pub const WARMSTART_VALUES: [u64; 8] = [2, 3, 4, 6, 8, 12, 16, 24];

/// `clognet bench --warm-start`: time the warm-started injbuf sweep cold
/// (`--warm-from each`: warmup re-simulated per variant) and forked
/// (`--warm-from fork`: warmup simulated once, snapshot forked per
/// variant) on the same thread count. Cold runs first so the forked leg
/// cannot ride its cache warmth.
pub fn run_warmstart_bench(threads: usize, warm: u64, cycles: u64) -> BenchDoc {
    let values = WARMSTART_VALUES;
    let job = Job {
        gpu: "HS",
        cpu: "bodytrack",
        warm,
        cycles,
        cfg: SystemConfig::default(),
        ff: true,
    };
    let jobs = 2 * values.len() as u64;
    let tags = [
        ("param", "\"injbuf\"".into()),
        ("values", format!("{values:?}")),
    ];
    let leg = |label: &str, mode: WarmStart, sim_cycles: u64| {
        let sweep = || run_sweep_warm(&job, "injbuf", &values, threads, &mode);
        let (points, wall) = timed(|| sweep().expect("injbuf is warm-applicable"));
        let docs: Vec<String> = points.iter().flat_map(SweepPoint::report_docs).collect();
        Leg::new(label, threads, vec![wall], sim_cycles, &docs).tagged(&tags)
    };
    let cold = leg("cold", WarmStart::Each, jobs * (warm + cycles));
    let forked = leg("forked", WarmStart::Fork, warm + jobs * cycles);
    let speedup = forked.speedup_over(&cold);
    let title = format!("warm-start: {jobs} injbuf variants, warmup re-simulated vs forked");
    let mut doc = BenchDoc::new("clognet bench --warm-start", title, warm, cycles);
    doc.push_pair(cold, forked.metric("speedup", format!("{speedup:.3}")));
    doc
}

/// Time one [`run_compare`] of `gpu`+`cpu` on `cfg` at `doc`'s budget
/// as the leg `label`, and hand back the leg and the compare rows.
fn compare_leg(
    doc: &BenchDoc,
    label: String,
    cfg: &SystemConfig,
    gpu: &str,
    cpu: &str,
    ff: bool,
    threads: usize,
) -> (Leg, Vec<(Scheme, Report)>) {
    let (warm, cycles, cfg) = (doc.warm, doc.cycles, cfg.clone());
    let job = Job {
        gpu,
        cpu,
        warm,
        cycles,
        cfg,
        ff,
    };
    let (rows, wall) = timed(|| run_compare(&job, threads));
    let docs: Vec<String> = rows.iter().map(|(s, r)| report_json(*s, r)).collect();
    let sim_cycles = docs.len() as u64 * (warm + cycles);
    let leg = Leg::new(label, threads, vec![wall], sim_cycles, &docs);
    (leg, rows)
}

/// Each compared scheme's GPU IPC from `compare` rows, as leg metrics.
fn ipc_metrics(rows: &[(Scheme, Report)]) -> Vec<(&'static str, String)> {
    let names = ["baseline_ipc", "rp_ipc", "dr_ipc"];
    let ipcs = rows.iter().map(|(_, r)| format!("{:.4}", r.gpu_ipc));
    names.into_iter().zip(ipcs).collect()
}

/// The fabric reply-path degradation points `bench --fabric` sweeps:
/// per-hop reply latency multiplier x reply link width in flits/cycle,
/// from the healthy interconnect to a clogged one (10x slower, 1/4 the
/// width) — the inter-chip analogue of the paper's reply-net clog.
pub const FABRIC_POINTS: [(u32, u32); 4] = [(1, 4), (2, 4), (4, 2), (10, 1)];

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

/// `clognet bench --fabric`: the three schemes on a 2-chip package at
/// each of [`FABRIC_POINTS`], each point run again on the per-cycle
/// reference loop (`--no-ff`).
pub fn run_fabric_bench(threads: usize, warm: u64, cycles: u64) -> BenchDoc {
    let title = format!(
        "fabric degradation on a {}-chip package: HS+bodytrack under baseline, rp and dr, \
         each point again with --no-ff",
        fabric_bench_config(1, 4).chips()
    );
    let mut doc = BenchDoc::new("clognet bench --fabric", title, warm, cycles);
    for (lat_mult, reply_width) in FABRIC_POINTS {
        let cfg = fabric_bench_config(lat_mult, reply_width);
        let tags = [
            ("chips", cfg.chips().to_string()),
            ("lat_mult", lat_mult.to_string()),
            ("reply_width", reply_width.to_string()),
        ];
        let label = format!("lat{lat_mult}x_w{reply_width}");
        let leg = |label, ff| compare_leg(&doc, label, &cfg, "HS", "bodytrack", ff, threads);
        let (ff, rows) = leg(label.clone(), true);
        let (no_ff, _) = leg(label + "_no_ff", false);
        let reports = rows.iter().map(|(s, r)| report_json(*s, r));
        let reports: Vec<_> = ["baseline", "rp", "dr"].into_iter().zip(reports).collect();
        let dr_over_baseline = format!("{:.3}", ratio(rows[2].1.gpu_ipc, rows[0].1.gpu_ipc));
        let ff = ff.tagged(&tags).tagged(&ipc_metrics(&rows));
        let ff = ff
            .tagged(&reports)
            .metric("dr_over_baseline", dr_over_baseline);
        doc.push_pair(ff, no_ff.tagged(&tags));
    }
    doc
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

/// The best and the worst of the static schemes' GPU IPCs.
fn best_and_worst(ipcs: [f64; 3]) -> (f64, f64) {
    let best = ipcs.into_iter().fold(f64::MIN, f64::max);
    (best, ipcs.into_iter().fold(f64::MAX, f64::min))
}

/// The adaptive harness's verdicts over its points, each the adaptive
/// controller's GPU IPC beside the three static schemes': whether it
/// came within 5% of the best static scheme at every point, and whether
/// it beat the worst one at some point.
fn control_checks(points: &[(f64, [f64; 3])]) -> (bool, bool) {
    let within_5pct = points
        .iter()
        .all(|&(ipc, s)| ipc >= 0.95 * best_and_worst(s).0);
    let beats_worst = points.iter().any(|&(ipc, s)| ipc > best_and_worst(s).1);
    (within_5pct, beats_worst)
}

/// `clognet bench --adaptive`: at each of [`CONTROL_POINTS`], the three
/// static schemes, the same three under the no-op controller, and the
/// hysteresis controller rooted at Baseline.
pub fn run_control_bench(threads: usize, warm: u64, cycles: u64) -> BenchDoc {
    let title = "adaptive control vs static schemes: static, under the no-op controller, \
                 and under hysteresis"
        .into();
    let mut doc = BenchDoc::new("clognet bench --adaptive", title, warm, cycles);
    let mut points = Vec::new();
    for (gpu, cpu, injbuf) in CONTROL_POINTS {
        let mut base = SystemConfig::default();
        base.noc.mem_inj_buf_pkts = injbuf;
        let noop = SystemConfig {
            control: Some(ControlConfig::noop()),
            ..base.clone()
        };
        let tags = [
            ("gpu", format!("\"{gpu}\"")),
            ("cpu", format!("\"{cpu}\"")),
            ("injbuf", injbuf.to_string()),
        ];
        let label = format!("{gpu}+{cpu}_injbuf{injbuf}");
        let leg = |label, cfg| compare_leg(&doc, label, cfg, gpu, cpu, true, threads);
        let (fixed, rows) = leg(label.clone(), &base);
        let (noop, _) = leg(format!("{label}_noop"), &noop);
        let fixed = fixed.tagged(&tags).tagged(&ipc_metrics(&rows));
        doc.push_pair(fixed, noop.tagged(&tags));
        // The controller's actuations live on the system, not in the
        // report, so this one job runs outside `run_compare`.
        let adaptive = SystemConfig {
            scheme: Scheme::Baseline,
            control: Some(ControlConfig::default()),
            ..base
        };
        let (sys, wall) = timed(|| {
            let mut sys = MultiChipSystem::new(adaptive, gpu, cpu);
            sys.run(warm);
            sys.reset_stats();
            sys.run(cycles);
            sys
        });
        let (r, statics) = (sys.report(), [0, 1, 2].map(|i| rows[i].1.gpu_ipc));
        let ((best, worst), ipc) = (best_and_worst(statics), r.gpu_ipc);
        points.push((ipc, statics));
        let metrics = [
            ("adaptive_ipc", format!("{ipc:.4}")),
            ("actuations", sys.control_actuations().to_string()),
            ("adaptive_over_best", format!("{:.3}", ratio(ipc, best))),
            ("adaptive_over_worst", format!("{:.3}", ratio(ipc, worst))),
        ];
        let docs = [report_json(Scheme::Baseline, &r)];
        let leg = Leg::new(label + "_adaptive", 1, vec![wall], warm + cycles, &docs);
        doc.legs.push(leg.tagged(&tags).tagged(&metrics));
    }
    let (within_5pct, beats_worst) = control_checks(&points);
    doc.checks = vec![
        ("within_5pct_of_best_everywhere", within_5pct),
        ("beats_worst_somewhere", beats_worst),
    ];
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_serve::Json;

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
        // A value the field cannot hold is an error, not a wrapped cast.
        assert!(apply_sweep_param(&mut cfg, "width", 5_000_000_000).is_err());
        assert!(apply_sweep_param(&mut cfg, "l1kb", u64::MAX).is_err());
        // Every warm parameter is a field a warmed system takes.
        for (name, _, set) in SWEEP_PARAMS.into_iter().filter(|p| p.1) {
            let mut sys = System::new(SystemConfig::default(), "HS", "bodytrack");
            let mut cfg = SystemConfig::default();
            set(&mut cfg, 3).unwrap();
            sys.retarget(&cfg);
            assert_eq!(sys.config(), &cfg, "{name}");
        }
    }

    #[test]
    fn warm_start_modes_parse() {
        assert_eq!(parse_warm_start("fork"), WarmStart::Fork);
        assert_eq!(parse_warm_start("each"), WarmStart::Each);
        assert_eq!(
            parse_warm_start("snap.bin"),
            WarmStart::File("snap.bin".into())
        );
        let warm = |name| sweep_param(name, true).is_ok();
        assert!(warm("injbuf") && warm("drmax"));
        assert!(!warm("width") && !warm("l1kb") && sweep_param("width", false).is_ok());
    }

    /// A warm-started 100+100-cycle HS+bodytrack sweep on one thread.
    fn warm_sweep(
        param: &str,
        values: &[u64],
        mode: WarmStart,
    ) -> Result<Vec<SweepPoint>, ParseArgsError> {
        let job = Job {
            gpu: "HS",
            cpu: "bodytrack",
            warm: 100,
            cycles: 100,
            cfg: SystemConfig::default(),
            ff: true,
        };
        run_sweep_warm(&job, param, values, 1, &mode)
    }

    #[test]
    fn warm_sweep_rejects_structural_params_and_zero_injbuf() {
        let err = warm_sweep("width", &[8, 16], WarmStart::Fork).unwrap_err();
        assert!(err.0.contains("structural"), "{err}");
        assert!(warm_sweep("injbuf", &[4, 0], WarmStart::Fork).is_err());
    }

    #[test]
    fn warm_sweep_rejects_missing_or_foreign_snapshot_files() {
        let run = |path: &str| warm_sweep("injbuf", &[4], WarmStart::File(path.into()));
        assert!(run("/nonexistent/snap.bin").is_err());
        let dir = std::env::temp_dir().join("clognet-warm-from-test");
        std::fs::create_dir_all(&dir).unwrap();
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"definitely not a snapshot").unwrap();
        let err = run(junk.to_str().unwrap()).unwrap_err();
        assert!(err.0.contains("not a usable snapshot"), "{err}");
        // A real snapshot of the wrong workload is caught by identity.
        let mut sys = System::new(SystemConfig::default(), "MM", "canneal");
        sys.run(50);
        let other = dir.join("other.bin");
        std::fs::write(&other, sys.snapshot().as_bytes()).unwrap();
        let err = run(other.to_str().unwrap()).unwrap_err();
        assert!(err.0.contains("MM+canneal"), "{err}");
    }

    /// Object keys, space-separated: the reader keeps them sorted.
    fn keys(j: &Json) -> String {
        let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
        keys.join(" ")
    }

    /// The checks every bench document passes: it parses, has the five
    /// top-level keys and `legs` legs with one key set, positive times
    /// and 16-digit digests, and `identical_reports` holds until one
    /// pair's digests differ. Hands back the parsed document.
    fn assert_one_shape(doc: &BenchDoc, legs: usize) -> Json {
        let text = doc.to_json();
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(keys(&json), "budget checks harness host legs", "{text}");
        assert_eq!(json.get("harness").unwrap().as_str(), Some(doc.harness));
        assert!(json.get("host").unwrap().get("nproc").unwrap().as_u64() >= Some(1));
        let budget = json.get("budget").unwrap();
        assert_eq!(budget.get("warm").unwrap().as_u64(), Some(doc.warm));
        assert_eq!(budget.get("cycles").unwrap().as_u64(), Some(doc.cycles));
        let identical = json.get("checks").unwrap().get("identical_reports");
        assert_eq!(identical.unwrap().as_bool(), Some(true), "{text}");
        let got = json.get("legs").unwrap().as_arr().unwrap();
        assert_eq!(got.len(), legs, "{text}");
        for l in got {
            let want = "jobs label metrics report_digest sim_cycles_per_s \
                        skipped_cycles threads wall";
            assert_eq!(keys(l), want, "{text}");
            let wall = l.get("wall").unwrap();
            assert!(wall.get("min").unwrap().as_f64() > Some(0.0), "{text}");
            assert!(l.get("jobs").unwrap().as_u64() >= Some(1), "{text}");
            assert_eq!(l.get("report_digest").unwrap().as_str().unwrap().len(), 16);
        }
        // One mismatched pair is enough to fail the whole document.
        let mut broken = doc.clone();
        broken.legs[broken.pairs[0].1].report_digest ^= 1;
        assert!(!broken.identical_reports());
        assert!(broken.to_json().contains("\"identical_reports\":false"));
        json
    }

    /// A parsed document's legs.
    fn legs(json: &Json) -> &[Json] {
        json.get("legs").unwrap().as_arr().unwrap()
    }

    /// The labels of a parsed document's legs, in order.
    fn labels(json: &Json) -> Vec<&str> {
        let label = |l| Json::get(l, "label").unwrap().as_str().unwrap();
        legs(json).iter().map(label).collect()
    }

    /// The throughput legs of the matrix and low-intensity runs, built
    /// by hand: timing the real matrices takes minutes.
    fn throughput_legs() -> [Leg; 4] {
        let mut ff_on = Leg::new("ff_on", 1, vec![0.25, 0.3, 0.35], 6_000, &["b"; 6]);
        ff_on.skipped_cycles = Some(3_000);
        [
            Leg::new("single", 1, vec![2.0, 2.25, 2.125], 900, &["a"; 9]),
            Leg::new("multi", 4, vec![0.5; 3], 900, &["a"; 9]),
            Leg::new("ff_off", 1, vec![1.0; 3], 6_000, &["b"; 6]),
            ff_on,
        ]
    }

    /// The cluster and fabric documents have the shape every harness
    /// writes (the other three harnesses' tests check theirs), and the
    /// fabric legs carry each point and, on the fast-forwarded leg, the
    /// three schemes' reports and IPCs.
    #[test]
    fn bench_documents_share_one_shape() {
        // The cluster harness boots servers, so its document is
        // assembled from legs as its driver assembles them.
        let leg = |label: &str| Leg::new(label, 1, vec![0.5], 1_000, &["c"]);
        let cluster = crate::cluster_cmd::cluster_doc(leg("single"), leg("cluster"), 3, 10, 20);
        assert_one_shape(&cluster, 2);
        let fabric = assert_one_shape(&run_fabric_bench(2, 20, 40), 2 * FABRIC_POINTS.len());
        let metrics: Vec<String> = legs(&fabric)
            .iter()
            .map(|l| keys(l.get("metrics").unwrap()))
            .collect();
        for pair in metrics.chunks(2) {
            let ff = "baseline baseline_ipc chips dr dr_ipc dr_over_baseline lat_mult \
                      reply_width rp rp_ipc";
            assert_eq!(pair, [ff, "chips lat_mult reply_width"]);
        }
    }

    #[test]
    fn bench_json_is_flat_and_balanced() {
        let json = assert_one_shape(&throughput_doc(throughput_legs(), 1_000, 10, 100), 4);
        assert_eq!(labels(&json), ["single", "multi", "ff_off", "ff_on"]);
        let legs = legs(&json);
        let metric = |i: usize, key: &str| {
            let metrics = legs[i].get("metrics").unwrap();
            metrics.get(key).unwrap().as_f64().unwrap()
        };
        assert_eq!(metric(1, "speedup"), 4.0);
        assert_eq!(metric(3, "speedup"), 4.0);
        assert_eq!(metric(3, "skipped_ratio"), 0.5);
        assert_eq!(metric(2, "warm"), 20_000.0);
        assert_eq!(metric(2, "cycles"), 1_000.0);
        assert_eq!(legs[3].get("skipped_cycles").unwrap().as_u64(), Some(3_000));
        assert_eq!(legs[0].get("skipped_cycles").unwrap().as_u64(), None);
        assert_eq!(legs[1].get("threads").unwrap().as_u64(), Some(4));
        // Per-leg rep statistics; the minimum rep sets the rate.
        let wall = legs[0].get("wall").unwrap();
        let stat = |key: &str| wall.get(key).unwrap().as_f64().unwrap();
        assert_eq!((stat("min"), stat("mean"), stat("reps")), (2.0, 2.125, 3.0));
        assert!(stat("stddev") > 0.0);
        let rate = legs[0].get("sim_cycles_per_s").unwrap().as_f64();
        assert_eq!(rate, Some(450.0));
    }

    #[test]
    fn warmstart_json_is_flat_and_balanced() {
        let json = assert_one_shape(&run_warmstart_bench(2, 20, 40), 2);
        assert_eq!(labels(&json), ["cold", "forked"]);
        let jobs = 2 * WARMSTART_VALUES.len() as u64;
        for leg in legs(&json) {
            assert_eq!(leg.get("jobs").unwrap().as_u64(), Some(jobs));
            assert_eq!(leg.get("threads").unwrap().as_u64(), Some(2));
            let metrics = leg.get("metrics").unwrap();
            assert_eq!(metrics.get("param").unwrap().as_str(), Some("injbuf"));
            let values = metrics.get("values").unwrap().as_arr().unwrap();
            let values: Vec<u64> = values.iter().map(|v| v.as_u64().unwrap()).collect();
            assert_eq!(values, WARMSTART_VALUES);
        }
        let forked = legs(&json)[1].get("metrics").unwrap();
        assert!(forked.get("speedup").unwrap().as_f64() > Some(0.0));
    }

    #[test]
    fn control_bench_json_is_flat_and_balanced() {
        let json = assert_one_shape(&run_control_bench(2, 20, 40), 3 * CONTROL_POINTS.len());
        let checks = json.get("checks").unwrap();
        let want = "beats_worst_somewhere identical_reports within_5pct_of_best_everywhere";
        assert_eq!(keys(checks), want);
        // The verdicts, on points built by hand: static IPCs x, x and 2x.
        let statics = [1.0, 1.0, 2.0];
        assert_eq!(best_and_worst([1.0, 3.0, 2.0]), (3.0, 1.0));
        assert_eq!(control_checks(&[(1.95, statics)]), (true, true));
        // Exactly 5% below the best is within; further below is not.
        assert_eq!(control_checks(&[(1.9, statics)]), (true, true));
        assert_eq!(control_checks(&[(1.85, statics)]), (false, true));
        // Matching the worst static scheme does not beat it.
        assert_eq!(control_checks(&[(1.0, [1.0; 3])]), (true, false));
        // One point outside 5% fails the first check; one win passes the second.
        let mixed = [(1.95, statics), (1.0, statics)];
        assert_eq!(control_checks(&mixed), (false, true));
        let all = labels(&json);
        let points = legs(&json).chunks(3).zip(all.chunks(3)).zip(CONTROL_POINTS);
        for ((point, got), (gpu, cpu, injbuf)) in points {
            let label = format!("{gpu}+{cpu}_injbuf{injbuf}");
            let want = [format!("{label}_noop"), format!("{label}_adaptive")];
            assert_eq!(got, [label.as_str(), &want[0], &want[1]]);
            let metrics: Vec<&Json> = point.iter().map(|l| l.get("metrics").unwrap()).collect();
            let fixed = "baseline_ipc cpu dr_ipc gpu injbuf rp_ipc";
            assert_eq!(keys(metrics[0]), fixed);
            assert_eq!(keys(metrics[1]), "cpu gpu injbuf");
            let adaptive = "actuations adaptive_ipc adaptive_over_best adaptive_over_worst \
                            cpu gpu injbuf";
            assert_eq!(keys(metrics[2]), adaptive);
            assert_eq!(metrics[2].get("gpu").unwrap().as_str(), Some(gpu));
            let got = metrics[2].get("injbuf").unwrap().as_u64();
            assert_eq!(got, Some(injbuf as u64));
            assert!(metrics[2].get("actuations").unwrap().as_u64().is_some());
        }
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
