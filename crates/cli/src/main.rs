//! `clognet` — command-line driver for the clognet heterogeneous-
//! architecture simulator (a reproduction of *Delegated Replies*,
//! HPCA 2022).
//!
//! ```text
//! clognet run      --gpu HS --cpu bodytrack --scheme dr [--cycles N] [--warm N]
//!                  [--metrics out.json] [--csv out.csv] [--sample N] [--json] ...
//! clognet compare  --gpu HS --cpu bodytrack [--threads N] [--warm-from fork] [--json]
//! clognet sweep    --param width --values 8,16,24 [--threads N] [--warm-from fork] ...
//! clognet snapshot --gpu HS --cpu bodytrack --warm N --out snap.bin  # warm once, save
//! clognet resume   --from snap.bin --cycles N [--scheme dr] [--set injbuf=4,drmax=1]
//! clognet bench    [--threads N] [--quick] [--warm-start] [--out BENCH_x.json]
//! clognet timeline --gpu NN --cpu canneal --scheme baseline     # ASCII clog timeline
//! clognet trace    --gpu HS --cpu bodytrack [--last N] [--kind k]  # protocol events
//! clognet fuzz     [--seed N] [--cases N]    # seeded engine-equivalence fuzzing
//! clognet paper    [--figures fig10,fig12] [--warm N] [--cycles N] [--threads N]
//! clognet serve    [--addr HOST:PORT] [--workers N] [--queue N]  # persistent service
//! clognet cluster  --addr H:P --peers H:P,... [--replicas N]  # sharded service node
//! clognet cluster-bench [--nodes N] [--quick] [--out BENCH_cluster.json]
//! clognet submit   [--addr HOST:PORT] [--peers H:P,...] [--op run|ping|stats|cluster-stats|shutdown]
//! clognet batch    --file jobs.ndjson [--addr HOST:PORT] [--out r.ndjson]
//! clognet fingerprint [--canonical] [--peers H:P,... [--owner]] [job opts]
//! clognet list                                          # benchmarks & options
//! clognet help
//! ```

use clognet_bench::runner::default_threads;
use clognet_cli::args::{Args, ParseArgsError};
use clognet_cli::config::{parse_scheme, resolve_job, Job, CONFIG_KEYS, EXEC_KEYS, JOB_KEYS};
use clognet_cli::{cluster_cmd, driver, fuzz_cmd, paper, report, serve_cmd, timeline};
use clognet_core::{DecisionLog, MultiChipSystem, System, TelemetryConfig};
use clognet_proto::{knobs, Knob, Scheme};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(raw) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(raw: Vec<String>) -> Result<(), ParseArgsError> {
    if raw.is_empty() {
        print_help();
        return Ok(());
    }
    let args = Args::parse(raw)?;
    match args.command.as_str() {
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "sweep" => cmd_sweep(&args),
        "bench" => cmd_bench(&args),
        "snapshot" => cmd_snapshot(&args),
        "resume" => cmd_resume(&args),
        "timeline" => cmd_timeline(&args),
        "trace" => cmd_trace(&args),
        "fuzz" => fuzz_cmd::cmd_fuzz(&args),
        "paper" => paper::cmd_paper(&args),
        "serve" => serve_cmd::cmd_serve(&args),
        "cluster" => cluster_cmd::cmd_cluster(&args),
        "cluster-bench" => cluster_cmd::cmd_cluster_bench(&args),
        "submit" => serve_cmd::cmd_submit(&args),
        "batch" => serve_cmd::cmd_batch(&args),
        "fingerprint" => serve_cmd::cmd_fingerprint(&args),
        "list" => {
            cmd_list();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(ParseArgsError(format!(
            "unknown command `{other}`; try `clognet help`"
        ))),
    }
}

fn run_keys() -> Vec<&'static str> {
    [&JOB_KEYS[..], &CONFIG_KEYS, &EXEC_KEYS].concat()
}

/// Telemetry session config from `--sample` plus the episode-detector
/// thresholds `--episode-enter` (minimum episode duration in cycles)
/// and `--episode-exit` (re-block merge gap in cycles). Both default
/// to 0 — record every blocked interval, the historical fold.
fn telemetry_config(args: &Args) -> Result<TelemetryConfig, ParseArgsError> {
    Ok(TelemetryConfig {
        epoch_len: args.get_at_least("sample", 500, 1)?,
        episode_min_duration: args.get_num("episode-enter", 0u64)?,
        episode_merge_gap: args.get_num("episode-exit", 0u64)?,
        ..TelemetryConfig::default()
    })
}

/// Print a package's adaptive-control decision logs after a run. Human
/// output gets the scheme switches on stdout; `--json` keeps stdout
/// byte-identical to an uncontrolled report (and to what `submit`
/// prints for the same job), so the summary goes to stderr.
fn print_decision_logs(logs: &[(usize, &DecisionLog)], chips: usize, json: bool) {
    for (chip, log) in logs {
        let label = if chips > 1 {
            format!("chip {chip} ")
        } else {
            String::new()
        };
        let summary = format!(
            "{label}control: {} decisions ({} escalations, {} de-escalations)",
            log.len(),
            log.escalations(),
            log.de_escalations()
        );
        if json {
            eprintln!("{summary}");
            continue;
        }
        println!("{summary}");
        for d in log.entries().iter().filter(|d| d.from_level != d.to_level) {
            println!(
                "  cycle {:>8}: {} level {} -> {} (blocked {}‰, streak {} cy, \
                 inj depth {}, shed {} flits)",
                d.cycle,
                d.action.label(),
                d.from_level,
                d.to_level,
                d.max_blocked_pm,
                d.hot_streak,
                d.max_inj_depth,
                d.shed_delta
            );
        }
    }
}

/// Worker threads from `--threads` (default: available parallelism).
fn thread_count(args: &Args) -> Result<usize, ParseArgsError> {
    args.get_at_least("threads", default_threads(), 1)
}

fn cmd_run(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.extend_from_slice(&[
        "metrics",
        "csv",
        "sample",
        "json",
        "snapshot-every",
        "snapshot-out",
        "episode-enter",
        "episode-exit",
    ]);
    args.reject_unknown(&keys)?;
    args.reject_conflicts(&[("json", "csv")])?;
    let job = resolve_job(args, "HS", "bodytrack", 6_000, 15_000)?;
    let scheme = job.cfg.scheme;
    let metrics_path = args.get("metrics");
    let csv_path = args.get("csv");
    let want_telemetry = metrics_path.is_some()
        || csv_path.is_some()
        || args.get("sample").is_some()
        || args.get("episode-enter").is_some()
        || args.get("episode-exit").is_some();
    let snap_every = args.get("snapshot-every");
    let snap_every = snap_every
        .map(|_| args.get_at_least("snapshot-every", 1u64, 1))
        .transpose()?;
    if args.get("snapshot-out").is_some() && snap_every.is_none() {
        return Err(ParseArgsError(
            "--snapshot-out needs --snapshot-every <cycles>".into(),
        ));
    }
    let mut sys = MultiChipSystem::new(job.cfg, job.gpu, job.cpu);
    sys.set_fast_forward(job.ff);
    if want_telemetry {
        sys.enable_telemetry(telemetry_config(args)?);
    }
    sys.run(job.warm);
    sys.reset_stats();
    let cycles = job.cycles;
    if let Some(every) = snap_every {
        // Periodic snapshots across the measured span: the run pauses
        // at each multiple of `every` (plus the end) and writes the
        // full system state where `clognet resume` can pick it up.
        let prefix = args.get_or("snapshot-out", "clognet");
        let mut done = 0;
        while done < cycles {
            let step = every.min(cycles - done);
            sys.run(step);
            done += step;
            let path = format!("{prefix}-{:010}.snap", sys.now());
            std::fs::write(&path, sys.snapshot().as_bytes())
                .map_err(|e| ParseArgsError(format!("writing {path}: {e}")))?;
            eprintln!("wrote snapshot at cycle {} to {path}", sys.now());
        }
    } else {
        sys.run(cycles);
    }
    let r = sys.report();
    if args.flag("json") {
        println!("{}", report::report_json(scheme, &r));
    } else {
        report::print_report(scheme, &r);
    }
    print_decision_logs(
        &sys.decision_logs(),
        sys.config().chips(),
        args.flag("json"),
    );
    if let Some(path) = metrics_path {
        let doc = sys.export_metrics_json().expect("telemetry enabled");
        write_file(path, &doc)?;
        eprintln!("wrote metrics to {path}");
    }
    if let Some(path) = csv_path {
        let doc = sys.export_series_csv().expect("telemetry enabled");
        write_file(path, &doc)?;
        eprintln!("wrote per-epoch series to {path}");
    }
    Ok(())
}

fn write_file(path: &str, contents: &str) -> Result<(), ParseArgsError> {
    std::fs::write(path, contents).map_err(|e| ParseArgsError(format!("writing {path}: {e}")))
}

fn cmd_timeline(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.extend_from_slice(&[
        "sample",
        "width-cols",
        "metrics",
        "episode-enter",
        "episode-exit",
    ]);
    args.reject_unknown(&keys)?;
    let job = resolve_job(args, "NN", "canneal", 2_000, 20_000)?;
    let cols = args.get_num("width-cols", 72usize)?;
    let (gpu, cpu, scheme) = (job.gpu, job.cpu, job.cfg.scheme);
    let mut sys = MultiChipSystem::new(job.cfg, gpu, cpu);
    sys.set_fast_forward(job.ff);
    sys.enable_telemetry(telemetry_config(args)?);
    sys.run(job.warm + job.cycles);
    sys.finish_telemetry();
    let t = sys.telemetry().expect("telemetry enabled");
    println!(
        "{gpu} + {cpu} under {} — per-epoch clog timeline\n",
        scheme.label()
    );
    print!(
        "{}",
        timeline::render(
            t.sampler(),
            t.session.episodes.episodes(),
            t.session.config.epoch_len,
            cols,
        )
    );
    if let Some(path) = args.get("metrics") {
        let doc = sys.export_metrics_json().expect("telemetry enabled");
        write_file(path, &doc)?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

/// `--warm-from`, which refuses `--no-ff`: engine modes never change
/// results, so the forked runs keep the default engine.
fn warm_from(args: &Args, job: &Job) -> Result<Option<driver::WarmStart>, ParseArgsError> {
    if args.get("warm-from").is_some() && !job.ff {
        return Err(ParseArgsError(
            "--warm-from does not compose with --no-ff; engine modes never change results, \
             so drop it"
                .into(),
        ));
    }
    Ok(args.get("warm-from").map(driver::parse_warm_start))
}

fn cmd_compare(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.extend_from_slice(&["json", "threads", "warm-from"]);
    args.reject_unknown(&keys)?;
    let job = resolve_job(args, "HS", "bodytrack", 6_000, 15_000)?;
    let threads = thread_count(args)?;
    let warm_from = warm_from(args, &job)?;
    if !args.flag("json") {
        let (gpu, cpu, warm, cycles) = (job.gpu, job.cpu, job.warm, job.cycles);
        println!("comparing schemes on {gpu}+{cpu} ({warm} warm + {cycles} measured cycles)\n");
    }
    let rows = match warm_from {
        Some(mode) => driver::run_compare_warm(&job, threads, &mode)?,
        None => driver::run_compare(&job, threads),
    };
    if args.flag("json") {
        print!("{}", report::comparison_json(&rows));
    } else {
        report::print_comparison(&rows);
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.extend_from_slice(&["param", "values", "json", "threads", "warm-from"]);
    args.reject_unknown(&keys)?;
    let job = resolve_job(args, "HS", "bodytrack", 6_000, 15_000)?;
    let threads = thread_count(args)?;
    let param = args.get("param").ok_or_else(|| {
        ParseArgsError(format!(
            "sweep needs --param ({})",
            driver::sweep_param_names(false)
        ))
    })?;
    let values = driver::parse_sweep_values(
        args.get("values")
            .ok_or_else(|| ParseArgsError("sweep needs --values v1,v2,...".into()))?,
    )?;
    // Every point must be buildable before the header prints.
    driver::sweep_configs(&job.cfg, param, &values)?;
    let warm_from = warm_from(args, &job)?;
    if !args.flag("json") {
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>13} {:>11}",
            param, "base IPC", "DR IPC", "DR/base", "base blocked%", "DR blocked%"
        );
    }
    let points = match warm_from {
        Some(mode) => driver::run_sweep_warm(&job, param, &values, threads, &mode)?,
        None => driver::run_sweep(&job, param, &values, threads)?,
    };
    for p in &points {
        if args.flag("json") {
            // One NDJSON object per sweep point: both scheme reports.
            println!("{}", driver::sweep_point_json(param, p));
        } else {
            println!(
                "{:<10} {:>10.2} {:>10.2} {:>10.3} {:>12.1}% {:>10.1}%",
                p.value,
                p.baseline.gpu_ipc,
                p.dr.gpu_ipc,
                p.dr.gpu_ipc / p.baseline.gpu_ipc,
                p.baseline.mem_blocked_rate * 100.0,
                p.dr.mem_blocked_rate * 100.0
            );
        }
    }
    Ok(())
}

/// `clognet bench`: the throughput matrix, or the harness a mode flag
/// picks, at its (`--quick`, full) default budget, emitted as one bench
/// document.
fn cmd_bench(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&[
        "threads",
        "quick",
        "warm",
        "cycles",
        "out",
        "json",
        "warm-start",
        "fabric",
        "adaptive",
    ])?;
    type Harness = fn(usize, u64, u64) -> clognet_cli::bench_doc::BenchDoc;
    let (quick, full, harness): ((u64, u64), (u64, u64), Harness) = if args.flag("warm-start") {
        // The warmup dominates: it is the budget forking reclaims.
        ((2_000, 600), (20_000, 4_000), driver::run_warmstart_bench)
    } else if args.flag("adaptive") {
        // Long enough for the controller to finish climbing the ladder
        // AND for the baseline-warmup transient to wash out.
        ((1_000, 2_000), (12_000, 15_000), driver::run_control_bench)
    } else if args.flag("fabric") {
        ((200, 800), (4_000, 10_000), driver::run_fabric_bench)
    } else {
        // Quick mode: just enough cycles to prove the harness works (CI
        // smoke); the full budget is long enough for meaningful rates.
        ((200, 800), (4_000, 10_000), driver::run_bench)
    };
    let (warm, cycles) = if args.flag("quick") { quick } else { full };
    let warm = args.get_num("warm", warm)?;
    let cycles = args.get_num("cycles", cycles)?;
    harness(thread_count(args)?, warm, cycles).emit(args)
}

/// `clognet snapshot`: build a system, simulate the warmup, and write
/// the versioned snapshot where `resume` / `--warm-from` can fork it.
fn cmd_snapshot(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.push("out");
    args.reject_unknown(&keys)?;
    let out = args
        .get("out")
        .ok_or_else(|| ParseArgsError("snapshot needs --out <path>".into()))?;
    if args.get("cycles").is_some() {
        return Err(ParseArgsError(
            "snapshot takes --warm (cycles to simulate before snapshotting), not --cycles".into(),
        ));
    }
    let job = resolve_job(args, "HS", "bodytrack", 6_000, 0)?;
    let (gpu, cpu) = (job.gpu, job.cpu);
    let mut sys = MultiChipSystem::new(job.cfg, gpu, cpu);
    sys.set_fast_forward(job.ff);
    sys.run(job.warm);
    let snap = sys.snapshot();
    std::fs::write(out, snap.as_bytes())
        .map_err(|e| ParseArgsError(format!("writing {out}: {e}")))?;
    eprintln!(
        "wrote snapshot of {gpu}+{cpu} at cycle {} ({} bytes, key {:016x}) to {out}",
        snap.cycle(),
        snap.as_bytes().len(),
        snap.key()
    );
    Ok(())
}

/// `clognet resume`: restore a snapshot file, optionally retarget
/// warm-applicable knobs, and measure from there — the single-run face
/// of the fork engine.
fn cmd_resume(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&[&EXEC_KEYS[..], &["from", "cycles", "scheme", "set", "json"]].concat())?;
    let path = args
        .get("from")
        .ok_or_else(|| ParseArgsError("resume needs --from <snapshot>".into()))?;
    let cycles = args.get_num("cycles", 15_000u64)?;
    let bytes = std::fs::read(path).map_err(|e| ParseArgsError(format!("reading {path}: {e}")))?;
    let snap = clognet_core::Snapshot::from_bytes(bytes)
        .map_err(|e| ParseArgsError(format!("{path} is not a usable snapshot: {e}")))?;
    // The retargeted config is validated before the system is touched.
    let mut cfg = snap.config().clone();
    if let Some(s) = args.get("scheme") {
        cfg.scheme = parse_scheme(s)?;
    }
    for kv in args.get("set").into_iter().flat_map(|sets| sets.split(',')) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| ParseArgsError(format!("--set wants k=v[,k=v...], got `{kv}`")))?;
        let v: u64 = v
            .parse()
            .map_err(|_| ParseArgsError(format!("--set {k}: bad value `{v}`")))?;
        driver::sweep_param(k, true).map_err(|e| ParseArgsError(format!("--set: {e}")))?;
        driver::apply_sweep_param(&mut cfg, k, v)?;
    }
    cfg.validate()?;
    let mut sys = MultiChipSystem::restore(&snap)
        .map_err(|e| ParseArgsError(format!("{path} failed to restore: {e}")))?;
    if args.get("scheme").is_some() {
        sys.set_scheme(cfg.scheme);
    }
    sys.retarget(&cfg);
    sys.set_fast_forward(!args.flag("no-ff"));
    let scheme = sys.config().scheme;
    eprintln!(
        "resumed {}+{} at cycle {} from {path}",
        snap.gpu_bench(),
        snap.cpu_bench(),
        snap.cycle()
    );
    sys.reset_stats();
    sys.run(cycles);
    let r = sys.report();
    if args.flag("json") {
        println!("{}", report::report_json(scheme, &r));
    } else {
        report::print_report(scheme, &r);
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.extend_from_slice(&["last", "kind", "episode-enter", "episode-exit"]);
    args.reject_unknown(&keys)?;
    let job = resolve_job(args, "HS", "bodytrack", 4_000, 4_000)?;
    let (gpu, cpu, warm, cycles, mut cfg) = (job.gpu, job.cpu, job.warm, job.cycles, job.cfg);
    let last = args.get_num("last", 40usize)?;
    if cfg.chips() > 1 {
        return Err(ParseArgsError(
            "trace is single-chip only; drop --chips / --fabric-*".into(),
        ));
    }
    if args.get("scheme").is_none() {
        cfg.scheme = Scheme::DelegatedReplies;
    }
    // Episode thresholds ride on telemetry, so asking for them turns
    // the episode detector on alongside the protocol trace.
    let want_episodes = args.get("episode-enter").is_some() || args.get("episode-exit").is_some();
    let mut sys = System::new(cfg, gpu, cpu);
    sys.set_fast_forward(job.ff);
    if want_episodes {
        sys.enable_telemetry(telemetry_config(args)?);
    }
    sys.run(warm);
    sys.enable_trace(65_536);
    sys.run(cycles);
    let trace = sys.trace();
    // Counts by kind.
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for t in trace.events() {
        *counts.entry(t.event.kind()).or_default() += 1;
    }
    println!(
        "{} protocol events over {cycles} cycles ({} retained):",
        trace.total(),
        trace.events().count()
    );
    for (k, n) in &counts {
        println!("  {k:<12} {n}");
    }
    println!(
        "
last {last} events{}:",
        match args.get("kind") {
            Some(k) => format!(" of kind `{k}`"),
            None => String::new(),
        }
    );
    let filter = args.get("kind");
    let shown: Vec<String> = trace
        .events()
        .filter(|t| filter.is_none_or(|k| t.event.kind() == k))
        .map(|t| t.to_string())
        .collect();
    for line in shown.iter().rev().take(last).rev() {
        println!("  {line}");
    }
    if want_episodes {
        sys.finish_telemetry();
        let t = sys.telemetry().expect("telemetry enabled");
        println!();
        print!(
            "{}",
            timeline::render_episodes(t.session.episodes.episodes())
        );
    }
    Ok(())
}

fn cmd_list() {
    println!("GPU benchmarks (Table II):");
    for p in clognet_workloads::gpu_benchmarks() {
        println!(
            "  {:<7} grid {:?}, shared {:.0}%, writes {:.0}%",
            p.name,
            p.grid_dim,
            p.shared_fraction * 100.0,
            p.write_fraction * 100.0
        );
    }
    println!("\nCPU benchmarks (PARSEC):");
    for p in clognet_workloads::cpu_benchmarks() {
        println!(
            "  {:<14} rate {:.3} req/cy, window {}, writes {:.0}%",
            p.name,
            p.req_rate,
            p.window,
            p.write_fraction * 100.0
        );
    }
    println!("\nOption values (aliases in parentheses; --routing takes <req>-<rep>):");
    for key in knobs::RUN_KEYS {
        if let Some(values) = key.values {
            println!("  --{:<18} {}", key.name, values());
        }
    }
}

fn print_help() {
    println!(
        "clognet — heterogeneous CPU-GPU architecture simulator\n\
         (reproduction of `Delegated Replies', HPCA 2022)\n\n\
         USAGE:\n  clognet <command> [--key value]...\n\n\
         COMMANDS:\n\
         \x20 run      simulate one workload under one configuration\n\
         \x20 compare  baseline vs Realistic Probing vs Delegated Replies\n\
         \x20 sweep    sweep one parameter with and without Delegated Replies\n\
         \x20 snapshot simulate a warmup once and save the full system state\n\
         \x20 resume   restore a snapshot, retarget warm knobs, and measure\n\
         \x20 bench    time a fixed workload matrix 1- vs N-threaded (JSON report)\n\
         \x20 timeline ASCII per-epoch clog timeline + detected clog episodes\n\
         \x20 trace    protocol-event trace (delegations, blocking, probes)\n\
         \x20 fuzz     seeded scenario fuzzing of the engine-equivalence contract\n\
         \x20 paper    the paper's tables and figures, each distinct job simulated once\n\
         \x20 serve    persistent simulation service (job queue + result cache)\n\
         \x20 cluster  one node of a sharded multi-node service (serve --peers works too)\n\
         \x20 cluster-bench  1-node vs N-node cluster throughput (JSON report)\n\
         \x20 submit   send one job/request to a running service\n\
         \x20 batch    submit an NDJSON job file to a running service\n\
         \x20 fingerprint  print a job's canonical content-address (and ring placement)\n\
         \x20 list     available benchmarks and option values\n\
         \x20 help     this text\n\n\
         COMMON OPTIONS:\n\
         \x20 --gpu <bench>      GPU benchmark (Table II; default HS)\n\
         \x20 --cpu <bench>      CPU benchmark (PARSEC; default bodytrack)\n\
         \x20 --scheme <s>       baseline | rp | rp:<fanout> | dr\n\
         \x20 --layout <l>       a | b | c | d (sets the layout's best routing)\n\
         \x20 --topology <t>     mesh | crossbar | fbfly | dragonfly\n\
         \x20 --routing <r>-<r>  per-class dimension order, e.g. yx-xy\n\
         \x20 --width <bytes>    NoC channel width (default 16)\n\
         \x20 --l1org <o>        private | dcl1 | dyneb\n\
         \x20 --cta <p>          rr | dist\n\
         \x20 --vnets <a>+<b>    shared physical net with a/b VCs per class\n\
         \x20 --mesh <w>x<h>     scale the chip (node mix kept proportional)\n\
         \x20 --injbuf <n>       memory-node injection buffer depth in packets\n\
         \x20 --warm/--cycles    warmup / measured cycles (6000 / 15000)\n\
         \x20 --no-ff            disable event-horizon fast-forward (reference loop)\n\
         \x20 --seed <n>         workload + mapping seed\n\
         \x20 --threads <n>      compare/sweep/bench/paper worker threads (default: all cores)\n\
         \x20 --figures <ids>    paper: rows to print, e.g. fig10,fig12 (default: all;\n\
         \x20                    paper --warm/--cycles default to 10000 / 25000)\n\n\
         MULTI-CHIP OPTIONS (run/compare/sweep/timeline/snapshot/serve):\n\
         \x20 --chips <n>        chips in the package (default 1 = no fabric)\n\
         \x20 --fabric-topology <t>   pair | ring | all (default: pair, ring when >2)\n\
         \x20 --fabric-width <f>      request link width, flits/cycle (default 4)\n\
         \x20 --fabric-latency <n>    request per-hop latency in cycles (default 4)\n\
         \x20 --fabric-reply-width <f>   reply link width, flits/cycle (default 4)\n\
         \x20 --fabric-reply-latency <n> reply per-hop latency in cycles (default 4)\n\
         \x20 --fabric-queue <n>      per-link queue depth in packets (default 8)\n\
         \x20 --fabric-gateways <n>   gateway mem-nodes per chip (default 2)\n\
         \x20 --fabric-interleave <i> hash | modulo line-to-chip homing (default hash)\n\
         \x20 --fabric           bench: scheme matrix across reply-link degradation\n\n\
         SNAPSHOT OPTIONS:\n\
         \x20 --warm-from <m>    compare/sweep: fork (warm once, fork per variant) |\n\
         \x20                    each (re-warm per variant, same semantics) | <snap file>\n\
         \x20                    sweep: only warm-applicable params (injbuf|drmax)\n\
         \x20 --out <path>       snapshot: where to write the system state\n\
         \x20 --from <path>      resume: snapshot file to restore\n\
         \x20 --set <k=v,...>    resume: retarget warm-applicable knobs (injbuf|drmax)\n\
         \x20 --snapshot-every <n>  run: write a snapshot every n measured cycles\n\
         \x20 --snapshot-out <p> run: snapshot path prefix (default `clognet`)\n\
         \x20 --warm-start       bench: time the sweep cold vs snapshot-forked\n\n\
         TELEMETRY OPTIONS:\n\
         \x20 --metrics <path>   run/timeline: write the telemetry session as JSON\n\
         \x20 --csv <path>       run: write per-epoch series as CSV\n\
         \x20 --sample <n>       telemetry epoch length in cycles (default 500)\n\
         \x20 --episode-enter <n> run/timeline/trace: min blocked cycles before an\n\
         \x20                    episode counts (default 0 = every blocked span)\n\
         \x20 --episode-exit <n> run/timeline/trace: merge episodes closer than n cycles\n\
         \x20 --json             run/compare/sweep: machine-readable stdout\n\n\
         CONTROL OPTIONS (run/compare/sweep/timeline/snapshot/serve):\n\
         \x20 --control <p>      none (default) | noop | hysteresis — epoch-boundary\n\
         \x20                    adaptive scheme ladder driven by live telemetry\n\
         \x20 --control-interval <n>      decision interval in cycles (default 500)\n\
         \x20 --control-enter <permille>  blocked fraction that escalates (default 250)\n\
         \x20 --control-exit <permille>   blocked fraction that de-escalates (default 50)\n\
         \x20 --control-enter-episode <n> hot-streak cycles that jump to dr (default 1000)\n\
         \x20 --control-exit-episode <n>  cold cycles before stepping down (default 2000)\n\
         \x20 --control-dwell <n>         intervals to hold after a switch (default 2)\n\
         \x20 --adaptive         bench: adaptive controller vs static scheme matrix\n\n\
         SERVICE OPTIONS:\n\
         \x20 --addr <h:p>       serve/submit/batch endpoint (default 127.0.0.1:9347)\n\
         \x20 --workers <n>      serve: simulation worker threads (default 2)\n\
         \x20 --queue <n>        serve: job-queue depth before `overloaded` (default 16)\n\
         \x20 --cache <n>        serve: reports kept in the result cache (default 1024)\n\
         \x20 --max-cycles <n>   serve: per-job cycle-budget ceiling\n\
         \x20 --timeout-ms <n>   serve: per-job wall-time limit\n\
         \x20 --op <o>           submit: run | ping | stats | cluster-stats | shutdown\n\
         \x20 --file <path>      batch: NDJSON job file (one job object per line)\n\
         \x20 --retries <n>      submit/batch: connect attempts (default 8)\n\
         \x20 --canonical        fingerprint: also print the canonical option line\n\n\
         CLUSTER OPTIONS:\n\
         \x20 --peers <h:p,...>  cluster/serve: seed peers; submit/batch: failover list\n\
         \x20 --replicas <n>     cluster: cache copies on ring successors (default 1)\n\
         \x20 --advertise <h:p>  cluster: address peers should dial back (default --addr)\n\
         \x20 --vnodes <n>       cluster/fingerprint: virtual nodes per peer (default 64)\n\
         \x20 --heartbeat-ms <n> cluster: peer probe interval (default 250)\n\
         \x20 --owner            fingerprint: print only the owning node's address\n\n\
         EXAMPLES:\n\
         \x20 clognet compare --gpu MM --cpu canneal\n\
         \x20 clognet run --gpu BP --cpu ferret --scheme dr --layout d\n\
         \x20 clognet run --gpu NN --cpu canneal --metrics m.json --sample 500\n\
         \x20 clognet timeline --gpu NN --cpu canneal --scheme baseline\n\
         \x20 clognet sweep --param width --values 8,16,24,32 --gpu HS --cpu x264\n\
         \x20 clognet sweep --param injbuf --values 2,4,8,16 --warm-from fork --json\n\
         \x20 clognet snapshot --gpu HS --cpu bodytrack --warm 20000 --out warm.snap\n\
         \x20 clognet resume --from warm.snap --cycles 4000 --set injbuf=4\n\
         \x20 clognet bench --quick --out BENCH_smoke.json\n\
         \x20 clognet compare --chips 2 --fabric-reply-latency 40 --json\n\
         \x20 clognet bench --fabric --quick --out BENCH_fabric.json\n\
         \x20 clognet bench --warm-start --out BENCH_warmstart.json\n\
         \x20 clognet run --gpu HS --cpu bodytrack --injbuf 4 --control hysteresis\n\
         \x20 clognet bench --adaptive --quick --out BENCH_control.json\n\
         \x20 clognet fuzz --seed 1 --cases 25\n\
         \x20 clognet paper --figures fig10,fig14 --warm 2000 --cycles 5000\n\
         \x20 clognet serve --workers 4 &\n\
         \x20 clognet submit --gpu MM --cpu canneal --scheme dr\n\
         \x20 clognet serve --addr 127.0.0.1:9401 --peers 127.0.0.1:9402,127.0.0.1:9403 &\n\
         \x20 clognet submit --peers 127.0.0.1:9401,127.0.0.1:9402 --op cluster-stats\n\
         \x20 clognet fingerprint --gpu MM --cpu canneal --scheme dr --canonical"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_invocations_error_instead_of_printing_help() {
        // A dangling option must propagate as an error (exit code 2),
        // not silently print help and exit 0.
        assert!(dispatch(vec!["run".into(), "--gpu".into()]).is_err());
        // Unknown options and commands likewise.
        assert!(dispatch(vec!["run".into(), "--bogus".into(), "x".into()]).is_err());
        assert!(dispatch(vec!["frobnicate".into()]).is_err());
    }

    #[test]
    fn empty_invocation_prints_help_and_succeeds() {
        assert!(dispatch(Vec::new()).is_ok());
        assert!(dispatch(vec!["help".into()]).is_ok());
    }

    fn args_of(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn run_rejects_degenerate_fabric_configs_up_front() {
        // Structurally impossible packages fail before any simulation
        // is built.
        let e = dispatch(args_of(&["run", "--chips", "0"])).unwrap_err();
        assert!(e.0.contains("chips must be at least 1"), "{e}");
        let e = dispatch(args_of(&["run", "--chips", "2", "--fabric-width", "0"])).unwrap_err();
        assert!(e.0.contains("link width"), "{e}");
        let e = dispatch(args_of(&["run", "--chips", "2", "--fabric-queue", "0"])).unwrap_err();
        assert!(e.0.contains("queue"), "{e}");
        // More gateways than the chip has memory nodes (default mesh
        // has 8) cannot be wired.
        let e = dispatch(args_of(&["run", "--chips", "2", "--fabric-gateways", "99"])).unwrap_err();
        assert!(e.0.contains("memory nodes"), "{e}");
        // The pair topology only spans two chips.
        let e = dispatch(args_of(&[
            "run",
            "--chips",
            "4",
            "--fabric-topology",
            "pair",
        ]))
        .unwrap_err();
        assert!(e.0.contains("pair"), "{e}");
    }

    #[test]
    fn fabric_options_without_chips_error() {
        let e = dispatch(args_of(&["run", "--chips", "1", "--fabric-width", "8"])).unwrap_err();
        assert!(e.0.contains("--chips 2 or more"), "{e}");
    }

    #[test]
    fn trace_rejects_multi_chip_packages() {
        let e = dispatch(args_of(&["trace", "--chips", "2"])).unwrap_err();
        assert!(e.0.contains("single-chip"), "{e}");
    }
}
