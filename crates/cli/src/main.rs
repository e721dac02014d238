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
use clognet_cli::config::{check_benchmarks, config_from, CONFIG_KEYS, EXEC_KEYS, JOB_KEYS};
use clognet_cli::{cluster_cmd, driver, fuzz_cmd, report, serve_cmd, timeline};
use clognet_core::{DecisionLog, MultiChipSystem, System, TelemetryConfig, TickEngine};
use clognet_proto::{knobs, Knob, Scheme, SystemConfig};

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

/// Intra-run shard count from `--shards` (default 1 = the sequential
/// engine), validated against the configured topology up front so a
/// count that cannot partition the mesh fails with a clear message
/// before any simulation is built.
fn shard_count(args: &Args, cfg: &SystemConfig) -> Result<usize, ParseArgsError> {
    let n = args.get_num("shards", 1usize)?;
    clognet_core::validate_shards(cfg, n).map_err(|e| ParseArgsError(format!("--shards: {e}")))?;
    Ok(n)
}

/// Apply a validated `--shards` count to a freshly built package.
fn apply_shards(sys: &mut MultiChipSystem, shards: usize) {
    if shards > 1 {
        sys.set_tick_engine(TickEngine::Sharded(shards))
            .expect("shard count validated against this config");
    }
}

/// Validate the `--chips` / `--fabric-*` combination up front, exactly
/// like [`shard_count`] does for `--shards`.
fn check_fabric(cfg: &SystemConfig) -> Result<(), ParseArgsError> {
    clognet_core::validate_fabric(cfg).map_err(|e| ParseArgsError(format!("--chips/--fabric: {e}")))
}

/// Telemetry epoch length from `--sample` (default 500 cycles).
fn sample_len(args: &Args) -> Result<u64, ParseArgsError> {
    let n = args.get_num("sample", 500u64)?;
    if n == 0 {
        return Err(ParseArgsError("--sample must be at least 1".into()));
    }
    Ok(n)
}

/// Telemetry session config from `--sample` plus the episode-detector
/// thresholds `--episode-enter` (minimum episode duration in cycles)
/// and `--episode-exit` (re-block merge gap in cycles). Both default
/// to 0 — record every blocked interval, the historical fold.
fn telemetry_config(args: &Args) -> Result<TelemetryConfig, ParseArgsError> {
    Ok(TelemetryConfig {
        epoch_len: sample_len(args)?,
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

/// Worker threads from `--threads` (default: available parallelism, or
/// `CLOGNET_THREADS`).
fn thread_count(args: &Args) -> Result<usize, ParseArgsError> {
    let n = args.get_num("threads", default_threads())?;
    if n == 0 {
        return Err(ParseArgsError("--threads must be at least 1".into()));
    }
    Ok(n)
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
    let gpu = args.get_or("gpu", "HS");
    let cpu = args.get_or("cpu", "bodytrack");
    check_benchmarks(gpu, cpu)?;
    let warm = args.get_num("warm", 6_000u64)?;
    let cycles = args.get_num("cycles", 15_000u64)?;
    let cfg = config_from(args)?;
    check_fabric(&cfg)?;
    let scheme = cfg.scheme;
    let metrics_path = args.get("metrics");
    let csv_path = args.get("csv");
    let want_telemetry = metrics_path.is_some()
        || csv_path.is_some()
        || args.get("sample").is_some()
        || args.get("episode-enter").is_some()
        || args.get("episode-exit").is_some();
    let snap_every = match args.get("snapshot-every") {
        None => None,
        Some(_) => {
            let n = args.get_num("snapshot-every", 0u64)?;
            if n == 0 {
                return Err(ParseArgsError("--snapshot-every must be at least 1".into()));
            }
            Some(n)
        }
    };
    if args.get("snapshot-out").is_some() && snap_every.is_none() {
        return Err(ParseArgsError(
            "--snapshot-out needs --snapshot-every <cycles>".into(),
        ));
    }
    let shards = shard_count(args, &cfg)?;
    let mut sys = MultiChipSystem::new(cfg, gpu, cpu);
    sys.set_fast_forward(!args.flag("no-ff"));
    apply_shards(&mut sys, shards);
    if want_telemetry {
        sys.enable_telemetry(telemetry_config(args)?);
    }
    sys.run(warm);
    sys.reset_stats();
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
    let gpu = args.get_or("gpu", "NN");
    let cpu = args.get_or("cpu", "canneal");
    check_benchmarks(gpu, cpu)?;
    let warm = args.get_num("warm", 2_000u64)?;
    let cycles = args.get_num("cycles", 20_000u64)?;
    let cols = args.get_num("width-cols", 72usize)?;
    let cfg = config_from(args)?;
    check_fabric(&cfg)?;
    let scheme = cfg.scheme;
    let shards = shard_count(args, &cfg)?;
    let mut sys = MultiChipSystem::new(cfg, gpu, cpu);
    sys.set_fast_forward(!args.flag("no-ff"));
    apply_shards(&mut sys, shards);
    sys.enable_telemetry(telemetry_config(args)?);
    sys.run(warm + cycles);
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

fn cmd_compare(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.extend_from_slice(&["json", "threads", "warm-from"]);
    args.reject_unknown(&keys)?;
    let gpu = args.get_or("gpu", "HS");
    let cpu = args.get_or("cpu", "bodytrack");
    check_benchmarks(gpu, cpu)?;
    let warm = args.get_num("warm", 6_000u64)?;
    let cycles = args.get_num("cycles", 15_000u64)?;
    let threads = thread_count(args)?;
    if !args.flag("json") {
        println!("comparing schemes on {gpu}+{cpu} ({warm} warm + {cycles} measured cycles)\n");
    }
    let base = config_from(args)?;
    check_fabric(&base)?;
    let shards = shard_count(args, &base)?;
    let rows = match args.get("warm-from") {
        Some(mode) => {
            if shards > 1 || args.flag("no-ff") {
                return Err(ParseArgsError(
                    "--warm-from composes with neither --shards nor --no-ff; \
                     engine modes never change results, so drop them"
                        .into(),
                ));
            }
            let mode = driver::parse_warm_start(mode);
            driver::run_compare_warm(&base, gpu, cpu, warm, cycles, threads, &mode)?
        }
        None => driver::run_compare(
            &base,
            gpu,
            cpu,
            warm,
            cycles,
            threads,
            !args.flag("no-ff"),
            shards,
        ),
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
    let gpu = args.get_or("gpu", "HS");
    let cpu = args.get_or("cpu", "bodytrack");
    check_benchmarks(gpu, cpu)?;
    let warm = args.get_num("warm", 6_000u64)?;
    let cycles = args.get_num("cycles", 15_000u64)?;
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
    driver::sweep_param(param)?;
    if !args.flag("json") {
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>13} {:>11}",
            param, "base IPC", "DR IPC", "DR/base", "base blocked%", "DR blocked%"
        );
    }
    let base = config_from(args)?;
    check_fabric(&base)?;
    // Sweep parameters never resize the mesh, so one validation against
    // the base config covers every point.
    let shards = shard_count(args, &base)?;
    let points = match args.get("warm-from") {
        Some(mode) => {
            if shards > 1 || args.flag("no-ff") {
                return Err(ParseArgsError(
                    "--warm-from composes with neither --shards nor --no-ff; \
                     engine modes never change results, so drop them"
                        .into(),
                ));
            }
            let mode = driver::parse_warm_start(mode);
            driver::run_sweep_warm(
                &base, param, &values, gpu, cpu, warm, cycles, threads, &mode,
            )?
        }
        None => driver::run_sweep(
            &base,
            param,
            &values,
            gpu,
            cpu,
            warm,
            cycles,
            threads,
            !args.flag("no-ff"),
            shards,
        )?,
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

fn cmd_bench(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&[
        "threads",
        "quick",
        "warm",
        "cycles",
        "out",
        "json",
        "shards",
        "warm-start",
        "fabric",
        "adaptive",
    ])?;
    // `--warm-start` switches to the snapshot-fork harness: the same
    // warm-started sweep timed cold vs forked. Its defaults make the
    // warmup dominate (the budget forking reclaims), so they differ
    // from the throughput matrix's.
    if args.flag("warm-start") {
        let (dwarm, dcycles) = if args.flag("quick") {
            (2_000u64, 600u64)
        } else {
            (20_000, 4_000)
        };
        let warm = args.get_num("warm", dwarm)?;
        let cycles = args.get_num("cycles", dcycles)?;
        return cmd_warmstart_bench(args, warm, cycles);
    }
    // `--adaptive` switches to the adaptive-vs-static control matrix:
    // the hysteresis controller against each static scheme. Its
    // default warmup is long enough for the controller to finish
    // climbing the ladder AND for the baseline-warmup transient to
    // wash out before measurement starts.
    if args.flag("adaptive") {
        let (dwarm, dcycles) = if args.flag("quick") {
            (1_000u64, 2_000u64)
        } else {
            (12_000, 15_000)
        };
        let warm = args.get_num("warm", dwarm)?;
        let cycles = args.get_num("cycles", dcycles)?;
        return cmd_control_bench(args, warm, cycles);
    }
    // Quick mode: just enough cycles to prove the harness works (CI
    // smoke); default mode is long enough for meaningful rates.
    let (dwarm, dcycles) = if args.flag("quick") {
        (200u64, 800u64)
    } else {
        (4_000, 10_000)
    };
    let warm = args.get_num("warm", dwarm)?;
    let cycles = args.get_num("cycles", dcycles)?;
    // `--shards <max>` switches to the intra-run strong-scaling curve:
    // one big-mesh simulation at 1, 2, 4, ... shards.
    if args.get("shards").is_some() {
        return cmd_shard_bench(args, warm, cycles);
    }
    // `--fabric` switches to the inter-chip degradation matrix: a
    // 2-chip package whose reply links get slower and narrower.
    if args.flag("fabric") {
        return cmd_fabric_bench(args, warm, cycles);
    }
    let threads = thread_count(args)?;
    let r = driver::run_bench(threads, warm, cycles);
    let doc = r.to_json();
    if args.flag("json") || args.get("out").is_none() {
        println!("{doc}");
    }
    if let Some(path) = args.get("out") {
        write_file(path, &format!("{doc}\n"))?;
        eprintln!("wrote benchmark report to {path}");
    }
    if !args.flag("json") {
        eprintln!(
            "{} jobs x {} cycles: {:.2}s at --threads 1, {:.2}s at --threads {} ({:.2}x)",
            r.jobs,
            r.cycles_per_job,
            r.single.wall_s,
            r.multi.wall_s,
            r.multi.threads,
            r.speedup()
        );
        eprintln!(
            "fast-forward: {} low-intensity jobs x {} cycles: {:.2}s per-cycle, {:.2}s \
             fast-forwarded ({:.2}x, {:.0}% of cycles skipped)",
            r.low_jobs,
            r.low_cycles_per_job,
            r.ff_off.wall_s,
            r.ff_on.wall_s,
            r.ff_speedup(),
            r.skipped_ratio() * 100.0
        );
    }
    Ok(())
}

/// `clognet bench --shards <max>`: time one 16x16-mesh simulation at
/// shard counts 1, 2, 4, ... `<max>` and report the scaling curve
/// (the `BENCH_shards.json` artifact).
fn cmd_shard_bench(args: &Args, warm: u64, cycles: u64) -> Result<(), ParseArgsError> {
    let max = args.get_num("shards", 4usize)?;
    let cfg = driver::shard_bench_config();
    clognet_core::validate_shards(&cfg, max)
        .map_err(|e| ParseArgsError(format!("--shards: {e}")))?;
    let r = driver::run_shard_bench(max, warm, cycles);
    let doc = r.to_json();
    if args.flag("json") || args.get("out").is_none() {
        println!("{doc}");
    }
    if let Some(path) = args.get("out") {
        write_file(path, &format!("{doc}\n"))?;
        eprintln!("wrote shard-scaling report to {path}");
    }
    if !args.flag("json") {
        eprintln!(
            "shard scaling on a {}x{} mesh ({} warm + {} measured cycles, reports identical: {}):",
            r.mesh.0, r.mesh.1, r.warm, r.cycles, r.identical_reports
        );
        for leg in &r.legs {
            eprintln!(
                "  {:>2} shards: {:.3}s ({:.2}x)",
                leg.shards,
                leg.wall_s,
                r.speedup_at(leg.shards)
            );
        }
    }
    if r.shards_gt_host_threads() {
        eprintln!(
            "warning: benchmarked more shards than this host has hardware threads; \
             wall-clock ratios describe the scheduler, not the engine \
             (identical_reports is still meaningful)"
        );
    }
    Ok(())
}

/// `clognet bench --fabric`: run the three schemes across the 2-chip
/// reply-link degradation matrix and emit the `BENCH_fabric.json`
/// artifact (the inter-chip analogue of the paper's headline figure).
fn cmd_fabric_bench(args: &Args, warm: u64, cycles: u64) -> Result<(), ParseArgsError> {
    let r = driver::run_fabric_bench(warm, cycles);
    let doc = r.to_json();
    if args.flag("json") || args.get("out").is_none() {
        println!("{doc}");
    }
    if let Some(path) = args.get("out") {
        write_file(path, &format!("{doc}\n"))?;
        eprintln!("wrote fabric-degradation report to {path}");
    }
    if !args.flag("json") {
        eprintln!(
            "fabric degradation on a {}-chip package ({} warm + {} measured cycles, \
             reports identical across engines: {}):",
            r.chips, r.warm, r.cycles, r.identical_reports
        );
        for p in &r.points {
            eprintln!(
                "  reply {:>2}x latency, {} flits/cy: base {:.2} | rp {:.2} | dr {:.2} IPC \
                 (dr/base {:.3})",
                p.lat_mult,
                p.reply_width,
                p.baseline.gpu_ipc,
                p.rp.gpu_ipc,
                p.dr.gpu_ipc,
                p.dr.gpu_ipc / p.baseline.gpu_ipc
            );
        }
    }
    Ok(())
}

/// `clognet bench --adaptive`: run the hysteresis controller against
/// each static scheme across the workload-intensity matrix and emit
/// the `BENCH_control.json` artifact (adaptive must track the best
/// static everywhere and beat the worst somewhere).
fn cmd_control_bench(args: &Args, warm: u64, cycles: u64) -> Result<(), ParseArgsError> {
    let r = driver::run_control_bench(warm, cycles);
    let doc = r.to_json();
    if args.flag("json") || args.get("out").is_none() {
        println!("{doc}");
    }
    if let Some(path) = args.get("out") {
        write_file(path, &format!("{doc}\n"))?;
        eprintln!("wrote adaptive-control report to {path}");
    }
    if !args.flag("json") {
        eprintln!(
            "adaptive control vs static schemes ({} warm + {} measured cycles, \
             no-op controller byte-identical to uncontrolled: {}):",
            r.warm, r.cycles, r.identical_reports
        );
        for p in &r.points {
            eprintln!(
                "  {:>2}+{:<10} injbuf {:>2}: base {:.2} | rp {:.2} | dr {:.2} | \
                 adaptive {:.2} IPC ({} actuations, adaptive/best {:.3})",
                p.gpu,
                p.cpu,
                p.injbuf,
                p.baseline.gpu_ipc,
                p.rp.gpu_ipc,
                p.dr.gpu_ipc,
                p.adaptive.gpu_ipc,
                p.actuations,
                p.adaptive.gpu_ipc / p.best_static_ipc()
            );
        }
        eprintln!(
            "  within 5% of best static everywhere: {}; beats worst static somewhere: {}",
            r.within_5pct_everywhere(),
            r.beats_worst_somewhere()
        );
    }
    Ok(())
}

/// `clognet bench --warm-start`: time the warm-started injbuf sweep
/// cold (warmup per variant) vs forked (warmup once, snapshot forked
/// per variant) and emit the `BENCH_warmstart.json` artifact.
fn cmd_warmstart_bench(args: &Args, warm: u64, cycles: u64) -> Result<(), ParseArgsError> {
    let threads = thread_count(args)?;
    let r = driver::run_warmstart_bench(threads, warm, cycles);
    let doc = r.to_json();
    if args.flag("json") || args.get("out").is_none() {
        println!("{doc}");
    }
    if let Some(path) = args.get("out") {
        write_file(path, &format!("{doc}\n"))?;
        eprintln!("wrote warm-start report to {path}");
    }
    if !args.flag("json") {
        eprintln!(
            "warm-start: {} variants x ({} warm + {} measured) at --threads {}: \
             {:.2}s cold, {:.2}s forked ({:.2}x, reports identical: {})",
            r.values.len() * 2,
            r.warm,
            r.cycles,
            r.threads,
            r.cold_wall_s,
            r.forked_wall_s,
            r.speedup(),
            r.identical_reports
        );
    }
    Ok(())
}

/// `clognet snapshot`: build a system, simulate the warmup, and write
/// the versioned snapshot where `resume` / `--warm-from` can fork it.
fn cmd_snapshot(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = run_keys();
    keys.push("out");
    args.reject_unknown(&keys)?;
    let gpu = args.get_or("gpu", "HS");
    let cpu = args.get_or("cpu", "bodytrack");
    check_benchmarks(gpu, cpu)?;
    let warm = args.get_num("warm", 6_000u64)?;
    let out = args
        .get("out")
        .ok_or_else(|| ParseArgsError("snapshot needs --out <path>".into()))?;
    if args.get("cycles").is_some() {
        return Err(ParseArgsError(
            "snapshot takes --warm (cycles to simulate before snapshotting), not --cycles".into(),
        ));
    }
    let cfg = config_from(args)?;
    check_fabric(&cfg)?;
    let shards = shard_count(args, &cfg)?;
    let mut sys = MultiChipSystem::new(cfg, gpu, cpu);
    sys.set_fast_forward(!args.flag("no-ff"));
    apply_shards(&mut sys, shards);
    sys.run(warm);
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
    let mut sys = MultiChipSystem::restore(&snap)
        .map_err(|e| ParseArgsError(format!("{path} failed to restore: {e}")))?;
    if let Some(s) = args.get("scheme") {
        sys.set_scheme(clognet_cli::config::parse_scheme(s)?);
    }
    if let Some(sets) = args.get("set") {
        for kv in sets.split(',') {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| ParseArgsError(format!("--set wants k=v[,k=v...], got `{kv}`")))?;
            let v: u64 = v
                .parse()
                .map_err(|_| ParseArgsError(format!("--set {k}: bad value `{v}`")))?;
            sys.apply_warm_param(k, v).map_err(ParseArgsError)?;
        }
    }
    let shards = shard_count(args, sys.config())?;
    sys.set_fast_forward(!args.flag("no-ff"));
    apply_shards(&mut sys, shards);
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
    let gpu = args.get_or("gpu", "HS");
    let cpu = args.get_or("cpu", "bodytrack");
    check_benchmarks(gpu, cpu)?;
    let warm = args.get_num("warm", 4_000u64)?;
    let cycles = args.get_num("cycles", 4_000u64)?;
    let last = args.get_num("last", 40usize)?;
    let mut cfg = config_from(args)?;
    check_fabric(&cfg)?;
    if cfg.chips() > 1 {
        return Err(ParseArgsError(
            "trace is single-chip only; drop --chips / --fabric-*".into(),
        ));
    }
    if args.get("scheme").is_none() {
        cfg.scheme = Scheme::DelegatedReplies;
    }
    let shards = shard_count(args, &cfg)?;
    // Episode thresholds ride on telemetry, so asking for them turns
    // the episode detector on alongside the protocol trace.
    let want_episodes = args.get("episode-enter").is_some() || args.get("episode-exit").is_some();
    let mut sys = System::new(cfg, gpu, cpu);
    sys.set_fast_forward(!args.flag("no-ff"));
    if shards > 1 {
        sys.set_tick_engine(TickEngine::Sharded(shards))
            .expect("shard count validated against this config");
    }
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
         \x20 --threads <n>      compare/sweep/bench worker threads (default: all cores)\n\
         \x20 --shards <n>       spatial shards ticking one simulation in parallel\n\
         \x20                    (must divide the mesh rows; bench: max of scaling curve)\n\n\
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
         \x20 clognet bench --shards 4 --out BENCH_shards.json\n\
         \x20 clognet compare --chips 2 --fabric-reply-latency 40 --json\n\
         \x20 clognet bench --fabric --quick --out BENCH_fabric.json\n\
         \x20 clognet bench --warm-start --out BENCH_warmstart.json\n\
         \x20 clognet run --gpu HS --cpu bodytrack --injbuf 4 --control hysteresis\n\
         \x20 clognet bench --adaptive --quick --out BENCH_control.json\n\
         \x20 clognet fuzz --seed 1 --cases 25\n\
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
    fn run_rejects_shard_counts_that_cannot_partition_the_mesh() {
        // 3 does not divide the default 8 mesh rows: a clear error
        // before any simulation is built, not a panic or a silent
        // fallback to the sequential engine.
        let e = dispatch(args_of(&["run", "--shards", "3"])).unwrap_err();
        assert!(e.0.contains("mesh rows"), "{e}");
        // More shards than rows fails the same way.
        let e = dispatch(args_of(&["run", "--shards", "16"])).unwrap_err();
        assert!(e.0.contains("mesh rows"), "{e}");
        // Non-mesh topologies only run sequentially.
        let e = dispatch(args_of(&["run", "--topology", "crossbar", "--shards", "2"])).unwrap_err();
        assert!(e.0.contains("mesh topology"), "{e}");
        // Zero shards is nonsense whatever the topology.
        assert!(dispatch(args_of(&["run", "--shards", "0"])).is_err());
    }

    #[test]
    fn compare_and_sweep_reject_bad_shard_counts_too() {
        let e = dispatch(args_of(&["compare", "--shards", "5"])).unwrap_err();
        assert!(e.0.contains("mesh rows"), "{e}");
        let e = dispatch(args_of(&[
            "sweep", "--param", "width", "--values", "8,16", "--shards", "7",
        ]))
        .unwrap_err();
        assert!(e.0.contains("mesh rows"), "{e}");
    }

    #[test]
    fn run_rejects_degenerate_fabric_configs_up_front() {
        // Structurally impossible packages fail before any simulation
        // is built, mirroring the --shards validation above.
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
