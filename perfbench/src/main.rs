//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <chip-8x8|mesh-16x16|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-golden > perfbench/golden.txt
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
//! The line before it is the full record: host, thread counts, sample
//! counts, the output check, and (traced) the tracing overhead.
//! See `perfbench/README.md` for the workloads and metrics.

mod golden;
mod host;
mod service;
mod sim;
mod stats;
mod trace;

use clognet_cli::{config_from, Args};
use clognet_proto::{job_fingerprint, snapshot_key};
use clognet_serve::JobSpec;
use golden::Golden;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The seed claims are tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// The seed a claim's second-seed check uses; never tuned on.
pub const HELD_OUT_SEED: u64 = 2;
/// Seeds whose sim reports have recorded digests.
const GOLDEN_SEEDS: std::ops::Range<u64> = 0..32;
/// No run goes on past this, whatever it still lacks.
const HARD_STOP: Duration = Duration::from_secs(140);

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reads 0: the sim workloads have no `cli`, `proto`,
/// `handler`, `serve` or `cluster` figures, and serve-mix none of
/// `core` and the layers beneath it.
const PER_LAYER: [(&str, &str); 41] = [
    ("core.build_s", "s"),
    ("core.run_warm_s", "s"),
    ("core.run_measure_s", "s"),
    ("core.report_s", "s"),
    ("core.ns_per_cycle", "ns"),
    ("core.ff_skip_ratio", "fraction"),
    ("noc.flit_hops", "count"),
    ("noc.injected_pkts", "count"),
    ("noc.inj_stall_cycles", "cycles"),
    ("noc.ns_per_flit_hop", "ns"),
    ("gpu.retired", "count"),
    ("gpu.mem_ops", "count"),
    ("gpu.mem_stall_cycles", "cycles"),
    ("gpu.delegated_hits", "count"),
    ("gpu.delegated_misses", "count"),
    ("gpu.probes_sent", "count"),
    ("cpu.processed", "count"),
    ("mem.requests", "count"),
    ("mem.llc_misses", "count"),
    ("mem.blocked_cycles", "cycles"),
    ("mem.delegations", "count"),
    ("dram.reads", "count"),
    ("dram.row_hit_rate", "fraction"),
    ("cli.resolve_us", "us"),
    ("proto.fingerprint_us", "us"),
    ("proto.snapshot_key_us", "us"),
    ("handler.fingerprint_us", "us"),
    ("handler.snapshot_key_us", "us"),
    ("handler.run_cold_ms", "ms"),
    ("handler.run_resumed_ms", "ms"),
    ("serve.hit_rtt_us", "us"),
    ("serve.request_self_ms", "ms"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.snapshot_hit_rate", "fraction"),
    ("serve.worker_utilization", "fraction"),
    ("serve.snapshot_bytes", "bytes"),
    ("cluster.forwards_out", "count"),
    ("cluster.replications_sent", "count"),
    ("cluster.snap_replications_sent", "count"),
    ("cluster.forwarded_rtt_ms", "ms"),
    ("cluster.local_rtt_ms", "ms"),
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <chip-8x8|mesh-16x16|serve-mix> \
         --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record-golden"
    );
    std::process::exit(2);
}

fn parse_opts(mut args: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let num = |v: &str| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: bad number `{v}`")))
        };
        match flag.as_str() {
            "--workload" => o.workload = value,
            "--seed" => o.seed = num(&value),
            "--seconds" => o.seconds = num(&value).max(1),
            "--trace" => o.trace = num(&value) != 0,
            _ => usage(&format!("unknown option {flag}")),
        }
    }
    o
}

/// One pass of a workload: its end-to-end figures and, when traced,
/// its per-layer figures.
#[derive(Debug, Default)]
struct Pass {
    e2e: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Rounds (sim) or epochs (service) run.
    units: usize,
    /// Latency samples and the highest percentile they support.
    samples: usize,
    tail: Option<(f64, f64)>,
    /// Threads the workload started (beyond the main thread).
    threads_started: u64,
    /// Whether the sim reports had recorded digests for this seed.
    golden_checked: bool,
}

/// When a pass stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After `secs` and at least `samples` latency samples.
    After { secs: f64, samples: usize },
    /// After exactly this many rounds or epochs.
    Units(usize),
}

impl Stop {
    fn done(self, units: usize, elapsed: Duration, samples: usize) -> bool {
        match self {
            Stop::Units(n) => units >= n,
            Stop::After {
                secs,
                samples: need,
            } => {
                units > 0
                    && (elapsed >= HARD_STOP || (elapsed.as_secs_f64() >= secs && samples >= need))
            }
        }
    }
}

/// Time `f` over batches of calls; median per-call µs over `inputs`.
fn per_call_us<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    const REPS: u32 = 200;
    let per: Vec<f64> = inputs
        .iter()
        .map(|x| {
            let t0 = Instant::now();
            for _ in 0..REPS {
                f(std::hint::black_box(x));
            }
            t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS)
        })
        .collect();
    median(&per)
}

/// Replay the CLI's option resolution and the proto layer's keys on a
/// workload's distinct job specs.
fn replay_layers(specs: &[JobSpec], out: &mut BTreeMap<&'static str, f64>) {
    let args: Vec<Args> = specs
        .iter()
        .map(|s| Args::from_opts("run", &s.opts))
        .collect();
    out.insert(
        "cli.resolve_us",
        per_call_us(&args, |a| {
            std::hint::black_box(config_from(a).expect("benchmark specs resolve"));
        }),
    );
    let resolved: Vec<_> = specs
        .iter()
        .zip(&args)
        .map(|(s, a)| (config_from(a).expect("benchmark specs resolve"), s))
        .collect();
    out.insert(
        "proto.fingerprint_us",
        per_call_us(&resolved, |(cfg, s)| {
            std::hint::black_box(job_fingerprint(cfg, &s.gpu, &s.cpu, s.warm, s.cycles));
        }),
    );
    out.insert(
        "proto.snapshot_key_us",
        per_call_us(&resolved, |(cfg, s)| {
            std::hint::black_box(snapshot_key(cfg, &s.gpu, &s.cpu, s.warm));
        }),
    );
}

fn sim_pass(
    workload: &str,
    seed: u64,
    golden: &Golden,
    stop: Stop,
    tracer: Option<&Tracer>,
) -> Pass {
    let jobs = sim::jobs(workload, seed).expect("sim workload");
    let mut first = Vec::new();
    let mut rounds: Vec<sim::Round> = Vec::new();
    let mut pass = Pass {
        golden_checked: golden.covers_seed(workload, seed),
        ..Pass::default()
    };
    let t0 = Instant::now();
    let mut slices = 0;
    while !stop.done(rounds.len(), t0.elapsed(), slices) {
        let round = sim::run_round(workload, seed, &jobs, golden, &mut first, tracer);
        pass.attempted += jobs.len() as u64;
        pass.failures.extend(round.failures.iter().cloned());
        if let Some(r0) = rounds.first() {
            if round.failures.is_empty() && r0.failures.is_empty() && round.counters != r0.counters
            {
                pass.failures.push(format!(
                    "round {}: layer counters differ from round 0",
                    rounds.len()
                ));
            }
        }
        slices += round
            .results
            .iter()
            .map(|r| r.slice_ns.len())
            .sum::<usize>();
        rounds.push(round);
    }
    pass.units = rounds.len();
    let full: Vec<&sim::Round> = rounds
        .iter()
        .filter(|r| r.results.len() == jobs.len())
        .collect();
    let cycles: u64 = jobs.iter().map(|j| j.spec.warm + j.spec.cycles).sum();
    let per_round =
        |f: &dyn Fn(&sim::Round) -> f64| median(&full.iter().map(|r| f(r)).collect::<Vec<_>>());
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.results
                .iter()
                .flat_map(|j| j.slice_ns.iter().map(|&n| n as f64 / 1e6))
        })
        .collect();
    pass.samples = lat.len();
    pass.tail = stats::tail(&lat);
    let e = &mut pass.e2e;
    e.insert(
        "sim_cycles_per_s",
        per_round(&|r| {
            let ns: u64 = r.results.iter().map(|j| j.warm_ns + j.measure_ns()).sum();
            cycles as f64 / (ns as f64 / 1e9)
        }),
    );
    e.insert(
        "jobs_per_s",
        per_round(&|r| {
            r.results.len() as f64 / (r.results.iter().map(|j| j.job_ns).sum::<u64>() as f64 / 1e9)
        }),
    );
    e.insert(
        "latency_p50_ms",
        percentile(&lat, 50.0).unwrap_or(f64::INFINITY),
    );
    e.insert(
        "latency_p99_ms",
        percentile(&lat, 99.0).unwrap_or(f64::INFINITY),
    );
    e.insert(
        "setup_s",
        per_round(&|r| r.results.iter().map(|j| j.build_ns).sum::<u64>() as f64 / 1e9),
    );
    if tracer.is_some() {
        let runs: Vec<(&sim::SimJob, &sim::JobResult)> = full
            .iter()
            .flat_map(|r| jobs.iter().zip(&r.results))
            .collect();
        let counts = full.first().map(|r| r.counters).unwrap_or_default();
        core_layers(&runs, &counts, &mut pass.per_layer);
    }
    pass
}

/// Per-layer figures of simulation jobs, measured from outside `core`:
/// median CPU time per call, CPU time per measured cycle and per
/// flit-hop, the share of cycles fast-forward skipped, and the layers'
/// counters `counts` over the measured spans.
fn core_layers(
    runs: &[(&sim::SimJob, &sim::JobResult)],
    counts: &sim::Counters,
    l: &mut BTreeMap<&'static str, f64>,
) {
    let med = |f: &dyn Fn(&sim::JobResult) -> u64| {
        median(
            &runs
                .iter()
                .map(|(_, r)| f(r) as f64 / 1e9)
                .collect::<Vec<_>>(),
        )
    };
    l.insert("core.build_s", med(&|r| r.build_ns));
    l.insert("core.run_warm_s", med(&|r| r.warm_ns));
    l.insert("core.run_measure_s", med(&|r| r.measure_ns()));
    l.insert("core.report_s", med(&|r| r.report_ns));
    let sum = |f: &dyn Fn(&sim::SimJob, &sim::JobResult) -> u64| -> f64 {
        runs.iter().map(|(j, r)| f(j, r)).sum::<u64>().max(1) as f64
    };
    let measure_ns = sum(&|_, r| r.measure_ns());
    l.insert("core.ns_per_cycle", measure_ns / sum(&|j, _| j.spec.cycles));
    l.insert(
        "core.ff_skip_ratio",
        sum(&|_, r| r.skipped) / sum(&|j, _| j.spec.warm + j.spec.cycles),
    );
    l.insert(
        "noc.ns_per_flit_hop",
        measure_ns / sum(&|_, r| r.counters.get("noc.flit_hops")),
    );
    for name in sim::COUNTER_NAMES {
        if !name.starts_with("dram.row") {
            l.insert(name, counts.get(name) as f64);
        }
    }
    let hits = counts.get("dram.row_hits") as f64;
    let misses = counts.get("dram.row_misses") as f64;
    l.insert("dram.row_hit_rate", hits / (hits + misses).max(1.0));
}

/// The epochs one service shape ran, and what they cost.
#[derive(Default)]
struct Epochs {
    epochs: Vec<service::Epoch>,
    /// Each epoch's client streams.
    streams: Vec<Vec<Vec<service::Item>>>,
    attempted: u64,
    failures: Vec<String>,
    threads_started: u64,
}

fn drive_epochs(
    shape: service::Shape,
    seed: u64,
    golden: &Golden,
    stop: Stop,
    handler: &Arc<service::TimedHandler>,
    tracer: Option<&Tracer>,
) -> Epochs {
    let lines: Vec<String> = service::catalog()
        .iter()
        .map(|s| s.to_request_line())
        .collect();
    let mut out = Epochs::default();
    let threads_before = host::threads();
    let t0 = Instant::now();
    let mut samples = 0;
    while !stop.done(out.epochs.len(), t0.elapsed(), samples) {
        let streams = service::epoch_streams(seed, out.epochs.len() as u64, shape.clients);
        let epoch = service::run_epoch(shape, &streams, &lines, golden, handler, tracer);
        let request_failures = epoch.samples.len() - epoch.ok();
        out.attempted += (epoch.samples.len() + epoch.failures.len() - request_failures) as u64;
        out.failures.extend(epoch.failures.iter().cloned());
        out.threads_started = out
            .threads_started
            .max(epoch.threads.saturating_sub(threads_before));
        samples += epoch.samples.len();
        out.streams.push(streams);
        out.epochs.push(epoch);
    }
    out
}

/// Median round trip (ms) of the answered samples `keep` selects.
fn rtt_ms(epochs: &[service::Epoch], keep: &dyn Fn(&service::Sample, &[String]) -> bool) -> f64 {
    let v: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.samples.iter().filter(|s| keep(s, &e.addrs)))
        .filter_map(|s| s.rtt_ns.map(|n| n as f64 / 1e6))
        .collect();
    median(&v)
}

/// Median over epochs of a figure from the epoch's `stats`.
fn per_epoch(epochs: &[service::Epoch], f: impl Fn(&service::Epoch) -> f64) -> f64 {
    median(&epochs.iter().map(f).collect::<Vec<_>>())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn serve_pass(seed: u64, golden: &Golden, stop: Stop, tracer: Option<&Arc<Tracer>>) -> Pass {
    let shape = service::shape(false, host::nproc()).expect("serve-mix runs on any host");
    let handler = Arc::new(service::TimedHandler::new(tracer.cloned()));
    let run = drive_epochs(shape, seed, golden, stop, &handler, tracer.map(|t| &**t));
    let epochs = &run.epochs;
    let mut pass = Pass {
        golden_checked: true,
        attempted: run.attempted,
        failures: run.failures.clone(),
        units: epochs.len(),
        threads_started: run.threads_started,
        ..Pass::default()
    };
    let lat: Vec<f64> = epochs
        .iter()
        .flat_map(|e| &e.samples)
        .map(|s| s.rtt_ns.map_or(f64::INFINITY, |n| n as f64 / 1e6))
        .collect();
    pass.samples = lat.len();
    pass.tail = stats::tail(&lat);
    let (cycles, run_ns) = handler.sim_totals();
    let e = &mut pass.e2e;
    e.insert("sim_cycles_per_s", cycles as f64 / (run_ns as f64 / 1e9));
    e.insert(
        "jobs_per_s",
        median(
            &epochs
                .iter()
                .map(|e| e.ok() as f64 / e.driven_s)
                .collect::<Vec<_>>(),
        ),
    );
    e.insert(
        "latency_p50_ms",
        percentile(&lat, 50.0).unwrap_or(f64::INFINITY),
    );
    e.insert(
        "latency_p99_ms",
        percentile(&lat, 99.0).unwrap_or(f64::INFINITY),
    );
    e.insert(
        "setup_s",
        median(&epochs.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
    );
    let Some(tracer) = tracer else {
        return pass;
    };
    let mut spans = tracer.take();
    let orphans = trace::link_requests(&mut spans, "serve.request", "handler.");
    let (selfs, bad) = trace::self_times(&spans);
    if orphans > 0 || !bad.is_empty() {
        pass.failures.push(format!(
            "trace: {orphans} handler spans outside their request, {} requests whose handler spans overlap",
            bad.len()
        ));
    }
    let summary = trace::summarize(&spans, &selfs);
    let p50 = |name: &str, unit: f64| summary.get(name).map_or(0.0, |s| s.p50_ns / unit);
    let l = &mut pass.per_layer;
    l.insert("handler.fingerprint_us", p50("handler.fingerprint", 1e3));
    l.insert("handler.snapshot_key_us", p50("handler.snapshot_key", 1e3));
    l.insert("handler.run_cold_ms", p50("handler.run_cold", 1e6));
    l.insert("handler.run_resumed_ms", p50("handler.run_resumed", 1e6));
    let request_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "serve.request")
        .map(|(_, &own)| own as f64 / 1e6)
        .collect();
    l.insert("serve.request_self_ms", median(&request_self));
    l.insert("serve.hit_rtt_us", 1e3 * rtt_ms(epochs, &|s, _| s.hit));
    let hit_rate = |e: &service::Epoch, hits: &str, misses: &str| {
        ratio(e.stat(hits), e.stat(hits) + e.stat(misses))
    };
    l.insert(
        "serve.cache_hit_rate",
        per_epoch(epochs, |e| hit_rate(e, "cache_hits", "cache_misses")),
    );
    l.insert(
        "serve.snapshot_hit_rate",
        per_epoch(epochs, |e| hit_rate(e, "snapshot_hits", "snapshot_misses")),
    );
    l.insert(
        "serve.worker_utilization",
        per_epoch(epochs, |e| {
            ratio(e.stat("utilization_sum"), e.stat("workers"))
        }),
    );
    l.insert(
        "serve.snapshot_bytes",
        per_epoch(epochs, |e| e.stat("snapshot_bytes")),
    );
    let specs: Vec<JobSpec> = run
        .streams
        .iter()
        .flat_map(|s| service::distinct_specs(s))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(service::catalog_spec)
        .collect();
    replay_layers(&specs, l);
    write_spans(&spans, &selfs, &summary);
    cluster_leg(seed, golden, &mut pass);
    pass
}

/// Epochs of the traced serve-mix run replayed on a 2-node cluster
/// ring, one client per gateway: the cluster layer's figures.
const CLUSTER_EPOCHS: usize = 2;

fn cluster_leg(seed: u64, golden: &Golden, pass: &mut Pass) {
    let Some(shape) = service::shape(true, host::nproc()) else {
        eprintln!("cluster leg skipped: a 2-node ring needs 2 CPUs");
        return;
    };
    let handler = Arc::new(service::TimedHandler::new(None));
    let run = drive_epochs(
        shape,
        seed,
        golden,
        Stop::Units(CLUSTER_EPOCHS),
        &handler,
        None,
    );
    pass.attempted += run.attempted;
    pass.failures.extend(run.failures);
    let epochs = &run.epochs;
    let l = &mut pass.per_layer;
    for (metric, key) in [
        ("cluster.forwards_out", "forwards_out"),
        ("cluster.replications_sent", "replications_sent"),
        ("cluster.snap_replications_sent", "snap_replications_sent"),
    ] {
        l.insert(metric, per_epoch(epochs, |e| e.stat(key)));
    }
    let owned = |s: &service::Sample, addrs: &[String]| {
        service::owned_by_gateway(addrs, s.client, s.fingerprint)
    };
    l.insert(
        "cluster.forwarded_rtt_ms",
        rtt_ms(epochs, &|s, a| !owned(s, a)),
    );
    l.insert("cluster.local_rtt_ms", rtt_ms(epochs, &|s, a| owned(s, a)));
}

/// Write the spans of a traced pass and print the per-layer table.
fn write_spans(
    spans: &[trace::Span],
    selfs: &[u64],
    summary: &BTreeMap<&'static str, trace::LayerSummary>,
) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(spans, selfs)));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
    eprintln!(
        "{:<24} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "p50_us"
    );
    for (name, s) in summary {
        eprintln!(
            "{name:<24} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.p50_ns / 1e3
        );
    }
}

fn sim_spans(tracer: &Tracer, pass: &mut Pass) {
    let spans = tracer.take();
    let (selfs, bad) = trace::self_times(&spans);
    if !bad.is_empty() {
        pass.failures.push(format!(
            "trace: {} jobs whose layer spans overlap",
            bad.len()
        ));
    }
    write_spans(&spans, &selfs, &trace::summarize(&spans, &selfs));
}

fn run_pass(o: &Opts, golden: &Golden, stop: Stop, traced: bool) -> Pass {
    let mut pass = if sim::jobs(&o.workload, o.seed).is_some() {
        let tracer = traced.then(Tracer::default);
        let mut pass = sim_pass(&o.workload, o.seed, golden, stop, tracer.as_ref());
        if let Some(t) = &tracer {
            sim_spans(t, &mut pass);
        }
        pass
    } else {
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        serve_pass(o.seed, golden, stop, tracer.as_ref())
    };
    pass.e2e.insert("peak_rss_mib", host::peak_rss_mib());
    pass
}

/// A finite JSON number with every digit; +∞ (a failed request in a
/// percentile) becomes the largest finite double.
fn num(v: f64) -> String {
    if v.is_nan() {
        "0".into()
    } else if v.is_infinite() {
        format!("{:e}", f64::MAX)
    } else {
        format!("{v}")
    }
}

fn metrics_json(names: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            let v = values.get(n).copied().unwrap_or(0.0);
            format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(v))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--record-golden") {
        record_golden();
        return;
    }
    let o = parse_opts(args);
    let is_sim = sim::jobs(&o.workload, o.seed).is_some();
    if !is_sim && o.workload != "serve-mix" {
        usage(&format!("unknown workload `{}`", o.workload));
    }
    let shape = (!is_sim)
        .then(|| service::shape(false, host::nproc()))
        .flatten();
    let golden = Golden::load();
    let secs = o.seconds as f64;
    let jiffies = host::cpu_jiffies();
    let (pass, plain) = if o.trace {
        // Half the time untraced, then the same work traced; their
        // difference is the tracing overhead.
        let plain = run_pass(
            &o,
            &golden,
            Stop::After {
                secs: secs / 2.0,
                samples: 0,
            },
            false,
        );
        let traced = run_pass(&o, &golden, Stop::Units(plain.units), true);
        (traced, Some(plain))
    } else {
        // Enough requests or slices for ten samples beyond the p99.
        let samples = stats::samples_needed(99.0);
        (
            run_pass(&o, &golden, Stop::After { secs, samples }, false),
            None,
        )
    };
    let mut failures = pass.failures.clone();
    let mut attempted = pass.attempted;
    if let Some(p) = &plain {
        failures.extend(p.failures.iter().cloned());
        attempted += p.attempted;
    }
    for f in failures.iter().take(10) {
        eprintln!("failure: {f}");
    }

    let (steal, total) = host::cpu_jiffies();
    let steal_share = (steal - jiffies.0) as f64 / (total - jiffies.1).max(1) as f64;
    let mut rec = String::new();
    let nproc = host::nproc();
    let (clients, workers) = shape.map_or((0, 0), |s| (s.clients, s.nodes * s.workers));
    let _ = write!(
        rec,
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"source_digest\":\"{}\",\"steal_share\":{}}},\
         \"threads\":{{\"started\":{},\"clients\":{clients},\"workers\":{workers},\
         \"nproc\":{nproc},\"oversubscribed\":{}}},\
         \"units\":{},\"latency_samples\":{},\"latency_tail\":{},\
         \"output_check\":{{\"golden_seed\":{},\"failed\":{}}},\
         \"error_rate\":{{\"value\":{},\"unit\":\"fraction\"}},\"end_to_end\":{}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace),
        host::cpu_model().replace('"', "'"),
        host::rustc(),
        host::commit(),
        host::source_digest(),
        num(steal_share),
        pass.threads_started,
        clients > nproc || workers > nproc,
        pass.units,
        pass.samples,
        pass.tail.map_or("null".into(), |(p, v)| format!(
            "{{\"percentile\":{p},\"value_ms\":{}}}",
            num(v)
        )),
        pass.golden_checked,
        failures.len(),
        num(failures.len() as f64 / attempted.max(1) as f64),
        metrics_json(&END_TO_END, &pass.e2e),
    );
    if let Some(p) = &plain {
        let diff: BTreeMap<&'static str, f64> = END_TO_END
            .iter()
            .map(|(n, _)| {
                (
                    *n,
                    pass.e2e.get(n).copied().unwrap_or(0.0) - p.e2e.get(n).copied().unwrap_or(0.0),
                )
            })
            .collect();
        let _ = write!(
            rec,
            ",\"untraced\":{},\"tracing_overhead\":{}",
            metrics_json(&END_TO_END, &p.e2e),
            metrics_json(&END_TO_END, &diff)
        );
    }
    rec.push_str("}}");
    println!("{rec}");
    let (names, values): (&[(&str, &str)], _) = if o.trace {
        (&PER_LAYER, &pass.per_layer)
    } else {
        (&END_TO_END, &pass.e2e)
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        metrics_json(names, values)
    );
}

/// Print the golden table for the catalog and every golden seed.
fn record_golden() {
    println!("# perfbench golden report digests (FNV-1a 64 over the report JSON).");
    println!("# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-golden");
    let mut tasks: Vec<(&str, u64)> = Vec::new();
    for seed in GOLDEN_SEEDS {
        tasks.push(("chip-8x8", seed));
        tasks.push(("mesh-16x16", seed));
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let threads = host::nproc().min(2);
    let mut lines: Vec<(usize, Vec<String>)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(w, seed)) = tasks.get(i) else {
                            return out;
                        };
                        out.push((i, sim::golden_lines(w, seed)));
                    }
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("golden worker panicked"))
            .collect()
    });
    lines.sort_by_key(|(i, _)| *i);
    for (_, ls) in lines {
        for l in ls {
            println!("{l}");
        }
    }
    for l in service::golden_lines() {
        println!("{l}");
    }
}
