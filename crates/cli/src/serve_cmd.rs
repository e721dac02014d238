//! The service-side subcommands: `serve`, `submit`, `batch`, and
//! `fingerprint`.
//!
//! [`SimHandler`] is the bridge between `clognet-serve` (which knows
//! nothing about simulators) and `clognet-core`: it resolves a wire
//! [`JobSpec`] through the same option vocabulary as `clognet run`,
//! fingerprints the *resolved* configuration (so `--scheme dr` and
//! `--scheme delegated-replies` share a cache entry), and renders
//! reports through [`report::report_json`] — which is what guarantees a
//! `submit` prints byte-identical output to an inline `clognet run
//! --json` of the same job.

use crate::args::{Args, ParseArgsError};
use crate::cluster_cmd::parse_peers;
use crate::config::{resolve_job, CONFIG_KEYS, EXEC_KEYS, JOB_KEYS};
use crate::report;
use clognet_core::{MultiChipSystem, Snapshot};
use clognet_proto::{
    fingerprint_hex, job_fingerprint, knobs, snapshot_key, HashRing, SystemConfig,
};
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::json::Json;
use clognet_serve::server::{JobError, JobHandler, ServeConfig, Server};
use clognet_serve::wire::{ErrorCode, JobSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default service endpoint shared by `serve`, `submit`, and `batch`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9347";

/// Option keys a job may carry: the config knobs and the execution-mode
/// knobs. The [`JOB_KEYS`] travel as dedicated fields.
fn job_opt_keys() -> Vec<&'static str> {
    [&CONFIG_KEYS[..], &EXEC_KEYS].concat()
}

/// Cycles simulated between deadline checks while a job runs.
const DEADLINE_CHUNK: u64 = 2_000;

/// The real simulation behind the service.
pub struct SimHandler;

impl SimHandler {
    /// Resolve a wire spec into a validated `(config, fast-forward)`
    /// pair, as `clognet run` resolves its options: unknown options,
    /// unknown benchmarks and configs that cannot be built are bad
    /// requests.
    fn resolve(spec: &JobSpec) -> Result<(SystemConfig, bool), JobError> {
        let args = Args::from_opts("run", &spec.opts);
        let job = args
            .reject_unknown(&job_opt_keys())
            .and_then(|()| resolve_job(&args, &spec.gpu, &spec.cpu, spec.warm, spec.cycles));
        let job = job.map_err(|e| JobError::bad_request(e.0))?;
        Ok((job.cfg, job.ff))
    }
}

impl JobHandler for SimHandler {
    fn fingerprint(&self, spec: &JobSpec) -> Result<u64, JobError> {
        let (cfg, _) = Self::resolve(spec)?;
        // Execution-mode knobs are deliberately excluded: reports are
        // byte-identical with fast-forward on or off (the CI
        // equivalence smokes), so all spellings should share one cache
        // entry.
        Ok(job_fingerprint(
            &cfg,
            &spec.gpu,
            &spec.cpu,
            spec.warm,
            spec.cycles,
        ))
    }

    fn run(&self, spec: &JobSpec, deadline: Instant) -> Result<String, JobError> {
        self.run_with_snapshot(spec, deadline)
            .map(|(report, _)| report)
    }

    fn snapshot_key(&self, spec: &JobSpec) -> Option<u64> {
        if spec.warm == 0 {
            return None; // No warmup prefix worth caching.
        }
        let (cfg, _) = Self::resolve(spec).ok()?;
        // Like the fingerprint, the key excludes the execution-mode
        // knob `no-ff`: a no-ff submit must hit the snapshot a
        // fast-forwarded one cached, and vice versa.
        Some(snapshot_key(&cfg, &spec.gpu, &spec.cpu, spec.warm))
    }

    fn run_with_snapshot(
        &self,
        spec: &JobSpec,
        deadline: Instant,
    ) -> Result<(String, Option<Vec<u8>>), JobError> {
        let (cfg, ff) = Self::resolve(spec)?;
        let scheme = cfg.scheme;
        let mut sys = MultiChipSystem::new(cfg, &spec.gpu, &spec.cpu);
        sys.set_fast_forward(ff);
        chunked(&mut sys, spec.warm, deadline)?;
        let snap = (spec.warm > 0).then(|| sys.snapshot().into_bytes());
        sys.reset_stats();
        chunked(&mut sys, spec.cycles, deadline)?;
        Ok((report::report_json(scheme, &sys.report()), snap))
    }

    fn run_from_snapshot(
        &self,
        spec: &JobSpec,
        snapshot: &[u8],
        deadline: Instant,
    ) -> Result<String, JobError> {
        let (cfg, ff) = Self::resolve(spec)?;
        let scheme = cfg.scheme;
        // A cache entry that fails to restore (corrupt bytes, a version
        // we no longer read) must never fail the job — snapshots are an
        // optimization; fall back to the full run.
        let restored = Snapshot::from_bytes(snapshot.to_vec())
            .ok()
            .filter(|snap| {
                // Belt-and-braces identity check: even a key collision
                // must not resume the wrong simulation.
                snap.config() == &cfg
                    && snap.gpu_bench() == spec.gpu
                    && snap.cpu_bench() == spec.cpu
                    && snap.cycle() == spec.warm
            })
            .and_then(|snap| MultiChipSystem::restore(&snap).ok());
        let Some(mut sys) = restored else {
            return self.run(spec, deadline);
        };
        sys.set_fast_forward(ff);
        sys.reset_stats();
        chunked(&mut sys, spec.cycles, deadline)?;
        Ok(report::report_json(scheme, &sys.report()))
    }
}

/// Simulate `total` cycles in [`DEADLINE_CHUNK`]-sized steps, checking
/// the wall-time deadline between chunks.
fn chunked(sys: &mut MultiChipSystem, total: u64, deadline: Instant) -> Result<(), JobError> {
    let mut remaining = total;
    while remaining > 0 {
        if Instant::now() >= deadline {
            return Err(JobError {
                code: ErrorCode::Timeout,
                message: "job exceeded its wall-time limit".into(),
            });
        }
        let step = remaining.min(DEADLINE_CHUNK);
        sys.run(step);
        remaining -= step;
    }
    Ok(())
}

/// Build a [`JobSpec`] from `submit`-style CLI options.
fn spec_from_args(args: &Args) -> Result<JobSpec, ParseArgsError> {
    let mut spec = JobSpec::new(args.get_or("gpu", "HS"), args.get_or("cpu", "bodytrack"));
    spec.warm = args.get_num("warm", spec.warm)?;
    spec.cycles = args.get_num("cycles", spec.cycles)?;
    for key in job_opt_keys() {
        if let Some(v) = args.get(key) {
            spec.opts.insert(key.to_string(), v.to_string());
        }
    }
    Ok(spec)
}

/// Connect-retry policy from `--retries` / `--retry-ms` / `--seed`.
fn policy_from_args(args: &Args) -> Result<RetryPolicy, ParseArgsError> {
    let default = RetryPolicy::default();
    Ok(RetryPolicy {
        attempts: args.get_num("retries", default.attempts)?,
        base_ms: args.get_num("retry-ms", default.base_ms)?,
        cap_ms: default.cap_ms,
        seed: args.get_num("seed", default.seed)?,
    })
}

/// Connect to `--addr`, or to the first reachable node in a `--peers`
/// failover list. `fp` (when the request is a job) seeds per-connection
/// retry jitter so a thundering herd of resubmits spreads out.
fn connect(args: &Args, fp: Option<u64>) -> Result<Client, ParseArgsError> {
    let base = policy_from_args(args)?;
    let policy = match fp {
        Some(fp) => base.for_fingerprint(fp),
        None => base,
    };
    let mut targets: Vec<String> = args.get("peers").map(parse_peers).unwrap_or_default();
    if let Some(addr) = args.get("addr") {
        targets.insert(0, addr.to_string());
    }
    if targets.is_empty() {
        targets.push(DEFAULT_ADDR.to_string());
    }
    let mut last_err = String::new();
    for addr in &targets {
        match Client::connect(addr, &policy) {
            Ok(client) => return Ok(client),
            Err(e) => last_err = format!("connecting to {addr}: {e}"),
        }
    }
    Err(ParseArgsError(last_err))
}

/// Option keys that configure a server: `serve` takes exactly these,
/// and every cluster node takes them for the server it runs.
pub const SERVE_KEYS: &[&str] = &[
    "addr",
    "workers",
    "queue",
    "cache",
    "snap-cache",
    "max-cycles",
    "timeout-ms",
    "drain-ms",
];

/// Build a [`ServeConfig`] from the [`SERVE_KEYS`] options.
///
/// # Errors
///
/// Non-numeric numeric options, and no workers or queue slots.
pub fn serve_config_from(args: &Args) -> Result<ServeConfig, ParseArgsError> {
    let default = ServeConfig::default();
    Ok(ServeConfig {
        addr: args.get_or("addr", DEFAULT_ADDR).to_string(),
        workers: args.get_at_least("workers", default.workers, 1)?,
        queue_cap: args.get_at_least("queue", default.queue_cap, 1)?,
        cache_cap: args.get_num("cache", default.cache_cap)?,
        snap_cache_cap: args.get_num("snap-cache", default.snap_cache_cap)?,
        max_job_cycles: args.get_num("max-cycles", default.max_job_cycles)?,
        job_timeout: Duration::from_millis(
            args.get_num("timeout-ms", default.job_timeout.as_millis() as u64)?,
        ),
        drain_timeout: Duration::from_millis(
            args.get_num("drain-ms", default.drain_timeout.as_millis() as u64)?,
        ),
    })
}

/// `clognet serve`: run the service in the foreground until a client
/// sends `shutdown`.
///
/// # Errors
///
/// Bad options or a failed bind.
pub fn cmd_serve(args: &Args) -> Result<(), ParseArgsError> {
    // A service asked to join peers (or to keep replicas) is a cluster
    // node: same wire protocol, plus membership, sharding, and
    // replication. One flag turns a single-node deployment into a mesh.
    if args.get("peers").is_some() || args.get("replicas").is_some() {
        return crate::cluster_cmd::cmd_cluster(args);
    }
    args.reject_unknown(SERVE_KEYS)?;
    let cfg = serve_config_from(args)?;
    let workers = cfg.workers;
    let server = Server::bind(cfg, Arc::new(SimHandler))
        .map_err(|e| ParseArgsError(format!("binding service socket: {e}")))?;
    eprintln!(
        "clognet-serve listening on {} ({} workers); stop with \
         `clognet submit --op shutdown`",
        server.local_addr(),
        workers
    );
    server
        .run()
        .map_err(|e| ParseArgsError(format!("serve loop failed: {e}")))
}

/// `clognet submit`: send one request to a running service. `--op run`
/// (the default) prints the report to stdout byte-identically to an
/// inline `clognet run --json`; the cache verdict goes to stderr.
///
/// # Errors
///
/// Bad options, connection failure, or a server-side rejection.
pub fn cmd_submit(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = [&job_opt_keys()[..], &JOB_KEYS].concat();
    keys.extend_from_slice(&["addr", "peers", "op", "retries", "retry-ms"]);
    args.reject_unknown(&keys)?;
    match args.get_or("op", "run") {
        "run" => {
            let spec = spec_from_args(args)?;
            // Fingerprint client-side (when the spec resolves) so retry
            // jitter is derived from the job, not shared by every
            // client; an unresolvable spec still travels to the server
            // for its authoritative structured error.
            let fp = SimHandler.fingerprint(&spec).ok();
            let mut client = connect(args, fp)?;
            let result = client
                .submit(&spec)
                .map_err(|e| ParseArgsError(e.to_string()))?;
            eprintln!(
                "fingerprint {} (cache {})",
                result.fingerprint,
                if result.cache_hit { "hit" } else { "miss" }
            );
            println!("{}", result.report);
        }
        "ping" => {
            connect(args, None)?
                .ping()
                .map_err(|e| ParseArgsError(e.to_string()))?;
            println!("pong");
        }
        "stats" => {
            let stats = connect(args, None)?
                .stats()
                .map_err(|e| ParseArgsError(e.to_string()))?;
            println!("{stats}");
        }
        "cluster-stats" => {
            let line = connect(args, None)?
                .request_line("{\"op\":\"cluster-stats\"}")
                .map_err(|e| ParseArgsError(e.to_string()))?;
            println!("{line}");
        }
        "shutdown" => {
            connect(args, None)?
                .shutdown()
                .map_err(|e| ParseArgsError(e.to_string()))?;
            eprintln!("server is draining");
        }
        other => {
            return Err(ParseArgsError(format!(
                "unknown --op `{other}` (run|ping|stats|cluster-stats|shutdown)"
            )))
        }
    }
    Ok(())
}

/// `clognet batch`: submit every job in an NDJSON file (one job object
/// per line, `clognet run` option vocabulary) over one connection and
/// emit one response line per job — to stdout, or to `--out`.
///
/// # Errors
///
/// Bad options, an unreadable/unparseable job file, or transport
/// failure. Per-job server rejections are *not* errors; they appear as
/// their structured error lines in the output.
pub fn cmd_batch(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&["addr", "peers", "file", "out", "retries", "retry-ms"])?;
    let path = args
        .get("file")
        .ok_or_else(|| ParseArgsError("batch needs --file <jobs.ndjson>".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseArgsError(format!("reading {path}: {e}")))?;
    let mut specs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| ParseArgsError(format!("{path}:{}: {e}", i + 1)))?;
        let spec =
            JobSpec::from_json(&v).map_err(|e| ParseArgsError(format!("{path}:{}: {e}", i + 1)))?;
        specs.push(spec);
    }
    let mut client = connect(args, None)?;
    let mut out = String::new();
    let mut hits = 0usize;
    for spec in &specs {
        let line = client
            .request_line(&spec.to_request_line())
            .map_err(|e| ParseArgsError(e.to_string()))?;
        if line.contains("\"cache\":\"hit\"") {
            hits += 1;
        }
        out.push_str(&line);
        out.push('\n');
    }
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &out)
                .map_err(|e| ParseArgsError(format!("writing {path}: {e}")))?;
            eprintln!("wrote {} responses to {path}", specs.len());
        }
        None => print!("{out}"),
    }
    eprintln!("{} jobs, {hits} cache hits", specs.len());
    Ok(())
}

/// `clognet fingerprint`: print the canonical content-address of a job
/// without running it. `--canonical` also prints the job's canonical
/// option line, which gives the same fingerprint when fed back to
/// `clognet fingerprint`. With `--peers` the job is
/// placed on the cluster's consistent-hash ring: `--owner` prints only
/// the owning node's address to stdout (for scripting), otherwise the
/// owner and replica holders go to stderr alongside the fingerprint.
///
/// # Errors
///
/// Bad options, or `--owner` without `--peers`.
pub fn cmd_fingerprint(args: &Args) -> Result<(), ParseArgsError> {
    let mut keys = [&job_opt_keys()[..], &JOB_KEYS].concat();
    keys.extend_from_slice(&["canonical", "peers", "owner", "replicas", "vnodes"]);
    args.reject_unknown(&keys)?;
    // A job `run` would refuse has no fingerprint: same checks, same
    // messages.
    let job = resolve_job(args, "HS", "bodytrack", 6_000, 15_000)?;
    let (gpu, cpu, warm, cycles, cfg) = (job.gpu, job.cpu, job.warm, job.cycles, &job.cfg);
    let fp = job_fingerprint(cfg, gpu, cpu, warm, cycles);
    let peers = args.get("peers").map(parse_peers).unwrap_or_default();
    if peers.is_empty() {
        if args.flag("owner") {
            return Err(ParseArgsError(
                "--owner needs --peers <addr,...> to build the ring".into(),
            ));
        }
        if args.flag("canonical") {
            println!("{}", knobs::job_options(cfg, gpu, cpu, warm, cycles));
        }
        println!("{}", fingerprint_hex(fp));
        return Ok(());
    }
    let vnodes = args.get_at_least("vnodes", clognet_proto::DEFAULT_VNODES, 1)?;
    let replicas: usize = args.get_num("replicas", 1usize)?;
    let ring = HashRing::with_nodes(peers.iter().map(String::as_str), vnodes);
    let placement = ring.placement(fp, replicas + 1);
    let owner = placement
        .first()
        .copied()
        .ok_or_else(|| ParseArgsError("empty ring: no peers to place the job on".into()))?;
    if args.flag("owner") {
        // Bare address on stdout so shell scripts can capture it.
        println!("{owner}");
        return Ok(());
    }
    if args.flag("canonical") {
        println!("{}", knobs::job_options(cfg, gpu, cpu, warm, cycles));
    }
    println!("{}", fingerprint_hex(fp));
    eprintln!("owner {owner}");
    for replica in &placement[1..] {
        eprintln!("replica {replica}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_rejects_unknown_workloads_and_options() {
        let h = SimHandler;
        let bad_gpu = JobSpec::new("NOPE", "bodytrack");
        assert!(h.fingerprint(&bad_gpu).is_err());
        let bad_cpu = JobSpec::new("HS", "nope");
        assert!(h.fingerprint(&bad_cpu).is_err());
        let mut bad_opt = JobSpec::new("HS", "bodytrack");
        bad_opt.opts.insert("gpuu".into(), "HS".into());
        let err = h.fingerprint(&bad_opt).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("gpuu"));
    }

    #[test]
    fn scheme_spellings_share_a_fingerprint() {
        let h = SimHandler;
        let mut a = JobSpec::new("HS", "bodytrack");
        a.opts.insert("scheme".into(), "dr".into());
        let mut b = a.clone();
        b.opts.insert("scheme".into(), "delegated-replies".into());
        assert_eq!(h.fingerprint(&a).unwrap(), h.fingerprint(&b).unwrap());
        let mut c = a.clone();
        c.opts.insert("scheme".into(), "baseline".into());
        assert_ne!(h.fingerprint(&a).unwrap(), h.fingerprint(&c).unwrap());
    }

    #[test]
    fn fast_forward_mode_does_not_change_the_fingerprint() {
        let h = SimHandler;
        let a = JobSpec::new("HS", "bodytrack");
        let mut b = a.clone();
        b.opts.insert("no-ff".into(), "true".into());
        assert_eq!(h.fingerprint(&a).unwrap(), h.fingerprint(&b).unwrap());
    }

    #[test]
    fn snapshot_keys_ignore_execution_mode_knobs() {
        // The snapshot tier obeys the same exclusion rule as the
        // fingerprint: a no-ff submit must hit the snapshot a
        // fast-forwarded run cached.
        let h = SimHandler;
        let a = JobSpec::new("HS", "bodytrack");
        let key = h.snapshot_key(&a).expect("warmup > 0 has a key");
        let mut no_ff = a.clone();
        no_ff.opts.insert("no-ff".into(), "true".into());
        assert_eq!(h.snapshot_key(&no_ff), Some(key));
        // Anything that changes the warmup prefix changes the key.
        let mut other_warm = a.clone();
        other_warm.warm += 1;
        assert_ne!(h.snapshot_key(&other_warm), Some(key));
        let mut other_scheme = a.clone();
        other_scheme.opts.insert("scheme".into(), "dr".into());
        assert_ne!(h.snapshot_key(&other_scheme), Some(key));
        // But the measured window does not (that is the whole point).
        let mut other_cycles = a.clone();
        other_cycles.cycles += 500;
        assert_eq!(h.snapshot_key(&other_cycles), Some(key));
    }

    #[test]
    fn fabric_knobs_are_identity_knobs_for_both_cache_tiers() {
        // Unlike `no-ff`, every `--chips`/`--fabric-*` option
        // changes what is simulated: a 2-chip job must never hit the
        // single-chip cache entry, and degrading a fabric link must
        // miss both the result cache and the snapshot tier.
        let h = SimHandler;
        let a = JobSpec::new("HS", "bodytrack");
        let fp = h.fingerprint(&a).unwrap();
        let key = h.snapshot_key(&a).expect("warmup > 0 has a key");
        let mut chips = a.clone();
        chips.opts.insert("chips".into(), "2".into());
        assert_ne!(h.fingerprint(&chips).unwrap(), fp);
        assert_ne!(h.snapshot_key(&chips), Some(key));
        let mut degraded = chips.clone();
        degraded
            .opts
            .insert("fabric-reply-latency".into(), "40".into());
        assert_ne!(
            h.fingerprint(&degraded).unwrap(),
            h.fingerprint(&chips).unwrap()
        );
        assert_ne!(h.snapshot_key(&degraded), h.snapshot_key(&chips));
        // Spelling the defaults out loud still lands on a distinct
        // entry from no fabric at all (a package is not a chip), but
        // execution-mode knobs on a fabric job stay excluded.
        let mut no_ff = chips.clone();
        no_ff.opts.insert("no-ff".into(), "true".into());
        assert_eq!(
            h.fingerprint(&no_ff).unwrap(),
            h.fingerprint(&chips).unwrap()
        );
        assert_eq!(h.snapshot_key(&no_ff), h.snapshot_key(&chips));
    }

    #[test]
    fn degenerate_fabric_jobs_are_rejected_as_bad_requests() {
        let h = SimHandler;
        let mut spec = JobSpec::new("HS", "bodytrack");
        spec.opts.insert("chips".into(), "2".into());
        spec.opts.insert("fabric-gateways".into(), "99".into());
        let err = h.fingerprint(&spec).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("memory nodes"), "{}", err.message);
        let mut zero = JobSpec::new("HS", "bodytrack");
        zero.opts.insert("chips".into(), "0".into());
        let err = h.fingerprint(&zero).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn unbuildable_jobs_are_bad_requests_to_fingerprint_and_run() {
        let h = SimHandler;
        for (opts, want) in [
            ("topology=dragonfly vnets=1+3", "every traffic class needs"),
            ("topology=dragonfly vnets=3+1", "every traffic class needs"),
            ("topology=mesh vnets=0+4", "every traffic class needs"),
            ("width=0", "--width must be at least 1"),
            ("mesh=4x1", "at least 2x2"),
            ("mesh=3x0", "at least 2x2"),
            ("mesh=300x300", "node id"),
            ("vnets=33+32", "at most 64"),
            ("layout=b mesh=5x10", "top row"),
            ("layout=c mesh=4x4", "memory block"),
            ("topology=dragonfly mesh=4x6", "dragonfly"),
        ] {
            let mut spec = JobSpec::new("BT", "ferret");
            for (k, v) in opts.split_whitespace().filter_map(|kv| kv.split_once('=')) {
                spec.opts.insert(k.into(), v.into());
            }
            let err = h.fingerprint(&spec).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{opts}");
            assert!(err.message.contains(want), "{opts}: {}", err.message);
            let deadline = Instant::now() + Duration::from_secs(60);
            let err = h.run(&spec, deadline).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{opts}");
        }
    }

    #[test]
    fn control_knobs_are_identity_knobs_for_both_cache_tiers() {
        // A controlled job simulates something different from an
        // uncontrolled one (the controller can rewrite the scheme
        // mid-run), so `--control` and every threshold knob must land
        // on distinct result-cache and snapshot-tier entries.
        let h = SimHandler;
        let a = JobSpec::new("HS", "bodytrack");
        let fp = h.fingerprint(&a).unwrap();
        let key = h.snapshot_key(&a).expect("warmup > 0 has a key");
        let mut ctl = a.clone();
        ctl.opts.insert("control".into(), "hysteresis".into());
        assert_ne!(h.fingerprint(&ctl).unwrap(), fp);
        assert_ne!(h.snapshot_key(&ctl), Some(key));
        // The no-op policy is byte-identical in behavior but still a
        // different simulated machine (the controller runs and logs).
        let mut noop = a.clone();
        noop.opts.insert("control".into(), "noop".into());
        assert_ne!(h.fingerprint(&noop).unwrap(), fp);
        assert_ne!(h.fingerprint(&noop).unwrap(), h.fingerprint(&ctl).unwrap());
        // Every threshold is part of the identity.
        let mut tuned = ctl.clone();
        tuned.opts.insert("control-enter".into(), "400".into());
        assert_ne!(h.fingerprint(&tuned).unwrap(), h.fingerprint(&ctl).unwrap());
        assert_ne!(h.snapshot_key(&tuned), h.snapshot_key(&ctl));
        // Degenerate combinations are rejected as bad requests, not
        // silently cached under a bogus identity.
        let mut orphan = a.clone();
        orphan.opts.insert("control-dwell".into(), "3".into());
        let err = h.fingerprint(&orphan).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("--control"), "{}", err.message);
    }

    #[test]
    fn jobs_without_warmup_have_no_snapshot_key() {
        let h = SimHandler;
        let mut spec = JobSpec::new("HS", "bodytrack");
        spec.warm = 0;
        assert_eq!(h.snapshot_key(&spec), None);
        let bad = JobSpec::new("NOPE", "bodytrack");
        assert_eq!(h.snapshot_key(&bad), None, "unresolvable spec: no key");
    }

    #[test]
    fn corrupt_snapshots_fall_back_to_a_full_run() {
        let h = SimHandler;
        let mut spec = JobSpec::new("HS", "bodytrack");
        spec.warm = 300;
        spec.cycles = 600;
        let deadline = Instant::now() + Duration::from_secs(120);
        let (cold, snap) = h.run_with_snapshot(&spec, deadline).unwrap();
        let snap = snap.expect("warmup produced a snapshot");
        // Resuming from the real snapshot is byte-identical...
        let resumed = h.run_from_snapshot(&spec, &snap, deadline).unwrap();
        assert_eq!(cold, resumed);
        // ...and garbage bytes quietly fall back to the cold path.
        let fallback = h.run_from_snapshot(&spec, b"junk", deadline).unwrap();
        assert_eq!(cold, fallback);
        // A *valid* snapshot for a different job must not be resumed.
        let mut other = spec.clone();
        other.warm = 400;
        let (_, other_snap) = h.run_with_snapshot(&other, deadline).unwrap();
        let guarded = h
            .run_from_snapshot(&spec, &other_snap.unwrap(), deadline)
            .unwrap();
        assert_eq!(cold, guarded, "identity mismatch falls back to cold run");
    }

    #[test]
    fn removed_shards_option_is_rejected_as_a_bad_request() {
        // A job from a client that still sends `shards` must fail
        // loudly, never run sequentially under a cache entry it did
        // not ask for.
        let h = SimHandler;
        let mut spec = JobSpec::new("HS", "bodytrack");
        spec.opts.insert("shards".into(), "2".into());
        let err = h.fingerprint(&spec).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(
            err.message.starts_with("unknown option --shards"),
            "{}",
            err.message
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        let err = h.run(&spec, deadline).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn serve_options_below_their_floor_are_usage_errors() {
        let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from)).unwrap();
        for (line, want) in [
            ("serve --workers 0", "--workers must be at least 1"),
            ("serve --queue 0", "--queue must be at least 1"),
        ] {
            let err = serve_config_from(&parse(line)).unwrap_err();
            assert_eq!(err.0, want, "{line}");
        }
        assert_eq!(
            serve_config_from(&parse("serve --workers 3"))
                .unwrap()
                .workers,
            3
        );
    }

    #[test]
    fn spec_from_args_collects_only_job_options() {
        let args = Args::parse(
            "submit --gpu MM --cpu canneal --warm 100 --cycles 400 --scheme dr \
             --seed 9 --addr 127.0.0.1:1 --op run"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let spec = spec_from_args(&args).unwrap();
        assert_eq!(spec.gpu, "MM");
        assert_eq!(spec.cpu, "canneal");
        assert_eq!(spec.warm, 100);
        assert_eq!(spec.cycles, 400);
        assert_eq!(spec.opts.get("scheme").map(String::as_str), Some("dr"));
        assert_eq!(spec.opts.get("seed").map(String::as_str), Some("9"));
        assert!(
            !spec.opts.contains_key("addr"),
            "transport options stay out"
        );
        assert!(!spec.opts.contains_key("op"));
    }

    #[test]
    fn deadline_in_the_past_times_out_without_simulating_far() {
        let h = SimHandler;
        let mut spec = JobSpec::new("HS", "bodytrack");
        spec.warm = 100_000;
        spec.cycles = 100_000;
        let err = h.run(&spec, Instant::now()).unwrap_err();
        assert_eq!(err.code, ErrorCode::Timeout);
    }
}
