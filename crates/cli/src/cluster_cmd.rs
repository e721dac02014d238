//! The cluster subcommands: `cluster` (run one node of a sharded
//! service) and `cluster-bench` (1-node vs N-node throughput).
//!
//! `clognet cluster` is `clognet serve` plus membership: the node joins
//! the peers named by `--peers`, shards job fingerprints over the
//! consistent-hash ring, replicates cache entries to ring successors,
//! and delegates overflow to the least-loaded alive peer. `clognet
//! serve --peers ...` routes here too, so a single-node deployment
//! grows into a cluster by adding one flag.

use crate::args::{Args, ParseArgsError};
use crate::serve_cmd::{serve_config_from, SimHandler, SERVE_KEYS};
use clognet_bench::runner::{run_jobs_with_state, timed};
use clognet_cluster::{ClusterConfig, ClusterHandle, ClusterNode};
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::server::{JobHandler, ServeConfig};
use clognet_serve::wire::JobSpec;
use clognet_telemetry::export::json_f64;
use std::sync::Arc;
use std::time::Duration;

/// Option keys only cluster nodes take; `cluster` and `serve --peers`
/// accept these plus [`SERVE_KEYS`].
pub const CLUSTER_KEYS: &[&str] = &[
    "advertise",
    "peers",
    "replicas",
    "vnodes",
    "heartbeat-ms",
    "suspect-after",
    "dead-after",
];

/// Split a `--peers a:1,b:2` list.
pub fn parse_peers(list: &str) -> Vec<String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// Build a [`ClusterConfig`] from `cluster` options.
///
/// # Errors
///
/// Non-numeric numeric options.
pub fn cluster_config_from(args: &Args) -> Result<ClusterConfig, ParseArgsError> {
    let default = ClusterConfig::default();
    Ok(ClusterConfig {
        serve: serve_config_from(args)?,
        advertise: args.get("advertise").map(String::from),
        seeds: args.get("peers").map(parse_peers).unwrap_or_default(),
        replicas: args.get_num("replicas", default.replicas)?,
        vnodes: args.get_num("vnodes", default.vnodes)?.max(1),
        heartbeat: Duration::from_millis(
            args.get_num("heartbeat-ms", default.heartbeat.as_millis() as u64)?
                .max(1),
        ),
        suspect_after: args.get_num("suspect-after", default.suspect_after)?,
        dead_after: args.get_num("dead-after", default.dead_after)?,
        backoff_cap: default.backoff_cap,
    })
}

/// `clognet cluster`: run one cluster node in the foreground until a
/// client sends `shutdown`.
///
/// # Errors
///
/// Bad options or a failed bind.
pub fn cmd_cluster(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&[SERVE_KEYS, CLUSTER_KEYS].concat())?;
    let cfg = cluster_config_from(args)?;
    let (workers, replicas, seeds) = (cfg.serve.workers, cfg.replicas, cfg.seeds.len());
    let node = ClusterNode::bind(cfg, Arc::new(SimHandler))
        .map_err(|e| ParseArgsError(format!("binding cluster socket: {e}")))?;
    eprintln!(
        "clognet-cluster node {} listening on {} ({workers} workers, {replicas} replicas, \
         {seeds} seed peers); stop with `clognet submit --op shutdown`",
        node.advertise(),
        node.local_addr(),
    );
    node.run()
        .map_err(|e| ParseArgsError(format!("cluster loop failed: {e}")))
}

fn bench_spec(warm: u64, cycles: u64, j: u64) -> JobSpec {
    let mut spec = JobSpec::new("HS", "bodytrack");
    spec.warm = warm;
    // Distinct cycle counts give every job its own fingerprint, so the
    // run measures simulation throughput, not cache hits.
    spec.cycles = cycles + j;
    spec
}

/// Boot `n` fully-meshed in-process nodes with the real simulator.
fn boot_bench_mesh(
    n: usize,
    workers: usize,
) -> Result<(Vec<String>, Vec<ClusterHandle>), ParseArgsError> {
    let cfg = ClusterConfig {
        serve: ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            ..ServeConfig::default()
        },
        heartbeat: Duration::from_millis(100),
        ..ClusterConfig::default()
    };
    let nodes: Vec<ClusterNode> = (0..n)
        .map(|_| {
            ClusterNode::bind(cfg.clone(), Arc::new(SimHandler))
                .map_err(|e| ParseArgsError(format!("binding bench node: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let addrs: Vec<String> = nodes.iter().map(|n| n.advertise().to_string()).collect();
    for node in &nodes {
        for addr in &addrs {
            if addr != node.advertise() {
                node.add_peer(addr);
            }
        }
    }
    let handles = nodes
        .into_iter()
        .map(|n| n.spawn().expect("spawn bench node"))
        .collect();
    Ok((addrs, handles))
}

/// Submit every job through round-robin gateways; panics propagate from
/// the runner if a submit fails outright.
///
/// Each driver thread keeps one persistent connection per gateway and
/// reuses it for every job it claims, so the measured span times job
/// throughput rather than per-job TCP setup (and its allocations).
fn drive(addrs: &[String], specs: &[JobSpec], clients: usize) -> usize {
    let jobs: Vec<(String, JobSpec)> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (addrs[i % addrs.len()].clone(), s.clone()))
        .collect();
    let policy = RetryPolicy {
        attempts: 10,
        base_ms: 10,
        cap_ms: 200,
        seed: 0xC1A5,
    };
    let results = run_jobs_with_state(
        jobs,
        clients,
        Vec::<(String, Client)>::new,
        |conns, (addr, spec)| {
            let fp = SimHandler.fingerprint(&spec).map_err(|e| e.message)?;
            let pos = match conns.iter().position(|(a, _)| *a == addr) {
                Some(pos) => pos,
                None => {
                    let client = Client::connect(&addr, &policy.for_fingerprint(fp))
                        .map_err(|e| e.to_string())?;
                    conns.push((addr.clone(), client));
                    conns.len() - 1
                }
            };
            conns[pos].1.submit(&spec).map_err(|e| {
                // Drop a connection that failed mid-conversation so the
                // next job on this gateway dials fresh instead of
                // inheriting a broken stream.
                conns.swap_remove(pos);
                e.to_string()
            })
        },
    );
    let mut ok = 0usize;
    for r in &results {
        match r {
            Ok(_) => ok += 1,
            Err(e) => eprintln!("cluster-bench job failed: {e}"),
        }
    }
    ok
}

fn shutdown_mesh(addrs: &[String], handles: Vec<ClusterHandle>) {
    let policy = RetryPolicy {
        attempts: 3,
        base_ms: 10,
        cap_ms: 50,
        seed: 0,
    };
    for addr in addrs {
        if let Ok(mut c) = Client::connect(addr, &policy) {
            let _ = c.shutdown();
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

/// `clognet cluster-bench`: time the same job matrix against a 1-node
/// and an N-node in-process cluster and emit a JSON report (the
/// committed `BENCH_cluster.json`).
///
/// # Errors
///
/// Bad options or bind failures.
pub fn cmd_cluster_bench(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&[
        "nodes", "jobs", "warm", "cycles", "workers", "clients", "out", "quick", "json",
    ])?;
    let nodes: usize = args.get_num("nodes", 3usize)?.max(2);
    let (dwarm, dcycles, djobs) = if args.flag("quick") {
        (200u64, 800u64, 8usize)
    } else {
        (2_000, 6_000, 24)
    };
    let warm = args.get_num("warm", dwarm)?;
    let cycles = args.get_num("cycles", dcycles)?;
    let jobs: usize = args.get_num("jobs", djobs)?.max(1);
    let workers: usize = args.get_num("workers", 2usize)?.max(1);
    let clients: usize = args.get_num("clients", 8usize)?.max(1);
    let specs: Vec<JobSpec> = (0..jobs as u64)
        .map(|j| bench_spec(warm, cycles, j))
        .collect();

    eprintln!("cluster-bench: {jobs} jobs x ~{cycles} cycles, {clients} clients");
    eprintln!("  leg 1/2: single node ({workers} workers)");
    let (single_addrs, single_handles) = boot_bench_mesh(1, workers)?;
    let (single_ok, single_wall) = timed(|| drive(&single_addrs, &specs, clients));
    shutdown_mesh(&single_addrs, single_handles);

    eprintln!("  leg 2/2: {nodes} nodes ({workers} workers each)");
    let (multi_addrs, multi_handles) = boot_bench_mesh(nodes, workers)?;
    let (multi_ok, multi_wall) = timed(|| drive(&multi_addrs, &specs, clients));
    shutdown_mesh(&multi_addrs, multi_handles);

    if single_ok != jobs || multi_ok != jobs {
        return Err(ParseArgsError(format!(
            "cluster-bench lost jobs: single {single_ok}/{jobs}, cluster {multi_ok}/{jobs}"
        )));
    }
    let speedup = if multi_wall > 0.0 {
        single_wall / multi_wall
    } else {
        0.0
    };
    let doc = format!(
        "{{\"bench\":\"cluster\",\"jobs\":{jobs},\"warm\":{warm},\"cycles\":{cycles},\
         \"clients\":{clients},\"workers_per_node\":{workers},\
         \"single\":{{\"nodes\":1,\"wall_s\":{},\"jobs_per_s\":{}}},\
         \"cluster\":{{\"nodes\":{nodes},\"wall_s\":{},\"jobs_per_s\":{}}},\
         \"speedup\":{}}}",
        json_f64(single_wall),
        json_f64(jobs as f64 / single_wall.max(1e-9)),
        json_f64(multi_wall),
        json_f64(jobs as f64 / multi_wall.max(1e-9)),
        json_f64(speedup),
    );
    if args.flag("json") || args.get("out").is_none() {
        println!("{doc}");
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| ParseArgsError(format!("writing {path}: {e}")))?;
        eprintln!("wrote cluster benchmark report to {path}");
    }
    eprintln!(
        "1 node: {single_wall:.2}s ({:.2} jobs/s); {nodes} nodes: {multi_wall:.2}s \
         ({:.2} jobs/s); speedup {speedup:.2}x",
        jobs as f64 / single_wall.max(1e-9),
        jobs as f64 / multi_wall.max(1e-9),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peers_lists_split_and_trim() {
        assert_eq!(
            parse_peers("a:1, b:2 ,,c:3"),
            vec!["a:1".to_string(), "b:2".to_string(), "c:3".to_string()]
        );
        assert!(parse_peers("").is_empty());
    }

    #[test]
    fn cluster_config_picks_up_every_knob() {
        let args = Args::parse(
            "cluster --addr 127.0.0.1:9401 --advertise 10.0.0.1:9401 \
             --peers 10.0.0.2:9401,10.0.0.3:9401 --replicas 2 --vnodes 32 \
             --heartbeat-ms 100 --suspect-after 3 --dead-after 6 --workers 4 \
             --queue 5 --cache 6 --snap-cache 7 --max-cycles 8 --timeout-ms 9 --drain-ms 10"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let cfg = cluster_config_from(&args).unwrap();
        assert_eq!(cfg.serve.addr, "127.0.0.1:9401");
        assert_eq!(cfg.advertise.as_deref(), Some("10.0.0.1:9401"));
        assert_eq!(cfg.seeds.len(), 2);
        assert_eq!(cfg.replicas, 2);
        assert_eq!(cfg.vnodes, 32);
        assert_eq!(cfg.heartbeat, Duration::from_millis(100));
        assert_eq!(cfg.suspect_after, 3);
        assert_eq!(cfg.dead_after, 6);
        assert_eq!(cfg.serve.workers, 4);
        assert_eq!(cfg.serve.queue_cap, 5);
        assert_eq!(cfg.serve.cache_cap, 6);
        assert_eq!(cfg.serve.snap_cache_cap, 7);
        assert_eq!(cfg.serve.max_job_cycles, 8);
        assert_eq!(cfg.serve.job_timeout, Duration::from_millis(9));
        assert_eq!(cfg.serve.drain_timeout, Duration::from_millis(10));
    }
}
