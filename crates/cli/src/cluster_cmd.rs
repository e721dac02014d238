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
use crate::bench_doc::{BenchDoc, Leg};
use crate::serve_cmd::{serve_config_from, SimHandler, SERVE_KEYS};
use clognet_bench::runner::{run_jobs_with_state, timed};
use clognet_cluster::{ClusterConfig, ClusterHandle, ClusterNode};
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::server::{JobHandler, ServeConfig};
use clognet_serve::wire::JobSpec;
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
/// Non-numeric numeric options, and counts below their floor.
pub fn cluster_config_from(args: &Args) -> Result<ClusterConfig, ParseArgsError> {
    let default = ClusterConfig::default();
    let beat_ms = default.heartbeat.as_millis() as u64;
    Ok(ClusterConfig {
        serve: serve_config_from(args)?,
        advertise: args.get("advertise").map(String::from),
        seeds: args.get("peers").map(parse_peers).unwrap_or_default(),
        replicas: args.get_num("replicas", default.replicas)?,
        vnodes: args.get_at_least("vnodes", default.vnodes, 1)?,
        heartbeat: Duration::from_millis(args.get_at_least("heartbeat-ms", beat_ms, 1)?),
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

/// Submit every job through round-robin gateways and collect the
/// report documents in job order; panics propagate from the runner if a
/// submit fails outright.
///
/// Each driver thread keeps one persistent connection per gateway and
/// reuses it for every job it claims, so the measured span times job
/// throughput rather than per-job TCP setup (and its allocations).
fn drive(addrs: &[String], specs: &[JobSpec], clients: usize) -> Vec<Result<String, String>> {
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
    run_jobs_with_state(
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
            match conns[pos].1.submit(&spec) {
                Ok(r) => Ok(r.report),
                Err(e) => {
                    // Drop a connection that failed mid-conversation so
                    // the next job on this gateway dials fresh instead
                    // of inheriting a broken stream.
                    conns.swap_remove(pos);
                    Err(e.to_string())
                }
            }
        },
    )
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

/// The `clognet cluster-bench` document over its two legs (1 node and
/// `nodes` nodes), which ran the same jobs and so must report the same
/// bytes.
pub(crate) fn cluster_doc(
    single: Leg,
    cluster: Leg,
    nodes: usize,
    warm: u64,
    cycles: u64,
) -> BenchDoc {
    let speedup = cluster.speedup_over(&single);
    let title = format!("cluster throughput: the same jobs on 1 node and on {nodes} nodes");
    let mut doc = BenchDoc::new("clognet cluster-bench", title, warm, cycles);
    doc.push_pair(single, cluster.metric("speedup", format!("{speedup:.3}")));
    doc
}

/// `clognet cluster-bench`: time the same job matrix against a 1-node
/// and an N-node in-process cluster and emit the bench document (the
/// committed `BENCH_cluster.json`).
///
/// # Errors
///
/// Bad options, bind failures, or a job neither cluster answered.
pub fn cmd_cluster_bench(args: &Args) -> Result<(), ParseArgsError> {
    args.reject_unknown(&[
        "nodes", "jobs", "warm", "cycles", "workers", "clients", "out", "quick", "json",
    ])?;
    let nodes = args.get_at_least("nodes", 3usize, 2)?;
    let (dwarm, dcycles, djobs) = if args.flag("quick") {
        (200u64, 800u64, 8usize)
    } else {
        (2_000, 6_000, 24)
    };
    let warm = args.get_num("warm", dwarm)?;
    let cycles = args.get_num("cycles", dcycles)?;
    let jobs = args.get_at_least("jobs", djobs, 1)?;
    let workers = args.get_at_least("workers", 2usize, 1)?;
    let clients = args.get_at_least("clients", 8usize, 1)?;
    let specs: Vec<JobSpec> = (0..jobs as u64)
        .map(|j| bench_spec(warm, cycles, j))
        .collect();
    let sim_cycles = specs.iter().map(|s| s.warm + s.cycles).sum();

    eprintln!("cluster-bench: {jobs} jobs x ~{cycles} cycles, {clients} clients");
    let leg = |label: &str, n: usize| {
        let (addrs, handles) = boot_bench_mesh(n, workers)?;
        let (results, wall) = timed(|| drive(&addrs, &specs, clients));
        shutdown_mesh(&addrs, handles);
        let mut reports = Vec::with_capacity(jobs);
        for r in results {
            match r {
                Ok(report) => reports.push(report),
                Err(e) => eprintln!("cluster-bench job failed: {e}"),
            }
        }
        if reports.len() != jobs {
            return Err(ParseArgsError(format!(
                "cluster-bench lost jobs: {label} {}/{jobs}",
                reports.len()
            )));
        }
        let jobs_per_s = jobs as f64 / wall.max(1e-9);
        Ok(Leg::new(label, clients, vec![wall], sim_cycles, &reports)
            .metric("nodes", n)
            .metric("workers_per_node", workers)
            .metric("jobs_per_s", format!("{jobs_per_s:.3}")))
    };
    eprintln!("  leg 1/2: single node ({workers} workers)");
    let single = leg("single", 1)?;
    eprintln!("  leg 2/2: {nodes} nodes ({workers} workers each)");
    let cluster = leg("cluster", nodes)?;
    cluster_doc(single, cluster, nodes, warm, cycles).emit(args)
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
