//! The ISSUE-6 acceptance property, end to end with the *real*
//! simulation handler: a 3-node cluster returns byte-identical reports
//! for the same fingerprint no matter which node is asked — including
//! through a forced forward (gateway != owner) and through a replicated
//! cache read after the owning node is killed. The reference bytes are
//! an inline `clognet run --json` of the same job.

use clognet_cli::config::config_from;
use clognet_cli::driver::measure;
use clognet_cli::serve_cmd::SimHandler;
use clognet_cli::{report, Args};
use clognet_cluster::{ClusterConfig, ClusterHandle, ClusterNode};
use clognet_proto::{HashRing, DEFAULT_VNODES};
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::server::{JobHandler, ServeConfig};
use clognet_serve::wire::JobSpec;
use std::sync::Arc;
use std::time::Duration;

const WARM: u64 = 500;
const CYCLES: u64 = 1_500;

fn retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 20,
        base_ms: 5,
        cap_ms: 50,
        seed: 1,
    }
}

fn spec(gpu: &str, cpu: &str, scheme: &str) -> JobSpec {
    let mut s = JobSpec::new(gpu, cpu);
    s.warm = WARM;
    s.cycles = CYCLES;
    s.opts.insert("scheme".into(), scheme.into());
    s
}

/// The bytes `clognet run --json` would print for the same job.
fn inline_report(spec: &JobSpec) -> String {
    let args = Args::from_opts("run", &spec.opts);
    let cfg = config_from(&args).expect("valid job options");
    let scheme = cfg.scheme;
    let r = measure(cfg, &spec.gpu, &spec.cpu, spec.warm, spec.cycles, true);
    report::report_json(scheme, &r)
}

/// Boot a fully-meshed 3-node cluster with the real simulator.
fn boot_cluster() -> (Vec<String>, Vec<ClusterHandle>) {
    let cfg = ClusterConfig {
        serve: ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        },
        heartbeat: Duration::from_millis(50),
        ..ClusterConfig::default()
    };
    let nodes: Vec<ClusterNode> = (0..3)
        .map(|_| ClusterNode::bind(cfg.clone(), Arc::new(SimHandler)).expect("bind node"))
        .collect();
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
        .map(|n| n.spawn().expect("spawn node"))
        .collect();
    (addrs, handles)
}

#[test]
fn three_node_cluster_serves_identical_bytes_through_forwards_and_owner_death() {
    let (addrs, handles) = boot_cluster();
    let job = spec("HS", "bodytrack", "dr");
    let fp = SimHandler.fingerprint(&job).expect("spec resolves");

    // The same ring the nodes build: owner + 1 replica (the default).
    let ring = HashRing::with_nodes(addrs.iter().map(String::as_str), DEFAULT_VNODES);
    let placement: Vec<String> = ring
        .placement(fp, 2)
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(placement.len(), 2, "3 live nodes give owner + replica");
    let owner = placement[0].clone();
    let bystander = addrs
        .iter()
        .find(|a| !placement.contains(a))
        .expect("3 nodes, 2 placed: one bystander")
        .clone();

    // Property: every gateway returns the same bytes as the inline run.
    // Two of the three gateways are not the owner, so this exercises
    // forced forwards, and the bystander-as-gateway is a full
    // gateway -> owner -> reply relay.
    let expected = inline_report(&job);
    let mut results = Vec::new();
    for addr in &addrs {
        let mut client = Client::connect(addr, &retry().for_fingerprint(fp)).unwrap();
        let result = client.submit(&job).unwrap();
        assert_eq!(
            result.report, expected,
            "report via gateway {addr} diverged from the inline run"
        );
        results.push(result);
    }
    assert!(
        !results[0].cache_hit,
        "first submission anywhere simulates fresh"
    );
    assert!(
        results[1..].iter().all(|r| r.cache_hit),
        "resubmissions through other gateways are cache hits"
    );
    assert!(
        results
            .iter()
            .all(|r| r.fingerprint == results[0].fingerprint),
        "one job, one fingerprint, every gateway"
    );

    // Kill the owner. Its cache dies with it; the replica's copy and
    // the forward chain must keep the bytes available immediately —
    // no waiting for failure detection.
    let mut owner_client = Client::connect(&owner, &retry()).unwrap();
    owner_client.shutdown().unwrap();
    let mut survivors = Vec::new();
    for (addr, handle) in addrs.iter().zip(handles) {
        if *addr == owner {
            handle.join().expect("owner drains cleanly");
        } else {
            survivors.push((addr.clone(), handle));
        }
    }

    let mut client = Client::connect(&bystander, &retry().for_fingerprint(fp)).unwrap();
    let after_death = client.submit(&job).unwrap();
    assert!(
        after_death.cache_hit,
        "replicated entry survives the owner: resubmission is a cache hit"
    );
    assert_eq!(
        after_death.report, expected,
        "post-death bytes still match the inline run"
    );

    for (addr, handle) in survivors {
        let mut c = Client::connect(&addr, &retry()).unwrap();
        c.shutdown().unwrap();
        handle.join().expect("survivor drains cleanly");
    }
}
