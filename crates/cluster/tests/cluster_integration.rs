//! End-to-end cluster tests with stub handlers: consistent-hash
//! forwarding, cache replication surviving a node death, load-aware
//! delegation when the owner is saturated, heartbeat lifecycle, gossip
//! convergence, peers that accept connections but never answer, and
//! the server behaviour a node shares with a single `Server` (drain,
//! `stats`) — all without dragging in `clognet-core`.

use clognet_cluster::{ClusterConfig, ClusterHandle, ClusterNode};
use clognet_proto::HashRing;
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::json::Json;
use clognet_serve::server::{JobError, JobHandler, ServeConfig, Server};
use clognet_serve::wire::JobSpec;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 20,
        base_ms: 5,
        cap_ms: 50,
        seed: 1,
    }
}

/// Deterministic stub: the fingerprint mixes cycle counts and names;
/// the report renders them. Byte-identity across nodes follows from
/// determinism alone. Optionally stalls until released, to saturate a
/// queue on purpose.
struct StubHandler {
    runs: Arc<AtomicUsize>,
    stall: Option<Arc<AtomicUsize>>,
}

impl StubHandler {
    fn new() -> StubHandler {
        StubHandler {
            runs: Arc::new(AtomicUsize::new(0)),
            stall: None,
        }
    }
}

impl JobHandler for StubHandler {
    fn fingerprint(&self, spec: &JobSpec) -> Result<u64, JobError> {
        let mut fp = spec.warm.wrapping_mul(31).wrapping_add(spec.cycles);
        for b in spec.gpu.bytes().chain(spec.cpu.bytes()) {
            fp = fp.wrapping_mul(131).wrapping_add(u64::from(b));
        }
        for (k, v) in &spec.opts {
            for b in k.bytes().chain(v.bytes()) {
                fp = fp.wrapping_mul(131).wrapping_add(u64::from(b));
            }
        }
        Ok(fp)
    }

    fn run(&self, spec: &JobSpec, deadline: Instant) -> Result<String, JobError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        if let Some(release) = &self.stall {
            while release.load(Ordering::SeqCst) == 0 {
                if Instant::now() >= deadline {
                    return Err(JobError {
                        code: clognet_serve::wire::ErrorCode::Timeout,
                        message: "deadline exceeded in stub".into(),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(format!(
            "{{\"gpu\":\"{}\",\"cpu\":\"{}\",\"cycles\":{}}}",
            spec.gpu, spec.cpu, spec.cycles
        ))
    }
}

/// A stub with the snapshot hooks wired up: the "snapshot" is a token
/// derived from the warmup prefix, and resumed runs are counted so
/// tests can prove which path executed. Reports are identical on both
/// paths, matching the real handler's byte-identity contract.
struct SnapStub {
    inner: StubHandler,
    resumed: Arc<AtomicUsize>,
    snap_len: usize,
}

impl SnapStub {
    fn new(snap_len: usize) -> SnapStub {
        SnapStub {
            inner: StubHandler::new(),
            resumed: Arc::new(AtomicUsize::new(0)),
            snap_len,
        }
    }

    fn prefix_token(spec: &JobSpec) -> Vec<u8> {
        format!("snap:{}:{}:{}", spec.gpu, spec.cpu, spec.warm).into_bytes()
    }
}

impl JobHandler for SnapStub {
    fn fingerprint(&self, spec: &JobSpec) -> Result<u64, JobError> {
        self.inner.fingerprint(spec)
    }

    fn run(&self, spec: &JobSpec, deadline: Instant) -> Result<String, JobError> {
        self.inner.run(spec, deadline)
    }

    fn snapshot_key(&self, spec: &JobSpec) -> Option<u64> {
        let mut key = spec.warm.wrapping_mul(977);
        for b in spec.gpu.bytes().chain(spec.cpu.bytes()) {
            key = key.wrapping_mul(131).wrapping_add(u64::from(b));
        }
        Some(key)
    }

    fn run_with_snapshot(
        &self,
        spec: &JobSpec,
        deadline: Instant,
    ) -> Result<(String, Option<Vec<u8>>), JobError> {
        let mut snap = Self::prefix_token(spec);
        snap.resize(snap.len().max(self.snap_len), 0);
        Ok((self.run(spec, deadline)?, Some(snap)))
    }

    fn run_from_snapshot(
        &self,
        spec: &JobSpec,
        snapshot: &[u8],
        deadline: Instant,
    ) -> Result<String, JobError> {
        assert!(
            snapshot.starts_with(&Self::prefix_token(spec)),
            "resumed from a snapshot of a different warmup prefix"
        );
        self.resumed.fetch_add(1, Ordering::SeqCst);
        self.run(spec, deadline)
    }
}

fn test_config() -> ClusterConfig {
    ClusterConfig {
        serve: ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 4,
            // Generous: stalled stub jobs are always released
            // explicitly, and the whole suite shares one core in CI —
            // a tight deadline here turns scheduler contention into a
            // spurious stub timeout.
            job_timeout: Duration::from_secs(120),
            drain_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        },
        heartbeat: Duration::from_millis(50),
        ..ClusterConfig::default()
    }
}

/// Boot `n` fully-meshed nodes on OS-assigned ports.
fn boot_mesh(n: usize, cfg: ClusterConfig) -> (Vec<String>, Vec<ClusterHandle>) {
    let nodes: Vec<ClusterNode> = (0..n)
        .map(|_| ClusterNode::bind(cfg.clone(), Arc::new(StubHandler::new())).expect("bind"))
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
        .map(|n| n.spawn().expect("spawn"))
        .collect();
    (addrs, handles)
}

fn shutdown_all(addrs: &[String], handles: Vec<ClusterHandle>) {
    for addr in addrs {
        if let Ok(mut c) = Client::connect(addr, &fast_retry()) {
            let _ = c.shutdown();
        }
    }
    for h in handles {
        h.join().expect("node exits cleanly");
    }
}

fn cluster_stats(addr: &str) -> Json {
    let mut c = Client::connect(addr, &fast_retry()).expect("connect");
    let line = c
        .request_line("{\"op\":\"cluster-stats\"}")
        .expect("cluster-stats");
    Json::parse(&line).expect("stats parse")
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {name} missing in {stats:?}"))
}

/// A spec whose fingerprint is owned by `addrs[want]` under the
/// cluster's ring view, found by scanning cycle counts. `tag` is baked
/// into the spec's options *before* the ownership search, so distinct
/// tags give distinct jobs that are still owned by the wanted node.
fn tagged_spec_owned_by(addrs: &[String], want: usize, tag: &str) -> JobSpec {
    let ring = HashRing::with_nodes(addrs, ClusterConfig::default().vnodes);
    let stub = StubHandler::new();
    for salt in 0..10_000u64 {
        let mut spec = JobSpec::new("HS", "bodytrack");
        spec.warm = 1;
        spec.cycles = 100 + salt;
        if !tag.is_empty() {
            spec.opts.insert("tag".into(), tag.to_string());
        }
        let fp = stub.fingerprint(&spec).unwrap();
        if ring.owner(fp) == Some(addrs[want].as_str()) {
            return spec;
        }
    }
    panic!("no spec found owned by {}", addrs[want]);
}

fn spec_owned_by(addrs: &[String], want: usize) -> JobSpec {
    tagged_spec_owned_by(addrs, want, "")
}

#[test]
fn any_gateway_returns_identical_bytes_and_forwards_count() {
    let (addrs, handles) = boot_mesh(3, test_config());
    // A job owned by node 2, submitted through every node in turn.
    let spec = spec_owned_by(&addrs, 2);
    let mut reports = Vec::new();
    for addr in &addrs {
        let mut c = Client::connect(addr, &fast_retry()).unwrap();
        let r = c.submit(&spec).unwrap();
        reports.push((r.fingerprint, r.report));
    }
    assert_eq!(reports[0], reports[1], "gateway 0 vs 1");
    assert_eq!(reports[1], reports[2], "gateway 1 vs 2");

    // The first submit was via node 0 — a forced forward to the owner.
    let s0 = cluster_stats(&addrs[0]);
    assert!(counter(&s0, "forwards_out") >= 1, "node 0 forwarded");
    let s2 = cluster_stats(&addrs[2]);
    assert!(counter(&s2, "forwards_in") >= 1, "owner received forwards");
    assert_eq!(
        counter(&s2, "jobs_completed"),
        1,
        "simulated exactly once cluster-wide"
    );
    shutdown_all(&addrs, handles);
}

#[test]
fn replication_survives_owner_death() {
    let (addrs, handles) = boot_mesh(3, test_config());
    let spec = spec_owned_by(&addrs, 1);
    let fp = StubHandler::new().fingerprint(&spec).unwrap();
    let ring = HashRing::with_nodes(&addrs, ClusterConfig::default().vnodes);
    let placement: Vec<String> = ring
        .placement(fp, 2)
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(placement[0], addrs[1]);
    let replica = placement[1].clone();

    // Gateway: a non-placement node if one exists, else the replica.
    let gateway = addrs
        .iter()
        .find(|a| !placement.contains(a))
        .unwrap_or(&replica)
        .clone();
    let first = Client::connect(&gateway, &fast_retry())
        .unwrap()
        .submit(&spec)
        .unwrap();
    assert!(!first.cache_hit);

    // The replica holds a copy (synchronous replication).
    let rs = cluster_stats(&replica);
    assert!(
        rs.get("cache_entries").and_then(Json::as_u64).unwrap() >= 1,
        "replica stored a copy: {rs:?}"
    );

    // Kill the owner outright.
    let owner_idx = addrs.iter().position(|a| *a == placement[0]).unwrap();
    let mut kept = Vec::new();
    let mut owner_handle = None;
    for (i, h) in handles.into_iter().enumerate() {
        if i == owner_idx {
            owner_handle = Some(h);
        } else {
            kept.push(h);
        }
    }
    Client::connect(&addrs[owner_idx], &fast_retry())
        .unwrap()
        .shutdown()
        .unwrap();
    owner_handle.unwrap().join().unwrap();

    // Resubmit through a survivor that is NOT the replica: the gateway
    // walks the placement chain past the dead owner and the replica
    // answers from its copy — byte-identical, zero re-simulation.
    let second_gateway = addrs
        .iter()
        .rfind(|a| **a != placement[0] && **a != replica)
        .unwrap_or(&replica)
        .clone();
    let second = Client::connect(&second_gateway, &fast_retry())
        .unwrap()
        .submit(&spec)
        .unwrap();
    assert_eq!(second.report, first.report, "bytes survive the owner");
    assert_eq!(second.fingerprint, first.fingerprint);
    assert!(second.cache_hit, "served from the replicated entry");

    let survivors: Vec<String> = addrs
        .iter()
        .filter(|a| **a != addrs[owner_idx])
        .cloned()
        .collect();
    shutdown_all(&survivors, kept);
}

/// Boot a 2-node mesh whose handlers implement the snapshot hooks,
/// returning each node's resumed-run counter.
fn boot_snap_pair(snap_len: usize) -> (Vec<String>, Vec<ClusterHandle>, Vec<Arc<AtomicUsize>>) {
    let cfg = test_config();
    let stubs: Vec<SnapStub> = (0..2).map(|_| SnapStub::new(snap_len)).collect();
    let resumed: Vec<Arc<AtomicUsize>> = stubs.iter().map(|s| Arc::clone(&s.resumed)).collect();
    let nodes: Vec<ClusterNode> = stubs
        .into_iter()
        .map(|s| ClusterNode::bind(cfg.clone(), Arc::new(s)).expect("bind"))
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
        .map(|n| n.spawn().expect("spawn"))
        .collect();
    (addrs, handles, resumed)
}

#[test]
fn warmup_snapshots_replicate_alongside_results() {
    let (addrs, handles, resumed) = boot_snap_pair(0);

    // Job A, owned and executed by node 0: its warmup snapshot is
    // cached locally and replicated to node 1 with the result.
    let spec_a = spec_owned_by(&addrs, 0);
    Client::connect(&addrs[0], &fast_retry())
        .unwrap()
        .submit(&spec_a)
        .unwrap();
    let s0 = cluster_stats(&addrs[0]);
    assert!(counter(&s0, "snap_replications_sent") >= 1, "{s0:?}");
    let s1 = cluster_stats(&addrs[1]);
    assert!(
        counter(&s1, "snaps_stored") >= 1,
        "replica holds it: {s1:?}"
    );

    // Job B: same warmup prefix, different measured window, owned by
    // node 1 — which never simulated the warmup itself, yet resumes
    // from the snapshot node 0 replicated over.
    let spec_b = spec_owned_by(&addrs, 1);
    assert_ne!(spec_a, spec_b);
    let direct = Client::connect(&addrs[1], &fast_retry())
        .unwrap()
        .submit(&spec_b)
        .unwrap();
    assert_eq!(resumed[1].load(Ordering::SeqCst), 1, "node 1 resumed");
    assert_eq!(resumed[0].load(Ordering::SeqCst), 0);
    let s1 = cluster_stats(&addrs[1]);
    assert_eq!(counter(&s1, "jobs_resumed_from_snapshot"), 1, "{s1:?}");

    // The resumed report is the same bytes every gateway serves.
    let via_peer = Client::connect(&addrs[0], &fast_retry())
        .unwrap()
        .submit(&spec_b)
        .unwrap();
    assert_eq!(via_peer.report, direct.report);
    shutdown_all(&addrs, handles);
}

#[test]
fn oversized_snapshots_are_skipped_not_replicated() {
    use clognet_serve::wire::MAX_FRAME_BYTES;
    // Snapshots whose hex form would exceed a frame stay local; the
    // result itself still replicates.
    let (addrs, handles, _) = boot_snap_pair(MAX_FRAME_BYTES / 2);
    let spec = spec_owned_by(&addrs, 0);
    Client::connect(&addrs[0], &fast_retry())
        .unwrap()
        .submit(&spec)
        .unwrap();
    let s0 = cluster_stats(&addrs[0]);
    assert!(counter(&s0, "snap_replications_skipped") >= 1, "{s0:?}");
    assert_eq!(counter(&s0, "snap_replications_sent"), 0);
    let s1 = cluster_stats(&addrs[1]);
    assert_eq!(counter(&s1, "snaps_stored"), 0, "{s1:?}");
    assert!(
        s1.get("cache_entries").and_then(Json::as_u64).unwrap() >= 1,
        "result replication unaffected: {s1:?}"
    );
    shutdown_all(&addrs, handles);
}

#[test]
fn saturated_owner_delegates_to_least_loaded_peer() {
    // Owner saturation needs a stall; build the mesh by hand so node 0
    // gets the stalling handler.
    let release = Arc::new(AtomicUsize::new(0));
    let runs0 = Arc::new(AtomicUsize::new(0));
    let cfg = {
        let mut c = test_config();
        c.serve.queue_cap = 1;
        c
    };
    let stalling = StubHandler {
        runs: Arc::clone(&runs0),
        stall: Some(Arc::clone(&release)),
    };
    let a = ClusterNode::bind(cfg.clone(), Arc::new(stalling)).unwrap();
    let b = ClusterNode::bind(cfg.clone(), Arc::new(StubHandler::new())).unwrap();
    let addrs = vec![a.advertise().to_string(), b.advertise().to_string()];
    a.add_peer(&addrs[1]);
    b.add_peer(&addrs[0]);
    let handles = vec![a.spawn().unwrap(), b.spawn().unwrap()];

    // Delegation requires the peer to be Alive — wait for heartbeats.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = cluster_stats(&addrs[0]);
        let alive = s
            .get("peers")
            .and_then(Json::as_arr)
            .map(|ps| {
                ps.iter()
                    .filter(|p| p.get("status").and_then(Json::as_str) == Some("alive"))
                    .count()
            })
            .unwrap_or(0);
        if alive >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "peer never turned alive: {s:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Saturate node 0: one job running (stalled), one queued. Jobs are
    // owned by node 0 so the forward targets it deterministically. The
    // two submits are staggered — job A must be *running* (popped off
    // the channel) before job B is sent, or B finds the one-slot
    // channel still holding A and gets delegated early instead of
    // queued; `queue_depth` counts running + queued (it only drops on
    // completion), so a full node here reads 2.
    let queue_depth = |addr: &str| {
        let mut c = Client::connect(addr, &fast_retry()).unwrap();
        let line = c.request_line("{\"op\":\"stats\"}").unwrap();
        Json::parse(&line)
            .ok()
            .and_then(|s| s.get("queue_depth").and_then(Json::as_u64))
            .unwrap_or(0)
    };
    let submit_stalled = |i: usize| {
        let spec = tagged_spec_owned_by(&addrs, 0, &format!("stall{i}"));
        let addr = addrs[0].clone();
        std::thread::spawn(move || {
            Client::connect(&addr, &fast_retry())
                .unwrap()
                .submit(&spec)
                .unwrap()
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stuck = Vec::new();
    stuck.push(submit_stalled(0));
    while runs0.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "stalled job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    stuck.push(submit_stalled(1));
    while queue_depth(&addrs[0]) < 2 {
        assert!(Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(2));
    }

    // A third owned job arrives while the queue is full: the owner
    // must delegate to node 1 rather than reject.
    let spec = tagged_spec_owned_by(&addrs, 0, "overflow");
    let r = Client::connect(&addrs[0], &fast_retry())
        .unwrap()
        .submit(&spec)
        .unwrap();
    assert!(!r.cache_hit);

    let s0 = cluster_stats(&addrs[0]);
    assert!(
        counter(&s0, "delegations_out") >= 1,
        "owner delegated: {s0:?}"
    );
    assert!(
        !s0.get("recent_delegations")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty(),
        "delegation log records the fingerprint"
    );
    let s1 = cluster_stats(&addrs[1]);
    assert!(counter(&s1, "delegations_in") >= 1, "peer executed: {s1:?}");

    release.store(1, Ordering::SeqCst);
    for t in stuck {
        t.join().unwrap();
    }
    shutdown_all(&addrs, handles);
}

#[test]
fn gossip_spreads_membership_beyond_seeds() {
    // A chain, not a mesh: B knows nobody, A seeds B, C seeds A. Within
    // a few heartbeats everyone must know everyone.
    let cfg = test_config();
    let b = ClusterNode::bind(cfg.clone(), Arc::new(StubHandler::new())).unwrap();
    let a = ClusterNode::bind(cfg.clone(), Arc::new(StubHandler::new())).unwrap();
    a.add_peer(b.advertise());
    let c = ClusterNode::bind(cfg.clone(), Arc::new(StubHandler::new())).unwrap();
    c.add_peer(a.advertise());
    let addrs = vec![
        a.advertise().to_string(),
        b.advertise().to_string(),
        c.advertise().to_string(),
    ];
    let handles = vec![a.spawn().unwrap(), b.spawn().unwrap(), c.spawn().unwrap()];

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let complete = addrs.iter().all(|addr| {
            let s = cluster_stats(addr);
            s.get("ring")
                .and_then(Json::as_arr)
                .map(|r| r.len() == 3)
                .unwrap_or(false)
        });
        if complete {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gossip never converged: {:?}",
            addrs.iter().map(|a| cluster_stats(a)).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    shutdown_all(&addrs, handles);
}

#[test]
fn dead_peers_leave_the_ring_and_rejoin_is_possible() {
    let mut cfg = test_config();
    cfg.heartbeat = Duration::from_millis(30);
    cfg.backoff_cap = Duration::from_millis(200);
    let (addrs, handles) = boot_mesh(2, cfg);

    // Kill node 1; node 0's heartbeats must demote it to dead and drop
    // it from the ring.
    let mut iter = handles.into_iter();
    let h0 = iter.next().unwrap();
    let h1 = iter.next().unwrap();
    Client::connect(&addrs[1], &fast_retry())
        .unwrap()
        .shutdown()
        .unwrap();
    h1.join().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = cluster_stats(&addrs[0]);
        let ring_len = s.get("ring").and_then(Json::as_arr).unwrap().len();
        let status = s.get("peers").and_then(Json::as_arr).unwrap()[0]
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if ring_len == 1 && status == "dead" {
            break;
        }
        assert!(Instant::now() < deadline, "peer never died: {s:?}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // With the peer gone, node 0 owns everything and serves locally.
    let spec = spec_owned_by(&addrs, 1);
    let r = Client::connect(&addrs[0], &fast_retry())
        .unwrap()
        .submit(&spec)
        .unwrap();
    assert!(!r.report.is_empty());

    shutdown_all(&addrs[..1], vec![h0]);
}

#[test]
fn gateway_drain_waits_for_routed_runs() {
    // The owner stalls its job until released; the gateway is told to
    // shut down while its routed run is still unanswered.
    let release = Arc::new(AtomicUsize::new(0));
    let owner_runs = Arc::new(AtomicUsize::new(0));
    let cfg = test_config();
    let gateway = ClusterNode::bind(cfg.clone(), Arc::new(StubHandler::new())).unwrap();
    let owner = ClusterNode::bind(
        cfg,
        Arc::new(StubHandler {
            runs: Arc::clone(&owner_runs),
            stall: Some(Arc::clone(&release)),
        }),
    )
    .unwrap();
    let addrs = vec![
        gateway.advertise().to_string(),
        owner.advertise().to_string(),
    ];
    gateway.add_peer(&addrs[1]);
    owner.add_peer(&addrs[0]);
    let (gateway, owner) = (gateway.spawn().unwrap(), owner.spawn().unwrap());

    let spec = spec_owned_by(&addrs, 1);
    let answered = Arc::new(AtomicBool::new(false));
    let routed = {
        let (addr, answered) = (addrs[0].clone(), Arc::clone(&answered));
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, &fast_retry()).unwrap();
            let reply = c.submit(&spec);
            // Flagged while the connection is still open: the gateway's
            // drain cannot see this connection close before the flag.
            answered.store(true, Ordering::SeqCst);
            reply
        })
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while owner_runs.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "routed job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    Client::connect(&addrs[0], &fast_retry())
        .unwrap()
        .shutdown()
        .unwrap();
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(1500));
        release.store(1, Ordering::SeqCst);
    });
    gateway.join().unwrap();
    assert!(
        answered.load(Ordering::SeqCst),
        "the gateway exited before relaying its routed run"
    );
    let reply = routed.join().unwrap().expect("routed run answered");
    assert!(!reply.cache_hit);
    releaser.join().unwrap();
    shutdown_all(&addrs[1..], vec![owner]);
}

#[test]
fn node_stats_have_every_key_of_a_single_server() {
    let single = Server::bind(test_config().serve, Arc::new(StubHandler::new())).unwrap();
    let single_addr = single.local_addr().to_string();
    let single_handle = single.spawn().unwrap();
    let (addrs, handles) = boot_mesh(1, test_config());
    let stats = |addr: &str| {
        let mut c = Client::connect(addr, &fast_retry()).unwrap();
        Json::parse(&c.stats().unwrap()).unwrap()
    };
    let (single_stats, node_stats) = (stats(&single_addr), stats(&addrs[0]));
    let Json::Obj(keys) = &single_stats else {
        panic!("stats is not an object: {single_stats:?}");
    };
    for key in keys.keys() {
        assert!(
            node_stats.get(key).is_some(),
            "cluster node stats lack `{key}`: {node_stats:?}"
        );
    }
    let requests = node_stats
        .get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("requests_total"))
        .and_then(Json::as_u64);
    assert!(requests >= Some(1), "{node_stats:?}");
    shutdown_all(&[single_addr], vec![single_handle]);
    shutdown_all(&addrs, handles);
}

/// A peer that completes the TCP handshake but never answers, like a
/// stopped process whose socket is still bound: a listener that never
/// accepts.
fn hung_peer() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

#[test]
fn hung_peers_turn_dead() {
    let (_hung, hung_addr) = hung_peer();
    let mut cfg = test_config();
    cfg.heartbeat = Duration::from_millis(30);
    cfg.dead_after = 2;
    cfg.backoff_cap = Duration::from_millis(200);
    let node = ClusterNode::bind(cfg, Arc::new(StubHandler::new())).unwrap();
    node.add_peer(&hung_addr);
    let addr = node.advertise().to_string();
    let handle = node.spawn().unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = cluster_stats(&addr);
        let status = s.get("peers").and_then(Json::as_arr).unwrap()[0]
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if status == "dead" {
            break;
        }
        assert!(Instant::now() < deadline, "hung peer never died: {s:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
    shutdown_all(&[addr], vec![handle]);
}

#[test]
fn runs_routed_to_a_hung_peer_fall_back_to_local_execution() {
    let (_hung, hung_addr) = hung_peer();
    let mut cfg = test_config();
    cfg.serve.job_timeout = Duration::from_secs(1);
    // Keep the hung peer on the ring, so the run is routed to it.
    cfg.dead_after = 1_000;
    cfg.backoff_cap = Duration::from_millis(200);
    let node = ClusterNode::bind(cfg, Arc::new(StubHandler::new())).unwrap();
    node.add_peer(&hung_addr);
    let addr = node.advertise().to_string();
    let handle = node.spawn().unwrap();

    let spec = spec_owned_by(&[addr.clone(), hung_addr], 1);
    let mut c = Client::connect(&addr, &fast_retry()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let r = c.submit(&spec).expect("answered despite the hung owner");
    assert!(!r.cache_hit);
    let s = cluster_stats(&addr);
    assert_eq!(counter(&s, "forwards_out"), 1, "{s:?}");
    assert_eq!(counter(&s, "fallback_local"), 1, "{s:?}");
    assert_eq!(counter(&s, "jobs_completed"), 1, "{s:?}");
    drop(c);
    shutdown_all(&[addr], vec![handle]);
}
