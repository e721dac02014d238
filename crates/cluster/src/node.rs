//! A cluster node: a `clognet-serve` [`Server`] with a routing layer.
//!
//! The server runs, caches and drains jobs exactly as a single node
//! does; [`ClusterNode`] installs a [`Router`] on it that adds only the
//! cluster machinery:
//!
//! * **Routing** — a `run` that misses the local cache executes here
//!   when this node owns the fingerprint on the consistent-hash ring
//!   ([`clognet_proto::HashRing`]), and otherwise is forwarded to the
//!   owner (falling back through the replica set, then to local
//!   execution) with the owner's response line relayed **verbatim** —
//!   which is what keeps reports byte-identical no matter which node a
//!   client asks.
//! * **Replication** — after computing a miss, a node synchronously
//!   copies the cache entry to the fingerprint's other placement
//!   members (`replicas` successors), so a resubmission survives the
//!   owner's death. When the job produced a warmup snapshot, it rides
//!   along (`replicate-snap`), so a peer can resume a related job
//!   mid-flight instead of re-simulating the warmup.
//! * **Delegation** — an owner whose queue is full does not bounce the
//!   job back as `overloaded`; with hops remaining (`ttl > 0`) it
//!   delegates to the least-loaded alive peer, and only a saturated
//!   delegate (`ttl == 0`) rejects.
//! * **Membership** — a background heartbeat loop probes peers with
//!   `peers` frames, gossips the member list, and walks them through
//!   the [`PeerStatus`] lifecycle.
//!
//! Every node-to-node read is bounded, so a peer that accepts
//! connections but never answers counts as failed instead of stalling
//! the caller: heartbeats and replication frames wait at most
//! `backoff_cap`, and job relays one [`RESULT_GRACE`] longer than the
//! peer's own limit on the job.
//!
//! The response a client sees is always one of the standard
//! [`clognet_serve::wire`] responses; clusters and single nodes are
//! indistinguishable on the wire except for the extra ops.
//!
//! [`PeerStatus`]: crate::membership::PeerStatus

use crate::membership::{Membership, PeerView};
use clognet_proto::{fingerprint_hex, FxHasher, HashRing, DEFAULT_VNODES};
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::json::Json;
use clognet_serve::server::{
    Job, JobHandler, Local, Router, ServeConfig, Server, ServerHandle, RESULT_GRACE,
};
use clognet_serve::wire::{
    error_response, ok_response, parse_forward, parse_peers, parse_replicate, parse_replicate_snap,
    parse_response, peers_line, peers_response, replicate_line, replicate_snap_line, ErrorCode,
    MAX_FRAME_BYTES,
};
use clognet_telemetry::export::{json_escape, json_f64};
use std::collections::VecDeque;
use std::hash::Hasher;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fingerprints remembered in the delegation log exposed by
/// `cluster-stats`.
const DELEGATION_LOG_CAP: usize = 32;

/// Cluster tuning knobs, wrapping the single-node [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The embedded single-node server configuration (bind address,
    /// workers, queue and cache capacity, job limits).
    pub serve: ServeConfig,
    /// The address peers should use to reach this node — its ring
    /// identity. Defaults to the bound address, which is only correct
    /// when everyone shares a loopback/LAN view of it.
    pub advertise: Option<String>,
    /// Peers to contact on startup (any subset of the cluster; gossip
    /// fills in the rest).
    pub seeds: Vec<String>,
    /// Cache copies held *besides* the owner's (1 = owner + successor).
    pub replicas: usize,
    /// Virtual nodes per member on the hash ring; every node and every
    /// ring-aware client must agree.
    pub vnodes: usize,
    /// Steady-state heartbeat probe interval.
    pub heartbeat: Duration,
    /// Consecutive probe failures before a peer turns suspect.
    pub suspect_after: u32,
    /// Consecutive probe failures before a peer turns dead (leaves the
    /// ring).
    pub dead_after: u32,
    /// Probe backoff ceiling for unresponsive peers; also how long a
    /// heartbeat or replication frame waits for the peer's answer.
    pub backoff_cap: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            serve: ServeConfig::default(),
            advertise: None,
            seeds: Vec::new(),
            replicas: 1,
            vnodes: DEFAULT_VNODES,
            heartbeat: Duration::from_millis(250),
            suspect_after: 2,
            dead_after: 4,
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// The `cluster-stats` counters this layer owns; `jobs_completed` and
/// `jobs_resumed_from_snapshot` come from the server's registry.
#[derive(Default)]
struct Counters {
    forwards_out: AtomicU64,
    forwards_in: AtomicU64,
    delegations_out: AtomicU64,
    delegations_in: AtomicU64,
    replications_sent: AtomicU64,
    replication_failures: AtomicU64,
    replicas_stored: AtomicU64,
    snap_replications_sent: AtomicU64,
    snap_replications_skipped: AtomicU64,
    snaps_stored: AtomicU64,
    forward_cache_hits: AtomicU64,
    fallback_local: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The routing layer a [`ClusterNode`] installs on its server.
struct ClusterRouter {
    cfg: ClusterConfig,
    advertise: String,
    members: Mutex<Membership>,
    counters: Counters,
    recent_delegations: Mutex<VecDeque<u64>>,
}

/// A bound-but-not-yet-serving cluster node. Bind with
/// [`ClusterNode::bind`], optionally [`ClusterNode::add_peer`], then
/// block in [`ClusterNode::run`] or detach with [`ClusterNode::spawn`].
pub struct ClusterNode {
    server: Server,
    router: Arc<ClusterRouter>,
}

/// Handle to a spawned cluster node: the handle of its server.
pub type ClusterHandle = ServerHandle;

impl ClusterNode {
    /// Bind the server, install the routing layer, and seed the
    /// membership table.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(cfg: ClusterConfig, handler: Arc<dyn JobHandler>) -> io::Result<ClusterNode> {
        let server = Server::bind(cfg.serve.clone(), handler)?;
        let advertise = cfg
            .advertise
            .clone()
            .unwrap_or_else(|| server.local_addr().to_string());
        let mut members = Membership::new(
            &advertise,
            cfg.heartbeat,
            cfg.suspect_after,
            cfg.dead_after,
            cfg.backoff_cap,
        );
        let now = Instant::now();
        for seed in &cfg.seeds {
            members.add_peer(seed, now);
        }
        let router = Arc::new(ClusterRouter {
            cfg,
            advertise,
            members: Mutex::new(members),
            counters: Counters::default(),
            recent_delegations: Mutex::new(VecDeque::new()),
        });
        let server = server.with_router(Arc::clone(&router) as Arc<dyn Router>);
        Ok(ClusterNode { server, router })
    }

    /// The bound address (resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The node's ring identity.
    pub fn advertise(&self) -> &str {
        &self.router.advertise
    }

    /// Add a peer after binding — how port-0 test clusters introduce
    /// members whose addresses are only known once every node is bound.
    pub fn add_peer(&self, addr: &str) {
        self.router.members().add_peer(addr, Instant::now());
    }

    /// Accept and serve until a `shutdown` request, then drain and
    /// return. The heartbeat loop runs on its own thread; each
    /// connection gets its own thread.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop I/O error.
    pub fn run(self) -> io::Result<()> {
        self.server.run()
    }

    /// Run on a background thread; the socket is already bound, so
    /// clients and peers can connect immediately.
    ///
    /// # Errors
    ///
    /// This call itself cannot fail; the handle's `join` reports the
    /// serve loop's outcome.
    pub fn spawn(self) -> io::Result<ClusterHandle> {
        self.server.spawn()
    }
}

/// One request/response exchange with a peer, waiting at most
/// `timeout` for the reply: the raw reply line, safe to relay verbatim,
/// or `None` on a transport failure, a timeout or a reply that does not
/// decode as a protocol response.
fn exchange(addr: &str, line: &str, policy: &RetryPolicy, timeout: Duration) -> Option<String> {
    let mut client = Client::connect(addr, policy).ok()?;
    let timeout = timeout.max(Duration::from_millis(1));
    client.set_read_timeout(Some(timeout)).ok()?;
    let reply = client.request_line(line).ok()?;
    parse_response(&reply).ok().map(|_| reply)
}

/// How long a job relay (forward or delegation) waits for the peer: one
/// [`RESULT_GRACE`] past the peer's own limit on the job, so a peer
/// that is merely busy always answers first.
fn relay_timeout(server: &Local) -> Duration {
    server.config().job_timeout + 2 * RESULT_GRACE
}

impl ClusterRouter {
    fn members(&self) -> MutexGuard<'_, Membership> {
        self.members.lock().expect("members lock poisoned")
    }

    /// The fingerprint's owner and replica holders, as this node
    /// currently believes the ring to be.
    fn placement(&self, fp: u64) -> Vec<String> {
        let ring = HashRing::with_nodes(self.members().ring_members(), self.cfg.vnodes);
        ring.placement(fp, self.cfg.replicas + 1)
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// A short, fast, fingerprint-jittered policy for node-to-node hops
    /// — a dead peer must fail fast so the caller can walk the fallback
    /// chain.
    fn hop_policy(&self, fp: u64) -> RetryPolicy {
        let mut h = FxHasher::default();
        h.write(self.advertise.as_bytes());
        RetryPolicy {
            attempts: 2,
            base_ms: 5,
            cap_ms: 20,
            seed: h.finish(),
        }
        .for_fingerprint(fp)
    }

    fn note_peer_failure(&self, addr: &str) {
        self.members().record_failure(addr, Instant::now());
    }

    /// A `forward` from a peer: cache or execute, and (if `ttl` allows)
    /// delegate a full queue — never re-route by ring position, which is
    /// what bounds the hop count.
    fn handle_forward(&self, server: &Local, request: &Json) -> String {
        if server.is_shutting_down() {
            return error_response(ErrorCode::ShuttingDown, "node is draining");
        }
        let frame = match parse_forward(request) {
            Ok(f) => f,
            Err(e) => return error_response(ErrorCode::BadRequest, &e),
        };
        bump(if frame.ttl == 0 {
            &self.counters.delegations_in
        } else {
            &self.counters.forwards_in
        });
        let job = match server.admit(frame.spec) {
            Ok(job) => job,
            Err(reply) => return reply,
        };
        if let Some(hit) = server.lookup(&job) {
            bump(&self.counters.forward_cache_hits);
            return hit;
        }
        server.execute(&job, frame.ttl > 0)
    }

    /// Store a replicated entry. Duplicate inserts are no-ops, so
    /// replication is idempotent.
    fn handle_replicate(&self, server: &Local, request: &Json) -> String {
        let frame = match parse_replicate(request) {
            Ok(f) => f,
            Err(e) => return error_response(ErrorCode::BadRequest, &e),
        };
        server.cache().insert(frame.fingerprint, frame.report);
        bump(&self.counters.replicas_stored);
        ok_response("replicate")
    }

    /// Store a replicated warmup snapshot. Duplicate inserts are no-ops,
    /// so snapshot replication is idempotent too.
    fn handle_replicate_snap(&self, server: &Local, request: &Json) -> String {
        let frame = match parse_replicate_snap(request) {
            Ok(f) => f,
            Err(e) => return error_response(ErrorCode::BadRequest, &e),
        };
        server.snapshots().insert(frame.key, Arc::new(frame.bytes));
        bump(&self.counters.snaps_stored);
        ok_response("replicate-snap")
    }

    /// Answer a heartbeat: learn the sender and its gossip, report our
    /// own load and member list back.
    fn handle_peers(&self, server: &Local, request: &Json) -> String {
        let ex = match parse_peers(request) {
            Ok(p) => p,
            Err(e) => return error_response(ErrorCode::BadRequest, &e),
        };
        let now = Instant::now();
        let known = {
            let mut m = self.members();
            m.merge_known(&ex.known, now);
            if ex.from != self.advertise {
                m.add_peer(&ex.from, now);
                m.record_success(&ex.from, ex.load, now);
            }
            m.known()
        };
        peers_response(&self.advertise, server.load(), &known)
    }

    /// One heartbeat probe: a fresh connection, one `peers` exchange, no
    /// retries (the backoff schedule lives in [`Membership`]).
    fn probe(&self, server: &Local, addr: &str) {
        let policy = RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        };
        // Snapshot the member list, then release before touching the
        // pool lock (for the load figure) or the network.
        let known = self.members().known();
        let line = peers_line(&self.advertise, server.load(), &known);
        let outcome = exchange(addr, &line, &policy, self.cfg.backoff_cap)
            .and_then(|reply| parse_peers(&Json::parse(&reply).ok()?).ok());
        let now = Instant::now();
        let mut m = self.members();
        match outcome {
            Some(ex) => {
                m.merge_known(&ex.known, now);
                m.record_success(addr, ex.load, now);
            }
            None => m.record_failure(addr, now),
        }
    }

    /// The cluster-wide view: identity, ring membership, peer table,
    /// routing/replication counters, and the recent delegation log.
    fn cluster_stats_response(&self, server: &Local) -> String {
        let (ring_nodes, peers) = {
            let m = self.members();
            (m.ring_members(), m.snapshot())
        };
        let ring_arr: Vec<String> = ring_nodes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        let peer_arr: Vec<String> = peers.iter().map(peer_json).collect();
        let delegations: Vec<String> = self
            .recent_delegations
            .lock()
            .expect("delegation log poisoned")
            .iter()
            .map(|fp| format!("\"{}\"", fingerprint_hex(*fp)))
            .collect();
        let c = &self.counters;
        let (entries, hits, misses) = {
            let cache = server.cache();
            (cache.len(), cache.hits(), cache.misses())
        };
        let (snap_entries, snap_hits, snap_misses) = {
            let s = server.snapshots();
            (s.len(), s.hits(), s.misses())
        };
        format!(
            "{{\"ok\":true,\"op\":\"cluster-stats\",\"self\":\"{}\",\"replicas\":{},\
             \"ring\":[{}],\"peers\":[{}],\"counters\":{{\
             \"forwards_out\":{},\"forwards_in\":{},\
             \"delegations_out\":{},\"delegations_in\":{},\
             \"replications_sent\":{},\"replication_failures\":{},\
             \"replicas_stored\":{},\"forward_cache_hits\":{},\
             \"fallback_local\":{},\"jobs_completed\":{},\
             \"snap_replications_sent\":{},\"snap_replications_skipped\":{},\
             \"snaps_stored\":{},\"jobs_resumed_from_snapshot\":{}}},\
             \"recent_delegations\":[{}],\
             \"cache_entries\":{entries},\"cache_hits\":{hits},\"cache_misses\":{misses},\
             \"snapshot_entries\":{snap_entries},\"snapshot_hits\":{snap_hits},\
             \"snapshot_misses\":{snap_misses}}}",
            json_escape(&self.advertise),
            self.cfg.replicas,
            ring_arr.join(","),
            peer_arr.join(","),
            c.forwards_out.load(Ordering::Relaxed),
            c.forwards_in.load(Ordering::Relaxed),
            c.delegations_out.load(Ordering::Relaxed),
            c.delegations_in.load(Ordering::Relaxed),
            c.replications_sent.load(Ordering::Relaxed),
            c.replication_failures.load(Ordering::Relaxed),
            c.replicas_stored.load(Ordering::Relaxed),
            c.forward_cache_hits.load(Ordering::Relaxed),
            c.fallback_local.load(Ordering::Relaxed),
            server.counter("jobs_completed"),
            c.snap_replications_sent.load(Ordering::Relaxed),
            c.snap_replications_skipped.load(Ordering::Relaxed),
            c.snaps_stored.load(Ordering::Relaxed),
            server.counter("jobs_resumed_from_snapshot"),
            delegations.join(","),
        )
    }
}

impl Router for ClusterRouter {
    fn op(&self, server: &Local, op: &str, request: &Json) -> Option<String> {
        Some(match op {
            "forward" => self.handle_forward(server, request),
            "replicate" => self.handle_replicate(server, request),
            "replicate-snap" => self.handle_replicate_snap(server, request),
            "peers" => self.handle_peers(server, request),
            "cluster-stats" => self.cluster_stats_response(server),
            other => error_response(
                ErrorCode::BadRequest,
                &format!(
                    "unknown op `{other}` \
                     (ping|run|forward|replicate|replicate-snap|peers|stats|cluster-stats|shutdown)"
                ),
            ),
        })
    }

    /// Execute here when this node owns the fingerprint (or the ring is
    /// empty); otherwise walk the placement chain — owner first, then
    /// the replica holders, who can answer resubmissions from their copy
    /// when the owner is down — and relay the first answer verbatim.
    fn place(&self, server: &Local, job: &Job) -> Option<String> {
        let fp = job.fingerprint();
        let placement = self.placement(fp);
        if *placement.first()? == self.advertise {
            return None;
        }
        bump(&self.counters.forwards_out);
        let line = job.spec().to_forward_line(1);
        let policy = self.hop_policy(fp);
        for target in placement.iter().filter(|a| **a != self.advertise) {
            match exchange(target, &line, &policy, relay_timeout(server)) {
                Some(reply) => return Some(reply),
                None => self.note_peer_failure(target),
            }
        }
        // Every remote placement member is unreachable; answering
        // locally beats failing, and the cache copy replicates back once
        // they return.
        bump(&self.counters.fallback_local);
        Some(server.execute(job, false))
    }

    /// Load-aware overflow: hand the job to the least-loaded alive peer
    /// with `ttl = 0` (it must execute or reject — no forwarding loops).
    fn overflow(&self, server: &Local, job: &Job) -> Option<String> {
        let Some(target) = self.members().least_loaded_alive() else {
            let cfg = server.config();
            return Some(error_response(
                ErrorCode::Overloaded,
                &format!(
                    "job queue full ({} waiting, {} workers) and no alive peer to delegate to",
                    cfg.queue_cap, cfg.workers
                ),
            ));
        };
        bump(&self.counters.delegations_out);
        {
            let mut log = self
                .recent_delegations
                .lock()
                .expect("delegation log poisoned");
            if log.len() == DELEGATION_LOG_CAP {
                log.pop_front();
            }
            log.push_back(job.fingerprint());
        }
        let line = job.spec().to_forward_line(0);
        let policy = self.hop_policy(job.fingerprint());
        Some(
            exchange(&target, &line, &policy, relay_timeout(server)).unwrap_or_else(|| {
                self.note_peer_failure(&target);
                error_response(
                    ErrorCode::Overloaded,
                    "job queue full and the delegation target did not answer; retry later",
                )
            }),
        )
    }

    /// Synchronously copy a fresh cache entry to the fingerprint's other
    /// placement members, so the report survives this node's death. When
    /// the job also produced a warmup snapshot, it rides along on the
    /// same connections (`replicate-snap`) — unless its hex form would
    /// not fit in a frame, in which case it is simply skipped: snapshots
    /// are an optimization, never required for correctness.
    fn completed(&self, job: &Job, report: &str, snapshot: Option<(u64, Arc<Vec<u8>>)>) {
        if self.cfg.replicas == 0 {
            return;
        }
        let mut targets = self.placement(job.fingerprint());
        targets.retain(|a| *a != self.advertise);
        if targets.is_empty() {
            return;
        }
        let snap_line = snapshot.and_then(|(key, bytes)| {
            // Hex doubles the payload; leave headroom for the JSON wrapper.
            if bytes.len() * 2 + 64 > MAX_FRAME_BYTES {
                bump(&self.counters.snap_replications_skipped);
                return None;
            }
            Some(replicate_snap_line(&fingerprint_hex(key), &bytes))
        });
        let line = replicate_line(&fingerprint_hex(job.fingerprint()), report);
        let policy = self.hop_policy(job.fingerprint());
        let timeout = self.cfg.backoff_cap;
        for target in targets {
            let sent = exchange(&target, &line, &policy, timeout).and_then(|_| {
                bump(&self.counters.replications_sent);
                match &snap_line {
                    Some(snap_line) => exchange(&target, snap_line, &policy, timeout)
                        .map(|_| bump(&self.counters.snap_replications_sent)),
                    None => Some(()),
                }
            });
            if sent.is_none() {
                bump(&self.counters.replication_failures);
                self.note_peer_failure(&target);
            }
        }
    }

    /// The heartbeat loop: probe every due peer, then sleep a fraction
    /// of the heartbeat.
    fn background(&self, server: &Local) {
        let tick =
            (self.cfg.heartbeat / 4).clamp(Duration::from_millis(5), Duration::from_millis(50));
        while !server.is_shutting_down() {
            let due = self.members().due_probes(Instant::now());
            for addr in due {
                if server.is_shutting_down() {
                    return;
                }
                self.probe(server, &addr);
            }
            std::thread::sleep(tick);
        }
    }
}

fn peer_json(p: &PeerView) -> String {
    format!(
        "{{\"addr\":\"{}\",\"status\":\"{}\",\"load\":{},\"failures\":{}}}",
        json_escape(&p.addr),
        p.status.as_str(),
        json_f64(p.load),
        p.failures
    )
}
