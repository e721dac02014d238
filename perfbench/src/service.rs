//! The service workload `serve-mix` (one in-process `Server`), and the
//! 2-node in-process `ClusterNode` ring its traced run replays the same
//! streams on.
//!
//! Jobs come from a fixed catalog of small-chip specs, so every reply
//! can be checked against a recorded digest whatever the seed. The
//! seed drives the job-stream generator only. A run is a sequence of
//! epochs; each boots the service from empty caches, drives one seeded
//! stream closed loop (each client sends its next job only after the
//! previous reply), reads `stats`, and shuts the service down. Every
//! epoch therefore has the same mix of result-cache hits, snapshot
//! resumes and cold runs, however many epochs a run fits.
//!
//! The mix is 1:1:1, the shape of the service loop EXPERIMENTS.md walks
//! through: a job run cold, the same job sent again (a result-cache
//! hit), and the sweep re-run with another measurement window (a
//! snapshot resume). No record of real service use backs the split, the
//! span lengths or the shares of 2-chip and controlled jobs; they are a
//! choice.

use crate::golden::{digest, Golden};
use crate::host::thread_cpu_ns;
use crate::trace::{Span, Tracer};
use clognet_cli::serve_cmd::SimHandler;
use clognet_cluster::{ClusterConfig, ClusterHandle, ClusterNode};
use clognet_proto::{HashRing, DEFAULT_VNODES};
use clognet_rng::{Rng, SeedableRng, SmallRng};
use clognet_serve::wire::{parse_response, Response};
use clognet_serve::{
    Client, JobError, JobHandler, JobSpec, Json, RetryPolicy, ServeConfig, Server, ServerHandle,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct warm-up prefixes in the catalog.
pub const PREFIXES: usize = 128;
/// Measured-span lengths per prefix.
pub const VARIANTS: usize = 4;
/// Prefixes each epoch starts cold: more than the snapshot tier's
/// default 64 entries, so it evicts.
pub const FRESH_PER_EPOCH: usize = 72;
/// Jobs per epoch that share a warm-up with an earlier job but differ
/// in measured cycles (snapshot-tier resumes).
pub const RESUMES_PER_EPOCH: usize = 72;
/// Jobs per epoch that repeat an earlier job (result-cache hits).
pub const REPEATS_PER_EPOCH: usize = 72;
/// A resume reuses one of the client's last few fresh prefixes, which
/// the FIFO snapshot tier still holds.
const RECENT: usize = 6;

const PAIRS: [(&str, &str); 4] = [
    ("HS", "bodytrack"),
    ("NN", "canneal"),
    ("BP", "ferret"),
    ("MM", "x264"),
];
const SCHEMES: [&str; 3] = ["baseline", "rp", "dr"];

/// Catalog entry `index`: prefix `index / VARIANTS`, measured-span
/// variant `index % VARIANTS`. All are 4×4 chips; one prefix in eight
/// is a 2-chip package and one in eight runs the hysteresis controller.
pub fn catalog_spec(index: usize) -> JobSpec {
    let (p, v) = (index / VARIANTS, index % VARIANTS);
    let (gpu, cpu) = PAIRS[p % PAIRS.len()];
    let mut spec = JobSpec::new(gpu, cpu);
    spec.warm = 600 + 200 * ((p / 12) % 3) as u64;
    spec.cycles = 1_000 + 500 * v as u64;
    let opt = |s: &mut JobSpec, k: &str, v: String| s.opts.insert(k.to_string(), v);
    opt(&mut spec, "mesh", "4x4".into());
    opt(&mut spec, "scheme", SCHEMES[(p / 4) % 3].into());
    opt(&mut spec, "seed", (1 + p / 12).to_string());
    match (p / 3) % 8 {
        0 => opt(&mut spec, "chips", "2".into()),
        4 => opt(&mut spec, "control", "hysteresis".into()),
        _ => None,
    };
    spec
}

/// Every catalog spec, by index.
pub fn catalog() -> Vec<JobSpec> {
    (0..PREFIXES * VARIANTS).map(catalog_spec).collect()
}

/// The generator of one part of an epoch's streams: part 0 shuffles
/// the prefixes, part `c + 1` draws client `c`'s stream.
fn stream_rng(seed: u64, epoch: u64, part: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ epoch << 32 ^ part << 56)
}

/// How the service should answer a job, by construction of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A warm-up prefix no job of the epoch used yet: runs cold.
    Fresh,
    /// A recent prefix with new measured cycles: resumes a snapshot.
    Resume,
    /// A job this client already sent: a result-cache hit.
    Repeat,
}

/// One job of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Expected service path.
    pub kind: Kind,
    /// Catalog index.
    pub spec: usize,
}

/// The per-client job streams of one epoch. Each client owns its own
/// prefixes and repeats only its own jobs, so no two clients ever have
/// the same job in flight.
pub fn epoch_streams(seed: u64, epoch: u64, clients: usize) -> Vec<Vec<Item>> {
    let mut rng = stream_rng(seed, epoch, 0);
    let mut prefixes: Vec<usize> = (0..PREFIXES).collect();
    for i in (1..prefixes.len()).rev() {
        prefixes.swap(i, rng.gen_range(0..i + 1));
    }
    (0..clients)
        .map(|c| {
            let own: Vec<usize> = prefixes[..FRESH_PER_EPOCH]
                .iter()
                .copied()
                .skip(c)
                .step_by(clients)
                .collect();
            let share = |total: usize| total / clients + usize::from(c < total % clients);
            client_stream(
                stream_rng(seed, epoch, c as u64 + 1),
                &own,
                [share(RESUMES_PER_EPOCH), share(REPEATS_PER_EPOCH)],
            )
        })
        .collect()
}

fn client_stream(
    mut rng: SmallRng,
    own: &[usize],
    [mut resumes, mut repeats]: [usize; 2],
) -> Vec<Item> {
    let mut fresh = own.len();
    let mut used = vec![[false; VARIANTS]; PREFIXES];
    let mut started: Vec<usize> = Vec::new();
    let mut sent: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    while fresh + resumes + repeats > 0 {
        let open = |p: &usize| used[*p].iter().any(|u| !u);
        let mut eligible: Vec<usize> = started
            .iter()
            .rev()
            .take(RECENT)
            .copied()
            .filter(open)
            .collect();
        if eligible.is_empty() {
            eligible = started.iter().copied().filter(open).collect();
        }
        let r = if eligible.is_empty() { 0 } else { resumes };
        let h = if sent.is_empty() { 0 } else { repeats };
        if fresh + r + h == 0 {
            break;
        }
        let draw = rng.gen_range(0..fresh + r + h);
        let item = if draw < fresh {
            let p = own[own.len() - fresh];
            fresh -= 1;
            started.push(p);
            let v = rng.gen_range(0..VARIANTS);
            used[p][v] = true;
            Item {
                kind: Kind::Fresh,
                spec: p * VARIANTS + v,
            }
        } else if draw < fresh + r {
            resumes -= 1;
            let p = eligible[rng.gen_range(0..eligible.len())];
            let free: Vec<usize> = (0..VARIANTS).filter(|&v| !used[p][v]).collect();
            let v = free[rng.gen_range(0..free.len())];
            used[p][v] = true;
            Item {
                kind: Kind::Resume,
                spec: p * VARIANTS + v,
            }
        } else {
            repeats -= 1;
            Item {
                kind: Kind::Repeat,
                spec: sent[rng.gen_range(0..sent.len())],
            }
        };
        if item.kind != Kind::Repeat {
            sent.push(item.spec);
        }
        out.push(item);
    }
    out
}

/// Clients and service shape of a service workload on `nproc` CPUs:
/// neither the clients nor the workers outnumber the CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Closed-loop client connections.
    pub clients: usize,
    /// Service nodes (1 = a plain `Server`).
    pub nodes: usize,
    /// Worker threads per node.
    pub workers: usize,
}

/// serve-mix's shape, or with `cluster` the 2-node ring's (1 worker per
/// node, one client per gateway); `None` when the host is too small.
pub fn shape(cluster: bool, nproc: usize) -> Option<Shape> {
    match (cluster, nproc) {
        (false, _) => Some(Shape {
            clients: nproc.min(2),
            nodes: 1,
            workers: nproc.min(2),
        }),
        (true, 2..) => Some(Shape {
            clients: 2,
            nodes: 2,
            workers: 1,
        }),
        (true, _) => None,
    }
}

/// `SimHandler` with timing around each call: always the cycles and
/// worker-thread CPU time of simulating runs, and spans when traced.
pub struct TimedHandler {
    inner: SimHandler,
    tracer: Option<Arc<Tracer>>,
    cycles: AtomicU64,
    run_ns: AtomicU64,
}

/// Request identity shared by the client's and the handler's spans.
pub fn request_key(spec: &JobSpec) -> u64 {
    digest(spec.to_request_line().as_bytes())
}

impl TimedHandler {
    /// Wrap the real handler.
    pub fn new(tracer: Option<Arc<Tracer>>) -> TimedHandler {
        TimedHandler {
            inner: SimHandler,
            tracer,
            cycles: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
        }
    }

    /// (simulated cycles, worker-thread CPU ns) of every run so far.
    pub fn sim_totals(&self) -> (u64, u64) {
        (
            self.cycles.load(Ordering::Relaxed),
            self.run_ns.load(Ordering::Relaxed),
        )
    }

    fn timed<T>(&self, name: &'static str, spec: &JobSpec, f: impl FnOnce() -> T) -> T {
        let Some(t) = &self.tracer else {
            return f();
        };
        let key = request_key(spec);
        let start = t.now();
        let out = f();
        t.push(Span {
            name,
            start,
            end: t.now(),
            parent: None,
            key,
            req: None,
            attrs: Vec::new(),
        });
        out
    }

    fn simulated(&self, cycles: u64, cpu_start: u64) {
        self.cycles.fetch_add(cycles, Ordering::Relaxed);
        self.run_ns
            .fetch_add(thread_cpu_ns() - cpu_start, Ordering::Relaxed);
    }
}

impl JobHandler for TimedHandler {
    fn fingerprint(&self, spec: &JobSpec) -> Result<u64, JobError> {
        self.timed("handler.fingerprint", spec, || self.inner.fingerprint(spec))
    }

    fn run(&self, spec: &JobSpec, deadline: Instant) -> Result<String, JobError> {
        self.inner.run(spec, deadline)
    }

    fn snapshot_key(&self, spec: &JobSpec) -> Option<u64> {
        self.timed("handler.snapshot_key", spec, || {
            self.inner.snapshot_key(spec)
        })
    }

    fn run_with_snapshot(
        &self,
        spec: &JobSpec,
        deadline: Instant,
    ) -> Result<(String, Option<Vec<u8>>), JobError> {
        let t0 = thread_cpu_ns();
        let out = self.timed("handler.run_cold", spec, || {
            self.inner.run_with_snapshot(spec, deadline)
        });
        self.simulated(spec.warm + spec.cycles, t0);
        out
    }

    fn run_from_snapshot(
        &self,
        spec: &JobSpec,
        snapshot: &[u8],
        deadline: Instant,
    ) -> Result<String, JobError> {
        let t0 = thread_cpu_ns();
        let out = self.timed("handler.run_resumed", spec, || {
            self.inner.run_from_snapshot(spec, snapshot, deadline)
        });
        self.simulated(spec.cycles, t0);
        out
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Client index (= gateway index in the cluster).
    pub client: usize,
    /// Round trip, ns; `None` when the request failed.
    pub rtt_ns: Option<u64>,
    /// Whether the reply came from the result cache.
    pub hit: bool,
    /// The job fingerprint from the reply.
    pub fingerprint: u64,
}

/// What one epoch measured.
#[derive(Debug, Default)]
pub struct Epoch {
    /// Bind until the service answers (cluster: every peer alive).
    pub setup_s: f64,
    /// Wall seconds of the driven phase.
    pub driven_s: f64,
    /// Every request.
    pub samples: Vec<Sample>,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Advertised node addresses, gateway order.
    pub addrs: Vec<String>,
    /// `stats` and `cluster-stats` figures summed over nodes.
    pub stats: BTreeMap<&'static str, f64>,
    /// Most threads this process had while the stream was driven.
    pub threads: u64,
}

impl Epoch {
    /// Requests answered `ok` and checked.
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.rtt_ns.is_some()).count()
    }

    /// A figure from the epoch's `stats` (0 when absent).
    pub fn stat(&self, key: &str) -> f64 {
        self.stats.get(key).copied().unwrap_or(0.0)
    }
}

enum Nodes {
    Serve(ServerHandle),
    Cluster(Vec<ClusterHandle>),
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 20,
        base_ms: 2,
        cap_ms: 50,
        seed: 0x5EED,
    }
}

fn boot(shape: Shape, handler: &Arc<TimedHandler>) -> std::io::Result<(Vec<String>, Nodes)> {
    let serve = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: shape.workers,
        ..ServeConfig::default()
    };
    if shape.nodes == 1 {
        let h = Server::bind(serve, Arc::clone(handler) as Arc<dyn JobHandler>)?.spawn()?;
        return Ok((vec![h.addr().to_string()], Nodes::Serve(h)));
    }
    let cfg = ClusterConfig {
        serve,
        ..ClusterConfig::default()
    };
    let nodes = (0..shape.nodes)
        .map(|_| ClusterNode::bind(cfg.clone(), Arc::clone(handler) as Arc<dyn JobHandler>))
        .collect::<std::io::Result<Vec<_>>>()?;
    let addrs: Vec<String> = nodes.iter().map(|n| n.advertise().to_string()).collect();
    for n in &nodes {
        for a in &addrs {
            n.add_peer(a);
        }
    }
    let handles = nodes
        .into_iter()
        .map(ClusterNode::spawn)
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok((addrs, Nodes::Cluster(handles)))
}

/// Block until the service answers `ping`, and in a cluster until
/// every node sees every peer alive.
fn wait_ready(addrs: &[String], cluster: bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    for a in addrs {
        let mut c = Client::connect(a, &policy()).map_err(|e| e.to_string())?;
        c.ping().map_err(|e| e.to_string())?;
        if !cluster {
            continue;
        }
        loop {
            let raw = c
                .request_line("{\"op\":\"cluster-stats\"}")
                .map_err(|e| e.to_string())?;
            let v = Json::parse(&raw)?;
            let peers = v.get("peers").and_then(Json::as_arr).unwrap_or_default();
            let alive = peers
                .iter()
                .filter(|p| p.get("status").and_then(Json::as_str) == Some("alive"))
                .count();
            if alive + 1 == addrs.len() {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("{a}: peers not alive within 10 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Ok(())
}

fn drive(
    client: usize,
    addr: &str,
    items: &[Item],
    lines: &[String],
    golden: &Golden,
    tracer: Option<&Tracer>,
) -> (Vec<Sample>, Vec<String>) {
    let mut samples = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    let mut conn: Option<Client> = None;
    for (seq, item) in items.iter().enumerate() {
        let line = &lines[item.spec];
        let mut sample = Sample {
            client,
            rtt_ns: None,
            hit: false,
            fingerprint: 0,
        };
        if conn.is_none() {
            match Client::connect(addr, &policy()) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    failures.push(format!("client {client}: connect {addr}: {e}"));
                    samples.push(sample);
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        let span_start = tracer.map(Tracer::now);
        let t0 = Instant::now();
        let reply = c.request_line(line);
        let rtt = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(start)) = (tracer, span_start) {
            t.push(Span {
                name: "serve.request",
                start,
                end: t.now(),
                parent: None,
                key: digest(line.as_bytes()),
                req: Some((client, seq as u64)),
                attrs: Vec::new(),
            });
        }
        let checked = match reply
            .map_err(|e| e.to_string())
            .and_then(|r| parse_response(&r))
        {
            Ok(Response::Run(r)) => golden
                .check_spec(item.spec, line, &r.report)
                .and_then(|()| {
                    u64::from_str_radix(&r.fingerprint, 16)
                        .map(|fp| (r.cache_hit, fp))
                        .map_err(|e| format!("bad fingerprint: {e}"))
                }),
            Ok(other) => Err(format!("spec {}: not a run reply: {other:?}", item.spec)),
            Err(e) => {
                conn = None;
                Err(format!("client {client}: {e}"))
            }
        };
        match checked {
            Ok((hit, fp)) => {
                sample.rtt_ns = Some(rtt);
                sample.hit = hit;
                sample.fingerprint = fp;
            }
            Err(e) => failures.push(e),
        }
        samples.push(sample);
    }
    (samples, failures)
}

fn read_stats(addrs: &[String], cluster: bool) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for a in addrs {
        let mut c = Client::connect(a, &policy()).map_err(|e| e.to_string())?;
        let v = Json::parse(&c.stats().map_err(|e| e.to_string())?)?;
        for key in [
            "cache_hits",
            "cache_misses",
            "snapshot_hits",
            "snapshot_misses",
            "snapshot_bytes",
        ] {
            *out.entry(key).or_default() += v.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        }
        let util = v
            .get("utilization")
            .and_then(Json::as_arr)
            .unwrap_or_default();
        for u in util {
            *out.entry("utilization_sum").or_default() += u.as_f64().unwrap_or(0.0);
            *out.entry("workers").or_default() += 1.0;
        }
        if cluster {
            let raw = c
                .request_line("{\"op\":\"cluster-stats\"}")
                .map_err(|e| e.to_string())?;
            let v = Json::parse(&raw)?;
            let counters = v.get("counters").ok_or("cluster-stats without counters")?;
            for key in [
                "forwards_out",
                "replications_sent",
                "snap_replications_sent",
            ] {
                *out.entry(key).or_default() +=
                    counters.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            }
        }
    }
    Ok(out)
}

fn shutdown(addrs: &[String], nodes: Nodes) -> Result<(), String> {
    for a in addrs {
        let mut c = Client::connect(a, &policy()).map_err(|e| e.to_string())?;
        c.shutdown().map_err(|e| e.to_string())?;
    }
    match nodes {
        Nodes::Serve(h) => h.join().map_err(|e| e.to_string()),
        Nodes::Cluster(hs) => hs
            .into_iter()
            .try_for_each(|h| h.join().map_err(|e| e.to_string())),
    }
}

/// Boot the service, drive one epoch's streams, read its stats, and
/// shut it down.
pub fn run_epoch(
    shape: Shape,
    streams: &[Vec<Item>],
    lines: &[String],
    golden: &Golden,
    handler: &Arc<TimedHandler>,
    tracer: Option<&Tracer>,
) -> Epoch {
    let mut epoch = Epoch::default();
    let cluster = shape.nodes > 1;
    let t0 = Instant::now();
    let (addrs, nodes) = match boot(shape, handler) {
        Ok(x) => x,
        Err(e) => {
            epoch.failures.push(format!("boot: {e}"));
            return epoch;
        }
    };
    if let Err(e) = wait_ready(&addrs, cluster) {
        epoch.failures.push(format!("set-up: {e}"));
    }
    epoch.setup_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let peak = AtomicU64::new(crate::host::threads());
    let results: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, items)| {
                let addr = &addrs[c % addrs.len()];
                let peak = &peak;
                s.spawn(move || {
                    let out = drive(c, addr, items, lines, golden, tracer);
                    peak.fetch_max(crate::host::threads(), Ordering::Relaxed);
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    epoch.driven_s = t0.elapsed().as_secs_f64();
    epoch.threads = peak.into_inner();
    for (s, f) in results {
        epoch.samples.extend(s);
        epoch.failures.extend(f);
    }
    match read_stats(&addrs, cluster) {
        Ok(s) => epoch.stats = s,
        Err(e) => epoch.failures.push(format!("stats: {e}")),
    }
    if let Err(e) = shutdown(&addrs, nodes) {
        epoch.failures.push(format!("shutdown: {e}"));
    }
    epoch.addrs = addrs;
    epoch
}

/// Whether a cluster gateway owns `fingerprint` on the ring of `addrs`,
/// as `clognet fingerprint --owner` decides it.
pub fn owned_by_gateway(addrs: &[String], gateway: usize, fingerprint: u64) -> bool {
    let ring = HashRing::with_nodes(addrs.iter().map(String::as_str), DEFAULT_VNODES);
    ring.owner(fingerprint) == Some(addrs[gateway].as_str())
}

/// Distinct catalog indices of `streams`.
pub fn distinct_specs(streams: &[Vec<Item>]) -> BTreeSet<usize> {
    streams.iter().flatten().map(|i| i.spec).collect()
}

/// Golden digest lines for the whole catalog.
pub fn golden_lines() -> Vec<String> {
    let handler = SimHandler;
    catalog()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let far = Instant::now() + Duration::from_secs(600);
            let report = handler.run(spec, far).expect("catalog specs are valid");
            format!(
                "spec {i} {:016x} {:016x}",
                digest(spec.to_request_line().as_bytes()),
                digest(report.as_bytes())
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_prefixes_are_distinct_and_valid() {
        let cat = catalog();
        let handler = SimHandler;
        let mut fps = BTreeSet::new();
        let mut keys = BTreeSet::new();
        for (i, spec) in cat.iter().enumerate() {
            fps.insert(handler.fingerprint(spec).expect("valid spec"));
            if i % VARIANTS == 0 {
                keys.insert(handler.snapshot_key(spec).expect("has a warm-up"));
            }
        }
        assert_eq!(fps.len(), cat.len());
        assert_eq!(keys.len(), PREFIXES);
        let with = |k: &str| cat.iter().filter(|s| s.opts.contains_key(k)).count();
        assert!(with("chips") > 0 && with("chips") < cat.len() / 4);
        assert!(with("control") > 0 && with("control") < cat.len() / 4);
    }

    #[test]
    fn same_seed_same_streams_other_seed_differs() {
        let a = epoch_streams(1, 0, 2);
        assert_eq!(a, epoch_streams(1, 0, 2));
        assert_ne!(a, epoch_streams(2, 0, 2));
        assert_ne!(a, epoch_streams(1, 1, 2));
    }

    #[test]
    fn streams_have_the_promised_mix() {
        for seed in 0..20 {
            let streams = epoch_streams(seed, 3, 2);
            let all: Vec<Item> = streams.iter().flatten().copied().collect();
            let count = |k: Kind| all.iter().filter(|i| i.kind == k).count();
            assert_eq!(count(Kind::Fresh), FRESH_PER_EPOCH);
            assert_eq!(count(Kind::Resume), RESUMES_PER_EPOCH);
            assert_eq!(count(Kind::Repeat), REPEATS_PER_EPOCH);
            // Clients never share a job, and each fresh prefix is new.
            let mine: Vec<BTreeSet<usize>> = streams
                .iter()
                .map(|s| s.iter().map(|i| i.spec).collect())
                .collect();
            assert!(mine[0].is_disjoint(&mine[1]));
            for s in &streams {
                let mut seen = BTreeSet::new();
                let mut prefixes = BTreeSet::new();
                for it in s {
                    match it.kind {
                        Kind::Fresh => assert!(prefixes.insert(it.spec / VARIANTS)),
                        Kind::Resume => assert!(prefixes.contains(&(it.spec / VARIANTS))),
                        Kind::Repeat => assert!(seen.contains(&it.spec)),
                    }
                    if it.kind != Kind::Repeat {
                        assert!(seen.insert(it.spec), "a non-repeat is a new job");
                    }
                }
            }
        }
    }

    #[test]
    fn clients_and_workers_never_exceed_nproc() {
        for nproc in 1..=16 {
            for cluster in [false, true] {
                if let Some(s) = shape(cluster, nproc) {
                    assert!(s.clients <= nproc, "cluster {cluster} on {nproc}");
                    assert!(s.nodes * s.workers <= nproc, "cluster {cluster} on {nproc}");
                }
            }
        }
        assert_eq!(shape(true, 1), None);
        assert_eq!(
            shape(false, 1).map(|s| (s.clients, s.workers)),
            Some((1, 1))
        );
    }
}
