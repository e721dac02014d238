//! The persistent simulation server.
//!
//! A TCP listener accepts connections and speaks the NDJSON protocol of
//! [`crate::wire`]; `run` requests are admitted into a **bounded**
//! queue on a [`WorkerPool`], memoized through the content-addressed
//! [`ResultCache`], and subject to per-job cycle and wall-time limits.
//! Robustness contract:
//!
//! * **Admission control** — a full queue yields a structured
//!   `overloaded` rejection immediately, never a hang.
//! * **Limits** — a job whose cycle budget exceeds `max_job_cycles` is
//!   rejected up front (`cycle_limit`); a job that outlives its
//!   wall-time deadline is cut off (`timeout`).
//! * **Graceful drain** — a `shutdown` request stops admissions, lets
//!   every request already read finish and deliver its response, then
//!   joins the workers.
//! * **Observability** — a `stats` request exposes queue depth, cache
//!   hit rate, and per-worker utilization through a
//!   [`clognet_telemetry`] registry.
//!
//! The simulation itself is injected as a [`JobHandler`], keeping this
//! crate independent of `clognet-core`: the CLI installs a handler that
//! builds a `System` per job, and the tests install stubs that fail,
//! stall, or count invocations on demand.
//!
//! A [`Router`] installed on the server makes it one node of a larger
//! service (the `clognet-cluster` crate) that still runs, caches and
//! drains jobs exactly as a single server does.

use crate::cache::{ResultCache, SnapshotCache};
use crate::json::Json;
use crate::wire::{error_response, ok_response, run_response, ErrorCode, JobSpec, MAX_FRAME_BYTES};
use clognet_bench::runner::WorkerPool;
use clognet_proto::fingerprint_hex;
use clognet_telemetry::export::{json_f64, registry_to_json};
use clognet_telemetry::Registry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One read from a [`FrameReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// A complete line landed in the caller's buffer.
    Line,
    /// The line exceeded [`MAX_FRAME_BYTES`] before its newline; the
    /// stream cannot be resynchronized and should be answered with a
    /// structured error and closed.
    Oversized,
    /// The line was complete but not valid UTF-8; answer with a
    /// structured error and keep reading.
    BadUtf8,
    /// Peer closed the connection.
    Eof,
}

/// Length-capped NDJSON frame reader behind every server connection:
/// one frame per line, at most
/// [`MAX_FRAME_BYTES`] each, malformed bytes reported as values rather
/// than torn connections.
pub struct FrameReader<R: Read> {
    inner: std::io::Take<BufReader<R>>,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a stream's read half.
    pub fn new(stream: R) -> FrameReader<R> {
        FrameReader {
            inner: BufReader::new(stream).take(MAX_FRAME_BYTES as u64 + 1),
            buf: Vec::new(),
        }
    }

    /// Read the next frame into `line` (cleared first; the trailing
    /// newline is kept, matching `read_line`).
    ///
    /// # Errors
    ///
    /// Socket-level failures only; protocol violations come back as
    /// [`Frame`] variants.
    pub fn read_frame(&mut self, line: &mut String) -> std::io::Result<Frame> {
        line.clear();
        self.buf.clear();
        let n = self.inner.read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(Frame::Eof);
        }
        if self.inner.limit() == 0 && self.buf.last() != Some(&b'\n') {
            return Ok(Frame::Oversized);
        }
        self.inner.set_limit(MAX_FRAME_BYTES as u64 + 1);
        match std::str::from_utf8(&self.buf) {
            Ok(s) => {
                line.push_str(s);
                Ok(Frame::Line)
            }
            Err(_) => Ok(Frame::BadUtf8),
        }
    }
}

/// Answer one connection frame-by-frame: read with `reader`, dispatch
/// complete lines through `dispatch`, and reply with the structured
/// errors the frame contract specifies for oversized or non-UTF-8
/// input. Returns when the peer disconnects or the stream dies.
fn serve_frames<R, F>(reader: R, mut writer: impl Write, dispatch: F)
where
    R: Read,
    F: Fn(&str) -> String,
{
    let mut frames = FrameReader::new(reader);
    let mut line = String::new();
    loop {
        let response = match frames.read_frame(&mut line) {
            Err(_) | Ok(Frame::Eof) => return,
            Ok(Frame::Oversized) => {
                let oversized = error_response(
                    ErrorCode::BadRequest,
                    &format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                );
                let _ = writer
                    .write_all(oversized.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush());
                return; // Cannot resynchronize mid-line.
            }
            Ok(Frame::BadUtf8) => error_response(ErrorCode::BadRequest, "frame is not UTF-8"),
            Ok(Frame::Line) => {
                if line.trim().is_empty() {
                    continue;
                }
                dispatch(line.trim())
            }
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// A job failure produced by a [`JobHandler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Wire error code the failure maps to.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl JobError {
    /// A `bad_request` failure.
    pub fn bad_request(message: impl Into<String>) -> JobError {
        JobError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }
}

/// The simulation behind the service: fingerprinting (for the cache
/// key) and execution (for misses). Implementations must be
/// deterministic — `run` must return byte-identical output for
/// fingerprint-equal specs — or the cache contract is void.
///
/// The three snapshot hooks are optional (defaults disable the
/// snapshot tier): a handler that implements them lets the server
/// memoize warmup state, so a job that misses the result cache but
/// shares its warmup prefix with an earlier job resumes mid-flight
/// instead of re-simulating the warmup. Snapshot-resumed runs must be
/// byte-identical to straight runs — the same contract as the result
/// cache.
pub trait JobHandler: Send + Sync + 'static {
    /// The canonical fingerprint of a spec (resolving option spelling
    /// variants), or a `bad_request` explaining what is invalid.
    ///
    /// # Errors
    ///
    /// Invalid benchmark names or configuration options.
    fn fingerprint(&self, spec: &JobSpec) -> Result<u64, JobError>;

    /// Execute the job, checking `deadline` at reasonable intervals
    /// and returning a `timeout` failure when exceeded.
    ///
    /// # Errors
    ///
    /// Invalid specs or an exceeded deadline.
    fn run(&self, spec: &JobSpec, deadline: Instant) -> Result<String, JobError>;

    /// The snapshot-cache key of this job's warmup prefix, or `None`
    /// when the job has no cacheable prefix (no warmup, or the handler
    /// does not support snapshots). Execution-mode knobs must not
    /// change the key — the same exclusion rule as the fingerprint.
    fn snapshot_key(&self, _spec: &JobSpec) -> Option<u64> {
        None
    }

    /// Execute the job and also return the serialized warmup snapshot
    /// for caching, when one is worth keeping. The default runs
    /// without producing a snapshot.
    ///
    /// # Errors
    ///
    /// Same as [`JobHandler::run`].
    fn run_with_snapshot(
        &self,
        spec: &JobSpec,
        deadline: Instant,
    ) -> Result<(String, Option<Vec<u8>>), JobError> {
        self.run(spec, deadline).map(|report| (report, None))
    }

    /// Execute the job resuming from a cached warmup snapshot
    /// (simulating only the measured window). A handler that cannot
    /// use the snapshot — or finds it corrupt — must fall back to a
    /// full run rather than fail the job. The default ignores the
    /// snapshot entirely.
    ///
    /// # Errors
    ///
    /// Same as [`JobHandler::run`].
    fn run_from_snapshot(
        &self,
        spec: &JobSpec,
        _snapshot: &[u8],
        deadline: Instant,
    ) -> Result<String, JobError> {
        self.run(spec, deadline)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads simulating jobs.
    pub workers: usize,
    /// Jobs that may wait for a worker before admission control
    /// rejects with `overloaded`.
    pub queue_cap: usize,
    /// Reports retained by the content-addressed cache.
    pub cache_cap: usize,
    /// Warmup snapshots retained by the snapshot tier. Snapshots are
    /// hundreds of kilobytes each, so this bound is much tighter than
    /// `cache_cap`.
    pub snap_cache_cap: usize,
    /// Per-job cycle budget (`warm + cycles`) ceiling.
    pub max_job_cycles: u64,
    /// Per-job end-to-end wall-time limit (queue wait + simulation).
    pub job_timeout: Duration,
    /// How long `shutdown` waits for in-flight requests to finish.
    pub drain_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 16,
            cache_cap: 1024,
            snap_cache_cap: 64,
            max_job_cycles: 10_000_000,
            job_timeout: Duration::from_secs(120),
            drain_timeout: Duration::from_secs(60),
        }
    }
}

/// How long past a job's deadline the server keeps waiting for its
/// result, so a handler that honors the deadline always wins the race
/// against the receive timeout. A job admitted to the pool is answered
/// within `job_timeout + RESULT_GRACE`.
pub const RESULT_GRACE: Duration = Duration::from_secs(2);

/// A routing layer installed on a [`Server`] with
/// [`Server::with_router`]: the hooks through which one node of a
/// multi-node service (`clognet-cluster`) decides where jobs run. Every
/// hook defaults to "not mine", leaving the server to answer as a plain
/// one would. Hooks reach the server's own run path through [`Local`].
pub trait Router: Send + Sync + 'static {
    /// Answer an op the server does not know itself (anything but
    /// `ping`, `run`, `stats` and `shutdown`); `None` rejects it as an
    /// unknown op.
    fn op(&self, _server: &Local, _op: &str, _request: &Json) -> Option<String> {
        None
    }

    /// A `run` missed the result cache: the reply when the job is
    /// served from elsewhere, `None` to execute it here.
    fn place(&self, _server: &Local, _job: &Job) -> Option<String> {
        None
    }

    /// The job queue is full: the reply when the job is served from
    /// elsewhere, `None` to reject it as `overloaded`.
    fn overflow(&self, _server: &Local, _job: &Job) -> Option<String> {
        None
    }

    /// A job executed here completed; its report, and the warmup
    /// snapshot it produced (with its snapshot key), are already
    /// cached. Runs before the reply is sent.
    fn completed(&self, _job: &Job, _report: &str, _snapshot: Option<(u64, Arc<Vec<u8>>)>) {}

    /// Runs on its own thread while the server serves; must return
    /// soon after [`Local::is_shutting_down`] turns true.
    fn background(&self, _server: &Local) {}
}

/// A `run` job that passed the cycle-limit check and was fingerprinted
/// by [`Local::admit`].
pub struct Job {
    spec: JobSpec,
    fingerprint: u64,
}

impl Job {
    /// The job as submitted.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The canonical fingerprint: cache key and shard key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// A pool job: the spec, the cached warmup snapshot to resume from
/// (when the snapshot tier hit), and the wall-time deadline.
type PoolJob = (JobSpec, Option<Arc<Vec<u8>>>, Instant);
/// A pool result: the report, plus a fresh warmup snapshot to cache
/// when the handler produced one.
type PoolResult = Result<(String, Option<Vec<u8>>), JobError>;

/// The server's own state and its local run path, as a [`Router`] sees
/// it.
pub struct Local {
    cfg: ServeConfig,
    handler: Arc<dyn JobHandler>,
    router: Option<Arc<dyn Router>>,
    /// `None` once draining has begun.
    pool: Mutex<Option<WorkerPool<PoolJob, PoolResult>>>,
    cache: Mutex<ResultCache>,
    snapshots: Mutex<SnapshotCache>,
    metrics: Mutex<Registry>,
    shutdown: AtomicBool,
    /// Requests read but not yet answered, on every path: a job routed
    /// to another node is in flight here until its reply is relayed.
    inflight: AtomicUsize,
    /// Connection threads currently serving a peer.
    conns: AtomicUsize,
    local_addr: SocketAddr,
}

/// The server: bind with [`Server::bind`], optionally install a
/// [`Router`], then either block in [`Server::run`] (the CLI) or
/// detach with [`Server::spawn`] (tests, embedding).
pub struct Server {
    listener: TcpListener,
    local: Local,
}

/// Handle to a spawned server thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to drain and exit.
    ///
    /// # Errors
    ///
    /// The accept loop's I/O error, if it died on one.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the server thread.
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Bind the listener and start the worker pool.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(cfg: ServeConfig, handler: Arc<dyn JobHandler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let pool_handler = Arc::clone(&handler);
        let pool = WorkerPool::new(
            cfg.workers,
            cfg.queue_cap,
            move |(spec, snap, deadline): PoolJob| match snap {
                Some(bytes) => pool_handler
                    .run_from_snapshot(&spec, &bytes, deadline)
                    .map(|report| (report, None)),
                None => pool_handler.run_with_snapshot(&spec, deadline),
            },
        );
        let cache = ResultCache::new(cfg.cache_cap);
        let snapshots = SnapshotCache::new(cfg.snap_cache_cap);
        let local = Local {
            cfg,
            handler,
            router: None,
            pool: Mutex::new(Some(pool)),
            cache: Mutex::new(cache),
            snapshots: Mutex::new(snapshots),
            metrics: Mutex::new(Registry::new()),
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            local_addr,
        };
        Ok(Server { listener, local })
    }

    /// Install a routing layer; a server without one answers every
    /// request itself.
    pub fn with_router(mut self, router: Arc<dyn Router>) -> Server {
        self.local.router = Some(router);
        self
    }

    /// The bound address (resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local.local_addr
    }

    /// Accept and serve connections until a `shutdown` request, then
    /// drain and return. Each connection gets its own thread; requests
    /// within a connection are answered in order. A router's
    /// [`Router::background`] loop runs on one more thread.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop I/O error.
    pub fn run(self) -> std::io::Result<()> {
        let local = Arc::new(self.local);
        let background = local.router.clone().map(|router| {
            let local = Arc::clone(&local);
            std::thread::spawn(move || router.background(&local))
        });
        for stream in self.listener.incoming() {
            if local.is_shutting_down() {
                break; // Woken by the shutdown self-connect.
            }
            let Ok(stream) = stream else {
                continue; // Transient accept error; keep serving.
            };
            let local = Arc::clone(&local);
            std::thread::spawn(move || handle_connection(&local, stream));
        }
        drop(self.listener); // Closed before the drain, not after.
        drain(&local);
        if let Some(thread) = background {
            let _ = thread.join();
        }
        Ok(())
    }

    /// Run on a background thread; returns once the socket is bound
    /// (it already is) so clients can connect immediately.
    ///
    /// # Errors
    ///
    /// This call itself cannot fail; the handle's `join` reports the
    /// serve loop's outcome.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// How long `drain` waits for connection threads to flush their final
/// responses before the process is allowed to exit. The thread writing
/// the `shutdown` acknowledgment is detached, so without this grace a
/// CLI server could exit mid-write and the client would see a closed
/// connection instead of the ack. Peers that idle past the grace (a
/// client holding its connection open) are abandoned, as before.
const CONN_FLUSH_GRACE: Duration = Duration::from_millis(300);

/// Wait (bounded) for in-flight requests, drain the pool, then give
/// connection threads a short grace to flush final responses.
fn drain(local: &Local) {
    let deadline = Instant::now() + local.cfg.drain_timeout;
    while local.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let pool = local.pool.lock().expect("pool lock poisoned").take();
    if let Some(pool) = pool {
        pool.shutdown();
    }
    let grace = Instant::now() + CONN_FLUSH_GRACE;
    while local.conns.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn handle_connection(local: &Local, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    local.conns.fetch_add(1, Ordering::SeqCst);
    serve_frames(read_half, stream, |line| {
        local.inflight.fetch_add(1, Ordering::SeqCst);
        let reply = dispatch(local, line);
        local.inflight.fetch_sub(1, Ordering::SeqCst);
        reply
    });
    local.conns.fetch_sub(1, Ordering::SeqCst);
}

fn dispatch(local: &Local, line: &str) -> String {
    local.count("requests_total");
    let parsed = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            local.count("bad_requests");
            return error_response(ErrorCode::BadRequest, &format!("malformed JSON: {e}"));
        }
    };
    match parsed.get("op").and_then(Json::as_str) {
        Some("ping") => ok_response("ping"),
        Some("run") => handle_run(local, &parsed),
        Some("stats") => stats_response(local),
        Some("shutdown") => {
            local.shutdown.store(true, Ordering::SeqCst);
            // Wake the acceptor so it notices the flag.
            let _ = TcpStream::connect(local.local_addr);
            ok_response("shutdown")
        }
        Some(other) => {
            let router = local.router.as_deref();
            router
                .and_then(|r| r.op(local, other, &parsed))
                .unwrap_or_else(|| {
                    local.count("bad_requests");
                    error_response(
                        ErrorCode::BadRequest,
                        &format!("unknown op `{other}` (ping|run|stats|shutdown)"),
                    )
                })
        }
        None => {
            local.count("bad_requests");
            error_response(ErrorCode::BadRequest, "request missing string `op`")
        }
    }
}

/// A `run` from a client: answer from the result cache, let the router
/// place a miss elsewhere, or execute it here.
fn handle_run(local: &Local, request: &Json) -> String {
    if local.is_shutting_down() {
        return error_response(ErrorCode::ShuttingDown, "server is draining");
    }
    let spec = match JobSpec::from_json(request) {
        Ok(s) => s,
        Err(e) => {
            local.count("bad_requests");
            return error_response(ErrorCode::BadRequest, &e);
        }
    };
    let job = match local.admit(spec) {
        Ok(job) => job,
        Err(reply) => return reply,
    };
    if let Some(hit) = local.lookup(&job) {
        return hit;
    }
    let placed = local.router.as_deref().and_then(|r| r.place(local, &job));
    placed.unwrap_or_else(|| local.execute(&job, true))
}

impl Local {
    /// The configuration the server was bound with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Whether a `shutdown` request has started the drain.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The result cache.
    pub fn cache(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().expect("cache lock poisoned")
    }

    /// The warmup-snapshot tier.
    pub fn snapshots(&self) -> MutexGuard<'_, SnapshotCache> {
        self.snapshots.lock().expect("snapshot cache lock poisoned")
    }

    /// Running plus queued jobs per worker; effectively infinite once
    /// draining, so no peer hands this server more work.
    pub fn load(&self) -> f64 {
        let pool = self.pool.lock().expect("pool lock poisoned");
        match pool.as_ref() {
            Some(p) => p.depth() as f64 / p.threads().max(1) as f64,
            None => 1e9,
        }
    }

    /// A counter of the `stats` registry (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        let m = self.metrics.lock().expect("metrics lock poisoned");
        let value = m.counters().find(|(n, _)| *n == name).map_or(0, |(_, v)| v);
        value
    }

    fn count(&self, name: &str) {
        let mut m = self.metrics.lock().expect("metrics lock poisoned");
        let id = m.counter(name);
        m.add(id, 1);
    }

    /// Reject a job whose cycle budget exceeds the per-job limit, then
    /// fingerprint it. `Err` is the reply to send instead.
    ///
    /// # Errors
    ///
    /// The `cycle_limit` or handler rejection, as a reply line.
    pub fn admit(&self, spec: JobSpec) -> Result<Job, String> {
        let budget = spec.warm.saturating_add(spec.cycles);
        if budget > self.cfg.max_job_cycles {
            self.count("jobs_rejected_cycle_limit");
            return Err(error_response(
                ErrorCode::CycleLimit,
                &format!(
                    "job wants {budget} cycles; per-job limit is {}",
                    self.cfg.max_job_cycles
                ),
            ));
        }
        match self.handler.fingerprint(&spec) {
            Ok(fingerprint) => Ok(Job { spec, fingerprint }),
            Err(e) => {
                self.count("bad_requests");
                Err(error_response(e.code, &e.message))
            }
        }
    }

    /// The cache-hit reply, when the result cache holds the job.
    pub fn lookup(&self, job: &Job) -> Option<String> {
        let report = self.cache().lookup(job.fingerprint);
        self.count(if report.is_some() {
            "cache_hits"
        } else {
            "cache_misses"
        });
        report.map(|r| run_response(&fingerprint_hex(job.fingerprint), true, &r))
    }

    /// Execute the job on the worker pool, resuming from the snapshot
    /// tier when it holds the job's warmup prefix, then cache the
    /// report and pass it to [`Router::completed`]. A full queue goes
    /// to [`Router::overflow`] when `overflow` is set and is rejected
    /// as `overloaded` otherwise.
    pub fn execute(&self, job: &Job, overflow: bool) -> String {
        let skey = self.handler.snapshot_key(&job.spec);
        let snap = skey.and_then(|k| self.snapshots().lookup(k));
        if skey.is_some() {
            self.count(if snap.is_some() {
                "snapshot_hits"
            } else {
                "snapshot_misses"
            });
        }
        let resumed = snap.is_some();
        let deadline = Instant::now() + self.cfg.job_timeout;
        let submitted = {
            let pool = self.pool.lock().expect("pool lock poisoned");
            match pool.as_ref() {
                None => return error_response(ErrorCode::ShuttingDown, "server is draining"),
                Some(p) => p.try_submit((job.spec.clone(), snap, deadline)),
            }
        };
        let Ok(rx) = submitted else {
            let routed = match &self.router {
                Some(r) if overflow => r.overflow(self, job),
                _ => None,
            };
            return routed.unwrap_or_else(|| {
                self.count("jobs_rejected_overload");
                error_response(
                    ErrorCode::Overloaded,
                    &format!(
                        "job queue full ({} waiting, {} workers); retry later",
                        self.cfg.queue_cap, self.cfg.workers
                    ),
                )
            });
        };
        self.count("jobs_admitted");
        let wait = self.cfg.job_timeout + RESULT_GRACE;
        match rx.recv_timeout(wait) {
            Ok(Ok((report, fresh_snap))) => {
                self.count("jobs_completed");
                if resumed {
                    self.count("jobs_resumed_from_snapshot");
                }
                self.cache().insert(job.fingerprint, report.clone());
                let fresh_snap = skey.zip(fresh_snap).map(|(k, bytes)| {
                    let bytes = Arc::new(bytes);
                    self.snapshots().insert(k, Arc::clone(&bytes));
                    (k, bytes)
                });
                if let Some(r) = &self.router {
                    r.completed(job, &report, fresh_snap);
                }
                run_response(&fingerprint_hex(job.fingerprint), false, &report)
            }
            Ok(Err(e)) => {
                self.count("jobs_failed");
                error_response(e.code, &e.message)
            }
            Err(RecvTimeoutError::Disconnected) => {
                // The handler panicked; its worker caught it and lives on.
                self.count("jobs_failed");
                error_response(ErrorCode::Internal, "the job failed inside the simulator")
            }
            Err(RecvTimeoutError::Timeout) => {
                self.count("jobs_timed_out");
                error_response(
                    ErrorCode::Timeout,
                    &format!(
                        "no result within {:.1}s (per-job wall-time limit)",
                        wait.as_secs_f64()
                    ),
                )
            }
        }
    }
}

fn stats_response(local: &Local) -> String {
    let (depth, workers, utilization) = {
        let pool = local.pool.lock().expect("pool lock poisoned");
        match pool.as_ref() {
            Some(p) => (p.depth(), p.threads(), p.utilization()),
            None => (0, 0, Vec::new()),
        }
    };
    let (entries, hit_rate, hits, misses) = {
        let c = local.cache();
        (c.len(), c.hit_rate(), c.hits(), c.misses())
    };
    let (snap_entries, snap_bytes, snap_hits, snap_misses) = {
        let s = local.snapshots();
        (s.len(), s.bytes(), s.hits(), s.misses())
    };
    let registry_json = {
        let mut m = local.metrics.lock().expect("metrics lock poisoned");
        // Mirror the instantaneous values into gauges so exported
        // registries are self-contained.
        let g = m.gauge("queue_depth");
        m.set(g, depth as f64);
        let g = m.gauge("cache_hit_rate");
        m.set(g, hit_rate);
        let g = m.gauge("cache_entries");
        m.set(g, entries as f64);
        for (w, u) in utilization.iter().enumerate() {
            let g = m.gauge(&format!("worker{w}_utilization"));
            m.set(g, *u);
        }
        registry_to_json(&m)
    };
    let util_arr: Vec<String> = utilization.iter().map(|&u| json_f64(u)).collect();
    format!(
        "{{\"ok\":true,\"op\":\"stats\",\"queue_depth\":{depth},\"workers\":{workers},\
         \"utilization\":[{}],\"cache_entries\":{entries},\"cache_hits\":{hits},\
         \"cache_misses\":{misses},\"cache_hit_rate\":{},\
         \"snapshot_entries\":{snap_entries},\"snapshot_bytes\":{snap_bytes},\
         \"snapshot_hits\":{snap_hits},\"snapshot_misses\":{snap_misses},\
         \"registry\":{registry_json}}}",
        util_arr.join(","),
        json_f64(hit_rate)
    )
}
