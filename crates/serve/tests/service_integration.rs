//! End-to-end tests for the simulation service, using stub handlers so
//! the robustness contract (memoization, admission control, limits,
//! drain) is exercised without dragging in `clognet-core`.

use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::json::Json;
use clognet_serve::server::{JobError, JobHandler, ServeConfig, Server};
use clognet_serve::wire::{ErrorCode, JobSpec, Response};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fast retries so tests never sleep long on the happy path.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 20,
        base_ms: 5,
        cap_ms: 50,
        seed: 1,
    }
}

/// A deterministic stub: fingerprint hashes the spec's workload names
/// and cycle counts; `run` counts invocations and renders a small
/// report, or panics on gpu `PANIC`. Optionally stalls until released
/// (for overload/drain tests).
struct StubHandler {
    runs: AtomicUsize,
    stall: Option<Arc<AtomicUsize>>,
}

impl StubHandler {
    fn new() -> StubHandler {
        StubHandler {
            runs: AtomicUsize::new(0),
            stall: None,
        }
    }

    fn stalling(release: Arc<AtomicUsize>) -> StubHandler {
        StubHandler {
            runs: AtomicUsize::new(0),
            stall: Some(release),
        }
    }
}

impl JobHandler for StubHandler {
    fn fingerprint(&self, spec: &JobSpec) -> Result<u64, JobError> {
        if spec.gpu == "NOPE" {
            return Err(JobError::bad_request("unknown GPU benchmark `NOPE`"));
        }
        let mut fp = spec.warm.wrapping_mul(31).wrapping_add(spec.cycles);
        for b in spec.gpu.bytes().chain(spec.cpu.bytes()) {
            fp = fp.wrapping_mul(131).wrapping_add(u64::from(b));
        }
        // Option spellings that resolve identically must collapse: the
        // stub treats `scheme=dr` and `scheme=delegated-replies` alike.
        for (k, v) in &spec.opts {
            let v = if k == "scheme" && v == "delegated-replies" {
                "dr"
            } else {
                v.as_str()
            };
            for b in k.bytes().chain(v.bytes()) {
                fp = fp.wrapping_mul(131).wrapping_add(u64::from(b));
            }
        }
        Ok(fp)
    }

    fn run(&self, spec: &JobSpec, deadline: Instant) -> Result<String, JobError> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        assert_ne!(spec.gpu, "PANIC", "a job that panics inside the handler");
        if let Some(release) = &self.stall {
            while release.load(Ordering::SeqCst) == 0 {
                if Instant::now() >= deadline {
                    return Err(JobError {
                        code: ErrorCode::Timeout,
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

fn serve(cfg: ServeConfig, handler: Arc<StubHandler>) -> (String, clognet_serve::ServerHandle) {
    let server = Server::bind(cfg, handler).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.spawn().expect("spawn");
    (addr, handle)
}

#[test]
fn resubmission_is_a_cache_hit_and_byte_identical() {
    let handler = Arc::new(StubHandler::new());
    let (addr, handle) = serve(ServeConfig::default(), Arc::clone(&handler));
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    let spec = JobSpec::new("MM", "canneal");
    let first = client.submit(&spec).unwrap();
    let second = client.submit(&spec).unwrap();
    assert!(!first.cache_hit, "first submission must simulate");
    assert!(
        second.cache_hit,
        "identical resubmission must hit the cache"
    );
    assert_eq!(
        first.report, second.report,
        "reports must be byte-identical"
    );
    assert_eq!(first.fingerprint, second.fingerprint);
    assert_eq!(
        handler.runs.load(Ordering::SeqCst),
        1,
        "the simulation must run exactly once"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn spelling_variants_share_a_cache_entry() {
    let handler = Arc::new(StubHandler::new());
    let (addr, handle) = serve(ServeConfig::default(), Arc::clone(&handler));
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    let mut a = JobSpec::new("HS", "bodytrack");
    a.opts.insert("scheme".into(), "dr".into());
    let mut b = a.clone();
    b.opts.insert("scheme".into(), "delegated-replies".into());

    let first = client.submit(&a).unwrap();
    let second = client.submit(&b).unwrap();
    assert!(second.cache_hit, "resolved-equal specs share a fingerprint");
    assert_eq!(first.fingerprint, second.fingerprint);
    assert_eq!(handler.runs.load(Ordering::SeqCst), 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn queue_overflow_yields_structured_overloaded_not_a_hang() {
    let release = Arc::new(AtomicUsize::new(0));
    let handler = Arc::new(StubHandler::stalling(Arc::clone(&release)));
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        job_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg, Arc::clone(&handler));

    // Keep the single worker busy plus one queued job, on separate
    // connections so each waits on its own thread. Sequenced: the
    // second staller is only submitted once the worker has claimed the
    // first, so it is guaranteed the queue slot rather than racing the
    // first job for it.
    let staller = |i: u64| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, &fast_retry()).unwrap();
            let mut spec = JobSpec::new("HS", "bodytrack");
            spec.cycles = 1_000 + i; // distinct fingerprints
            c.submit(&spec)
        })
    };
    let first = staller(0);
    let t0 = Instant::now();
    while handler.runs.load(Ordering::SeqCst) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let second = staller(1);
    let stallers = vec![first, second];
    // Wait until the second job occupies the queue slot (pool depth
    // counts claimed + queued, so 2 means busy worker + full queue).
    let mut probe = Client::connect(&addr, &fast_retry()).unwrap();
    let t0 = Instant::now();
    loop {
        let stats = Json::parse(&probe.stats().unwrap()).unwrap();
        if stats.get("queue_depth").and_then(Json::as_u64) == Some(2) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "second job never queued"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // A third distinct job must be bounced immediately.
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();
    let mut spec = JobSpec::new("HS", "bodytrack");
    spec.cycles = 9_999;
    let start = Instant::now();
    let response = client.request(&spec.to_request_line()).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "overload rejection must be prompt, not a hang"
    );
    match response {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected overloaded, got {other:?}"),
    }

    // Release the stalled jobs; both must still complete normally.
    release.store(1, Ordering::SeqCst);
    for t in stallers {
        let result = t.join().unwrap().expect("stalled job completes");
        assert!(!result.cache_hit);
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn cycle_budget_above_limit_is_rejected_up_front() {
    let handler = Arc::new(StubHandler::new());
    let cfg = ServeConfig {
        max_job_cycles: 1_000,
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg, Arc::clone(&handler));
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    let mut spec = JobSpec::new("HS", "bodytrack");
    spec.warm = 600;
    spec.cycles = 600;
    match client.request(&spec.to_request_line()).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::CycleLimit);
            assert!(
                message.contains("1200"),
                "message names the budget: {message}"
            );
        }
        other => panic!("expected cycle_limit, got {other:?}"),
    }
    assert_eq!(handler.runs.load(Ordering::SeqCst), 0, "never simulated");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn handler_rejections_map_to_bad_request() {
    let handler = Arc::new(StubHandler::new());
    let (addr, handle) = serve(ServeConfig::default(), handler);
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    match client.request(&JobSpec::new("NOPE", "bodytrack").to_request_line()) {
        Ok(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("NOPE"));
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_panicking_job_answers_internal_and_keeps_its_worker() {
    let handler = Arc::new(StubHandler::new());
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg, Arc::clone(&handler));
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    for _ in 0..2 {
        match client.request(&JobSpec::new("PANIC", "bodytrack").to_request_line()) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Internal),
            other => panic!("expected internal, got {other:?}"),
        }
    }
    // The one worker survived both panics and runs the next job.
    let ok = client.submit(&JobSpec::new("HS", "bodytrack")).unwrap();
    assert!(!ok.cache_hit);
    assert_eq!(handler.runs.load(Ordering::SeqCst), 3);
    let stats = Json::parse(&client.stats().unwrap()).unwrap();
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(0));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn deadline_overrun_reports_timeout() {
    // A stall that is never released, with a tiny job timeout: the
    // handler notices the deadline and fails the job as `timeout`.
    let release = Arc::new(AtomicUsize::new(0));
    let handler = Arc::new(StubHandler::stalling(release));
    let cfg = ServeConfig {
        workers: 1,
        job_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg, handler);
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    match client
        .request(&JobSpec::new("HS", "bodytrack").to_request_line())
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected timeout, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn shutdown_drains_inflight_jobs_before_exiting() {
    let release = Arc::new(AtomicUsize::new(0));
    let handler = Arc::new(StubHandler::stalling(Arc::clone(&release)));
    let cfg = ServeConfig {
        workers: 1,
        job_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg, Arc::clone(&handler));

    // One slow job in flight.
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, &fast_retry()).unwrap();
            c.submit(&JobSpec::new("HS", "bodytrack"))
        })
    };
    let t0 = Instant::now();
    while handler.runs.load(Ordering::SeqCst) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "worker never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Shutdown from a second connection; new jobs are refused.
    let mut admin = Client::connect(&addr, &fast_retry()).unwrap();
    admin.shutdown().unwrap();
    match admin.request(&JobSpec::new("MM", "canneal").to_request_line()) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        // The acceptor may already have closed the connection.
        Err(_) => {}
        other => panic!("expected shutting_down, got {other:?}"),
    }

    // The in-flight job still gets its answer, and the server exits.
    release.store(1, Ordering::SeqCst);
    let result = slow.join().unwrap().expect("in-flight job completes");
    assert!(!result.cache_hit);
    handle.join().unwrap();
}

#[test]
fn stats_reports_queue_cache_and_worker_utilization() {
    let handler = Arc::new(StubHandler::new());
    let cfg = ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg, handler);
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    let spec = JobSpec::new("MM", "canneal");
    client.submit(&spec).unwrap(); // miss
    client.submit(&spec).unwrap(); // hit

    let stats = Json::parse(&client.stats().unwrap()).unwrap();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(stats.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("workers").and_then(Json::as_u64), Some(3));
    assert_eq!(stats.get("cache_entries").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_u64), Some(1));
    let rate = stats.get("cache_hit_rate").and_then(Json::as_f64).unwrap();
    assert!((rate - 0.5).abs() < 1e-12);
    let util = stats.get("utilization").and_then(Json::as_arr).unwrap();
    assert_eq!(util.len(), 3, "one utilization figure per worker");
    for u in util {
        let u = u.as_f64().unwrap();
        assert!((0.0..=1.0).contains(&u));
    }
    // The embedded telemetry registry is a well-formed document too.
    let registry = stats.get("registry").expect("registry embedded");
    assert!(registry.get("counters").is_some());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn malformed_and_unknown_requests_get_bad_request() {
    let handler = Arc::new(StubHandler::new());
    let (addr, handle) = serve(ServeConfig::default(), handler);
    let mut client = Client::connect(&addr, &fast_retry()).unwrap();

    for line in ["{not json", "{\"op\":\"dance\"}", "{\"gpu\":\"HS\"}"] {
        match client.request(line).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected bad_request for {line}, got {other:?}"),
        }
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_distinct_submissions_all_complete() {
    let handler = Arc::new(StubHandler::new());
    let cfg = ServeConfig {
        workers: 4,
        queue_cap: 64,
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg, Arc::clone(&handler));

    let threads: Vec<_> = (0..8u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, &fast_retry()).unwrap();
                let mut spec = JobSpec::new("HS", "bodytrack");
                spec.cycles = 2_000 + i;
                c.submit(&spec).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        assert!(
            r.report
                .contains(&format!("\"cycles\":{}", 2_000 + i as u64)),
            "result routed back to the right client"
        );
    }
    assert_eq!(handler.runs.load(Ordering::SeqCst), 8);

    let mut client = Client::connect(&addr, &fast_retry()).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}
