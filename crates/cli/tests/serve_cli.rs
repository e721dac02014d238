//! End-to-end service tests with the *real* simulation handler: what a
//! `clognet submit` prints must be byte-identical to an inline
//! `clognet run --json` of the same job, whether the report was
//! simulated fresh, served from the cache, or produced under
//! concurrent load.

use clognet_cli::config::config_from;
use clognet_cli::driver::measure;
use clognet_cli::serve_cmd::SimHandler;
use clognet_cli::{report, Args};
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::server::{ServeConfig, Server};
use clognet_serve::wire::JobSpec;
use std::sync::Arc;

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

fn serve(cfg: ServeConfig) -> (String, clognet_serve::ServerHandle) {
    let server = Server::bind(cfg, Arc::new(SimHandler)).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.spawn().expect("spawn");
    (addr, handle)
}

#[test]
fn served_reports_match_inline_runs_and_cache_hits_are_identical() {
    let (addr, handle) = serve(ServeConfig::default());
    let mut client = Client::connect(&addr, &retry()).unwrap();

    let job = spec("HS", "bodytrack", "dr");
    let first = client.submit(&job).unwrap();
    let second = client.submit(&job).unwrap();
    assert!(!first.cache_hit);
    assert!(second.cache_hit, "identical resubmission hits the cache");
    assert_eq!(first.report, second.report, "cached bytes are identical");
    assert_eq!(
        first.report,
        inline_report(&job),
        "service output == inline `clognet run --json`"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn concurrent_submissions_match_single_threaded_inline_runs() {
    let cfg = ServeConfig {
        workers: 4,
        queue_cap: 32,
        ..ServeConfig::default()
    };
    let (addr, handle) = serve(cfg);

    let jobs = [
        spec("HS", "bodytrack", "baseline"),
        spec("HS", "bodytrack", "dr"),
        spec("MM", "canneal", "baseline"),
        spec("MM", "canneal", "dr"),
        spec("BP", "ferret", "dr"),
        spec("NN", "canneal", "baseline"),
    ];
    let threads: Vec<_> = jobs
        .iter()
        .cloned()
        .map(|job| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, &retry()).unwrap();
                c.submit(&job).unwrap()
            })
        })
        .collect();
    let served: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (job, result) in jobs.iter().zip(&served) {
        assert_eq!(
            result.report,
            inline_report(job),
            "concurrently-served {} + {} under {} diverged from the inline run",
            job.gpu,
            job.cpu,
            job.opts["scheme"]
        );
    }

    let mut client = Client::connect(&addr, &retry()).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Regression: execution-mode knobs must not split the cache. A
/// no-ff submit has to hit the entry a fast-forwarded submit wrote —
/// same fingerprint, same bytes.
#[test]
fn no_ff_submit_hits_the_cache_entry_a_fast_forwarded_one_wrote() {
    let (addr, handle) = serve(ServeConfig::default());
    let mut client = Client::connect(&addr, &retry()).unwrap();

    let fast = spec("HS", "bodytrack", "dr");
    let mut no_ff = fast.clone();
    no_ff.opts.insert("no-ff".into(), "true".into());

    let first = client.submit(&fast).unwrap();
    assert!(!first.cache_hit);
    let second = client.submit(&no_ff).unwrap();
    assert_eq!(first.fingerprint, second.fingerprint);
    assert!(second.cache_hit, "no-ff submit shares the cache entry");
    assert_eq!(first.report, second.report);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The snapshot tier: a job that misses the result cache but shares
/// its warmup prefix (same config + workloads + warm) with an earlier
/// job resumes from the cached snapshot — and the resumed report is
/// byte-identical to an inline cold run.
#[test]
fn warm_prefix_sharing_resumes_from_the_snapshot_tier() {
    let (addr, handle) = serve(ServeConfig::default());
    let mut client = Client::connect(&addr, &retry()).unwrap();

    let first_job = spec("HS", "bodytrack", "dr");
    let mut longer = first_job.clone();
    longer.cycles = CYCLES + 500; // New fingerprint, same warmup prefix.

    let first = client.submit(&first_job).unwrap();
    let second = client.submit(&longer).unwrap();
    assert!(!first.cache_hit);
    assert!(!second.cache_hit, "different cycles = different result");
    assert_ne!(first.fingerprint, second.fingerprint);
    assert_eq!(
        second.report,
        inline_report(&longer),
        "snapshot-resumed report diverged from a cold inline run"
    );
    let stats = client.stats().unwrap();
    assert!(
        stats.contains("\"snapshot_hits\":1"),
        "second job resumed from the snapshot tier: {stats}"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn resolved_spelling_variants_share_one_simulation() {
    let (addr, handle) = serve(ServeConfig::default());
    let mut client = Client::connect(&addr, &retry()).unwrap();

    let first = client.submit(&spec("HS", "bodytrack", "dr")).unwrap();
    let second = client
        .submit(&spec("HS", "bodytrack", "delegated-replies"))
        .unwrap();
    assert_eq!(first.fingerprint, second.fingerprint);
    assert!(
        second.cache_hit,
        "resolved-equal config shares a cache entry"
    );
    assert_eq!(first.report, second.report);

    client.shutdown().unwrap();
    handle.join().unwrap();
}
