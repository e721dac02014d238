//! Thread-per-job parallel runner for independent simulations.
//!
//! Every experiment in this repo — `clognet compare`, `clognet sweep`,
//! `clognet paper` — boils down to a batch of *independent*
//! (configuration, workload, scheme) simulations whose results are then
//! laid out in a table. Each simulation is single-threaded and owns all
//! of its state, so the batch is embarrassingly parallel; the only
//! requirements are that results come back **in submission order**
//! (tables and JSON output are order-sensitive) and that running with N
//! threads is bit-identical to running with one (each job carries its
//! own seeded PRNG; threads share nothing).
//!
//! Built on `std::thread` only — no external crates. Batch jobs are
//! claimed from a shared atomic counter (work stealing by index), so a
//! slow job never stalls the queue behind it.
//!
//! Two faces share the module: [`run_jobs`] for one-shot batches
//! (`compare`, `sweep`, `paper`) and [`WorkerPool`] for
//! long-lived services (`clognet-serve`) that need a bounded queue,
//! admission control, and graceful drain.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Run `f` over every element of `jobs`, using up to `threads` worker
/// threads, and return the results **in input order**.
///
/// With `threads <= 1` (or a single job) everything runs inline on the
/// caller's thread — no spawns, identical behavior, easy profiling.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins.
pub fn run_jobs<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    run_jobs_with_state(jobs, threads, || (), |(), j| f(j))
}

/// [`run_jobs`] with per-worker state: each worker calls `init` once
/// when it starts and threads the value through every job it claims.
///
/// This is the hook batch harnesses use to amortize a per-worker
/// resource — a scratch buffer, a network connection — across jobs
/// instead of paying its construction per job. Determinism is
/// unaffected as long as `f`'s *result* does not depend on the state's
/// history (reuse a cleared buffer, not accumulated contents): results
/// still come back in submission order whatever worker ran them.
///
/// With `threads <= 1` (or a single job) one state is built and
/// everything runs inline on the caller's thread.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins.
pub fn run_jobs_with_state<J, R, S, I, F>(jobs: Vec<J>, threads: usize, init: I, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, J) -> R + Sync,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return jobs.into_iter().map(|j| f(&mut state, j)).collect();
    }
    let workers = threads.min(n);
    // Jobs move into per-slot cells so each worker can take them by
    // index; results land in matching slots, preserving input order.
    let job_slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = job_slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    let r = f(&mut state, job);
                    *result_slots[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("job finished without a result")
        })
        .collect()
}

/// A job queued into a [`WorkerPool`]: the payload plus the one-shot
/// channel its result is delivered on.
type PooledJob<J, R> = (J, mpsc::Sender<R>);

/// Rejection returned by [`WorkerPool::try_submit`] when the bounded
/// queue is full — the admission-control signal a service layers its
/// `overloaded` response on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// A persistent, bounded worker pool for long-lived services.
///
/// [`run_jobs`] is the batch face of this module: spawn, drain, join.
/// A service like `clognet-serve` instead needs workers that outlive
/// any one request, a **bounded** queue whose overflow is observable
/// (admission control, not back-pressure by blocking), and per-worker
/// utilization accounting. Jobs are closed over by a shared handler
/// function fixed at construction; each submission returns a one-shot
/// receiver for that job's result, so results route back to the
/// submitting connection rather than to a batch collector.
///
/// Determinism: workers share nothing but the handler, and every job
/// carries its own seeded state (a `System` is built per job), so a
/// result is a pure function of its job — identical to running the
/// same job inline, regardless of queue position or worker count.
pub struct WorkerPool<J: Send + 'static, R: Send + 'static> {
    tx: Option<mpsc::SyncSender<PooledJob<J, R>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Jobs accepted but not yet finished (queued + running).
    depth: Arc<AtomicUsize>,
    /// Per-worker busy time in nanoseconds.
    busy_ns: Arc<Vec<AtomicU64>>,
    started: Instant,
}

impl<J: Send + 'static, R: Send + 'static> WorkerPool<J, R> {
    /// Spawn `threads` workers that run `handler` over submitted jobs;
    /// at most `queue_cap` jobs may be queued awaiting a worker (jobs
    /// already claimed by a worker do not count against the cap).
    pub fn new<F>(threads: usize, queue_cap: usize, handler: F) -> Self
    where
        F: Fn(J) -> R + Send + Sync + 'static,
    {
        let threads = threads.max(1);
        let (tx, rx) = mpsc::sync_channel::<PooledJob<J, R>>(queue_cap.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handler = Arc::new(handler);
        let depth = Arc::new(AtomicUsize::new(0));
        let busy_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let workers = (0..threads)
            .map(|w| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let depth = Arc::clone(&depth);
                let busy_ns = Arc::clone(&busy_ns);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only while claiming.
                    let claimed = rx.lock().expect("pool receiver poisoned").recv();
                    let Ok((job, reply)) = claimed else {
                        break; // Pool dropped its sender: drain complete.
                    };
                    let start = Instant::now();
                    // A panicking job costs its reply, not the worker:
                    // dropping `reply` unsent tells the submitter.
                    let result = catch_unwind(AssertUnwindSafe(|| handler(job)));
                    busy_ns[w].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    depth.fetch_sub(1, Ordering::Relaxed);
                    // The submitter may have given up (timeout); a dead
                    // receiver is not the pool's problem.
                    if let Ok(result) = result {
                        let _ = reply.send(result);
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            depth,
            busy_ns,
            started: Instant::now(),
        }
    }

    /// Submit a job without blocking. On acceptance returns the
    /// receiver the result will arrive on (it disconnects without one
    /// if the job panics; the worker lives on); on a full queue returns
    /// [`QueueFull`] immediately.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when `queue_cap` jobs are already waiting.
    pub fn try_submit(&self, job: J) -> Result<mpsc::Receiver<R>, QueueFull> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = self.tx.as_ref().expect("pool already shut down");
        self.depth.fetch_add(1, Ordering::Relaxed);
        match tx.try_send((job, reply_tx)) {
            Ok(()) => Ok(reply_rx),
            Err(mpsc::TrySendError::Full(_)) | Err(mpsc::TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(QueueFull)
            }
        }
    }

    /// Jobs accepted but not yet finished (queued plus running).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Per-worker utilization since the pool started: fraction of
    /// wall-clock time each worker spent executing jobs, in `[0, 1]`.
    pub fn utilization(&self) -> Vec<f64> {
        let elapsed = self.started.elapsed().as_nanos() as f64;
        self.busy_ns
            .iter()
            .map(|b| {
                if elapsed > 0.0 {
                    (b.load(Ordering::Relaxed) as f64 / elapsed).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Graceful drain: stop accepting, finish every queued job, join
    /// all workers. Queued jobs still deliver their results.
    pub fn shutdown(mut self) {
        drop(self.tx.take()); // Workers exit once the queue runs dry.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Run `f` once and return its result with the wall-clock seconds it
/// took — the timing idiom every throughput leg (bench, serve smoke,
/// cluster-bench) shares.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Thread count for parallel harnesses: the machine's available
/// parallelism (1 if unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_jobs(jobs.clone(), 8, |j| {
            // Make late jobs finish first to stress ordering.
            std::thread::sleep(std::time::Duration::from_micros(64 - j));
            j * 10
        });
        assert_eq!(out, jobs.iter().map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let jobs: Vec<u32> = (0..40).collect();
        let seq = run_jobs(jobs.clone(), 1, |j| j.wrapping_mul(2654435761));
        let par = run_jobs(jobs, 4, |j| j.wrapping_mul(2654435761));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_job() {
        let out: Vec<u32> = run_jobs(Vec::<u32>::new(), 4, |j| j);
        assert!(out.is_empty());
        assert_eq!(run_jobs(vec![7u32], 4, |j| j + 1), vec![8]);
    }

    #[test]
    fn with_state_builds_one_state_per_worker_and_reuses_it() {
        let inits = AtomicUsize::new(0);
        let jobs: Vec<u64> = (0..32).collect();
        let out = run_jobs_with_state(
            jobs,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::with_capacity(64)
            },
            |scratch, j| {
                // A well-behaved job clears the scratch rather than
                // depending on what the previous job left behind.
                scratch.clear();
                scratch.extend(0..=j);
                scratch.iter().sum::<u64>()
            },
        );
        assert_eq!(out, (0..32).map(|j| j * (j + 1) / 2).collect::<Vec<_>>());
        let built = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&built),
            "one state per worker, not per job (built {built})"
        );
    }

    #[test]
    fn with_state_inline_path_matches_parallel() {
        let jobs: Vec<u32> = (0..24).collect();
        let run = |threads| {
            run_jobs_with_state(jobs.clone(), threads, String::new, |buf: &mut String, j| {
                buf.clear();
                use std::fmt::Write;
                write!(buf, "{j:04}").unwrap();
                buf.clone()
            })
        };
        assert_eq!(run(1), run(5));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn pool_runs_jobs_and_routes_results_back() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(4, 32, |j| j * 3);
        let rxs: Vec<_> = (0..32u64)
            .map(|j| pool.try_submit(j).expect("queue has room"))
            .collect();
        for (j, rx) in rxs.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap(), j as u64 * 3);
        }
        pool.shutdown();
    }

    #[test]
    fn pool_rejects_when_queue_is_full() {
        // One worker stuck on a slow job; capacity-1 queue fills after
        // one more submission.
        let claimed = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicUsize::new(0));
        let (c, r) = (Arc::clone(&claimed), Arc::clone(&release));
        let pool: WorkerPool<u64, u64> = WorkerPool::new(1, 1, move |j| {
            if j == 0 {
                c.store(1, Ordering::SeqCst);
                while r.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            j
        });
        let first = pool.try_submit(0).expect("accepted");
        // Wait until the worker has claimed job 0, emptying the queue.
        while claimed.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let second = pool.try_submit(1).expect("queued");
        // Queue now holds job 1; the next submission must bounce.
        assert!(matches!(pool.try_submit(2), Err(QueueFull)));
        release.store(1, Ordering::SeqCst);
        assert_eq!(first.recv().unwrap(), 0);
        assert_eq!(second.recv().unwrap(), 1);
        pool.shutdown();
    }

    #[test]
    fn pool_drains_queued_jobs_on_shutdown() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(2, 64, |j| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            j + 1
        });
        let rxs: Vec<_> = (0..20u64)
            .map(|j| pool.try_submit(j).expect("queue has room"))
            .collect();
        pool.shutdown();
        // Every accepted job produced a result even though shutdown
        // raced the queue.
        for (j, rx) in rxs.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap(), j as u64 + 1);
        }
    }

    #[test]
    fn pool_reports_depth_and_utilization_shape() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(3, 8, |j| j);
        assert_eq!(pool.threads(), 3);
        let u = pool.utilization();
        assert_eq!(u.len(), 3);
        assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let rx = pool.try_submit(9).unwrap();
        assert_eq!(rx.recv().unwrap(), 9);
        while pool.depth() > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        pool.shutdown();
    }
}
