//! The host record every result carries, and process measurements.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Version of the compiler that built the benchmark.
pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The checked-out commit, when run from a git work tree; checkouts
/// without `.git` report `unknown` and rely on [`source_digest`].
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the program's sources (`Cargo.toml`, `Cargo.lock`
/// and every file under `crates/`, in path order), which identifies the
/// measured code where no commit id is available.
pub fn source_digest() -> String {
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut h = crate::golden::Fnv::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.finish())
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// A numeric field of `/proc/self/status` (first number on the line).
fn status_field(key: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(1)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and both CPU-time
    // clocks are clocks every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time every thread of this process has run, ns. Unlike wall time
/// it leaves out the time a virtual machine's hypervisor steals, which
/// on a shared host is the largest source of run-to-run noise; unlike
/// one thread's CPU time it still counts work moved onto other threads.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has run, ns: one worker's share of a
/// service's simulation time.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// `(steal, total)` jiffies summed over every CPU, from `/proc/stat`.
/// The share of steal over a run tells how much of it the hypervisor
/// gave to other guests.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}
