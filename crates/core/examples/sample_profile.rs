//! A CPU-time sampling profile of the chip-8x8 job list: where host time
//! goes inside `System::tick`, by function.
//!
//! ```sh
//! cargo run --release --example sample_profile -- [seed] [rounds]
//! ```
//!
//! One round is the nine jobs of perfbench's chip-8x8 workload
//! (NN+canneal, HS+bodytrack and BP+ferret under baseline, RP and DR),
//! each built cold, warmed 2 000 cycles, reset and measured 5 000.
//! Defaults: seed 1, 3 rounds.
//!
//! `ITIMER_PROF` raises `SIGPROF` per millisecond of process CPU time
//! (the kernel rounds that up to its tick, 4 ms at 250 Hz), and the
//! handler records the interrupted instruction address. After the run,
//! `addr2line -i` expands each address over its inlined frames, so code
//! the compiler folded into a caller still counts under its own
//! function. Only the crates' own frames (`clognet_*`) are kept: the
//! standard library's inlined helpers (`Vec::index` and the like) would
//! otherwise take the blame for the loops that call them. A closure
//! counts as the function that defines it. A function's
//! *self* samples are those whose innermost kept frame it is; its
//! *inline* samples are those with it anywhere in the inline chain.
//! Calls are not followed (there is no stack walk), so the inline column
//! is not an inclusive time: a sample in a function that was not
//! inlined counts for that function and the functions inlined into it,
//! not for its caller. `Network::ni_injection`, for one, reads about one
//! inline sample per round while its out-of-line callee `ni_inject`
//! takes 5 to 15. The last table gives self samples by source line
//! of the innermost kept frame, for code that is not a function of its
//! own. Rows under 0.1% of the samples are left out.
//!
//! Needs Linux on x86_64 (the handler reads the signal frame directly)
//! and `addr2line` from binutils; build with debug info (the release
//! profile has it).

// Installing the SIGPROF handler and reading the interrupted address
// out of its signal frame go through libc and a raw pointer.
#![allow(unsafe_code)]

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// The saved instruction pointer's index in `gregs`.
    const REG_RIP: usize = 16;
    /// Sample capacity: about 65 s of CPU time at one sample per ms.
    const CAP: usize = 1 << 16;

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    /// The head of the kernel's `ucontext_t` on x86_64, up to the saved
    /// general registers.
    #[repr(C)]
    struct UContext {
        flags: u64,
        link: *mut c_void,
        stack_sp: *mut c_void,
        stack_flags: i32,
        stack_size: usize,
        gregs: [i64; 23],
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    static PCS: [AtomicUsize; CAP] = [const { AtomicUsize::new(0) }; CAP];

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        // SAFETY: an `SA_SIGINFO` handler's third argument is the
        // interrupted thread's `ucontext_t`.
        let rip = unsafe { (*(ctx as *const UContext)).gregs[REG_RIP] } as usize;
        // Atomics only: async-signal-safe. `Relaxed` suffices: the
        // handler runs on the sampled thread itself, between two of its
        // instructions, and `stop` disarms the timer before that thread
        // reads the buffer, so program order publishes every store.
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if i < CAP {
            PCS[i].store(rip, Ordering::Relaxed);
        }
    }

    fn set_timer(usec: i64) {
        let t = ITimerVal {
            interval: TimeVal { sec: 0, usec },
            value: TimeVal { sec: 0, usec },
        };
        // SAFETY: a valid timer value; the old value is not wanted.
        let rc = unsafe { setitimer(ITIMER_PROF, &t, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    /// Install the handler and start sampling every millisecond of CPU
    /// time.
    pub fn start() {
        let handler: extern "C" fn(i32, *mut c_void, *mut c_void) = on_sigprof;
        let act = SigAction {
            handler: handler as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: a valid action whose handler only touches atomics.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction failed");
        set_timer(1_000);
    }

    /// Stop sampling and return the recorded addresses (and how many
    /// samples overflowed the buffer).
    pub fn stop() -> (Vec<usize>, usize) {
        set_timer(0);
        let taken = TAKEN.load(Ordering::Relaxed);
        let pcs = PCS[..taken.min(CAP)]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        (pcs, taken.saturating_sub(CAP))
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod symbols {
    use std::collections::HashMap;
    use std::io::{BufRead, BufReader, Write};
    use std::path::Path;
    use std::process::{Command, Stdio};

    /// One resolved frame: function name and `file:line`.
    pub type Frame = (String, String);

    /// The executable's load bias and its executable address ranges,
    /// from `/proc/self/maps`.
    fn exe_mappings(exe: &Path) -> (usize, Vec<(usize, usize)>) {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        let (mut base, mut text) = (None, Vec::new());
        for line in maps.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() < 6 || Path::new(f[5]) != exe {
                continue;
            }
            let (lo, hi) = f[0].split_once('-').expect("address range");
            let lo = usize::from_str_radix(lo, 16).expect("hex address");
            let hi = usize::from_str_radix(hi, 16).expect("hex address");
            if usize::from_str_radix(f[2], 16) == Ok(0) {
                base = Some(base.map_or(lo, |b: usize| b.min(lo)));
            }
            if f[1].contains('x') {
                text.push((lo, hi));
            }
        }
        (base.expect("executable mapping"), text)
    }

    /// Strip a legacy-mangled Rust name's `::h<hash>` suffix, and fold a
    /// closure into the function that defines it (whether or not the
    /// compiler inlined it there).
    fn clean(name: &str) -> String {
        let mut name = match name.rsplit_once("::h") {
            Some((head, hash))
                if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) =>
            {
                head
            }
            _ => name,
        };
        while let Some(head) = name.strip_suffix("::{{closure}}") {
            name = head;
        }
        name.to_string()
    }

    /// Resolve each sampled address to its inline chain, innermost
    /// frame first. Addresses outside the executable resolve to one
    /// placeholder frame.
    pub fn resolve(pcs: &[usize]) -> HashMap<usize, Vec<Frame>> {
        let exe = std::env::current_exe().expect("current executable");
        let (base, text) = exe_mappings(&exe);
        let mut unique: Vec<usize> = pcs.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let mut chains = HashMap::new();
        let inside: Vec<usize> = unique
            .iter()
            .copied()
            .filter(|&pc| {
                let hit = text.iter().any(|&(lo, hi)| (lo..hi).contains(&pc));
                if !hit {
                    let outside = ("[outside the executable]".to_string(), "?".to_string());
                    chains.insert(pc, vec![outside]);
                }
                hit
            })
            .collect();
        let mut child = Command::new("addr2line")
            .args(["-a", "-f", "-C", "-i", "-e"])
            .arg(&exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("run addr2line (binutils)");
        let mut stdin = child.stdin.take().expect("piped stdin");
        let queries: Vec<usize> = inside.iter().map(|&pc| pc - base).collect();
        // Feed addresses from a thread so neither pipe can fill up and
        // stall the other side.
        let writer = std::thread::spawn(move || {
            for q in queries {
                writeln!(stdin, "{q:#x}").expect("write to addr2line");
            }
        });
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut lines = out.lines().map(|l| l.expect("read addr2line output"));
        let mut current: Option<usize> = None;
        let mut pending = inside.iter();
        while let Some(line) = lines.next() {
            if line.starts_with("0x") {
                current = pending.next().copied();
                continue;
            }
            let location = lines.next().unwrap_or_default();
            let file = location.rsplit('/').next().unwrap_or("?");
            let file = file.split(" (discriminator").next().unwrap_or(file);
            let pc = current.expect("a frame follows an address");
            chains
                .entry(pc)
                .or_insert_with(Vec::new)
                .push((clean(&line), file.to_string()));
        }
        writer.join().expect("addr2line writer");
        child.wait().expect("addr2line exit");
        chains
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    use clognet_core::System;
    use clognet_proto::{Scheme, SystemConfig};
    use std::collections::{HashMap, HashSet};

    let mut args = std::env::args().skip(1);
    let mut num = |what: &str, default: u64| -> u64 {
        args.next().map_or(default, |a| {
            a.parse()
                .unwrap_or_else(|_| panic!("{what} must be a number, got `{a}`"))
        })
    };
    let seed = num("seed", 1);
    let rounds = num("rounds", 3).max(1);
    let schemes = [
        Scheme::Baseline,
        Scheme::rp_default(),
        Scheme::DelegatedReplies,
    ];
    let pairs = [("NN", "canneal"), ("HS", "bodytrack"), ("BP", "ferret")];

    let t0 = std::time::Instant::now();
    sampler::start();
    let mut checksum = 0.0;
    for _ in 0..rounds {
        for (gpu, cpu) in pairs {
            for scheme in schemes {
                let mut cfg = SystemConfig::default().with_scheme(scheme);
                cfg.seed = seed;
                let mut sys = System::new(cfg, gpu, cpu);
                sys.run(2_000);
                sys.reset_stats();
                sys.run(5_000);
                checksum += sys.report().gpu_ipc;
            }
        }
    }
    let (pcs, lost) = sampler::stop();
    let wall = t0.elapsed();

    let chains = symbols::resolve(&pcs);
    let (mut self_n, mut inline_n, mut line_n) = (
        HashMap::<&str, u64>::new(),
        HashMap::<&str, u64>::new(),
        HashMap::<String, u64>::new(),
    );
    for pc in &pcs {
        let all = &chains[pc];
        let own: Vec<&(String, String)> =
            all.iter().filter(|(f, _)| f.contains("clognet")).collect();
        let chain = if own.is_empty() { vec![&all[0]] } else { own };
        let (leaf, at) = chain[0];
        *self_n.entry(leaf).or_default() += 1;
        *line_n.entry(format!("{at}  {leaf}")).or_default() += 1;
        let mut seen = HashSet::new();
        for (f, _) in &chain {
            if seen.insert(f.as_str()) {
                *inline_n.entry(f).or_default() += 1;
            }
        }
    }
    let total = pcs.len().max(1) as f64;
    let per_round = |n: u64| n as f64 / rounds as f64;
    // Rows under 0.1% of the samples are left out.
    let floor = (pcs.len() as u64 / 1000).max(1);
    println!(
        "sample_profile: chip-8x8 jobs, seed {seed}, {rounds} rounds, {} CPU-time samples \
         ({:.1} per round, {lost} lost), {:.1} s wall, checksum {checksum:.4}; \
         each sample is its inline chain, calls are not followed",
        pcs.len(),
        per_round(pcs.len() as u64),
        wall.as_secs_f64()
    );
    let table = |title: &str, key: &HashMap<&str, u64>| {
        let mut rows: Vec<(&str, u64)> = key.iter().map(|(&f, &n)| (f, n)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        println!(
            "\n{title}\n{:>7} {:>7} {:>10} {:>10}  function",
            "self%", "inline%", "self/rnd", "inline/rnd"
        );
        for (f, _) in rows.into_iter().take_while(|&(_, n)| n >= floor) {
            let (s, i) = (self_n.get(f).copied().unwrap_or(0), inline_n[f]);
            println!(
                "{:>6.2}% {:>6.2}% {:>10.1} {:>10.1}  {f}",
                100.0 * s as f64 / total,
                100.0 * i as f64 / total,
                per_round(s),
                per_round(i)
            );
        }
    };
    table("by self samples", &self_n);
    table(
        "by inline samples (each sample's inline chain; calls are not followed, \
         so this is not inclusive time)",
        &inline_n,
    );
    let mut lines: Vec<(String, u64)> = line_n.into_iter().collect();
    lines.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!(
        "\nby source line (self)\n{:>7} {:>9}  file:line  function",
        "self%", "self/rnd"
    );
    for (at, n) in lines.into_iter().take_while(|&(_, n)| n >= floor) {
        println!(
            "{:>6.2}% {:>9.1}  {at}",
            100.0 * n as f64 / total,
            per_round(n)
        );
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("sample_profile needs Linux on x86_64");
    std::process::exit(2);
}
