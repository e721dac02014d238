//! Quickstart: build the Table-I system, run one heterogeneous workload
//! under the baseline and under Delegated Replies, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use clognet_core::System;
use clognet_proto::{Knob, Scheme, SystemConfig};

fn main() {
    println!("clognet quickstart: HS (GPU) + bodytrack (CPU) on the 8x8 baseline chip\n");
    let mut results = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::DelegatedReplies] {
        // Table-I defaults; only the scheme changes.
        let cfg = SystemConfig::default().with_scheme(scheme);
        let mut sys = System::new(cfg, "HS", "bodytrack");
        // Warm caches and queues, then measure a clean window.
        sys.run(10_000);
        sys.reset_stats();
        sys.run(25_000);
        let r = sys.report();
        println!("[{}]", scheme.label());
        println!("  GPU IPC                 : {:.2}", r.gpu_ipc);
        println!(
            "  CPU performance         : {:.3} (1.0 = unloaded)",
            r.cpu_performance
        );
        println!(
            "  CPU network latency     : {:.1} cycles",
            r.cpu_net_latency
        );
        println!(
            "  GPU received data rate  : {:.3} flits/cycle/core",
            r.gpu_rx_rate
        );
        println!(
            "  memory nodes blocked    : {:.1}% of cycles",
            r.mem_blocked_rate * 100.0
        );
        println!("  replies delegated       : {}", r.delegations);
        println!();
        results.push(r);
    }
    let speedup = results[1].gpu_ipc / results[0].gpu_ipc;
    println!(
        "Delegated Replies GPU speedup: {:.1}%  (paper: +25.8% avg across benchmarks)",
        (speedup - 1.0) * 100.0
    );
    println!(
        "CPU network latency change   : {:+.1}%",
        (results[1].cpu_net_latency / results[0].cpu_net_latency - 1.0) * 100.0
    );
}
