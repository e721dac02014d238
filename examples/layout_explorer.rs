//! Explore the four Figure-1 chip layouts and their routing policies
//! (Section V): print each grid, then measure how layout and
//! dimension-order choices trade CPU performance against GPU
//! performance.
//!
//! ```sh
//! cargo run --release --example layout_explorer
//! ```

use clognet_core::System;
use clognet_proto::{Knob, LayoutKind, SystemConfig};

fn main() {
    println!("=== the four chip layouts of Figure 1 (C=CPU, M=memory, G=GPU) ===\n");
    for kind in LayoutKind::ALL {
        let cfg = SystemConfig {
            layout: kind,
            ..SystemConfig::default()
        };
        let layout = cfg.layout();
        let (req, rep) = SystemConfig::best_routing_for(kind);
        println!(
            "[{}]  best routing: {}-requests / {}-replies",
            kind.label(),
            req.label(),
            rep.label()
        );
        println!("{}", layout.ascii());
    }

    println!("=== measured trade-off (SRAD + x264) ===\n");
    println!(
        "{:<10} {:>9} {:>9} {:>11}",
        "layout", "GPU IPC", "CPU perf", "CPU net lat"
    );
    for kind in LayoutKind::ALL {
        let (req, rep) = SystemConfig::best_routing_for(kind);
        let mut cfg = SystemConfig::default().with_routing(req, rep);
        cfg.layout = kind;
        let mut sys = System::new(cfg, "SRAD", "x264");
        sys.run(5_000);
        sys.reset_stats();
        sys.run(15_000);
        let r = sys.report();
        println!(
            "{:<10} {:>9.2} {:>9.3} {:>11.1}",
            kind.label(),
            r.gpu_ipc,
            r.cpu_performance,
            r.cpu_net_latency
        );
    }
    println!(
        "\nBaseline isolates CPU and GPU traffic with a memory column between them;\n\
         B puts memory at the die edge (simpler packaging, more interference);\n\
         C clusters CPUs (best CPU communication, squeezed GPU bandwidth);\n\
         D spreads everything (good GPU distribution, CPU pays the distance)."
    );
}
