//! Figure 18 — CPU performance improvement of Delegated Replies across
//! chip layouts: layouts B and D interleave CPU and GPU traffic, so
//! un-blocking the memory nodes matters even more there.

use clognet_bench::{banner, geomean, run_workload};
use clognet_proto::{Knob, LayoutKind, Scheme, SystemConfig};
use clognet_workloads::TABLE2;

fn main() {
    banner(
        "Figure 18",
        "DR improves CPU perf most on layouts B and D (13.4% / 20.9%) where \
         CPU-GPU interference is highest",
    );
    println!("{:<10} {:>10} {:>12}", "layout", "DR/base", "netlat ratio");
    for layout in LayoutKind::ALL {
        let (req, rep) = SystemConfig::best_routing_for(layout);
        let mut perf = Vec::new();
        let mut lat = Vec::new();
        for p in TABLE2.iter().step_by(2) {
            let mk = |scheme| {
                let mut cfg = SystemConfig::default()
                    .with_scheme(scheme)
                    .with_routing(req, rep);
                cfg.layout = layout;
                cfg
            };
            let b = run_workload(mk(Scheme::Baseline), p.gpu, p.cpus[0]);
            let d = run_workload(mk(Scheme::DelegatedReplies), p.gpu, p.cpus[0]);
            perf.push(d.cpu_performance / b.cpu_performance);
            lat.push(d.cpu_net_latency / b.cpu_net_latency);
        }
        println!(
            "{:<10} {:>10.3} {:>12.3}",
            layout.label(),
            geomean(&perf),
            geomean(&lat)
        );
    }
}
