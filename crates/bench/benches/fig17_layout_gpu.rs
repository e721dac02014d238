//! Figure 17 — GPU performance improvement of Delegated Replies across
//! chip layouts (each normalized to that layout's own baseline with its
//! best routing policy).

use clognet_bench::{banner, geomean, run_workload};
use clognet_proto::{Knob, LayoutKind, Scheme, SystemConfig};
use clognet_workloads::TABLE2;

fn main() {
    banner(
        "Figure 17",
        "DR improves GPU performance on every layout: 25.8/25.3/29.0/27.0%",
    );
    println!("{:<10} {:>10}", "layout", "DR/base");
    for layout in LayoutKind::ALL {
        let (req, rep) = SystemConfig::best_routing_for(layout);
        let mut ratios = Vec::new();
        for p in TABLE2.iter() {
            let mk = |scheme| {
                let mut cfg = SystemConfig::default()
                    .with_scheme(scheme)
                    .with_routing(req, rep);
                cfg.layout = layout;
                cfg
            };
            let b = run_workload(mk(Scheme::Baseline), p.gpu, p.cpus[0]);
            let d = run_workload(mk(Scheme::DelegatedReplies), p.gpu, p.cpus[0]);
            ratios.push(d.gpu_ipc / b.gpu_ipc);
        }
        println!("{:<10} {:>10.3}", layout.label(), geomean(&ratios));
    }
}
