//! Figure 16 — Delegated Replies across NoC topologies, normalized to
//! each topology's own baseline: the benefit is topology-independent.

use clognet_bench::{banner, geomean, run_workload};
use clognet_proto::{Knob, RoutingPolicy, Scheme, SystemConfig, Topology};
use clognet_workloads::TABLE2;

fn main() {
    banner(
        "Figure 16",
        "DR gains 21.9-28.3% on fbfly/dragonfly/crossbar vs 25.8% on the mesh",
    );
    println!("{:<12} {:>10}", "topology", "DR/base");
    for topo in Topology::ALL {
        let mut ratios = Vec::new();
        for p in TABLE2.iter() {
            let mk = |scheme| {
                let mut cfg = SystemConfig::default().with_scheme(scheme);
                cfg.noc.topology = topo;
                if topo != Topology::Mesh {
                    cfg.noc.routing_request = RoutingPolicy::DorXY;
                    cfg.noc.routing_reply = RoutingPolicy::DorXY;
                }
                cfg
            };
            let b = run_workload(mk(Scheme::Baseline), p.gpu, p.cpus[0]);
            let d = run_workload(mk(Scheme::DelegatedReplies), p.gpu, p.cpus[0]);
            ratios.push(d.gpu_ipc / b.gpu_ipc);
        }
        println!("{:<12} {:>10.3}", topo.label(), geomean(&ratios));
    }
}
