//! Figure 5 — changing the NoC topology does not address clogging
//! (every topology still funnels replies through one memory-node link);
//! doubling NoC bandwidth helps but costs 2.5x area.
//! (a) GPU performance for crossbar/fbfly/dragonfly at 1x and 2x
//! bandwidth, normalized to the 1x mesh; (b) memory-node blocking rate.

use clognet_bench::{banner, geomean, run_workload};
use clognet_proto::{Knob, RoutingPolicy, SystemConfig, Topology};
use clognet_workloads::TABLE2;

fn main() {
    banner(
        "Figure 5",
        "topology changes barely move GPU perf (all stay blocked); 2x bandwidth helps",
    );
    let configs: Vec<(String, Topology, u32)> = Topology::ALL
        .iter()
        .flat_map(|&t| {
            [
                (t.label().to_string(), t, 16u32),
                (format!("{}-2x", t.label()), t, 32u32),
            ]
        })
        .collect();
    let mut base_ipc = vec![1.0; TABLE2.len()];
    println!("{:<12} {:>10} {:>10}", "config", "GPU perf", "blocked%");
    for (label, topo, width) in configs {
        let mut perf = Vec::new();
        let mut blocked = Vec::new();
        for (i, p) in TABLE2.iter().enumerate() {
            let mut cfg = SystemConfig::default();
            cfg.noc.topology = topo;
            cfg.noc.channel_bytes = width;
            if topo != Topology::Mesh {
                // Non-mesh topologies route minimally; CDR orders apply
                // to the mesh only.
                cfg.noc.routing_request = RoutingPolicy::DorXY;
                cfg.noc.routing_reply = RoutingPolicy::DorXY;
            }
            let r = run_workload(cfg, p.gpu, p.cpus[0]);
            if topo == Topology::Mesh && width == 16 {
                base_ipc[i] = r.gpu_ipc;
            }
            perf.push(r.gpu_ipc / base_ipc[i]);
            blocked.push(r.mem_blocked_rate);
        }
        println!(
            "{:<12} {:>10.3} {:>9.1}%",
            label,
            geomean(&perf),
            blocked.iter().sum::<f64>() / blocked.len() as f64 * 100.0
        );
    }
    println!("(paper: all 1x topologies ~1.0 and blocked; 2x configs clearly faster)");
}
