//! Table I — the simulated CPU-GPU architecture. Prints the active
//! configuration so every reproduction run documents its parameters.

use clognet_bench::banner;
use clognet_proto::{Knob, SystemConfig};

fn main() {
    banner("Table I", "simulated CPU-GPU architecture parameters");
    let c = SystemConfig::default();
    println!(
        "GPU cores   : {} SIMT cores, {} warps/core, {} threads/warp, {} GTO schedulers",
        c.n_gpu, c.gpu.warps_per_core, c.gpu.threads_per_warp, c.gpu.issue_width
    );
    println!(
        "GPU L1      : {} KB, {}-way, LRU, {} B lines, {} MSHRs, {}-entry FRQ",
        c.gpu.l1.capacity_bytes / 1024,
        c.gpu.l1.ways,
        c.gpu.l1.line_bytes,
        c.gpu.mshrs,
        c.gpu.frq_entries
    );
    println!(
        "CPU cores   : {} cores, {} KB L1, {}-way, {} B lines, MESI-domain home-node coherence",
        c.n_cpu,
        c.cpu.l1.capacity_bytes / 1024,
        c.cpu.l1.ways,
        c.cpu.l1.line_bytes
    );
    println!(
        "Shared LLC  : {} MB total, {} MB/MC, {}-way, LRU, {} B lines",
        c.llc.slice.capacity_bytes * c.n_mem as u64 / (1024 * 1024),
        c.llc.slice.capacity_bytes / (1024 * 1024),
        c.llc.slice.ways,
        c.llc.slice.line_bytes
    );
    println!(
        "DRAM        : {} MCs, FR-FCFS (CPU priority), {} banks/MC, burst {} cy/line",
        c.n_mem, c.dram.banks, c.dram.burst
    );
    println!(
        "GDDR5       : tCL={} tRP={} tRC={} tRAS={} tRCD={} tRRD={} tCCD={} tWR={}",
        c.dram.t_cl,
        c.dram.t_rp,
        c.dram.t_rc,
        c.dram.t_ras,
        c.dram.t_rcd,
        c.dram.t_rrd,
        c.dram.t_ccd,
        c.dram.t_wr
    );
    println!(
        "NoC         : {}x{} 2D mesh, CDR routing ({}-req/{}-rep), iSLIP, CPU priority",
        c.mesh_width,
        c.mesh_height,
        c.noc.routing_request.label(),
        c.noc.routing_reply.label()
    );
    println!(
        "              {}-bit channels, {} VCs, {} flits/VC, {}-stage routers, {} pkt inj buf",
        c.noc.channel_bytes * 8,
        c.noc.vcs,
        c.noc.vc_buf_flits,
        c.noc.pipeline,
        c.noc.mem_inj_buf_pkts
    );
    // Bisection bandwidth: 8 column-cut links x 2 directions x width x 1.4GHz.
    let bisection = 2.0 * c.mesh_height as f64 * c.noc.channel_bytes as f64 * 1.4;
    println!("              bisection bandwidth {bisection:.0} GB/s (paper: 358 GB/s)");
    let layout = c.layout();
    println!("layout (Fig 1a):\n{}", layout.ascii());
}
