//! Section VII energy + Section III/IV area analysis: NoC area of the
//! baseline vs double-bandwidth mesh, the Delegated-Replies hardware
//! overhead, and dynamic/total energy per scheme.

use clognet_bench::{banner, run_workload};
use clognet_energy::{energy, DrArea, NetShape};
use clognet_proto::{Knob, Scheme, SystemConfig, Topology};
use clognet_workloads::TABLE2;

fn main() {
    banner(
        "Energy & area",
        "2x-bandwidth mesh costs 2.5x area (5.76 vs 2.27 mm2); DR adds 0.172 mm2 \
         (~5% of the 2x overhead); DR cuts total energy 13.6% (RP 7.4%), \
         NoC dynamic energy: DR -1.1%, RP +9.4%",
    );
    let mesh = |bytes| NetShape {
        topology: Topology::Mesh,
        width: 8,
        height: 8,
        channel_bytes: bytes,
        vcs: 2,
        vc_buf_flits: 4,
    };
    let base_area = 2.0 * mesh(16).area_mm2();
    let wide_area = 2.0 * mesh(32).area_mm2();
    println!("baseline dual mesh : {base_area:.2} mm2 (paper 2.27)");
    println!(
        "2x-bandwidth mesh  : {wide_area:.2} mm2 = {:.2}x (paper 5.76, 2.5x)",
        wide_area / base_area
    );
    let cfg = SystemConfig::default();
    let dr = DrArea::compute(cfg.n_gpu, cfg.n_mem, cfg.llc.slice, cfg.gpu.frq_entries);
    println!(
        "DR hardware        : pointers {:.3} + FRQs {:.3} = {:.3} mm2 ({:.1}% of the 2x increase)",
        dr.pointers_mm2,
        dr.frqs_mm2,
        dr.total_mm2(),
        dr.total_mm2() / (wide_area - base_area) * 100.0
    );
    // Energy: run a representative subset per scheme; normalize per
    // retired instruction so runtime reduction shows up.
    println!(
        "\n{:<10} {:>12} {:>12} {:>12}",
        "scheme", "dyn/instr", "total/instr", "vs base"
    );
    let mut base_total = 0.0;
    for scheme in [
        Scheme::Baseline,
        Scheme::DelegatedReplies,
        Scheme::rp_default(),
    ] {
        let mut dyn_e = 0.0;
        let mut tot_e = 0.0;
        for p in TABLE2.iter().step_by(3) {
            let r = run_workload(
                SystemConfig::default().with_scheme(scheme),
                p.gpu,
                p.cpus[0],
            );
            let rep = energy(r.flit_hops, r.channel_bytes, base_area, r.cycles);
            let instr = r.gpu_ipc * r.cycles as f64;
            dyn_e += rep.noc_dynamic_j / instr;
            tot_e += rep.total_j() / instr;
        }
        if scheme == Scheme::Baseline {
            base_total = tot_e;
        }
        println!(
            "{:<10} {:>12.3e} {:>12.3e} {:>11.1}%",
            scheme.label(),
            dyn_e,
            tot_e,
            (tot_e / base_total - 1.0) * 100.0
        );
    }
    println!("(negative = energy saved; savings come mostly from shorter execution time)");
}
