//! Area and energy report: the cost side of the design-space argument.
//!
//! Shows why the paper rejects NoC over-provisioning (2.5x area for 2x
//! bandwidth) and why Delegated Replies is cheap (0.172 mm², about 5% of
//! the over-provisioning increment), then measures the energy of a run
//! under each scheme.
//!
//! ```sh
//! cargo run --release --example energy_report
//! ```

use clognet_core::System;
use clognet_energy::{energy, DrArea, NetShape};
use clognet_proto::{Knob, Scheme, SystemConfig, Topology};

fn main() {
    let mesh = |channel_bytes| NetShape {
        topology: Topology::Mesh,
        width: 8,
        height: 8,
        channel_bytes,
        vcs: 2,
        vc_buf_flits: 4,
    };
    println!("=== area (DSENT-style model, 22 nm) ===\n");
    let base = 2.0 * mesh(16).area_mm2();
    let wide = 2.0 * mesh(32).area_mm2();
    println!("baseline request+reply mesh : {base:6.2} mm²   (paper: 2.27)");
    println!(
        "double-bandwidth mesh       : {wide:6.2} mm²   (paper: 5.76 — {:.1}x)",
        wide / base
    );
    let cfg = SystemConfig::default();
    let dr = DrArea::compute(cfg.n_gpu, cfg.n_mem, cfg.llc.slice, cfg.gpu.frq_entries);
    println!(
        "Delegated Replies hardware  : {:6.3} mm²   (pointers {:.3} + FRQs {:.3}; paper: 0.172)",
        dr.total_mm2(),
        dr.pointers_mm2,
        dr.frqs_mm2
    );
    println!(
        "DR cost as share of the 2x-NoC increment: {:.1}%  (paper: ~5%)\n",
        dr.total_mm2() / (wide - base) * 100.0
    );

    println!("=== energy of MM + canneal under each scheme ===\n");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>10}",
        "scheme", "flit-hops", "NoC dyn (J)", "total/instr(J)", "vs base"
    );
    let mut base_epi = 0.0;
    for scheme in [
        Scheme::Baseline,
        Scheme::DelegatedReplies,
        Scheme::rp_default(),
    ] {
        let cfg = SystemConfig::default().with_scheme(scheme);
        let mut sys = System::new(cfg, "MM", "canneal");
        sys.run(5_000);
        sys.reset_stats();
        sys.run(15_000);
        let r = sys.report();
        let e = energy(r.flit_hops, r.channel_bytes, base, r.cycles);
        let instr = r.gpu_ipc * r.cycles as f64;
        let epi = e.total_j() / instr;
        if scheme == Scheme::Baseline {
            base_epi = epi;
        }
        println!(
            "{:<10} {:>12} {:>12.4e} {:>14.3e} {:>9.1}%",
            scheme.label(),
            r.flit_hops,
            e.noc_dynamic_j,
            epi,
            (epi / base_epi - 1.0) * 100.0
        );
    }
    println!(
        "\nEnergy per instruction falls with DR because execution time does (the paper's\n\
         13.6% total-system saving); RP burns extra dynamic energy on probe traffic."
    );
}
