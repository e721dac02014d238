//! ASCII heatmap of reply-network link utilization: see the clog with
//! your own eyes. Each cell is a router; the four glyph positions around
//! it show the utilization of its N/E/S/W output links.
//!
//! ```sh
//! cargo run --release --example noc_heatmap            # baseline
//! cargo run --release --example noc_heatmap -- dr      # Delegated Replies
//! ```

use clognet_core::System;
use clognet_noc::mesh_port;
use clognet_proto::{Knob, NodeKind, Scheme, SystemConfig, TrafficClass};

fn glyph(util: f64) -> char {
    match (util * 100.0) as u32 {
        0 => '.',
        1..=10 => ':',
        11..=25 => '-',
        26..=45 => '=',
        46..=65 => '+',
        66..=85 => '#',
        _ => '@',
    }
}

fn main() {
    let dr = std::env::args().nth(1).as_deref() == Some("dr");
    let scheme = if dr {
        Scheme::DelegatedReplies
    } else {
        Scheme::Baseline
    };
    let cfg = SystemConfig::default().with_scheme(scheme);
    let mut sys = System::new(cfg, "2DCON", "canneal");
    sys.run(6_000);
    sys.reset_stats();
    sys.run(20_000);
    let net = sys.nets().net(TrafficClass::Reply);
    let stats = net.stats();
    let layout = sys.layout();
    println!(
        "reply-network link utilization under {} (2DCON + canneal)",
        scheme.label()
    );
    println!("cell = node kind; right glyph = east link, left = west, etc.");
    println!("scale: . 0%  : <10%  - <25%  = <45%  + <65%  # <85%  @ >=85%\n");
    let (w, h) = (layout.width(), layout.height());
    for y in 0..h {
        // Row 1: north links.
        let mut north = String::from("  ");
        let mut mid = String::new();
        let mut south = String::from("  ");
        for x in 0..w {
            let node = layout.node_at(x, y);
            let r = node.index();
            let kind = match layout.kind_of(node) {
                NodeKind::Gpu(_) => 'G',
                NodeKind::Cpu(_) => 'C',
                NodeKind::Mem(_) => 'M',
            };
            north.push(glyph(stats.link_utilization(r, mesh_port::NORTH)));
            north.push_str("     ");
            mid.push(glyph(stats.link_utilization(r, mesh_port::WEST)));
            mid.push(' ');
            mid.push(kind);
            mid.push(' ');
            mid.push(glyph(stats.link_utilization(r, mesh_port::EAST)));
            mid.push(' ');
            south.push(glyph(stats.link_utilization(r, mesh_port::SOUTH)));
            south.push_str("     ");
        }
        println!("{north}");
        println!("{mid}");
        println!("{south}");
    }
    let r = sys.report();
    println!(
        "\nGPU IPC {:.2}; memory nodes blocked {:.1}% of cycles; busiest mem reply link {:.1}%",
        r.gpu_ipc,
        r.mem_blocked_rate * 100.0,
        r.mem_reply_link_util * 100.0
    );
    if !dr {
        println!("rerun with `-- dr` to watch Delegated Replies spread the load");
    }
}
