//! Human-readable and JSON report formatting for the CLI.

use clognet_core::Report;
use clognet_energy::{energy, NetShape};
use clognet_proto::{Knob, Scheme, Topology};
use clognet_telemetry::export::{json_escape, json_f64};

/// Print a single run's report.
pub fn print_report(scheme: Scheme, r: &Report) {
    println!(
        "{} + {} under {} ({} measured cycles)",
        r.gpu_bench,
        r.cpu_bench,
        scheme.label(),
        r.cycles
    );
    println!("  GPU IPC                : {:.2}", r.gpu_ipc);
    println!("  GPU L1 miss rate       : {:.1}%", r.l1_miss_rate * 100.0);
    println!(
        "  GPU rx data rate       : {:.3} flits/cycle/core",
        r.gpu_rx_rate
    );
    println!(
        "  CPU performance        : {:.3} (1.0 = unloaded)",
        r.cpu_performance
    );
    println!("  CPU network latency    : {:.1} cycles", r.cpu_net_latency);
    println!("  CPU memory latency     : {:.1} cycles", r.cpu_mem_latency);
    println!(
        "  memory nodes blocked   : {:.1}%",
        r.mem_blocked_rate * 100.0
    );
    println!(
        "  busiest mem reply link : {:.1}% utilized",
        r.mem_reply_link_util * 100.0
    );
    println!(
        "  inter-core locality    : {:.1}% of misses",
        r.oracle_locality * 100.0
    );
    if r.delegations > 0 {
        let b = r.breakdown;
        println!(
            "  delegations            : {} ({} remote hits, {} remote misses; accuracy {:.1}%)",
            r.delegations,
            b.remote_hit,
            b.remote_miss,
            b.remote_hit_rate() * 100.0
        );
    }
    if r.probes_sent > 0 {
        println!("  RP probes sent         : {}", r.probes_sent);
    }
    let area = 2.0
        * NetShape {
            topology: Topology::Mesh,
            width: 8,
            height: 8,
            channel_bytes: r.channel_bytes,
            vcs: 2,
            vc_buf_flits: 4,
        }
        .area_mm2();
    let e = energy(r.flit_hops, r.channel_bytes, area, r.cycles);
    println!(
        "  NoC energy             : {:.2} uJ dynamic / {:.2} uJ total",
        e.noc_dynamic_j * 1e6,
        e.total_j() * 1e6
    );
}

/// Print the scheme-comparison table.
pub fn print_comparison(rows: &[(Scheme, Report)]) {
    let base = &rows[0].1;
    println!(
        "{:<10} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "scheme", "GPU IPC", "vs base", "CPU perf", "CPU lat", "blocked%", "rx rate", "delegated"
    );
    for (scheme, r) in rows {
        println!(
            "{:<10} {:>9.2} {:>7.1}% {:>9.3} {:>9.1} {:>8.1}% {:>9.3} {:>10}",
            scheme.label(),
            r.gpu_ipc,
            (r.gpu_ipc / base.gpu_ipc - 1.0) * 100.0,
            r.cpu_performance,
            r.cpu_net_latency,
            r.mem_blocked_rate * 100.0,
            r.gpu_rx_rate,
            r.delegations
        );
    }
    println!(
        "\npaper: Delegated Replies +25.7% GPU over baseline, +14.2% over RP, and\n\
         lower CPU network latency via un-blocked memory nodes."
    );
}

/// One run's report as a flat JSON object (for `--json`).
pub fn report_json(scheme: Scheme, r: &Report) -> String {
    let mut o = String::from("{");
    let strs = [
        ("scheme", scheme.label().to_string()),
        ("gpu_bench", r.gpu_bench.clone()),
        ("cpu_bench", r.cpu_bench.clone()),
    ];
    for (k, v) in strs {
        o.push_str(&format!("\"{k}\":\"{}\",", json_escape(&v)));
    }
    let ints = [
        ("cycles", r.cycles),
        ("delegations", r.delegations),
        ("probes_sent", r.probes_sent),
        ("request_packets", r.request_packets),
        ("flit_hops", r.flit_hops),
        ("remote_hit", r.breakdown.remote_hit),
        ("remote_miss", r.breakdown.remote_miss),
    ];
    for (k, v) in ints {
        o.push_str(&format!("\"{k}\":{v},"));
    }
    let floats = [
        ("gpu_ipc", r.gpu_ipc),
        ("cpu_performance", r.cpu_performance),
        ("cpu_mem_latency", r.cpu_mem_latency),
        ("cpu_net_latency", r.cpu_net_latency),
        ("gpu_rx_rate", r.gpu_rx_rate),
        ("gpu_tx_rate", r.gpu_tx_rate),
        ("mem_blocked_rate", r.mem_blocked_rate),
        ("mem_reply_link_util", r.mem_reply_link_util),
        ("oracle_locality", r.oracle_locality),
        ("l1_miss_rate", r.l1_miss_rate),
        ("frq_same_line_fraction", r.frq_same_line_fraction),
        ("remote_hit_rate", r.breakdown.remote_hit_rate()),
    ];
    for (k, v) in floats {
        o.push_str(&format!("\"{k}\":{},", json_f64(v)));
    }
    o.pop();
    o.push('}');
    o
}

/// A set of per-scheme reports as a JSON array (for `compare --json`).
pub fn comparison_json(rows: &[(Scheme, Report)]) -> String {
    let items: Vec<String> = rows.iter().map(|(s, r)| report_json(*s, r)).collect();
    format!("[{}]\n", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut sys =
            clognet_core::System::new(clognet_proto::SystemConfig::default(), "HS", "bodytrack");
        sys.run(2_000);
        sys.report()
    }

    #[test]
    fn report_json_is_flat_and_balanced() {
        let j = report_json(Scheme::Baseline, &sample_report());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"gpu_ipc\":"));
        assert!(j.contains("\"scheme\":\"Baseline\""));
        assert!(!j.contains(",}"), "no trailing comma: {j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn comparison_json_is_an_array() {
        let r = sample_report();
        let j = comparison_json(&[(Scheme::Baseline, r.clone()), (Scheme::DelegatedReplies, r)]);
        assert!(j.starts_with('[') && j.ends_with("]\n"));
        assert_eq!(j.matches("\"scheme\"").count(), 2);
    }
}
