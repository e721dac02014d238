//! Figure 5b raw series — dump the per-epoch clogging signals behind
//! Figs. 5b/11/12 as CSV (one block per scheme, `#`-prefixed headers),
//! ready for external plotting: memory-node blocked fractions and
//! injection depths, reply-link utilization, delegation outcomes, and
//! GPU/CPU throughput, all on the paper's NN + canneal clogging pair.

use clognet_bench::banner;
use clognet_core::{System, TelemetryConfig};
use clognet_proto::{Knob, Scheme, SystemConfig};

fn main() {
    banner(
        "Figure 5b raw series",
        "per-epoch clogging signals as CSV, baseline vs Delegated Replies",
    );
    for scheme in [Scheme::Baseline, Scheme::DelegatedReplies] {
        let cfg = SystemConfig::default().with_scheme(scheme);
        let mut sys = System::new(cfg, "NN", "canneal");
        sys.enable_telemetry(TelemetryConfig::default());
        sys.run(20_000);
        sys.finish_telemetry();
        let t = sys.telemetry().expect("telemetry enabled");
        let episodes = t.session.episodes.episodes();
        let shed: u64 = episodes.iter().map(|e| e.flits_shed).sum();
        println!(
            "# scheme={} episodes={} blocked_cycles={} flits_shed={shed}",
            scheme.label(),
            episodes.len(),
            t.session.episodes.total_blocked_cycles(),
        );
        print!("{}", sys.export_series_csv().expect("telemetry enabled"));
    }
}
