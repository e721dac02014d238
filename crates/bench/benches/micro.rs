//! Micro-benchmarks for the simulator substrates: router tick
//! throughput, cache lookups, DRAM scheduling, and full-system
//! cycles/second.
//!
//! Self-contained harness (no external benchmark framework, so the
//! workspace builds offline): each benchmark is warmed, then timed over
//! several runs and reported as the median ns/iter. Run with:
//!
//! ```text
//! cargo bench -p clognet-bench --features micro --bench micro
//! ```

use clognet_cache::SetAssocCache;
use clognet_core::System;
use clognet_dram::{DramController, DramRequest};
use clognet_noc::{ClassAssignment, NetParams, Network};
use clognet_proto::*;
use std::hint::black_box;
use std::time::Instant;

/// Time `f` over `iters` iterations, repeated `RUNS` times; report the
/// median run's ns/iter.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) {
    const RUNS: usize = 5;
    for _ in 0..iters / 4 {
        f(); // warmup
    }
    let mut per_iter: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = per_iter[RUNS / 2];
    let spread = (per_iter[RUNS - 1] - per_iter[0]) / median * 100.0;
    println!(
        "{name:<28} {median:>12.1} ns/iter  (spread {spread:>5.1}%, {iters} iters x {RUNS} runs)"
    );
}

fn bench_network() {
    let mut net = Network::new(NetParams {
        topology: Topology::Mesh,
        width: 8,
        height: 8,
        classes: ClassAssignment::Single(TrafficClass::Request, 2),
        vc_buf_flits: 4,
        pipeline: 4,
        routing_request: RoutingPolicy::DorYX,
        routing_reply: RoutingPolicy::DorXY,
        eject_buf_flits: 36,
        sa_iterations: 1,
    });
    let mut id = 0u64;
    bench("noc_tick_64node_mesh_loaded", 20_000, || {
        for s in [0u16, 9, 18, 27, 36, 45, 54, 63] {
            id += 1;
            let _ = net.try_inject(Packet::new(
                PacketId(id),
                NodeId(s),
                NodeId(63 - s),
                MsgKind::ReadReq,
                Priority::Gpu,
                Addr::new(id * 128),
                128,
                16,
                net.now(),
            ));
        }
        net.tick();
        for d in 0..64 {
            black_box(net.take_ejected(NodeId(d), usize::MAX));
        }
    });
}

fn bench_cache() {
    let mut l1: SetAssocCache<()> = SetAssocCache::new(CacheGeometry {
        capacity_bytes: 48 * 1024,
        ways: 4,
        line_bytes: 128,
    });
    for i in 0..384 {
        l1.fill(LineAddr(i), ());
    }
    let mut i = 0;
    bench("l1_access_hit", 2_000_000, || {
        i = (i + 7) % 384;
        black_box(l1.access(LineAddr(i)));
    });
}

fn bench_dram() {
    let mut mc = DramController::new(DramConfig::default(), 7);
    let mut t = 0u64;
    let mut now = 0;
    let mut done = Vec::new();
    bench("dram_tick_loaded", 200_000, || {
        while mc.can_enqueue() {
            t += 1;
            let _ = mc.enqueue(
                DramRequest {
                    line: LineAddr(t.wrapping_mul(0x9E37_79B9)),
                    is_write: false,
                    cpu: false,
                    token: t,
                },
                now,
            );
        }
        now += 1;
        done.clear();
        mc.tick_into(now, &mut done);
        black_box(&done);
    });
}

fn bench_system() {
    let cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    let mut sys = System::new(cfg, "HS", "bodytrack");
    sys.run(2_000); // warm
    bench("full_system_cycle_HS", 30_000, || sys.tick());
}

fn main() {
    bench_network();
    bench_cache();
    bench_dram();
    bench_system();
}
