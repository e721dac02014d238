//! Asserts the tentpole perf property: `Network::tick` performs **zero
//! heap allocations in steady state**. A counting `#[global_allocator]`
//! wrapper tallies every allocation; after a warmup phase (which grows
//! the scratch buffers, VC queues, and eject buffers to their working
//! capacity) the allocation count across thousands of loaded ticks must
//! not move.
//!
//! This file holds exactly one test so no concurrently running test can
//! touch the counter mid-measurement.

// A `GlobalAlloc` implementation is `unsafe` by definition.
#![allow(unsafe_code)]

use clognet_noc::{ClassAssignment, NetParams, Network};
use clognet_proto::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn params() -> NetParams {
    NetParams {
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
    }
}

#[test]
fn steady_state_tick_does_not_allocate() {
    let mut net = Network::new(params());
    let mut seq = 0u64;
    // Uniform-random-ish traffic from a cheap LCG, heavy enough to keep
    // every router busy (so the idle fast path is not what's hiding
    // allocations).
    let mut lcg = 0x2545F491_4F6CDD1Du64;
    let mut step = |net: &mut Network, count: &mut u64| {
        for _ in 0..8 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = ((lcg >> 33) % 64) as u16;
            let dst = ((lcg >> 13) % 64) as u16;
            if src == dst {
                continue;
            }
            seq += 1;
            let pkt = Packet::new(
                PacketId(seq),
                NodeId(src),
                NodeId(dst),
                MsgKind::ReadReq,
                Priority::Gpu,
                Addr::new(0x100 + seq * 64),
                128,
                16,
                0,
            );
            let _ = net.try_inject(pkt);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        net.tick();
        *count += ALLOCATIONS.load(Ordering::Relaxed) - before;
        for d in 0..64 {
            while net.pop_ejected(NodeId(d)).is_some() {}
        }
    };
    // Warmup: scratch buffers and queues reach working capacity. Long
    // enough for every Vec/VecDeque to hit its traffic-driven
    // high-water mark.
    let mut warm_allocs = 0;
    for _ in 0..8_000 {
        step(&mut net, &mut warm_allocs);
    }
    // Measure: not a single allocation inside tick from here on.
    let mut steady_allocs = 0;
    for _ in 0..3_000 {
        step(&mut net, &mut steady_allocs);
    }
    assert!(net.in_flight() > 0, "traffic load never materialized");
    assert_eq!(
        steady_allocs, 0,
        "Network::tick allocated {steady_allocs} times over 3000 steady-state cycles"
    );
}
