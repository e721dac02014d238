//! Randomized tests for the NoC: delivery latency lower bounds, credit
//! conservation under load, class isolation on shared physical
//! networks, and CPU-priority legality.
//!
//! Seeded with `clognet-rng` so every run explores the same cases.

use clognet_noc::{routing, ClassAssignment, NetParams, Network, TopologyGraph};
use clognet_proto::*;
use clognet_rng::{Rng, SeedableRng, SmallRng};

fn params(topology: Topology, classes: ClassAssignment) -> NetParams {
    NetParams {
        topology,
        width: 8,
        height: 8,
        classes,
        vc_buf_flits: 4,
        pipeline: 4,
        routing_request: RoutingPolicy::DorYX,
        routing_reply: RoutingPolicy::DorXY,
        eject_buf_flits: 36,
        sa_iterations: 1,
    }
}

/// A lone packet's latency is at least hops * (per-hop pipeline) and,
/// on an idle network, within a small constant of it.
#[test]
fn lone_packet_latency_is_tight() {
    let mut rng = SmallRng::seed_from_u64(0x0C_0001);
    for _case in 0..48 {
        let topology = Topology::ALL[rng.gen_range(0..4usize)];
        let src = rng.gen_range(0..64u16);
        let mut dst = rng.gen_range(0..64u16);
        if src == dst {
            dst = (dst + 1) % 64;
        }
        let mut net = Network::new(params(
            topology,
            ClassAssignment::Single(TrafficClass::Request, 2),
        ));
        let pkt = Packet::new(
            PacketId(1),
            NodeId(src),
            NodeId(dst),
            MsgKind::ReadReq,
            Priority::Gpu,
            Addr::new(0x100),
            128,
            16,
            0,
        );
        net.try_inject(pkt).unwrap();
        let mut done = None;
        for now in 0..1_000 {
            net.tick();
            if !net.take_ejected(NodeId(dst), 1).is_empty() {
                done = Some(now + 1);
                break;
            }
        }
        let lat = done.expect("delivered") as usize;
        let topo = TopologyGraph::build(topology, 8, 8);
        let hops = routing::min_hops(&topo, NodeId(src), NodeId(dst));
        assert!(
            lat >= 3 * hops,
            "{topology:?} {src}->{dst}: {lat} < 3*{hops}"
        );
        assert!(
            lat <= 5 * hops + 12,
            "{topology:?} {src}->{dst}: idle latency {lat} too high for {hops} hops"
        );
    }
}

/// On a shared physical network, request-class congestion must not lose
/// reply packets (and vice versa): both classes fully deliver.
#[test]
fn shared_network_classes_both_deliver() {
    let mut rng = SmallRng::seed_from_u64(0x0C_0002);
    for _case in 0..24 {
        let req_vcs = rng.gen_range(1..3usize);
        let rep_vcs = rng.gen_range(1..3usize);
        let n_req = rng.gen_range(1..40usize);
        let n_rep = rng.gen_range(1..12usize);
        let mut net = Network::new(params(
            Topology::Mesh,
            ClassAssignment::Shared {
                request_vcs: req_vcs,
                reply_vcs: rep_vcs,
            },
        ));
        let mut queue: Vec<Packet> = Vec::new();
        for i in 0..n_req {
            queue.push(Packet::new(
                PacketId(i as u64),
                NodeId((i % 32) as u16),
                NodeId(63),
                MsgKind::ReadReq,
                Priority::Gpu,
                Addr::new(i as u64 * 128),
                128,
                16,
                0,
            ));
        }
        for i in 0..n_rep {
            queue.push(Packet::new(
                PacketId(1000 + i as u64),
                NodeId((i % 16) as u16),
                NodeId(62),
                MsgKind::ReadReply,
                Priority::Gpu,
                Addr::new(i as u64 * 128),
                128,
                16,
                0,
            ));
        }
        let (mut got_req, mut got_rep) = (0, 0);
        for _ in 0..8_000 {
            if let Some(p) = queue.pop() {
                if let Err(back) = net.try_inject(p) {
                    queue.push(back);
                }
            }
            net.tick();
            got_req += net.take_ejected(NodeId(63), usize::MAX).len();
            got_rep += net.take_ejected(NodeId(62), usize::MAX).len();
            if got_req == n_req && got_rep == n_rep {
                break;
            }
        }
        assert_eq!((got_req, got_rep), (n_req, n_rep));
        assert_eq!(net.in_flight(), 0);
    }
}

/// Link utilization statistics are physical: no link ever carries more
/// than one flit per cycle.
#[test]
fn link_utilization_is_physical() {
    let mut outer = SmallRng::seed_from_u64(0x0C_0003);
    for _case in 0..16 {
        let n_pkts = outer.gen_range(1..80usize);
        let seed = outer.gen_range(0..16u64);
        let mut net = Network::new(params(
            Topology::Mesh,
            ClassAssignment::Single(TrafficClass::Reply, 2),
        ));
        let mut state = seed.wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u16 % 64
        };
        let mut queue: Vec<Packet> = (0..n_pkts)
            .map(|i| {
                let (mut s, mut d) = (next(), next());
                if s == d {
                    d = (d + 1) % 64;
                    s = s.min(63);
                }
                Packet::new(
                    PacketId(i as u64),
                    NodeId(s),
                    NodeId(d),
                    MsgKind::ReadReply,
                    Priority::Gpu,
                    Addr::new(i as u64 * 128),
                    128,
                    16,
                    0,
                )
            })
            .collect();
        for _ in 0..4_000 {
            if let Some(p) = queue.pop() {
                if let Err(back) = net.try_inject(p) {
                    queue.push(back);
                }
            }
            net.tick();
            for d in 0..64 {
                net.take_ejected(NodeId(d), usize::MAX);
            }
        }
        let st = net.stats();
        for r in 0..64 {
            for p in 0..5 {
                let u = st.link_utilization(r, p);
                assert!((0.0..=1.0).contains(&u), "util {u} at {r}.{p}");
            }
        }
    }
}

/// CPU packets must never be starved: even under saturating GPU load, a
/// CPU packet injected later finishes within a bounded horizon.
#[test]
fn cpu_packets_are_never_starved() {
    let mut net = Network::new(params(
        Topology::Mesh,
        ClassAssignment::Single(TrafficClass::Reply, 2),
    ));
    let mut id = 0u64;
    // Saturate with GPU replies toward node 7 for a while.
    for _ in 0..500 {
        for s in [0u16, 1, 2, 8, 9] {
            id += 1;
            let _ = net.try_inject(Packet::new(
                PacketId(id),
                NodeId(s),
                NodeId(7),
                MsgKind::ReadReply,
                Priority::Gpu,
                Addr::new(id * 128),
                128,
                16,
                net.now(),
            ));
        }
        net.tick();
        net.take_ejected(NodeId(7), usize::MAX);
    }
    // Now inject one CPU reply along the saturated row.
    let mut cpu = Packet::new(
        PacketId(999_999),
        NodeId(3),
        NodeId(7),
        MsgKind::ReadReply,
        Priority::Cpu,
        Addr::new(64),
        64,
        16,
        net.now(),
    );
    cpu.prio = Priority::Cpu;
    while net.try_inject(cpu.clone()).is_err() {
        net.tick();
        net.take_ejected(NodeId(7), usize::MAX);
    }
    let start = net.now();
    loop {
        net.tick();
        if net
            .take_ejected(NodeId(7), usize::MAX)
            .iter()
            .any(|p| p.id == PacketId(999_999))
        {
            break;
        }
        assert!(net.now() - start < 2_000, "CPU packet starved");
    }
    let lat = net.now() - start;
    assert!(lat < 400, "CPU latency {lat} under GPU saturation");
}

/// The bitset fast path is a pure optimization: with it disabled
/// (reference mode: every input VC of every router scanned, nothing
/// parked), identical traffic must produce identical per-cycle
/// ejections and identical final statistics. Covers the mesh with one
/// class, and the crossbar and flattened butterfly with both classes
/// sharing the network — the crossbar's single 64-port router has 256
/// input VCs, so its bitsets span four words. The saturated leg sends
/// half of a steady stream to one hotspot node that takes its packets
/// only every 8th cycle, so heads park on credits, sleep in VA and wait
/// on a full ejection buffer, all against the full scan.
#[test]
fn idle_skip_matches_full_iteration_reference() {
    let shared = ClassAssignment::Shared {
        request_vcs: 2,
        reply_vcs: 2,
    };
    for (topology, classes, hotspot) in [
        (
            Topology::Mesh,
            ClassAssignment::Single(TrafficClass::Request, 2),
            None,
        ),
        (Topology::Crossbar, shared, None),
        (Topology::FlattenedButterfly, shared, None),
        (Topology::Mesh, shared, Some(27)),
    ] {
        idle_skip_matches_reference(topology, classes, hotspot);
    }
}

fn idle_skip_matches_reference(topology: Topology, classes: ClassAssignment, hotspot: Option<u16>) {
    let case = format!("{topology:?} {classes:?} hotspot {hotspot:?}");
    let mut rng = SmallRng::seed_from_u64(0x0C_0005);
    let mut fast = Network::new(params(topology, classes));
    let mut refr = Network::new(params(topology, classes));
    refr.set_idle_skip(false);
    let both_classes = matches!(classes, ClassAssignment::Shared { .. });
    let mut seq = 0u64;
    for cycle in 0..3_000 {
        // Bursty traffic with quiet gaps so plenty of routers go idle,
        // or with a hotspot a steady stream.
        let burst = if hotspot.is_some() || cycle % 97 < 40 {
            rng.gen_range(0..6usize)
        } else {
            0
        };
        for _ in 0..burst {
            let src = rng.gen_range(0..64u16);
            let dst = match hotspot {
                Some(h) if rng.gen_range(0..2u32) == 0 => h,
                _ => rng.gen_range(0..64u16),
            };
            if src == dst {
                continue;
            }
            // On a shared network, mix 9-flit replies (a quarter of them
            // CPU, which own the reply range's top VC) into the requests.
            let (kind, prio) = if both_classes && rng.gen_range(0..2u32) == 0 {
                let prio = if rng.gen_range(0..4u32) == 0 {
                    Priority::Cpu
                } else {
                    Priority::Gpu
                };
                (MsgKind::ReadReply, prio)
            } else {
                (MsgKind::ReadReq, Priority::Gpu)
            };
            seq += 1;
            let mk = || {
                Packet::new(
                    PacketId(seq),
                    NodeId(src),
                    NodeId(dst),
                    kind,
                    prio,
                    Addr::new(seq * 64),
                    128,
                    16,
                    cycle,
                )
            };
            let a = fast.try_inject(mk());
            let b = refr.try_inject(mk());
            assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "{case}: injection diverged at {cycle}"
            );
        }
        fast.tick();
        refr.tick();
        for d in 0..64u16 {
            if hotspot == Some(d) && cycle % 8 != 0 {
                continue;
            }
            loop {
                let a = fast.pop_ejected(NodeId(d));
                let b = refr.pop_ejected(NodeId(d));
                assert_eq!(
                    a.as_ref().map(|p| p.id),
                    b.as_ref().map(|p| p.id),
                    "{case}: ejection diverged at cycle {cycle} node {d}"
                );
                if a.is_none() {
                    break;
                }
            }
        }
    }
    assert_eq!(fast.in_flight(), refr.in_flight(), "{case}");
    assert_eq!(
        format!("{:?}", fast.stats()),
        format!("{:?}", refr.stats()),
        "{case}: statistics diverged between fast path and reference"
    );
    assert!(
        fast.stats().ejected_pkts.iter().sum::<u64>() > 100,
        "{case}: test never exercised real traffic"
    );
    if both_classes {
        assert!(
            fast.stats().ejected_pkts.iter().all(|&n| n > 0),
            "{case}: a class never delivered"
        );
    }
    if hotspot.is_some() {
        assert!(
            fast.stats().node_inj_stall_cycles.iter().sum::<u64>() > 0,
            "{case}: the hotspot never backed up into injection"
        );
    }
}
