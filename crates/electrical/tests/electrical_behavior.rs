//! Behavioural tests of the electrical baseline: pipeline latency,
//! VCTM broadcasts, losslessness under load, and credit flow.

use phastlane_electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_netsim::ideal::IdealNetwork;
use phastlane_netsim::packet::PacketKind;
use phastlane_netsim::rng::SimRng;
use phastlane_netsim::{Mesh, Network, NewPacket, NodeId};

fn run_until_idle(net: &mut ElectricalNetwork, max_cycles: u64) {
    let start = net.cycle();
    while net.in_flight() > 0 {
        assert!(
            net.cycle() - start < max_cycles,
            "network did not drain within {max_cycles} cycles"
        );
        net.step();
    }
}

#[test]
fn zero_load_latency_is_delay_per_hop_plus_ejection() {
    // k hops at `router_delay + 1 link` cycles each, then the one-cycle
    // ejection bypass.
    for (cfg, delay) in [
        (ElectricalConfig::electrical3(), 3),
        (ElectricalConfig::electrical2(), 2),
    ] {
        for hops in [1u64, 4, 7, 14] {
            let dst = if hops <= 7 {
                NodeId(hops as u16)
            } else {
                NodeId(63)
            };
            let mut net = ElectricalNetwork::new(cfg.clone());
            net.inject(NewPacket::unicast(NodeId(0), dst)).unwrap();
            run_until_idle(&mut net, 200);
            let d = net.drain_deliveries();
            assert_eq!(
                d[0].latency(),
                (delay + 1) * hops + 1,
                "{} at {hops} hops",
                cfg.label()
            );
        }
    }
}

#[test]
fn two_cycle_router_is_faster() {
    let run = |cfg| {
        let mut net = ElectricalNetwork::new(cfg);
        net.inject(NewPacket::unicast(NodeId(0), NodeId(63)))
            .unwrap();
        run_until_idle(&mut net, 200);
        net.drain_deliveries()[0].latency()
    };
    assert!(run(ElectricalConfig::electrical2()) < run(ElectricalConfig::electrical3()));
}

#[test]
fn vctm_broadcast_reaches_every_node() {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    net.inject(NewPacket::broadcast(NodeId(27), PacketKind::ReadRequest))
        .unwrap();
    run_until_idle(&mut net, 500);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 63);
    let mut dests: Vec<u16> = d.iter().map(|x| x.dest.0).collect();
    dests.sort_unstable();
    assert_eq!(dests, (0..64).filter(|&n| n != 27).collect::<Vec<_>>());
}

#[test]
fn broadcast_latency_bounded_by_tree_depth() {
    // The deepest tree leaf from a corner is 14 hops; every delivery
    // should complete within ~tree-depth * router_delay plus fork
    // serialization slack.
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    net.inject(NewPacket::broadcast(NodeId(0), PacketKind::Invalidate))
        .unwrap();
    run_until_idle(&mut net, 500);
    let d = net.drain_deliveries();
    let max = d.iter().map(|x| x.latency()).max().unwrap();
    assert!(max <= 14 * 4 + 20, "worst leaf latency {max}");
}

#[test]
fn lossless_under_hotspot() {
    // All 63 nodes send to node 0; credit-based flow control must deliver
    // every packet with zero drops.
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let mut injected = 0;
    for src in Mesh::PAPER.iter_nodes() {
        if src != NodeId(0) && net.inject(NewPacket::unicast(src, NodeId(0))).is_some() {
            injected += 1;
        }
    }
    run_until_idle(&mut net, 5_000);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), injected);
    assert_eq!(net.stats().dropped, 0);
}

#[test]
fn sustained_stream_through_one_link() {
    // Saturate a single link: 200 packets 0 -> 1. Throughput should
    // approach one flit per cycle despite the 1-entry VCs, thanks to the
    // 10 VCs covering the credit round trip.
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let mut sent = 0;
    let mut done = 0;
    let mut last_cycle = 0;
    while done < 200 {
        if sent < 200
            && net
                .inject(NewPacket::unicast(NodeId(0), NodeId(1)))
                .is_some()
        {
            sent += 1;
        }
        net.step();
        for d in net.drain_deliveries() {
            done += 1;
            last_cycle = d.delivered_cycle;
        }
        assert!(net.cycle() < 5_000, "stream stalled at {done}/200");
    }
    // 200 packets over a single link: ideal 200 cycles; allow modest
    // overhead for pipeline fill and allocation.
    assert!(last_cycle < 400, "200 packets took {last_cycle} cycles");
}

#[test]
fn all_vcs_drain_after_burst() {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    for i in 0..64u16 {
        let dst = NodeId((i * 31 + 5) % 64);
        if NodeId(i) != dst {
            net.inject(NewPacket::unicast(NodeId(i), dst)).unwrap();
        }
    }
    run_until_idle(&mut net, 2_000);
    assert_eq!(
        net.occupied_vcs(),
        0,
        "every VC must free after the burst drains"
    );
}

#[test]
fn energy_accrues_and_links_dominate_long_paths() {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    net.inject(NewPacket::unicast(NodeId(0), NodeId(63)))
        .unwrap();
    run_until_idle(&mut net, 200);
    let e = net.energy();
    assert!(e.dynamic_pj > 0.0);
    assert!(
        e.link_pj > e.dynamic_pj,
        "14 links outweigh buffer/xbar energy"
    );
    assert_eq!(e.laser_pj, 0.0, "no optics in the baseline");
}

#[test]
fn self_send_delivers_immediately() {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let id = net
        .inject(NewPacket::unicast(NodeId(5), NodeId(5)))
        .unwrap();
    assert_eq!(net.in_flight(), 0);
    let d = net.drain_deliveries();
    assert_eq!(d[0].packet, id);
    assert_eq!(d[0].latency(), 0);
}

/// The same seeded unicast workload into the electrical network and
/// into the contention-free ideal one with the same per-hop cost: no
/// packet may arrive earlier than its ideal twin.
#[test]
fn no_packet_beats_the_ideal_network() {
    for cfg in [
        ElectricalConfig::electrical3(),
        ElectricalConfig::electrical2(),
    ] {
        let mesh = cfg.mesh;
        let nodes = mesh.nodes() as u16;
        let mut net = ElectricalNetwork::new(cfg.clone());
        let mut ideal = IdealNetwork::new(mesh, 1, cfg.router_delay + 1);
        let mut rng = SimRng::seed_from_u64(0x00E1_EC06);
        let (mut measured, mut bound) = (Vec::new(), Vec::new());
        let mut contended = 0;
        for cycle in 0..800 {
            for src in 0..nodes {
                if cycle >= 300 || !rng.gen_bool(0.05) {
                    continue;
                }
                let dst = (src + rng.gen_range(1..nodes)) % nodes;
                let packet = NewPacket::unicast(NodeId(src), NodeId(dst));
                // Never refused at this rate, so the ids line up.
                let id = net.inject(packet.clone()).expect("NIC has room");
                assert_eq!(ideal.inject(packet), Some(id));
            }
            net.step();
            ideal.step();
            measured.extend(net.drain_deliveries());
            bound.extend(ideal.drain_deliveries());
        }
        assert_eq!(net.in_flight() + ideal.in_flight(), 0, "both drained");
        assert!(measured.len() > 500 && measured.len() == bound.len());
        measured.sort_unstable_by_key(|d| d.packet);
        bound.sort_unstable_by_key(|d| d.packet);
        for (got, ideal) in measured.iter().zip(&bound) {
            assert_eq!((got.packet, got.dest), (ideal.packet, ideal.dest));
            assert!(
                got.latency() >= ideal.latency(),
                "{}: packet {:?} took {} cycles, the ideal network {}",
                cfg.label(),
                got.packet,
                got.latency(),
                ideal.latency()
            );
            contended += usize::from(got.latency() > ideal.latency());
        }
        assert!(contended > 0, "the workload never contended");

        // An isolated packet meets the bound exactly.
        for (src, dst) in [(0, 9), (63, 0), (5, 61), (40, 47)] {
            let mut net = ElectricalNetwork::new(cfg.clone());
            net.inject(NewPacket::unicast(NodeId(src), NodeId(dst)))
                .unwrap();
            run_until_idle(&mut net, 200);
            assert_eq!(
                net.drain_deliveries()[0].latency(),
                ideal.latency_between(NodeId(src), NodeId(dst)),
                "{} {src} -> {dst}",
                cfg.label()
            );
        }
    }
}

#[test]
#[should_panic(expected = "vcs_per_port must be 1 to 16")]
fn zero_vcs_rejected() {
    let mut cfg = ElectricalConfig::electrical3();
    cfg.vcs_per_port = 0;
    let _ = ElectricalNetwork::new(cfg);
}

#[test]
#[should_panic(expected = "vcs_per_port must be 1 to 16")]
fn more_vcs_than_the_mask_width_rejected() {
    let mut cfg = ElectricalConfig::electrical3();
    cfg.vcs_per_port = 17;
    let _ = ElectricalNetwork::new(cfg);
}

#[test]
#[should_panic(expected = "input_speedup must be at least 1")]
fn zero_input_speedup_rejected() {
    let mut cfg = ElectricalConfig::electrical3();
    cfg.input_speedup = 0;
    let _ = ElectricalNetwork::new(cfg);
}
