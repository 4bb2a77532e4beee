//! Behavioural tests of the Phastlane network: single-cycle multi-hop
//! transit, pipelined segments, contention priorities, multicast, drops,
//! and retransmission.

use phastlane_core::power::{self, EnergyCounts};
use phastlane_core::{BufferDepth, PhastlaneConfig, PhastlaneNetwork};
use phastlane_netsim::geometry::Coord;
use phastlane_netsim::packet::PacketKind;
use phastlane_netsim::{DestSet, Mesh, Network, NewPacket, NodeId};

fn run_until_idle(net: &mut PhastlaneNetwork, max_cycles: u64) {
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
fn adjacent_hop_takes_one_cycle() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    net.inject(NewPacket::unicast(NodeId(0), NodeId(1)))
        .unwrap();
    run_until_idle(&mut net, 10);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 1);
    assert_eq!(
        d[0].latency(),
        1,
        "an unblocked neighbour hop completes in one cycle"
    );
}

#[test]
fn max_hops_distance_takes_one_cycle() {
    // Four hops straight east in one cycle on Optical4.
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    net.inject(NewPacket::unicast(NodeId(0), NodeId(4)))
        .unwrap();
    run_until_idle(&mut net, 10);
    let d = net.drain_deliveries();
    assert_eq!(
        d[0].latency(),
        1,
        "max_hops distance still fits in a single cycle"
    );
}

#[test]
fn corner_to_corner_latency_scales_with_hop_limit() {
    // 14 hops: Optical4 needs ceil(14/4) = 4 segments, Optical5 needs 3,
    // Optical8 needs 2. Each segment is one cycle under no contention.
    for (cfg, expect) in [
        (PhastlaneConfig::optical4(), 4),
        (PhastlaneConfig::optical5(), 3),
        (PhastlaneConfig::optical8(), 2),
    ] {
        let label = cfg.label();
        let mut net = PhastlaneNetwork::new(cfg);
        net.inject(NewPacket::unicast(NodeId(0), NodeId(63)))
            .unwrap();
        run_until_idle(&mut net, 20);
        let d = net.drain_deliveries();
        assert_eq!(d[0].latency(), expect, "{label}: corner-to-corner latency");
    }
}

#[test]
fn broadcast_reaches_every_node() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    net.inject(NewPacket::broadcast(NodeId(27), PacketKind::ReadRequest))
        .unwrap();
    run_until_idle(&mut net, 100);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 63);
    let mut dests: Vec<u16> = d.iter().map(|x| x.dest.0).collect();
    dests.sort_unstable();
    let expected: Vec<u16> = (0..64).filter(|&n| n != 27).collect();
    assert_eq!(dests, expected);
}

#[test]
fn multicast_subset_only_reaches_targets() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let targets = vec![NodeId(7), NodeId(56), NodeId(35)];
    net.inject(NewPacket {
        src: NodeId(0),
        dests: DestSet::Multicast(targets.clone()),
        kind: PacketKind::Invalidate,
    })
    .unwrap();
    run_until_idle(&mut net, 100);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 3);
    for t in targets {
        assert!(d.iter().any(|x| x.dest == t));
    }
}

#[test]
fn straight_beats_turn_under_contention() {
    // Packet A goes straight north through (2,2); packet B turns at (2,2)
    // toward the same north output. Inject both so they reach (2,2) in
    // the same cycle at the same wavefront step: A from (2,3), B from
    // (1,2) heading to (2,0): B goes east one hop then turns north at
    // (2,2). A: (2,3) -> (2,0) straight north through (2,2).
    let mesh = Mesh::PAPER;
    let at = |x, y| mesh.node_at(Coord { x, y });
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let a = net.inject(NewPacket::unicast(at(2, 3), at(2, 0))).unwrap();
    let b = net.inject(NewPacket::unicast(at(1, 2), at(2, 0))).unwrap();
    run_until_idle(&mut net, 50);
    let d = net.drain_deliveries();
    let lat_a = d.iter().find(|x| x.packet == a).unwrap().latency();
    let lat_b = d.iter().find(|x| x.packet == b).unwrap().latency();
    assert_eq!(lat_a, 1, "straight packet is unimpeded");
    assert!(
        lat_b > 1,
        "turning packet was received and buffered, then relaunched"
    );
    let stats = net.stats();
    assert_eq!(stats.dropped, 0, "buffers had room; nothing dropped");
}

#[test]
fn full_buffers_drop_and_retransmit() {
    // One-entry buffers and a all-to-one hotspot: drops must occur, yet
    // every packet is eventually delivered via the drop-signal/backoff
    // retransmission path.
    let cfg = PhastlaneConfig::with_hops_and_buffers(4, BufferDepth::Finite(1));
    let mut net = PhastlaneNetwork::new(cfg);
    let mut expected = 0;
    for src in Mesh::PAPER.iter_nodes() {
        if src == NodeId(0) {
            continue;
        }
        if net.inject(NewPacket::unicast(src, NodeId(0))).is_some() {
            expected += 1;
        }
    }
    run_until_idle(&mut net, 5_000);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), expected);
    let stats = net.stats();
    assert!(
        stats.dropped > 0,
        "1-entry buffers under a hotspot must drop"
    );
    assert_eq!(
        stats.retransmitted, stats.dropped,
        "every drop is retransmitted"
    );
}

#[test]
#[expect(clippy::disallowed_types, reason = "test: membership checks only")]
fn concurrent_same_cycle_drops_account_exactly_once() {
    // Two opposite-corner hotspots with 1-entry buffers force drops at
    // distinct routers in the same cycle. Accounting must stay exact:
    // every drop produces one drop-return signal and one retransmission
    // (the end-of-step debug assertion cross-checks the signal count),
    // no retry is lost or duplicated, and every packet still arrives.
    let cfg = PhastlaneConfig::with_hops_and_buffers(4, BufferDepth::Finite(1));
    let mut net = PhastlaneNetwork::new(cfg);
    let mut expected = 0;
    for src in Mesh::PAPER.iter_nodes() {
        for dst in [NodeId(0), NodeId(63)] {
            if src != dst && net.inject(NewPacket::unicast(src, dst)).is_some() {
                expected += 1;
            }
        }
    }
    run_until_idle(&mut net, 20_000);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), expected, "no retry lost: everything delivered");
    let mut seen = std::collections::HashSet::new();
    for x in &d {
        assert!(
            seen.insert((x.packet, x.dest)),
            "no retry duplicated: {:?} delivered twice at {}",
            x.packet,
            x.dest
        );
    }
    let stats = net.stats();
    assert!(stats.dropped > 0, "the hotspots must overflow somewhere");
    assert_eq!(
        stats.retransmitted, stats.dropped,
        "exactly one retransmission attempt per drop"
    );
}

#[test]
fn infinite_buffers_never_drop() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4_ib());
    for src in Mesh::PAPER.iter_nodes() {
        if src != NodeId(0) {
            net.inject(NewPacket::unicast(src, NodeId(0))).unwrap();
        }
    }
    run_until_idle(&mut net, 5_000);
    assert_eq!(net.stats().dropped, 0);
    assert_eq!(net.drain_deliveries().len(), 63);
}

#[test]
fn self_send_delivers_immediately() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let id = net
        .inject(NewPacket::unicast(NodeId(5), NodeId(5)))
        .unwrap();
    assert_eq!(net.in_flight(), 0);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].packet, id);
    assert_eq!(d[0].latency(), 0);
}

#[test]
fn nic_backpressure_rejects_when_full() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    // A broadcast from an interior node occupies 16 NIC slots; the NIC
    // holds 50, so four broadcasts cannot all enter in one cycle.
    let src = Mesh::PAPER.node_at(Coord { x: 3, y: 3 });
    let mut accepted = 0;
    for _ in 0..4 {
        if net
            .inject(NewPacket::broadcast(src, PacketKind::WriteRequest))
            .is_some()
        {
            accepted += 1;
        }
    }
    assert_eq!(
        accepted, 3,
        "3 x 16 = 48 entries fit, the fourth broadcast must wait"
    );
    run_until_idle(&mut net, 500);
    assert_eq!(net.drain_deliveries().len(), 63 * 3);
}

fn optical4_32x32() -> PhastlaneNetwork {
    let mut cfg = PhastlaneConfig::optical4();
    cfg.mesh = Mesh::new(32, 32);
    PhastlaneNetwork::new(cfg)
}

/// On 32x32 an interior source's broadcast splits into 64 column
/// messages (two per column), more than an empty 50-entry NIC holds:
/// refusing it would have the caller retry it forever.
#[test]
#[should_panic(expected = "broadcast from n528 splits into 64 messages; the NIC holds 50")]
fn a_broadcast_no_nic_can_hold_is_named_not_refused() {
    let mut net = optical4_32x32();
    let src = net.mesh().node_at(Coord { x: 16, y: 16 });
    net.inject(NewPacket::broadcast(src, PacketKind::ReadRequest));
}

/// A top-row source needs one message per column: 32 fit the NIC.
#[test]
fn a_top_row_broadcast_on_32x32_fits_the_nic() {
    let mut net = optical4_32x32();
    let src = net.mesh().node_at(Coord { x: 16, y: 0 });
    net.inject(NewPacket::broadcast(src, PacketKind::ReadRequest))
        .expect("32 messages fit an empty 50-entry NIC");
    run_until_idle(&mut net, 5_000);
    assert_eq!(net.drain_deliveries().len(), 32 * 32 - 1);
}

#[test]
fn energy_accrues_with_traffic() {
    let mut busy = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    busy.inject(NewPacket::unicast(NodeId(0), NodeId(63)))
        .unwrap();
    run_until_idle(&mut busy, 100);
    let busy_e = busy.energy();
    assert!(busy_e.dynamic_pj > 0.0);
    assert!(busy_e.laser_pj > 0.0);
}

#[test]
fn idle_energy_is_exactly_cycles_times_leakage() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    for _ in 0..1000 {
        net.step();
    }
    let counts = net.energy_counts();
    assert_eq!(
        counts,
        EnergyCounts {
            cycles: 1000,
            ..EnergyCounts::default()
        }
    );
    let per_cycle = power::leakage_pj_per_cycle(64);
    assert_eq!(
        net.energy().leakage_pj.to_bits(),
        (1000.0 * per_cycle).to_bits()
    );
}

#[test]
fn isolated_unicast_counts_every_energy_event() {
    // Corner to corner on an idle 4x4 is six hops, beyond Optical4's
    // four: the NIC drain writes the source buffer, the first launch
    // stops after four hops and is received into an intermediate
    // buffer, the second launch (one buffer read each) is received at
    // the destination. No contention, so no drop signal.
    let mut cfg = PhastlaneConfig::optical4();
    cfg.mesh = Mesh::new(4, 4);
    let laser = power::laser_pj_per_launch(cfg.wdm, cfg.max_hops, cfg.crossing_efficiency);
    let mut net = PhastlaneNetwork::new(cfg);
    net.inject(NewPacket::unicast(NodeId(0), NodeId(15)))
        .unwrap();
    run_until_idle(&mut net, 100);
    let counts = net.energy_counts();
    assert_eq!(
        counts,
        EnergyCounts {
            cycles: net.cycle(),
            launches: 2,
            receives: 2,
            buffer_writes: 2,
            drop_signals: 0,
        }
    );
    let e = net.energy();
    assert_eq!(e, power::energy(&counts, 16, laser));
    let per_packet = (power::E_MOD_PJ_PER_BIT
        + power::E_RX_PJ_PER_BIT
        + power::E_BUF_WRITE_PJ_PER_BIT
        + power::E_BUF_READ_PJ_PER_BIT)
        * power::PACKET_CHANNEL_BITS;
    assert!((e.dynamic_pj - 2.0 * per_packet).abs() < 1e-9);
    assert_eq!(e.laser_pj, 2.0 * laser);
}

#[test]
fn eight_hop_config_spends_more_laser_energy_per_packet() {
    let run = |cfg: PhastlaneConfig| {
        let mut net = PhastlaneNetwork::new(cfg);
        net.inject(NewPacket::unicast(NodeId(0), NodeId(7)))
            .unwrap();
        run_until_idle(&mut net, 100);
        net.energy().laser_pj
    };
    let four = run(PhastlaneConfig::optical4());
    let eight = run(PhastlaneConfig::optical8());
    // 7 hops = 2 launches on Optical4, 1 on Optical8, but the 8-hop laser
    // provisioning is so much higher that it dominates (§5).
    assert!(eight > 2.0 * four, "8-hop laser {eight} vs 4-hop {four}");
}

#[test]
fn shared_pool_conserves_and_reduces_drops_at_moderate_load() {
    // Same storage (50 entries/router) organized as a shared pool vs the
    // static 10-per-buffer partition: at moderate load the pool absorbs
    // transients at least as well, and conservation must hold.
    let run = |cfg: PhastlaneConfig| {
        let mut net = PhastlaneNetwork::new(cfg);
        let mut injected = 0;
        for i in 0..64u16 {
            for k in [11u16, 29] {
                let dst = NodeId((i * k + 3) % 64);
                if NodeId(i) != dst && net.inject(NewPacket::unicast(NodeId(i), dst)).is_some() {
                    injected += 1;
                }
            }
        }
        run_until_idle(&mut net, 5_000);
        (net.drain_deliveries().len(), injected, net.stats().dropped)
    };
    let (delivered_static, injected_static, drops_static) = run(PhastlaneConfig::optical4());
    let (delivered_pool, injected_pool, drops_pool) = run(PhastlaneConfig::optical4_shared_pool());
    assert_eq!(delivered_static, injected_static);
    assert_eq!(delivered_pool, injected_pool);
    assert!(
        drops_pool <= drops_static,
        "pool drops {drops_pool} vs static {drops_static}"
    );
}

#[test]
fn occupancy_heatmap_reflects_buffered_packets() {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    // Idle: blank map.
    let idle = net.occupancy_heatmap();
    assert!(idle.contains("'@'=0"));
    // A hotspot burst parks packets in buffers mid-flight.
    for src in Mesh::PAPER.iter_nodes() {
        if src != NodeId(0) {
            let _ = net.inject(NewPacket::unicast(src, NodeId(0)));
        }
    }
    net.step();
    net.step();
    if net.buffered_packets() > 0 {
        let busy = net.occupancy_heatmap();
        assert!(
            !busy.contains("'@'=0"),
            "non-zero scale once buffers fill:\n{busy}"
        );
    }
    run_until_idle(&mut net, 5_000);
    assert!(
        net.occupancy_heatmap().contains("'@'=0"),
        "drains back to blank"
    );
}
