//! Workspace-level property tests: invariants that must hold for
//! arbitrary workloads on both networks, with cases drawn from the
//! in-tree deterministic [`SimRng`].

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::fault::FaultPlan;
use phastlane_repro::netsim::packet::PacketKind;
use phastlane_repro::netsim::rng::SimRng;
use phastlane_repro::netsim::{DestSet, Network, NewPacket, NodeId};
use phastlane_repro::optical::{BufferDepth, PhastlaneConfig, PhastlaneNetwork};
use std::collections::BTreeSet;

/// Drives a set of packets to completion and returns the sorted
/// (src, dest) delivery pairs plus drop statistics.
fn drive(net: &mut dyn Network, packets: &[NewPacket]) -> (Vec<(u16, u16)>, u64) {
    let mut queue: Vec<NewPacket> = packets.to_vec();
    let mut guard = 0u64;
    while !queue.is_empty() || net.in_flight() > 0 {
        queue.retain(|p| net.inject(p.clone()).is_none());
        net.step();
        guard += 1;
        assert!(guard < 60_000, "workload did not drain");
    }
    let deliveries = net.drain_deliveries();
    let mut pairs: Vec<(u16, u16)> = deliveries.iter().map(|d| (d.src.0, d.dest.0)).collect();
    pairs.sort_unstable();
    (pairs, net.stats().dropped)
}

fn random_packet(rng: &mut SimRng) -> NewPacket {
    let src = rng.gen_range(0u16..64);
    let dst = rng.gen_range(0u16..64);
    let kind = match rng.gen_range(0u8..4) {
        0 => PacketKind::Data,
        1 => PacketKind::ReadRequest,
        2 => PacketKind::DataResponse,
        _ => PacketKind::Writeback,
    };
    let dests = match rng.gen_range(0u8..10) {
        0 => DestSet::Broadcast,
        1..=2 => DestSet::Multicast(vec![
            NodeId(dst),
            NodeId(dst.wrapping_mul(13) % 64),
            NodeId(dst.wrapping_add(17) % 64),
        ]),
        _ => DestSet::Unicast(NodeId(dst)),
    };
    NewPacket {
        src: NodeId(src),
        dests,
        kind,
    }
}

fn random_packets(rng: &mut SimRng, max_len: usize) -> Vec<NewPacket> {
    (0..rng.gen_range(1usize..max_len))
        .map(|_| random_packet(rng))
        .collect()
}

/// Expected delivery multiset for a packet list.
fn expected_pairs(packets: &[NewPacket]) -> Vec<(u16, u16)> {
    let mut pairs = Vec::new();
    for p in packets {
        let dests = p.dests.expand(p.src, 64);
        if dests.is_empty() {
            pairs.push((p.src.0, p.src.0)); // self-send
        } else {
            for d in dests {
                pairs.push((p.src.0, d.0));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Every injected packet is delivered to exactly its destination set,
/// no duplicates, no losses — on Phastlane, despite drops and
/// retransmissions.
#[test]
fn optical_delivers_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0x0092_0901);
    for _ in 0..24 {
        let packets = random_packets(&mut rng, 25);
        let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
        let (pairs, _) = drive(&mut net, &packets);
        assert_eq!(pairs, expected_pairs(&packets));
    }
}

/// Same conservation law for the electrical baseline (which must also
/// never drop).
#[test]
fn electrical_delivers_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0x0092_0902);
    for _ in 0..24 {
        let packets = random_packets(&mut rng, 25);
        let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
        let (pairs, dropped) = drive(&mut net, &packets);
        assert_eq!(pairs, expected_pairs(&packets));
        assert_eq!(dropped, 0);
    }
}

/// Conservation holds even with pathologically small optical buffers
/// (heavy drop/retransmit activity).
#[test]
fn optical_conserves_with_tiny_buffers() {
    let mut rng = SimRng::seed_from_u64(0x0092_0903);
    for _ in 0..24 {
        let packets = random_packets(&mut rng, 15);
        let cfg = PhastlaneConfig::with_hops_and_buffers(4, BufferDepth::Finite(1));
        let mut net = PhastlaneNetwork::new(cfg);
        let (pairs, _) = drive(&mut net, &packets);
        assert_eq!(pairs, expected_pairs(&packets));
    }
}

/// Energy is monotone: it never decreases as the simulation advances.
#[test]
fn energy_monotone() {
    let mut rng = SimRng::seed_from_u64(0x0092_0904);
    for _ in 0..24 {
        let packets = random_packets(&mut rng, 10);
        let steps = rng.gen_range(1u32..50);
        let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
        for p in packets {
            let _ = net.inject(p);
        }
        let mut last = net.energy().total_pj();
        for _ in 0..steps {
            net.step();
            let now = net.energy().total_pj();
            assert!(now >= last);
            last = now;
        }
    }
}

/// Phastlane delivery latency is bounded under a finite workload: no
/// packet livelocks even with drops.
#[test]
fn optical_latency_bounded() {
    let mut rng = SimRng::seed_from_u64(0x0092_0905);
    for _ in 0..24 {
        let packets = random_packets(&mut rng, 20);
        let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
        for p in &packets {
            let _ = net.inject(p.clone());
        }
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.step();
            guard += 1;
            assert!(guard < 20_000);
        }
        for d in net.drain_deliveries() {
            assert!(d.latency() < 10_000);
        }
    }
}

/// Drives random traffic for `inject_cycles` of `cycles` under a heavy
/// random fault plan (dead links, a stuck router, droop, bit errors) and
/// checks packet conservation after *every* step, not only at idle:
/// each accepted `(packet, dest)` copy ends as exactly one delivery or
/// one terminal failure, never both and never twice, and the network's
/// own counters and `in_flight()` agree with what is still owed.
fn conserves_every_cycle(net: &mut dyn Network, seed: u64, inject_cycles: u64, cycles: u64) {
    let mesh = net.mesh();
    net.set_fault_plan(FaultPlan::random(mesh, seed, 0.3), seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut owed: BTreeSet<(u64, u16)> = BTreeSet::new();
    let mut accepted = 0u64;
    for cycle in 0..cycles {
        for _ in 0..if cycle < inject_cycles { 6 } else { 0 } {
            let p = random_packet(&mut rng);
            let Some(id) = net.inject(p.clone()) else {
                continue;
            };
            let dests = p.dests.expand(p.src, mesh.nodes());
            // A self-send is accepted and delivered on the spot.
            let dests = if dests.is_empty() { vec![p.src] } else { dests };
            accepted += dests.len() as u64;
            for d in dests {
                assert!(owed.insert((id.0, d.0)), "packet id {id:?} reused");
            }
        }
        net.step();
        let delivered = net.drain_deliveries();
        let failed = net.drain_failures();
        let ended = (delivered.iter().map(|d| (d.packet.0, d.dest.0)))
            .chain(failed.iter().map(|f| (f.packet.0, f.dest.0)));
        for pair in ended {
            assert!(
                owed.remove(&pair),
                "cycle {cycle}: {pair:?} ended twice or was never accepted"
            );
        }
        let stats = net.stats();
        assert_eq!(
            accepted,
            stats.delivered + stats.undeliverable + owed.len() as u64,
            "cycle {cycle}: accepted copies != delivered + failed + still owed"
        );
        let packets_owed: BTreeSet<u64> = owed.iter().map(|&(id, _)| id).collect();
        assert_eq!(net.in_flight(), packets_owed.len(), "cycle {cycle}");
    }
    let stats = net.stats();
    assert!(stats.undeliverable > 0, "the fault plan never bit");
    assert!(stats.delivered > 0);
}

/// Conservation under faults, every cycle, on Phastlane: a finite retry
/// cap makes both give-up paths (drop-return past the cap, fault stall
/// past the cap) fire, and the run ends fully accounted for.
#[test]
fn optical_conserves_every_cycle_under_faults() {
    let mut cfg = PhastlaneConfig::optical4();
    cfg.retry_limit = 8;
    let mut net = PhastlaneNetwork::new(cfg);
    conserves_every_cycle(&mut net, 0x0092_0906, 200, 5_000);
    assert_eq!(net.in_flight(), 0, "retry caps bound every packet's life");
}

/// Same law on the electrical baseline, run past the 2 000-cycle
/// stall-abandon guard so stranded flits and NIC entries fail
/// terminally instead of staying owed forever.
#[test]
fn electrical_conserves_every_cycle_under_faults() {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    conserves_every_cycle(&mut net, 0x0092_0907, 200, 2_400);
}
