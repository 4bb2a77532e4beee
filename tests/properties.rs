//! Workspace-level property tests: invariants that must hold for
//! arbitrary workloads on both networks, with cases drawn from the
//! in-tree deterministic [`SimRng`].

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::fault::FaultPlan;
use phastlane_repro::netsim::packet::PacketKind;
use phastlane_repro::netsim::rng::SimRng;
use phastlane_repro::netsim::{DestSet, Mesh, Network, NewPacket, NodeId};
use phastlane_repro::optical::router::{rotation, Entry, PacketCore};
use phastlane_repro::optical::{ArbitrationPolicy, BufferDepth, PhastlaneConfig, PhastlaneNetwork};
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

fn random_packet(rng: &mut SimRng, nodes: u16) -> NewPacket {
    let src = rng.gen_range(0..nodes);
    let dst = rng.gen_range(0..nodes);
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
            NodeId(dst.wrapping_mul(13) % nodes),
            NodeId(dst.wrapping_add(17) % nodes),
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
        .map(|_| random_packet(rng, 64))
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

/// Drives random traffic — six packets in every cycle `bursting` picks —
/// for `cycles` under a random fault plan of the given intensity (dead
/// links, a stuck router, droop, bit errors) and checks packet
/// conservation after *every* step, not only at idle: each accepted
/// `(packet, dest)` copy ends as exactly one delivery or one terminal
/// failure, never both and never twice, and the network's own counters
/// and `in_flight()` agree with what is still owed.
fn conserves_every_cycle(
    net: &mut dyn Network,
    seed: u64,
    intensity: f64,
    bursting: impl Fn(u64) -> bool,
    cycles: u64,
) {
    let mesh = net.mesh();
    let nodes = mesh.nodes() as u16;
    net.set_fault_plan(FaultPlan::random(mesh, seed, intensity), seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut owed: BTreeSet<(u64, u16)> = BTreeSet::new();
    let mut accepted = 0u64;
    for cycle in 0..cycles {
        for _ in 0..if bursting(cycle) { 6 } else { 0 } {
            let p = random_packet(&mut rng, nodes);
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
    assert!(net.stats().delivered > 0);
}

/// Conservation under faults, every cycle, on Phastlane: a finite retry
/// cap makes both give-up paths (drop-return past the cap, fault stall
/// past the cap) fire, and the run ends fully accounted for.
#[test]
fn optical_conserves_every_cycle_under_faults() {
    let mut cfg = PhastlaneConfig::optical4();
    cfg.retry_limit = 8;
    let mut net = PhastlaneNetwork::new(cfg);
    conserves_every_cycle(&mut net, 0x0092_0906, 0.3, |cycle| cycle < 200, 5_000);
    assert!(net.stats().undeliverable > 0, "the fault plan never bit");
    assert_eq!(net.in_flight(), 0, "retry caps bound every packet's life");
}

/// The busy-router worklist under everything that puts a router on it or
/// takes it off — injection bursts, idle gaps in which it empties, drops
/// and retransmits, fault stalls and give-ups — on meshes of one mask
/// word (4x4, 8x8) and of four (16x16). Every debug-profile `step()`
/// checks the mask against a full scan; here conservation holds every
/// cycle on top, and once the mesh has drained the mask is all zero.
#[test]
fn optical_worklist_empties_when_the_mesh_does() {
    for (side, seed) in [(4, 0x0092_0908), (8, 0x0092_0909), (16, 0x0092_090A)] {
        let mut cfg = PhastlaneConfig::optical4();
        cfg.mesh = Mesh::new(side, side);
        cfg.retry_limit = 8;
        let mut net = PhastlaneNetwork::new(cfg);
        assert_eq!(net.busy_routers(), 0);
        let bursting = |cycle: u64| cycle % 150 < 40 && cycle < 600;
        conserves_every_cycle(&mut net, seed, 0.15, bursting, 3_000);
        assert!(net.stats().dropped > 0, "{side}x{side}: nothing contended");
        assert_eq!(net.in_flight(), 0, "{side}x{side}");
        assert_eq!(net.busy_routers(), 0, "{side}x{side}");
    }
}

/// The rotating-priority pointer as every router carried it before the
/// visit order became a function of the cycle: moved once per cycle,
/// by `rotate` at a router that arbitrates and by `advance` at an idle
/// one.
#[derive(Clone, Copy)]
struct EagerPointer(usize);

impl EagerPointer {
    fn rotate(&mut self) -> [usize; 5] {
        let start = self.0;
        self.advance();
        [0, 1, 2, 3, 4].map(|q| (start + q) % 5)
    }

    fn advance(&mut self) {
        self.0 = if self.0 == 4 { 0 } else { self.0 + 1 };
    }
}

/// `rotation(cycle)` is what the eager per-router pointer would have
/// yielded, whatever mix of idle and busy cycles a router went through,
/// and so is the queue order each arbitration policy derives from it.
#[test]
fn rotation_is_the_cycle_mod_five() {
    let mut rng = SimRng::seed_from_u64(0x0092_090B);
    let mut pointers = [EagerPointer(0); 64];
    for cycle in 0..1_000u64 {
        for pointer in &mut pointers {
            if !rng.gen_bool(0.3) {
                pointer.advance();
                continue;
            }
            let eager = pointer.rotate();
            assert_eq!(eager, rotation(cycle), "cycle {cycle}");
            // Heads of random age (or none) for the age-based policy.
            let heads: [Option<Entry>; 5] = std::array::from_fn(|_| {
                rng.gen_bool(0.6).then(|| Entry {
                    uid: 0,
                    core: PacketCore {
                        id: phastlane_repro::netsim::packet::PacketId(0),
                        src: NodeId(0),
                        kind: PacketKind::Data,
                        multicast: false,
                        injected_cycle: rng.gen_range(0..cycle + 1),
                    },
                    targets: [NodeId(1)].into_iter().collect(),
                    ready_at: 0,
                    attempts: 0,
                })
            });
            let heads = [0, 1, 2, 3, 4].map(|q| heads[q].as_ref());
            for policy in ArbitrationPolicy::ALL {
                assert_eq!(
                    policy.queue_order(eager, heads),
                    policy.queue_order(rotation(cycle), heads),
                    "{policy} at cycle {cycle}"
                );
            }
        }
    }
}

/// Same law on the electrical baseline, run past the 2 000-cycle
/// stall-abandon guard so stranded flits and NIC entries fail
/// terminally instead of staying owed forever.
#[test]
fn electrical_conserves_every_cycle_under_faults() {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    conserves_every_cycle(&mut net, 0x0092_0907, 0.3, |cycle| cycle < 200, 2_400);
    assert!(net.stats().undeliverable > 0, "the fault plan never bit");
}
