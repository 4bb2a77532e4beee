//! Workspace-level property tests: invariants that must hold for
//! arbitrary workloads, with cases drawn from the in-tree deterministic
//! [`SimRng`]. The contracts every network owes live in the conformance
//! kit (`tests/conformance/`); the first six tests here run them on one
//! network each, at their own seeds and sizes.

#[allow(
    dead_code,
    reason = "this binary uses the kit's traffic and contract checks only"
)]
#[path = "conformance/kit.rs"]
mod kit;

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::packet::PacketKind;
use phastlane_repro::netsim::rng::SimRng;
use phastlane_repro::netsim::{Mesh, Network, NodeId};
use phastlane_repro::optical::router::{rotation, Entry, PacketCore};
use phastlane_repro::optical::{ArbitrationPolicy, BufferDepth, PhastlaneConfig, PhastlaneNetwork};

fn optical4() -> PhastlaneNetwork {
    PhastlaneNetwork::new(PhastlaneConfig::optical4())
}

/// Every copy of a random batch reaches exactly its destinations, once,
/// on Phastlane, despite drops and retransmissions.
#[test]
fn optical_delivers_exactly_once() {
    kit::exactly_once(optical4, 0x0092_0901, 24);
}

/// The same law on the electrical baseline, which also never drops.
#[test]
fn electrical_delivers_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0x0092_0902);
    for _ in 0..24 {
        let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
        kit::delivers_exactly_once(&mut net, kit::random_packets(&mut rng, 64, 25));
        assert_eq!(net.stats().dropped, 0);
    }
}

/// Exactly once even with pathologically small optical buffers (heavy
/// drop and retransmit activity).
#[test]
fn optical_conserves_with_tiny_buffers() {
    let cfg = PhastlaneConfig::with_hops_and_buffers(4, BufferDepth::Finite(1));
    let mut rng = SimRng::seed_from_u64(0x0092_0903);
    for _ in 0..24 {
        let mut net = PhastlaneNetwork::new(cfg.clone());
        kit::delivers_exactly_once(&mut net, kit::random_packets(&mut rng, 64, 15));
    }
}

/// No energy term ever decreases as the simulation advances: the kit's
/// books check all four after every step.
#[test]
fn energy_monotone() {
    kit::conserves_every_cycle(&mut optical4(), 0x0092_0904, 0.0, |c| c < 50, 200);
}

/// Conservation every cycle under a random fault plan on Phastlane: a
/// finite retry cap makes both give-up paths (drop-return past the cap,
/// fault stall past the cap) fire, and the run ends fully accounted for.
#[test]
fn optical_conserves_every_cycle_under_faults() {
    let mut cfg = PhastlaneConfig::optical4();
    cfg.retry_limit = 8;
    let mut net = PhastlaneNetwork::new(cfg);
    kit::conserves_every_cycle(&mut net, 0x0092_0906, 0.3, |c| c < 200, 5_000);
    assert!(net.stats().undeliverable > 0, "the fault plan never bit");
    assert_eq!(net.in_flight(), 0, "retry caps bound every packet's life");
}

/// The same law on the electrical baseline, run past the 2 000-cycle
/// stall-abandon guard so stranded flits and NIC entries fail
/// terminally instead of staying owed forever.
#[test]
fn electrical_conserves_every_cycle_under_faults() {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    kit::conserves_every_cycle(&mut net, 0x0092_0907, 0.3, |c| c < 200, 2_400);
    assert!(net.stats().undeliverable > 0, "the fault plan never bit");
}

/// Phastlane delivery latency is bounded under a finite workload: no
/// packet livelocks even with drops.
#[test]
fn optical_latency_bounded() {
    let mut rng = SimRng::seed_from_u64(0x0092_0905);
    for _ in 0..24 {
        let packets = kit::random_packets(&mut rng, 64, 20);
        let mut net = optical4();
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

/// The busy-router worklist under everything that puts a router on it or
/// takes it off — injection bursts, idle gaps in which it empties, drops
/// and retransmits, fault stalls and give-ups — on meshes of one mask
/// word (4x4, 8x8) and of four (16x16). Every debug-profile `step()`
/// checks the mask against a full scan; here conservation holds every
/// cycle on top, the 8-attempt retry cap ends every packet, and once
/// the mesh has drained the mask is all zero.
#[test]
fn optical_worklist_empties_when_the_mesh_does() {
    for (side, seed) in [(4, 0x0092_0908), (8, 0x0092_0909), (16, 0x0092_090A)] {
        let mut cfg = PhastlaneConfig::optical4();
        cfg.mesh = Mesh::new(side, side);
        cfg.retry_limit = 8;
        let mut net = PhastlaneNetwork::new(cfg);
        assert_eq!(net.busy_routers(), 0);
        let bursting = |cycle: u64| cycle % 150 < 40 && cycle < 600;
        kit::conserves_every_cycle(&mut net, seed, 0.15, bursting, 3_000);
        assert!(net.stats().dropped > 0, "{side}x{side}: nothing contended");
        assert!(net.stats().undeliverable > 0, "{side}x{side}: no give-up");
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
