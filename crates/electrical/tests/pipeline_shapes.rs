//! Router pipelines the step digests never build: a one-cycle router, a
//! long VCTM set-up penalty (a 64-bucket eligibility wheel), one VC per
//! port, 16 VCs on a 16x16 mesh. Each shape takes mixed unicast and
//! broadcast traffic, then must drain with every accepted copy
//! delivered. In debug builds every cycle also checks the readiness
//! masks against the VCs and credit conservation on every link.

use phastlane_electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_netsim::packet::PacketKind;
use phastlane_netsim::rng::SimRng;
use phastlane_netsim::{Mesh, Network, NewPacket, NodeId};

/// Cycles of offered traffic before the drain.
const TRAFFIC_CYCLES: u64 = 300;
/// Cycles the drain may take before the shape counts as stuck.
const DRAIN_LIMIT: u64 = 20_000;

fn shape(mesh: Mesh, router_delay: u64, setup_penalty: u64, vcs: usize) -> ElectricalConfig {
    let mut cfg = ElectricalConfig::with_router_delay(router_delay);
    cfg.mesh = mesh;
    cfg.vctm_setup_penalty = setup_penalty;
    cfg.vcs_per_port = vcs;
    cfg
}

/// Offers `rate` packets per node per cycle, a `broadcast_share` of them
/// broadcasts, then steps until nothing is in flight and checks that
/// every accepted copy was delivered.
fn drive_and_drain(cfg: ElectricalConfig, rate: f64, broadcast_share: f64, seed: u64) {
    let label = format!(
        "{}x{} delay {} penalty {} {} VCs",
        cfg.mesh.width(),
        cfg.mesh.height(),
        cfg.router_delay,
        cfg.vctm_setup_penalty,
        cfg.vcs_per_port
    );
    let nodes = cfg.mesh.nodes() as u16;
    let mut net = ElectricalNetwork::new(cfg);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut deliveries = Vec::new();
    let (mut accepted, mut broadcasts) = (0u64, 0u64);
    for _ in 0..TRAFFIC_CYCLES {
        for src in 0..nodes {
            if !rng.gen_bool(rate) {
                continue;
            }
            let (packet, copies) = if rng.gen_bool(broadcast_share) {
                let packet = NewPacket::broadcast(NodeId(src), PacketKind::Invalidate);
                (packet, u64::from(nodes) - 1)
            } else {
                let dst = (src + rng.gen_range(1..nodes)) % nodes;
                (NewPacket::unicast(NodeId(src), NodeId(dst)), 1)
            };
            if net.inject(packet).is_some() {
                accepted += copies;
                broadcasts += u64::from(copies > 1);
            }
        }
        net.step();
        net.drain_deliveries_into(&mut deliveries);
    }
    let start = net.cycle();
    while net.in_flight() > 0 {
        assert!(
            net.cycle() - start < DRAIN_LIMIT,
            "{label}: {} copies still in flight after {DRAIN_LIMIT} drain cycles",
            net.in_flight()
        );
        net.step();
        net.drain_deliveries_into(&mut deliveries);
    }
    assert!(broadcasts > 0, "{label}: the mix offered broadcasts");
    assert_eq!(net.in_flight(), 0, "{label}");
    assert_eq!(net.occupied_vcs(), 0, "{label}: every VC was freed");
    assert!(
        net.drain_failures().is_empty(),
        "{label}: no fault plan, no failures"
    );
    assert_eq!(
        deliveries.len() as u64,
        accepted,
        "{label}: delivered = accepted copies"
    );
}

#[test]
fn one_cycle_router_with_a_long_tree_setup_drains() {
    // 1 + 37 + 2 rounds up to a 64-bucket wheel.
    drive_and_drain(shape(Mesh::new(8, 8), 1, 37, 10), 0.2, 0.05, 0x5EED_0001);
}

#[test]
fn one_cycle_router_with_sixteen_vcs_drains_on_16x16() {
    drive_and_drain(shape(Mesh::new(16, 16), 1, 0, 16), 0.1, 0.02, 0x5EED_0002);
}

#[test]
fn three_cycle_router_with_two_vcs_and_a_penalty_of_100_drains() {
    drive_and_drain(shape(Mesh::new(8, 4), 3, 100, 2), 0.15, 0.05, 0x5EED_0003);
}

#[test]
fn one_vc_per_port_drains() {
    drive_and_drain(shape(Mesh::new(4, 4), 2, 5, 1), 0.3, 0.1, 0x5EED_0004);
}
