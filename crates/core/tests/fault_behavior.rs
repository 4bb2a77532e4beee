//! Behavioural tests of the fault-injection subsystem: detours around
//! dead links, terminal give-up at stuck routers, transient recovery,
//! ECC on corrupted deliveries and laser droop. That an empty fault plan
//! has zero effect is checked cycle by cycle by the conformance kit
//! (`tests/conformance/`).

use phastlane_core::{PhastlaneConfig, PhastlaneNetwork};
use phastlane_netsim::fault::FaultPlan;
use phastlane_netsim::geometry::Coord;
use phastlane_netsim::harness::{run_trace, Dep, MsgId, Trace, TraceMessage, TraceOptions};
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

fn plan(text: &str) -> FaultPlan {
    FaultPlan::parse(text).expect("valid fault plan")
}

#[test]
fn detour_around_dead_link_delivers() {
    // XY routing from (0,0) to (2,2) wants to leave n0 eastward; that
    // link is dead, so the router detours through the Y dimension (which
    // still makes progress) and the packet arrives anyway.
    let mesh = Mesh::PAPER;
    let at = |x, y| mesh.node_at(Coord { x, y });
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    net.set_fault_plan(plan("link n0 east"), 1);
    net.inject(NewPacket::unicast(at(0, 0), at(2, 2))).unwrap();
    run_until_idle(&mut net, 100);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 1, "the detour still delivers");
    assert_eq!(d[0].dest, at(2, 2));
    let stats = net.stats();
    assert!(stats.rerouted >= 1, "the dead link forced a reroute");
    assert_eq!(stats.undeliverable, 0);
}

#[test]
fn stuck_destination_router_becomes_undeliverable() {
    // The destination router is stuck and sits in the same row as the
    // source, so no detour makes progress: the launcher backs off until
    // the retry cap declares the packet undeliverable. The network must
    // reach quiescence rather than spin forever.
    let mesh = Mesh::PAPER;
    let at = |x, y| mesh.node_at(Coord { x, y });
    let mut cfg = PhastlaneConfig::optical4();
    cfg.retry_limit = 3;
    let mut net = PhastlaneNetwork::new(cfg);
    let dest = at(1, 1);
    net.set_fault_plan(plan(&format!("router n{}", dest.0)), 1);
    let id = net.inject(NewPacket::unicast(at(0, 1), dest)).unwrap();
    run_until_idle(&mut net, 1_000);
    assert_eq!(net.drain_deliveries().len(), 0);
    let failures = net.drain_failures();
    assert_eq!(failures.len(), 1, "exactly one terminal failure");
    assert_eq!(failures[0].packet, id);
    assert_eq!(failures[0].dest, dest);
    let stats = net.stats();
    assert_eq!(stats.undeliverable, 1);
    assert!(stats.retry_exhausted >= 1);
}

#[test]
fn transient_fault_clears_and_delivery_resumes() {
    // A same-row link fault leaves no productive detour, so the packet
    // stalls in place — but the fault is transient, and once it clears
    // the packet goes through on the original route.
    let mesh = Mesh::PAPER;
    let at = |x, y| mesh.node_at(Coord { x, y });
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    net.set_fault_plan(plan("link n0 east @0 +60"), 1);
    net.inject(NewPacket::unicast(at(0, 0), at(4, 0))).unwrap();
    run_until_idle(&mut net, 2_000);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 1, "delivery resumes after the fault clears");
    assert!(
        d[0].latency() >= 60,
        "the packet waited out the fault window (latency {})",
        d[0].latency()
    );
    assert_eq!(net.stats().undeliverable, 0);
}

#[test]
fn bit_errors_exercise_ecc_and_still_deliver() {
    // Every optical delivery rolls a bit error at rate 1.0. Single upsets
    // are corrected in place; double upsets reject the delivery and fall
    // back to a buffered electrical copy — either way nothing is lost.
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    net.set_fault_plan(plan("biterr 1.0"), 42);
    let mut injected = 0;
    for i in 0..64u16 {
        let dst = NodeId((i * 23 + 7) % 64);
        if NodeId(i) != dst && net.inject(NewPacket::unicast(NodeId(i), dst)).is_some() {
            injected += 1;
        }
    }
    run_until_idle(&mut net, 5_000);
    assert_eq!(net.drain_deliveries().len(), injected);
    let stats = net.stats();
    assert!(stats.ecc_corrected > 0, "single upsets were corrected");
    assert!(
        stats.ecc_uncorrectable > 0,
        "some double upsets forced electrical redelivery"
    );
    assert_eq!(stats.undeliverable, 0);
}

#[test]
fn laser_droop_shrinks_optical_reach() {
    // Halving the per-router crossing efficiency blows the optical loss
    // budget at four hops, so the wavefront covers fewer routers per
    // cycle and the corner-to-corner trip needs more segments.
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    net.set_fault_plan(plan("droop 0.5"), 1);
    net.inject(NewPacket::unicast(NodeId(0), NodeId(63)))
        .unwrap();
    run_until_idle(&mut net, 100);
    let d = net.drain_deliveries();
    assert_eq!(d.len(), 1);
    assert!(
        d[0].latency() > 4,
        "degraded reach needs more segments than the nominal 4 (got {})",
        d[0].latency()
    );
    assert_eq!(net.stats().undeliverable, 0);
}

#[test]
fn saturated_replay_with_stuck_router_terminates() {
    // A dependency chain funnelled into a permanently stuck router can
    // never deliver — the replay must terminate through the retry cap
    // (failures resolve the dependencies waiting on them) instead of
    // spinning to the cycle limit.
    let mut cfg = PhastlaneConfig::optical4();
    cfg.retry_limit = 3;
    let mut net = PhastlaneNetwork::new(cfg);
    net.set_fault_plan(plan("router n0"), 1);
    let msg = |id: u32, src: u16, deps: Vec<Dep>| TraceMessage {
        id: MsgId(id),
        src: NodeId(src),
        dests: DestSet::Unicast(NodeId(0)),
        kind: PacketKind::ReadRequest,
        earliest: 0,
        deps,
        think: 0,
    };
    let trace = Trace {
        messages: vec![
            msg(0, 5, vec![]),
            msg(1, 9, vec![Dep::full(MsgId(0))]),
            msg(2, 13, vec![Dep::at(MsgId(1), NodeId(0))]),
        ],
    };
    let r = run_trace(
        &mut net,
        &trace,
        TraceOptions {
            max_cycles: 100_000,
        },
    );
    assert!(!r.timed_out, "the retry cap must end the replay");
    assert_eq!(r.completed, 3, "every message resolved");
    assert_eq!(r.undeliverable, 3, "all terminally failed");
    assert_eq!(net.in_flight(), 0, "network reached quiescence");
}
