//! Integration tests driving both network implementations through the
//! shared harness with the same workloads.

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::harness::{run_trace, TraceOptions};
use phastlane_repro::netsim::packet::PacketKind;
use phastlane_repro::netsim::{Mesh, Network, NewPacket, NodeId};
use phastlane_repro::optical::{PhastlaneConfig, PhastlaneNetwork};
use phastlane_repro::traffic::coherence::generate_trace;
use phastlane_repro::traffic::splash2;

fn small_trace(name: &str) -> phastlane_repro::netsim::harness::Trace {
    let mut profile = splash2::benchmark(name).expect("known benchmark");
    profile.misses_per_core = 6;
    generate_trace(Mesh::PAPER, &profile)
}

#[test]
fn both_networks_complete_the_same_trace() {
    let trace = small_trace("LU");
    let mut optical = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut electrical = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let o = run_trace(&mut optical, &trace, TraceOptions::default());
    let e = run_trace(&mut electrical, &trace, TraceOptions::default());
    assert!(!o.timed_out && !e.timed_out);
    assert_eq!(o.completed, trace.len() as u64);
    assert_eq!(e.completed, trace.len() as u64);
}

#[test]
fn optical_finishes_coherence_traces_faster() {
    // The paper's headline: Phastlane outperforms the electrical baseline
    // on every benchmark that is not buffer-starved.
    for name in ["FFT", "Raytrace", "Water-NSquared"] {
        let trace = small_trace(name);
        let mut optical = PhastlaneNetwork::new(PhastlaneConfig::optical4());
        let mut electrical = ElectricalNetwork::new(ElectricalConfig::electrical3());
        let o = run_trace(&mut optical, &trace, TraceOptions::default());
        let e = run_trace(&mut electrical, &trace, TraceOptions::default());
        assert!(
            o.completion_cycle < e.completion_cycle,
            "{name}: optical {} vs electrical {}",
            o.completion_cycle,
            e.completion_cycle
        );
    }
}

#[test]
fn optical_uses_less_energy_per_trace() {
    let trace = small_trace("Barnes");
    let mut optical = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut electrical = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let o = run_trace(&mut optical, &trace, TraceOptions::default());
    let e = run_trace(&mut electrical, &trace, TraceOptions::default());
    assert!(
        o.energy.total_pj() < 0.5 * e.energy.total_pj(),
        "optical {} pJ vs electrical {} pJ",
        o.energy.total_pj(),
        e.energy.total_pj()
    );
}

#[test]
fn deliveries_identical_across_networks() {
    // Same packets in, same (packet, destination) deliveries out.
    let drive = |net: &mut dyn Network| {
        let mut injected = Vec::new();
        for i in (0..64u16).step_by(3) {
            let src = NodeId(i);
            let dst = NodeId((i * 7 + 11) % 64);
            if src != dst {
                let id = net.inject(NewPacket::unicast(src, dst)).expect("NIC room");
                injected.push((id, dst));
            }
        }
        net.inject(NewPacket::broadcast(NodeId(9), PacketKind::Invalidate))
            .expect("NIC room");
        while net.in_flight() > 0 {
            net.step();
            assert!(net.cycle() < 10_000);
        }
        let mut dests: Vec<(u16, u16)> = net
            .drain_deliveries()
            .iter()
            .map(|d| (d.src.0, d.dest.0))
            .collect();
        dests.sort_unstable();
        dests
    };
    let mut optical = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut electrical = ElectricalNetwork::new(ElectricalConfig::electrical3());
    assert_eq!(drive(&mut optical), drive(&mut electrical));
}

#[test]
fn trace_replay_is_deterministic() {
    let trace = small_trace("Ocean");
    let run = || {
        let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
        run_trace(&mut net, &trace, TraceOptions::default()).completion_cycle
    };
    assert_eq!(run(), run());
}

#[test]
fn bigger_buffers_never_hurt_bursty_traces() {
    let trace = small_trace("FMM");
    let completion = |cfg: PhastlaneConfig| {
        let mut net = PhastlaneNetwork::new(cfg);
        run_trace(&mut net, &trace, TraceOptions::default()).completion_cycle
    };
    let base = completion(PhastlaneConfig::optical4());
    let b64 = completion(PhastlaneConfig::optical4_b64());
    let ib = completion(PhastlaneConfig::optical4_ib());
    // Allow a small tolerance: arbitration order changes slightly, but
    // big buffers must not be significantly worse.
    assert!(b64 as f64 <= base as f64 * 1.10, "B64 {b64} vs base {base}");
    assert!(ib as f64 <= base as f64 * 1.10, "IB {ib} vs base {base}");
}

#[test]
fn electrical2_faster_than_electrical3() {
    let trace = small_trace("Cholesky");
    let completion = |cfg: ElectricalConfig| {
        let mut net = ElectricalNetwork::new(cfg);
        run_trace(&mut net, &trace, TraceOptions::default()).completion_cycle
    };
    assert!(
        completion(ElectricalConfig::electrical2()) < completion(ElectricalConfig::electrical3())
    );
}

#[test]
fn per_kind_latency_recorded() {
    let trace = small_trace("FFT");
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    run_trace(&mut net, &trace, TraceOptions::default());
    let by_kind = net.stats().latency_by_kind;
    let req = by_kind
        .get(phastlane_repro::netsim::PacketKind::ReadRequest)
        .or_else(|| by_kind.get(phastlane_repro::netsim::PacketKind::WriteRequest))
        .expect("requests recorded");
    let resp = by_kind
        .get(phastlane_repro::netsim::PacketKind::DataResponse)
        .expect("responses recorded");
    assert!(req.count() > 0 && resp.count() > 0);
    // A broadcast's per-copy mean includes far snoopers, so it exceeds
    // the unicast response mean on an uncongested run.
    assert!(req.mean().unwrap() > 0.0);
    assert!(resp.mean().unwrap() > 0.0);
}

#[test]
fn electrical_leakage_exceeds_optical() {
    use phastlane_repro::electrical::power as electrical;
    use phastlane_repro::optical::power as optical;
    // The paper's optical network has far less electrical state.
    const {
        assert!(
            electrical::LEAKAGE_MW_PER_ROUTER > optical::LEAKAGE_MW_PER_ROUTER,
            "baseline router must leak more than the Phastlane router"
        );
    }
    // Both leakages are priced over the same 4 GHz cycle.
    assert_eq!(
        electrical::CLOCK_PS,
        phastlane_repro::photonics::delay::CLOCK_PERIOD.value()
    );
}
