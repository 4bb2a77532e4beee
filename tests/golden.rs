//! Golden regression tests: exact completion cycles for small,
//! deterministic workloads on both networks.
//!
//! These pin the end-to-end behaviour of the whole stack (trace
//! generation, routing, arbitration, drops, retransmission, credits).
//! If a change alters any of these numbers, that is not necessarily a
//! bug — but it *is* a behaviour change that must be understood and,
//! if intended, re-recorded here (and the EXPERIMENTS.md results
//! regenerated, since absolute figures shift with them).

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::harness::{run_trace, TraceOptions};
use phastlane_repro::netsim::{Mesh, Network};
use phastlane_repro::optical::{PhastlaneConfig, PhastlaneNetwork};
use phastlane_repro::traffic::cachegen::{generate_cache_trace, CacheWorkload};
use phastlane_repro::traffic::coherence::generate_trace;
use phastlane_repro::traffic::splash2;

fn scaled(name: &str, scale: f64) -> phastlane_repro::netsim::harness::Trace {
    let profile = splash2::benchmark(name).expect("known benchmark");
    generate_trace(Mesh::PAPER, &profile.scaled(scale, Mesh::PAPER))
}

fn optical_completion(trace: &phastlane_repro::netsim::harness::Trace) -> u64 {
    let mut net = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let r = run_trace(&mut net, trace, TraceOptions::default());
    assert!(!r.timed_out);
    r.completion_cycle
}

fn electrical_completion(trace: &phastlane_repro::netsim::harness::Trace) -> u64 {
    let mut net = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let r = run_trace(&mut net, trace, TraceOptions::default());
    assert!(!r.timed_out);
    r.completion_cycle
}

#[test]
fn golden_lu() {
    let trace = scaled("LU", 0.05);
    assert_eq!(optical_completion(&trace), 928);
    assert_eq!(electrical_completion(&trace), 1355);
}

#[test]
fn golden_ocean() {
    let trace = scaled("Ocean", 0.05);
    assert_eq!(optical_completion(&trace), 871);
    assert_eq!(electrical_completion(&trace), 1042);
}

#[test]
fn golden_water_spatial() {
    let trace = scaled("Water-Spatial", 0.05);
    assert_eq!(optical_completion(&trace), 416);
    assert_eq!(electrical_completion(&trace), 638);
}

#[test]
fn golden_cache_accurate() {
    let mut w = CacheWorkload::write_sharing();
    w.accesses_per_core = 300;
    w.active_cores = 16;
    let (trace, report) = generate_cache_trace(Mesh::PAPER, &w);
    assert_eq!(report.l2_misses, 2519);
    assert_eq!(report.invalidations, 86);
    assert_eq!(optical_completion(&trace), 7890);
    assert_eq!(electrical_completion(&trace), 12048);
}

#[test]
fn golden_single_packet_latencies() {
    // The microscopic invariants behind the figures.
    use phastlane_repro::netsim::{NewPacket, NodeId};
    let run = |mut net: Box<dyn Network>| {
        net.inject(NewPacket::unicast(NodeId(0), NodeId(63)))
            .unwrap();
        while net.in_flight() > 0 {
            net.step();
        }
        net.drain_deliveries()[0].latency()
    };
    assert_eq!(
        run(Box::new(PhastlaneNetwork::new(PhastlaneConfig::optical4()))),
        4
    );
    assert_eq!(
        run(Box::new(PhastlaneNetwork::new(PhastlaneConfig::optical8()))),
        2
    );
    assert_eq!(
        run(Box::new(ElectricalNetwork::new(
            ElectricalConfig::electrical3()
        ))),
        14 * 4 + 1
    );
    assert_eq!(
        run(Box::new(ElectricalNetwork::new(
            ElectricalConfig::electrical2()
        ))),
        14 * 3 + 1
    );
}
