//! Cache-accurate coherence traffic: run synthetic address streams
//! through real Table 4 cache hierarchies, let actual L2 misses,
//! upgrades, and dirty evictions generate the network traffic, and
//! compare both networks on the result.
//!
//! Run with: `cargo run --release --example cache_accurate [workload]`
//! where workload is `streaming`, `pointer-chase`, or `write-sharing`.

use phastlane_repro::electrical::{ElectricalConfig, ElectricalNetwork};
use phastlane_repro::netsim::harness::{run_trace, TraceOptions};
use phastlane_repro::netsim::{Mesh, Network};
use phastlane_repro::optical::{PhastlaneConfig, PhastlaneNetwork};
use phastlane_repro::photonics::delay::CLOCK_GHZ;
use phastlane_repro::traffic::cachegen::{generate_cache_trace, CacheWorkload};

fn main() {
    let mut workload = match std::env::args().nth(1).as_deref() {
        None | Some("streaming") => CacheWorkload::streaming(),
        Some("pointer-chase") => CacheWorkload::pointer_chase(),
        Some("write-sharing") => CacheWorkload::write_sharing(),
        Some(other) => panic!("unknown workload {other:?}"),
    };
    // Trim so the example completes in seconds.
    workload.accesses_per_core = workload.accesses_per_core.min(4_000);

    let (trace, report) = generate_cache_trace(Mesh::PAPER, &workload);
    println!(
        "workload {}: {} memory accesses simulated",
        workload.name, report.accesses
    );
    println!(
        "  L2 miss ratio {:.2}%  ({} misses, {} cache-to-cache, {} invalidations, {} writebacks)",
        report.miss_ratio() * 100.0,
        report.l2_misses,
        report.cache_to_cache,
        report.invalidations,
        report.writebacks
    );
    println!("  -> {} network messages\n", trace.len());

    let mut optical = PhastlaneNetwork::new(PhastlaneConfig::optical4());
    let mut electrical = ElectricalNetwork::new(ElectricalConfig::electrical3());
    let o = run_trace(&mut optical, &trace, TraceOptions::default());
    let e = run_trace(&mut electrical, &trace, TraceOptions::default());

    println!(
        "Optical4:    {} cycles ({} drops)",
        o.completion_cycle,
        optical.stats().dropped
    );
    println!("Electrical3: {} cycles", e.completion_cycle);
    println!(
        "network speedup {:.2}x; power {:.0} mW vs {:.0} mW",
        e.completion_cycle as f64 / o.completion_cycle.max(1) as f64,
        o.energy
            .average_power_mw(o.completion_cycle.max(1), CLOCK_GHZ),
        e.energy
            .average_power_mw(e.completion_cycle.max(1), CLOCK_GHZ),
    );
}
