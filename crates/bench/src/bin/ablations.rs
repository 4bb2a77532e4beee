//! Ablation study for the design choices the paper calls out:
//!
//! * footnote 3: round-robin optical-path arbitration "yielded no
//!   performance advantage over fixed-priority";
//! * §2.1.1 / §7: rotating priority for the electrical buffers, with
//!   alternatives listed as future work;
//! * §2.1.3: interim-node pipelining (hop-limit sensitivity).
//!
//! Usage: `cargo run --release -p phastlane-bench --bin ablations [--quick]`

use phastlane_bench::{print_row, quick_flag};
use phastlane_core::{ArbitrationPolicy, PathPriority, PhastlaneConfig, PhastlaneNetwork};
use phastlane_netsim::harness::{run_trace, TraceOptions};
use phastlane_netsim::{Mesh, Network};
use phastlane_photonics::delay::CLOCK_GHZ;
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;

fn run_with(
    arbitration: ArbitrationPolicy,
    path_priority: PathPriority,
    trace: &phastlane_netsim::harness::Trace,
) -> (u64, f64, u64) {
    let mut cfg = PhastlaneConfig::optical4();
    cfg.arbitration = arbitration;
    cfg.path_priority = path_priority;
    let mut net = PhastlaneNetwork::new(cfg);
    let r = run_trace(&mut net, trace, TraceOptions::default());
    assert!(!r.timed_out);
    (
        r.completion_cycle,
        r.energy
            .average_power_mw(r.completion_cycle.max(1), CLOCK_GHZ),
        net.stats().dropped,
    )
}

fn main() {
    let scale = if quick_flag() { 0.1 } else { 0.5 };
    let widths = [14, 20, 12, 12, 10, 8];

    for bench in ["FFT", "Ocean"] {
        let profile = splash2::benchmark(bench)
            .unwrap()
            .scaled(scale, Mesh::PAPER);
        let trace = generate_trace(Mesh::PAPER, &profile);
        println!("=== {} (scale {scale}) ===", profile.name);
        print_row(
            &[
                "arbitration".into(),
                "path priority".into(),
                "cycles".into(),
                "power mW".into(),
                "drops".into(),
                "vs base".into(),
            ],
            &widths,
        );
        let (base_cycles, _, _) = run_with(
            ArbitrationPolicy::RotatingPriority,
            PathPriority::Fixed,
            &trace,
        );
        for arb in ArbitrationPolicy::ALL {
            for pp in PathPriority::ALL {
                let (cycles, mw, drops) = run_with(arb, pp, &trace);
                print_row(
                    &[
                        arb.to_string(),
                        pp.to_string(),
                        cycles.to_string(),
                        format!("{mw:.0}"),
                        drops.to_string(),
                        format!("{:.3}", base_cycles as f64 / cycles as f64),
                    ],
                    &widths,
                );
            }
        }
        println!();
    }
    // Buffer management (§5 future work): a dynamically shared 50-entry
    // pool (one escape slot reserved per queue) vs the paper's static
    // 10-per-buffer partition — same storage either way.
    for bench in ["FFT", "Ocean"] {
        println!("=== buffer management ({bench}, scale {scale}) ===");
        let profile = splash2::benchmark(bench)
            .unwrap()
            .scaled(scale, Mesh::PAPER);
        let trace = generate_trace(Mesh::PAPER, &profile);
        let widths2 = [16usize, 14, 12, 10];
        print_row(
            &[
                "buffers".into(),
                "cycles".into(),
                "power mW".into(),
                "drops".into(),
            ],
            &widths2,
        );
        for cfg in [
            PhastlaneConfig::optical4(),
            PhastlaneConfig::optical4_shared_pool(),
            PhastlaneConfig::optical4_b64(),
        ] {
            let label = cfg.label();
            let mut net = PhastlaneNetwork::new(cfg);
            let r = run_trace(
                &mut net,
                &trace,
                TraceOptions {
                    max_cycles: 400_000,
                },
            );
            print_row(
                &[
                    label,
                    if r.timed_out {
                        "collapse".into()
                    } else {
                        r.completion_cycle.to_string()
                    },
                    format!(
                        "{:.0}",
                        r.energy
                            .average_power_mw(r.completion_cycle.max(1), CLOCK_GHZ)
                    ),
                    net.stats().dropped.to_string(),
                ],
                &widths2,
            );
        }
        println!();
    }
    println!("the shared pool helps at moderate load but collapses under the");
    println!("Ocean broadcast storm: injected multicasts hog the shared space");
    println!("that transit packets need, which the static partition isolates.");
    println!();
    println!("paper footnote 3: round-robin path arbitration should show no");
    println!("performance advantage over fixed priority.");
}
