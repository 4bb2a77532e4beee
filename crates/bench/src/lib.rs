//! Shared experiment harness for the figure-regeneration binaries
//! (`src/bin/fig*.rs`).
//!
//! Every table and figure of the paper's evaluation maps to one binary;
//! see `DESIGN.md` for the index and `EXPERIMENTS.md` for recorded
//! results.

#![warn(clippy::too_many_lines)]

pub mod chart;
pub mod report;

use phastlane_lab::runner::build_network;
use phastlane_netsim::harness::{run_trace, Trace, TraceOptions, TraceResult};
use phastlane_netsim::network::Network;
use phastlane_netsim::stats::NetworkStats;
use phastlane_netsim::Mesh;
use phastlane_photonics::delay::CLOCK_GHZ;

/// The configurations of Figures 10 and 11 by figure label, baseline
/// last: names of [`phastlane_lab::runner::NETWORKS`], which the runner
/// matches whatever their case.
pub const FIGURE_NETWORKS: [&str; 8] = [
    "Optical4",
    "Optical5",
    "Optical8",
    "Optical4B32",
    "Optical4B64",
    "Optical4IB",
    "Electrical2",
    "Electrical3",
];

/// Outcome of replaying one trace on one configuration.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Trace replay result.
    pub result: TraceResult,
    /// Network counters (drops, retransmissions).
    pub stats: NetworkStats,
}

impl RunOutcome {
    /// Average network power over the run, in milliwatts.
    pub fn average_power_mw(&self) -> f64 {
        self.result
            .energy
            .average_power_mw(self.result.completion_cycle.max(1), CLOCK_GHZ)
    }
}

/// Replays `trace` on a fresh network of the lab configuration `net`, on
/// the paper's 8x8 mesh.
pub fn run_on(net: &str, trace: &Trace) -> RunOutcome {
    let mut net = build_network(net, Mesh::PAPER, None).expect("a lab network name");
    let result = run_trace(&mut net, trace, TraceOptions::default());
    RunOutcome {
        result,
        stats: net.stats(),
    }
}

/// Parses the common `--quick` flag used by the figure binaries.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a row of fixed-width columns.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  ", w = *w));
    }
    println!("{}", line.trim_end());
}
