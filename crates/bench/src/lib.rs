//! Shared experiment harness for the figure-regeneration binaries
//! (`src/bin/fig*.rs`).
//!
//! Every table and figure of the paper's evaluation maps to one binary;
//! see `DESIGN.md` for the index and `EXPERIMENTS.md` for recorded
//! results.

#![warn(clippy::too_many_lines)]

pub mod chart;
pub mod report;

use phastlane_netsim::harness::{run_trace, Trace, TraceOptions, TraceResult};
use phastlane_netsim::network::Network;
use phastlane_netsim::stats::NetworkStats;
use phastlane_netsim::Mesh;

/// Network clock in GHz (4 GHz throughout the paper).
pub const CLOCK_GHZ: f64 = 4.0;

/// A network configuration under evaluation, by figure label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Phastlane, 4 hops/cycle, 10 buffers.
    Optical4,
    /// Phastlane, 5 hops/cycle.
    Optical5,
    /// Phastlane, 8 hops/cycle.
    Optical8,
    /// Phastlane, 4 hops, 32 buffer entries.
    Optical4B32,
    /// Phastlane, 4 hops, 64 buffer entries.
    Optical4B64,
    /// Phastlane, 4 hops, infinite buffers.
    Optical4IB,
    /// Electrical baseline, 3-cycle router.
    Electrical3,
    /// Electrical baseline, 2-cycle router.
    Electrical2,
}

impl Config {
    /// All configurations of Figures 10 and 11, baseline last.
    pub const FIGURE10: [Config; 8] = [
        Config::Optical4,
        Config::Optical5,
        Config::Optical8,
        Config::Optical4B32,
        Config::Optical4B64,
        Config::Optical4IB,
        Config::Electrical2,
        Config::Electrical3,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Config::Optical4 => "Optical4",
            Config::Optical5 => "Optical5",
            Config::Optical8 => "Optical8",
            Config::Optical4B32 => "Optical4B32",
            Config::Optical4B64 => "Optical4B64",
            Config::Optical4IB => "Optical4IB",
            Config::Electrical3 => "Electrical3",
            Config::Electrical2 => "Electrical2",
        }
    }

    /// Builds a fresh network of this configuration on the paper's
    /// 8x8 mesh, through the lab runner's registry.
    pub fn build(self) -> Box<dyn Network> {
        phastlane_lab::runner::build_network(self.label(), Mesh::PAPER, None)
            .expect("every figure label is a lab network name")
    }
}

/// Outcome of replaying one trace on one configuration.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Configuration label.
    pub config: Config,
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

/// Replays `trace` on a fresh network of `config`.
pub fn run_on(config: Config, trace: &Trace) -> RunOutcome {
    let mut net = config.build();
    let result = run_trace(&mut net, trace, TraceOptions::default());
    RunOutcome {
        config,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Config::FIGURE10.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn build_matches_label() {
        for c in Config::FIGURE10 {
            assert_eq!(c.build().name(), c.label());
        }
    }
}
