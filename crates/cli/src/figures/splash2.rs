//! Figures 10 and 11: the ten SPLASH2 benchmarks replayed on every
//! configuration — network speedup relative to the 3-cycle electrical
//! baseline, and average network power.

use super::row;
use crate::args::{ArgError, Parsed};
use crate::commands::{average_power_mw, replay_on};
use crate::report::CsvTable;
use phastlane_netsim::geometry::Mesh;
use phastlane_netsim::network::Network;
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;
use std::fmt::Write as _;
use std::path::Path;

/// The configurations of Figures 10 and 11 by figure label, baseline
/// last: names of [`phastlane_lab::runner::NETWORKS`], which the runner
/// matches whatever their case.
const FIGURE_NETWORKS: [&str; 8] = [
    "Optical4",
    "Optical5",
    "Optical8",
    "Optical4B32",
    "Optical4B64",
    "Optical4IB",
    "Electrical2",
    "Electrical3",
];
/// Where the two configurations the figures single out sit in
/// [`FIGURE_NETWORKS`]: first and last.
const OPTICAL4: usize = 0;
const ELECTRICAL3: usize = FIGURE_NETWORKS.len() - 1;

/// What the figures keep of one replay.
struct Run {
    cycles: u64,
    dropped: u64,
    power_mw: f64,
}

/// Replays every SPLASH2 benchmark at `scale` on each of
/// [`FIGURE_NETWORKS`], in that order.
fn replay_all(scale: f64) -> Result<Vec<(&'static str, Vec<Run>)>, ArgError> {
    let mut benchmarks = Vec::new();
    for profile in splash2::all_benchmarks() {
        let profile = profile.scaled(scale, Mesh::PAPER);
        let trace = generate_trace(Mesh::PAPER, &profile);
        let mut runs = Vec::new();
        for cfg in FIGURE_NETWORKS {
            let (r, net) = replay_on(cfg, Mesh::PAPER, &trace)?;
            assert!(!r.timed_out, "{cfg} timed out on {}", profile.name);
            runs.push(Run {
                cycles: r.completion_cycle.max(1),
                dropped: net.stats().dropped,
                power_mw: average_power_mw(&r),
            });
        }
        benchmarks.push((profile.name, runs));
    }
    Ok(benchmarks)
}

/// The header cells (`benchmark`, then one per configuration) and the
/// column widths, configurations at least `min` wide.
fn columns(min: usize) -> (Vec<String>, Vec<usize>) {
    let header = std::iter::once("benchmark")
        .chain(FIGURE_NETWORKS)
        .map(str::to_string)
        .collect();
    let widths = std::iter::once(14)
        .chain(FIGURE_NETWORKS.iter().map(|c| c.len().max(min)))
        .collect();
    (header, widths)
}

/// Figure 10: network speedup of the optical configurations relative to
/// the 3-cycle electrical baseline, over the ten SPLASH2 benchmarks.
pub(super) fn fig10(p: &Parsed) -> Result<String, ArgError> {
    let scale = if p.flag("quick") { 0.1 } else { 1.0 };
    let (header, widths) = columns(7);
    let mut out = String::new();
    out.push_str("Figure 10: network speedup vs Electrical3 (higher is better)\n");
    writeln!(
        out,
        "(scale = {scale}; drops shown for Optical4 where non-zero)\n"
    )?;
    row(&mut out, &header, &widths);

    let benchmarks = replay_all(scale)?;
    let mut geo_means = [0.0f64; FIGURE_NETWORKS.len()];
    let mut csv = CsvTable::new(header);
    for (name, runs) in &benchmarks {
        let base_cycles = runs[ELECTRICAL3].cycles;
        let mut cells = vec![name.to_string()];
        for (i, run) in runs.iter().enumerate() {
            let speedup = base_cycles as f64 / run.cycles as f64;
            geo_means[i] += speedup.ln();
            let mut cell = format!("{speedup:.2}");
            if i == OPTICAL4 && run.dropped > 0 {
                cell.push_str(&format!(" (d{})", run.dropped));
            }
            cells.push(cell);
        }
        csv.push(
            cells
                .iter()
                .map(|c| c.split(' ').next().unwrap_or(c).to_string()),
        );
        row(&mut out, &cells, &widths);
    }
    if let Some(path) = p.get("csv") {
        csv.write_to(Path::new(path))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        writeln!(out, "(csv written to {path})")?;
    }

    let mut cells = vec!["geomean".to_string()];
    for g in &geo_means {
        cells.push(format!("{:.2}", (g / benchmarks.len() as f64).exp()));
    }
    writeln!(out)?;
    row(&mut out, &cells, &widths);
    Ok(out)
}

/// Figure 11: average network power for every configuration over the
/// SPLASH2 benchmarks.
pub(super) fn fig11(p: &Parsed) -> Result<String, ArgError> {
    let scale = if p.flag("quick") { 0.1 } else { 1.0 };
    let (header, widths) = columns(8);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 11: average network power in mW (lower is better; scale = {scale})\n"
    )?;
    row(&mut out, &header, &widths);

    let benchmarks = replay_all(scale)?;
    let mut sums = [0.0f64; FIGURE_NETWORKS.len()];
    for (name, runs) in &benchmarks {
        let mut cells = vec![name.to_string()];
        for (i, run) in runs.iter().enumerate() {
            sums[i] += run.power_mw;
            cells.push(format!("{:.1}", run.power_mw));
        }
        row(&mut out, &cells, &widths);
        let saving = 100.0 * (1.0 - runs[OPTICAL4].power_mw / runs[ELECTRICAL3].power_mw);
        writeln!(
            out,
            "    -> Optical4 uses {saving:.0}% less power than Electrical3"
        )?;
    }

    let mut cells = vec!["mean".to_string()];
    for s in &sums {
        cells.push(format!("{:.1}", s / benchmarks.len() as f64));
    }
    writeln!(out)?;
    row(&mut out, &cells, &widths);
    Ok(out)
}
