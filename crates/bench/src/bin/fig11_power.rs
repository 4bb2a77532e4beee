//! Figure 11: average network power for every configuration over the
//! SPLASH2 benchmarks.
//!
//! Usage: `cargo run --release -p phastlane-bench --bin fig11_power
//! [--quick]`

use phastlane_bench::{print_row, quick_flag, run_on, FIGURE_NETWORKS};
use phastlane_netsim::geometry::Mesh;
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;

fn main() {
    let scale = if quick_flag() { 0.1 } else { 1.0 };
    let configs = FIGURE_NETWORKS;
    let widths: Vec<usize> = std::iter::once(14)
        .chain(configs.iter().map(|c| c.len().max(8)))
        .collect();

    println!("Figure 11: average network power in mW (lower is better; scale = {scale})\n");
    let mut header = vec!["benchmark".to_string()];
    header.extend(configs.iter().map(|c| c.to_string()));
    print_row(&header, &widths);

    let mut sums = vec![0.0f64; configs.len()];
    let mut count = 0usize;
    for profile in splash2::all_benchmarks() {
        let profile = profile.scaled(scale, Mesh::PAPER);
        let trace = generate_trace(Mesh::PAPER, &profile);
        let mut cells = vec![profile.name.to_string()];
        let mut electrical3_mw = None;
        let mut optical4_mw = None;
        for (i, &cfg) in configs.iter().enumerate() {
            let out = run_on(cfg, &trace);
            let mw = out.average_power_mw();
            sums[i] += mw;
            if cfg == "Electrical3" {
                electrical3_mw = Some(mw);
            }
            if cfg == "Optical4" {
                optical4_mw = Some(mw);
            }
            cells.push(format!("{mw:.1}"));
        }
        count += 1;
        print_row(&cells, &widths);
        if let (Some(e), Some(o)) = (electrical3_mw, optical4_mw) {
            let saving = 100.0 * (1.0 - o / e);
            println!("    -> Optical4 uses {saving:.0}% less power than Electrical3");
        }
    }

    let mut cells = vec!["mean".to_string()];
    for s in &sums {
        cells.push(format!("{:.1}", s / count as f64));
    }
    println!();
    print_row(&cells, &widths);
}
