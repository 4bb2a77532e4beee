//! Figure 10: network speedup of the optical configurations relative to
//! the 3-cycle electrical baseline, over the ten SPLASH2 benchmarks.
//!
//! Usage: `cargo run --release -p phastlane-bench --bin fig10_splash2
//! [--quick]`

use phastlane_bench::report::{csv_arg, CsvTable};
use phastlane_bench::{print_row, quick_flag, run_on, FIGURE_NETWORKS};
use phastlane_netsim::geometry::Mesh;
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;

fn main() {
    let scale = if quick_flag() { 0.1 } else { 1.0 };
    let configs = FIGURE_NETWORKS;
    let widths: Vec<usize> = std::iter::once(14)
        .chain(configs.iter().map(|c| c.len().max(7)))
        .collect();

    println!("Figure 10: network speedup vs Electrical3 (higher is better)");
    println!("(scale = {scale}; drops shown for Optical4 where non-zero)\n");
    let mut header = vec!["benchmark".to_string()];
    header.extend(configs.iter().map(|c| c.to_string()));
    print_row(&header, &widths);

    let mut geo_means: Vec<f64> = vec![0.0; configs.len()];
    let mut count = 0usize;
    let mut csv = CsvTable::new(
        std::iter::once("benchmark".to_string()).chain(configs.iter().map(|c| c.to_string())),
    );
    for profile in splash2::all_benchmarks() {
        let profile = profile.scaled(scale, Mesh::PAPER);
        let trace = generate_trace(Mesh::PAPER, &profile);
        let baseline = run_on("Electrical3", &trace);
        let base_cycles = baseline.result.completion_cycle.max(1);

        let mut cells = vec![profile.name.to_string()];
        for (i, &cfg) in configs.iter().enumerate() {
            let out = if cfg == "Electrical3" {
                baseline.clone()
            } else {
                run_on(cfg, &trace)
            };
            assert!(!out.result.timed_out, "{cfg} timed out on {}", profile.name);
            let speedup = base_cycles as f64 / out.result.completion_cycle.max(1) as f64;
            geo_means[i] += speedup.ln();
            let mut cell = format!("{speedup:.2}");
            if cfg == "Optical4" && out.stats.dropped > 0 {
                cell.push_str(&format!(" (d{})", out.stats.dropped));
            }
            cells.push(cell);
        }
        count += 1;
        csv.push(
            cells
                .iter()
                .map(|c| c.split(' ').next().unwrap_or(c).to_string()),
        );
        print_row(&cells, &widths);
    }
    if let Some(path) = csv_arg() {
        csv.write_to(&path).expect("write CSV");
        println!("(csv written to {})", path.display());
    }

    let mut cells = vec!["geomean".to_string()];
    for g in &geo_means {
        cells.push(format!("{:.2}", (g / count as f64).exp()));
    }
    println!();
    print_row(&cells, &widths);
}
