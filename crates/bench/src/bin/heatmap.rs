//! Link-load heatmaps: where does each network congest under a
//! broadcast-storm workload? Renders per-node outbound link load as an
//! ASCII intensity grid and lists the hottest links.
//!
//! Usage: `cargo run --release -p phastlane-bench --bin heatmap
//! [--quick]`

use phastlane_bench::quick_flag;
use phastlane_lab::runner::build_network;
use phastlane_netsim::geometry::Mesh;
use phastlane_netsim::harness::{run_trace, TraceOptions};
use phastlane_netsim::network::Network;
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;

fn main() {
    let scale = if quick_flag() { 0.1 } else { 0.3 };
    let profile = splash2::benchmark("Ocean")
        .unwrap()
        .scaled(scale, Mesh::PAPER);
    let trace = generate_trace(Mesh::PAPER, &profile);
    println!("link-load heatmaps for {} (scale {scale})\n", profile.name);

    for cfg in ["Optical4", "Electrical3"] {
        let mut net = build_network(cfg, Mesh::PAPER, None).expect("a lab network name");
        let r = run_trace(&mut net, &trace, TraceOptions::default());
        let links = net.link_counters();
        println!(
            "=== {cfg} ({} cycles, {} link traversals) ===",
            r.completion_cycle,
            links.total()
        );
        println!("{}", links.heatmap(Mesh::PAPER));
        println!("hottest links:");
        for ((from, dir), count) in links.hottest(6) {
            println!("  {from} -{dir}>  {count}");
        }
        println!();
    }
    println!("Phastlane's load concentrates on row ports near broadcast");
    println!("sources (16 multicast launches each) and the hot coordinator");
    println!("column; the electrical VCTM tree spreads the same broadcast");
    println!("over fewer, more uniform link traversals.");
}
