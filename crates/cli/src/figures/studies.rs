//! The three studies beyond the paper's figures: ablations of the design
//! choices it calls out, scalability from 16 to 256 nodes, and link-load
//! heatmaps under a broadcast storm.

use super::{header, row};
use crate::args::{ArgError, Parsed};
use crate::commands::{average_power_mw, replay_on};
use phastlane_core::{ArbitrationPolicy, PathPriority, PhastlaneConfig, PhastlaneNetwork};
use phastlane_lab::runner::build_network;
use phastlane_netsim::harness::{
    run_synthetic, run_trace, SyntheticOptions, Trace, TraceOptions, TraceResult,
};
use phastlane_netsim::{Mesh, Network};
use phastlane_traffic::coherence::generate_trace;
use phastlane_traffic::splash2;
use phastlane_traffic::synthetic::BernoulliTraffic;
use phastlane_traffic::Pattern;
use std::fmt::Write as _;

/// The named benchmark's trace at `scale` on the paper's mesh.
fn benchmark_trace(name: &str, scale: f64) -> Trace {
    let profile = splash2::benchmark(name)
        .expect("known benchmark")
        .scaled(scale, Mesh::PAPER);
    generate_trace(Mesh::PAPER, &profile)
}

/// Replays `trace` on a fresh optical network of `cfg`; the result and the
/// drop count.
fn replay_optical(cfg: PhastlaneConfig, trace: &Trace, opts: TraceOptions) -> (TraceResult, u64) {
    let mut net = PhastlaneNetwork::new(cfg);
    let r = run_trace(&mut net, trace, opts);
    (r, net.stats().dropped)
}

/// Ablation study for the design choices the paper calls out:
///
/// * footnote 3: round-robin optical-path arbitration "yielded no
///   performance advantage over fixed-priority";
/// * §2.1.1 / §7: rotating priority for the electrical buffers, with
///   alternatives listed as future work;
/// * §2.1.3: interim-node pipelining (hop-limit sensitivity).
pub(super) fn ablations(p: &Parsed) -> Result<String, ArgError> {
    let scale = if p.flag("quick") { 0.1 } else { 0.5 };
    let widths = [14, 20, 12, 12, 10, 8];
    let mut out = String::new();
    let traces = ["FFT", "Ocean"].map(|bench| (bench, benchmark_trace(bench, scale)));

    for (bench, trace) in &traces {
        writeln!(out, "=== {bench} (scale {scale}) ===")?;
        let cells = "arbitration|path priority|cycles|power mW|drops|vs base";
        header(&mut out, cells, &widths);
        // The first combination — rotating priority, fixed paths — is the
        // paper's, and the base of the last column.
        let mut base = None;
        for arb in ArbitrationPolicy::ALL {
            for pp in PathPriority::ALL {
                let mut cfg = PhastlaneConfig::optical4();
                (cfg.arbitration, cfg.path_priority) = (arb, pp);
                let (r, drops) = replay_optical(cfg, trace, TraceOptions::default());
                assert!(!r.timed_out);
                let base = *base.get_or_insert(r.completion_cycle);
                row(
                    &mut out,
                    &[
                        arb.to_string(),
                        pp.to_string(),
                        r.completion_cycle.to_string(),
                        format!("{:.0}", average_power_mw(&r)),
                        drops.to_string(),
                        format!("{:.3}", base as f64 / r.completion_cycle as f64),
                    ],
                    &widths,
                );
            }
        }
        writeln!(out)?;
    }
    // Buffer management (§5 future work): a dynamically shared 50-entry
    // pool (one escape slot reserved per queue) vs the paper's static
    // 10-per-buffer partition — same storage either way.
    for (bench, trace) in &traces {
        writeln!(out, "=== buffer management ({bench}, scale {scale}) ===")?;
        let widths2 = [16usize, 14, 12, 10];
        header(&mut out, "buffers|cycles|power mW|drops", &widths2);
        for cfg in [
            PhastlaneConfig::optical4(),
            PhastlaneConfig::optical4_shared_pool(),
            PhastlaneConfig::optical4_b64(),
        ] {
            let label = cfg.label();
            let opts = TraceOptions {
                max_cycles: 400_000,
            };
            let (r, drops) = replay_optical(cfg, trace, opts);
            row(
                &mut out,
                &[
                    label,
                    if r.timed_out {
                        "collapse".into()
                    } else {
                        r.completion_cycle.to_string()
                    },
                    format!("{:.0}", average_power_mw(&r)),
                    drops.to_string(),
                ],
                &widths2,
            );
        }
        writeln!(out)?;
    }
    out.push_str(
        "the shared pool helps at moderate load but collapses under the\n\
         Ocean broadcast storm: injected multicasts hog the shared space\n\
         that transit packets need, which the static partition isolates.\n\
         \n\
         paper footnote 3: round-robin path arbitration should show no\n\
         performance advantage over fixed priority.\n",
    );
    Ok(out)
}

/// Scalability study: the paper's introduction motivates Phastlane with
/// "tens and eventually hundreds of processing cores". This scales the
/// mesh from 16 to 256 nodes and compares zero-load latency,
/// coherence-workload completion, and power on both networks.
pub(super) fn scalability(p: &Parsed) -> Result<String, ArgError> {
    let quick = p.flag("quick");
    let sizes: &[u16] = if quick { &[4, 8] } else { &[4, 8, 16] };
    let widths = [8usize, 7, 12, 12, 12, 12];
    let mut out = String::new();

    out.push_str("Scalability: Optical4 vs Electrical3 across mesh sizes\n\n");
    let cells = "mesh|nodes|lat-opt|lat-elec|speedup|pwr-ratio";
    header(&mut out, cells, &widths);

    for &side in sizes {
        let mesh = Mesh::new(side, side);

        // Zero-load-ish uniform latency.
        let opts = SyntheticOptions {
            warmup: 200,
            measure: 800,
            drain: 3_000,
        };
        let lat = |name: &str| -> Result<f64, ArgError> {
            let mut net = build_network(name, mesh, None).map_err(ArgError)?;
            let mut w = BernoulliTraffic::new(mesh, Pattern::Uniform, 0.02, 0x5CA1E);
            Ok(run_synthetic(&mut net, &mut w, opts)
                .latency
                .mean()
                .unwrap_or(f64::NAN))
        };
        let (lo, le) = (lat("optical4")?, lat("electrical3")?);

        // Coherence workload scaled to the mesh.
        let mut profile = splash2::benchmark("FFT").expect("known benchmark");
        profile.misses_per_core = if quick { 15 } else { 40 };
        profile.active_cores = mesh.nodes();
        let trace = generate_trace(mesh, &profile);
        let (o, _) = replay_on("optical4", mesh, &trace)?;
        let (e, _) = replay_on("electrical3", mesh, &trace)?;
        assert!(!o.timed_out && !e.timed_out);
        let speedup = e.completion_cycle as f64 / o.completion_cycle.max(1) as f64;
        let pwr_ratio = average_power_mw(&o) / average_power_mw(&e);

        row(
            &mut out,
            &[
                format!("{side}x{side}"),
                mesh.nodes().to_string(),
                format!("{lo:.2}"),
                format!("{le:.2}"),
                format!("{speedup:.2}x"),
                format!("{:.0}%", pwr_ratio * 100.0),
            ],
            &widths,
        );
    }
    out.push_str(
        "\nthe optical *latency* advantage grows with scale (average hop\n\
         counts rise with the mesh side, multiplying the electrical\n\
         per-hop cost while Phastlane still crosses 4 routers per cycle),\n\
         but snoopy broadcast traffic scales quadratically: at 256 nodes\n\
         the coherence speedup narrows as Phastlane's 2N multicast\n\
         messages per broadcast saturate its row ports — consistent with\n\
         the paper targeting 64 nodes for the snoopy design point.\n",
    );
    Ok(out)
}

/// Link-load heatmaps: where does each network congest under a
/// broadcast-storm workload? Renders per-node outbound link load as an
/// ASCII intensity grid and lists the hottest links.
pub(super) fn heatmap(p: &Parsed) -> Result<String, ArgError> {
    let scale = if p.flag("quick") { 0.1 } else { 0.3 };
    let trace = benchmark_trace("Ocean", scale);
    let mut out = String::new();
    writeln!(out, "link-load heatmaps for Ocean (scale {scale})\n")?;

    for cfg in ["Optical4", "Electrical3"] {
        let (r, net) = replay_on(cfg, Mesh::PAPER, &trace)?;
        let links = net.link_counters();
        writeln!(
            out,
            "=== {cfg} ({} cycles, {} link traversals) ===",
            r.completion_cycle,
            links.total()
        )?;
        writeln!(out, "{}", links.heatmap(Mesh::PAPER))?;
        writeln!(out, "hottest links:")?;
        for ((from, dir), count) in links.hottest(6) {
            writeln!(out, "  {from} -{dir}>  {count}")?;
        }
        writeln!(out)?;
    }
    out.push_str(
        "Phastlane's load concentrates on row ports near broadcast\n\
         sources (16 multicast launches each) and the hot coordinator\n\
         column; the electrical VCTM tree spreads the same broadcast\n\
         over fewer, more uniform link traversals.\n",
    );
    Ok(out)
}
