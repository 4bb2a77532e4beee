//! Figure 9: average packet latency as a function of injection rate for
//! the Bit Comp, Bit Reverse, Shuffle, and Transpose synthetic patterns,
//! comparing the optical configurations against the electrical baselines.
//!
//! The experiment is `results/specs/fig9.lab`; this runs it on every
//! available core and pivots the report into the figure's tables
//! (`phastlane lab run results/specs/fig9.lab` lists the same jobs one
//! per line).

use super::row;
use crate::args::{ArgError, Parsed};
use crate::chart::{render_log_y, Series};
use phastlane_lab::report::Saturation;
use phastlane_lab::scheduler::run_lab;
use phastlane_lab::LabSpec;
use std::fmt::Write as _;

const MARKERS: [char; 5] = ['o', '4', '8', 'x', '#'];

pub(super) fn fig9(p: &Parsed) -> Result<String, ArgError> {
    let mut spec = LabSpec::parse(include_str!("../../../../results/specs/fig9.lab"))
        .expect("results/specs/fig9.lab parses");
    if p.flag("quick") {
        spec.rates = vec![0.02, 0.06, 0.10, 0.16, 0.22, 0.30];
        (spec.warmup, spec.measure, spec.drain) = (300, 1_000, 3_000);
    }
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let report = run_lab(&spec, workers).map_err(ArgError)?;

    let mut out = String::new();
    out.push_str(
        "Figure 9: average packet latency (cycles) vs injection rate\n\
         (packets/node/cycle; '-' marks saturated points)\n\n",
    );

    for pattern in &spec.patterns {
        writeln!(out, "--- {} ---", pattern.label())?;
        let widths: Vec<usize> = std::iter::once(7)
            .chain(spec.nets.iter().map(|n| n.len().max(8)))
            .collect();
        let mut header = vec!["rate".to_string()];
        header.extend(spec.nets.iter().cloned());
        row(&mut out, &header, &widths);

        // The stable mean latency of one cell of the matrix.
        let latency = |net: &str, rate: f64| {
            report
                .jobs
                .iter()
                .find(|j| {
                    j.net == net
                        && j.pattern.as_deref() == Some(pattern.name())
                        && j.rate == Some(rate)
                })
                .filter(|j| j.stable == Some(true))
                .and_then(|j| j.latency.mean())
        };
        for &rate in &spec.rates {
            let mut cells = vec![format!("{rate:.2}")];
            cells.extend(
                spec.nets
                    .iter()
                    .map(|net| latency(net, rate).map_or("-".to_string(), |l| format!("{l:.1}"))),
            );
            row(&mut out, &cells, &widths);
        }
        let mut cells = vec!["sat.".to_string()];
        for net in &spec.nets {
            let curve = report
                .saturations
                .iter()
                .find(|s| s.net == *net && s.pattern == pattern.name());
            cells.push(match curve.map(|s| s.saturation) {
                Some(Saturation::Stable(r)) => format!("{r:.2}"),
                Some(Saturation::SaturatedFromStart(low)) => format!("<{low:.2}"),
                Some(Saturation::NotSwept) | None => "?".to_string(),
            });
        }
        row(&mut out, &cells, &widths);
        if p.flag("chart") {
            let series: Vec<Series> = spec
                .nets
                .iter()
                .zip(MARKERS.iter().cycle())
                .map(|(net, &marker)| Series {
                    label: net.clone(),
                    marker,
                    points: spec
                        .rates
                        .iter()
                        .filter_map(|&rate| Some((rate, latency(net, rate)?)))
                        .collect(),
                })
                .collect();
            writeln!(out, "\n{}", render_log_y(&series, 56, 12))?;
        }
        writeln!(out)?;
    }
    out.push_str(
        "paper: optical ~5-10x lower latency than electrical, with\n\
         slightly better saturation bandwidth.\n",
    );
    Ok(out)
}
