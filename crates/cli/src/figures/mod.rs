//! `phastlane figure <name>`: every table and figure of the paper's
//! evaluation, plus the ablation / scalability / heatmap studies, as text.
//!
//! [`FIGURES`] is the one name table: `dispatch`, the bare
//! `phastlane figure` listing and the usage text all read it. See
//! `DESIGN.md` for the index and `EXPERIMENTS.md` for recorded results.

mod analytic;
mod fig9;
mod splash2;
mod studies;

use crate::args::{ArgError, Parsed};

/// What a figure is run by: the parsed command line in, its text out.
type Run = fn(&Parsed) -> Result<String, ArgError>;

/// The name table: name, function, one-line description.
#[rustfmt::skip]
const FIGURES: [(&str, Run, &str); 12] = [
    ("4", analytic::fig4, "transmit / receive delay scaling trends, 45 nm to 16 nm"),
    ("5", analytic::fig5, "critical-path component delays (PP, PB, PA, PIA)"),
    ("6", analytic::fig6, "maximum hops per 4 GHz cycle"),
    ("7", analytic::fig7, "peak optical power vs crossing efficiency, WDM and hops"),
    ("8", analytic::fig8, "router area components vs wavelengths"),
    ("9", fig9::fig9, "synthetic latency vs injection rate (results/specs/fig9.lab)"),
    ("10", splash2::fig10, "SPLASH2 network speedup vs Electrical3"),
    ("11", splash2::fig11, "SPLASH2 average network power"),
    ("tables", analytic::tables, "Tables 1-2: optical and baseline electrical configuration"),
    ("ablations", studies::ablations, "arbitration, path priority and buffer policy on FFT / Ocean"),
    ("scalability", studies::scalability, "Optical4 vs Electrical3 from 16 to 256 nodes"),
    ("heatmap", studies::heatmap, "per-link load under the Ocean broadcast storm"),
];

/// Every figure name, in table order.
pub(crate) fn names() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.0).collect()
}

/// `phastlane figure [NAME]`: regenerate one table or figure; without a
/// name, list them.
///
/// # Errors
///
/// Errors on an unknown name and propagates the figure's own errors.
pub fn cmd_figure(p: &Parsed) -> Result<String, ArgError> {
    let Some(name) = p.positional(1) else {
        let mut out = String::from("phastlane figure NAME [--quick] [--csv FILE] [--chart]\n\n");
        for (name, _, about) in FIGURES {
            out.push_str(&format!("  {name:<12} {about}\n"));
        }
        out.push_str(
            "\n--quick shrinks the simulated ones (9, 10, 11 and the three studies);\n\
             --chart draws Figure 9's curves; --csv FILE also writes Figure 10's table\n",
        );
        return Ok(out);
    };
    match FIGURES.iter().find(|f| f.0 == name) {
        Some((_, run, _)) => run(p),
        None => Err(ArgError(format!(
            "unknown figure {name:?}; one of {}",
            names().join(" ")
        ))),
    }
}

/// Appends the header row of a table, its cells separated by `|`.
fn header(out: &mut String, cells: &str, widths: &[usize]) {
    row(out, &cells.split('|').collect::<Vec<_>>(), widths);
}

/// Appends a row of fixed-width columns.
fn row(out: &mut String, cells: &[impl AsRef<str>], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>w$}  ", cell.as_ref(), w = *w));
    }
    out.push_str(line.trim_end());
    out.push('\n');
}
