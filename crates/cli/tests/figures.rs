//! `phastlane figure <name>`: the six analytic figures are held to the
//! bytes recorded under `results/`, the six simulated ones run `--quick`,
//! and a bad name or option is an error naming it.

use phastlane_cli::args::{ArgError, Parsed};
use phastlane_cli::commands::dispatch;

const NAMES: &str = "4 5 6 7 8 9 10 11 tables ablations scalability heatmap";

fn figure(args: &[&str]) -> Result<String, ArgError> {
    let words = std::iter::once("figure").chain(args.iter().copied());
    Parsed::parse(words.map(str::to_string)).and_then(|p| dispatch(&p))
}

#[test]
fn analytic_figures_equal_the_recorded_results() {
    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    for (name, file) in [
        ("4", "fig4_scaling"),
        ("5", "fig5_critical_paths"),
        ("6", "fig6_max_hops"),
        ("7", "fig7_optical_power"),
        ("8", "fig8_area"),
        ("tables", "tables"),
    ] {
        let recorded = std::fs::read_to_string(format!("{results}/{file}.txt")).unwrap();
        assert_eq!(figure(&[name]).unwrap(), recorded, "figure {name}");
    }
}

/// A `--quick` run of `name` succeeds and carries `title`.
fn quick(name: &str, title: &str) -> String {
    let out = figure(&[name, "--quick"]).unwrap_or_else(|e| panic!("figure {name}: {e}"));
    assert!(out.contains(title), "figure {name}:\n{out}");
    out
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "9: 18 s, 10: 20 s, 11: 18 s, ablations: 30 s in debug; CI runs them in release"
)]
fn the_slow_simulated_figures_run_quick() {
    quick("9", "Figure 9: average packet latency");
    quick("11", "Figure 11: average network power in mW");
    quick("ablations", "=== buffer management (Ocean, scale 0.1) ===");
    let out = quick("10", "Figure 10: network speedup vs Electrical3");
    let geomean = out.lines().find(|l| l.trim_start().starts_with("geomean"));
    let cells: Vec<f64> = geomean
        .expect("a geomean row")
        .split_whitespace()
        .skip(1)
        .map(|c| c.parse().expect("a number"))
        .collect();
    assert_eq!(cells.len(), 8, "{out}");
    assert!(cells.iter().all(|c| c.is_finite() && *c > 0.0), "{out}");
}

#[test]
fn the_fast_simulated_figures_run_quick() {
    quick("scalability", "Scalability: Optical4 vs Electrical3");
    quick("heatmap", "link-load heatmaps for Ocean (scale 0.1)");
}

#[test]
fn a_bare_figure_lists_every_name_and_so_does_the_usage() {
    let listing = figure(&[]).unwrap();
    let usage = dispatch(&Parsed::default()).unwrap();
    let advertised = usage.lines().find(|l| l.starts_with("figures: ")).unwrap();
    for name in NAMES.split(' ') {
        assert!(
            listing
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "{name} missing from:\n{listing}"
        );
        assert!(
            advertised.split_whitespace().any(|w| w == name),
            "{name} missing from: {advertised}"
        );
    }
}

#[test]
fn bad_names_and_options_are_errors_naming_the_token() {
    for (args, token) in [
        (&["12"][..], "\"12\""),
        (&["10", "--quik"], "--quik"),
        (&["6", "--csv"], "--csv"),
    ] {
        let e = figure(args).expect_err("must fail");
        assert!(e.to_string().contains(token), "{args:?}: {e}");
    }
}
