//! The repo's perf ledger: seven workloads, each measured untraced for
//! the end-to-end metrics and once more traced for the per-layer ones.
//!
//! ```text
//! phastlane-benchmark [run] [--seed S] [--workload W] [--seconds N] [--out DIR]
//! phastlane-benchmark twice [--seed S] [--workload W] [--seconds N] [--out DIR]
//! phastlane-benchmark --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! `run` measures every workload (or the one named), each pass in a
//! child process of its own so `peak_rss_mb` belongs to one workload,
//! prints every metric and writes `results.json` + `trace.json` under
//! `--out`. `twice` runs the set twice and checks that the two agree
//! within the ledger's own bounds. The last form is one pass over one
//! workload, ending in the one-line JSON result the driver reads.

mod lab;
mod ledger;
mod metrics;
mod obs;
mod outcome;
mod replay;
mod serve;
mod spans;
mod stats;
mod timed;
mod workloads;

use metrics::{Better, END_TO_END};
use phastlane_netsim::obs::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

/// How long one pass measures; `BENCHMARK.json` gives the driver the
/// same number.
pub const RUN_SECONDS: u64 = 10;
const DEFAULT_SEED: u64 = 2009;
const DEFAULT_OUT: &str = "benchmark/out";

#[derive(Debug, PartialEq)]
enum Mode {
    Run,
    Twice,
    /// One pass, traced or not, for the driver.
    Pass {
        traced: bool,
    },
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = argv.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            it.next();
        }
        Some("twice") => {
            args.mode = Mode::Twice;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(" "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.mode = Mode::Pass {
                    traced: match value()? {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    },
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if matches!(args.mode, Mode::Pass { .. }) && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn write_json(path: &Path, v: &JsonValue) -> Result<(), String> {
    std::fs::write(path, v.to_string_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn pass_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

/// One pass over one workload, in this process. Prints the metric
/// table, leaves the detailed record (and the spans of a traced pass)
/// under `out`, and ends with the driver's result line.
fn run_pass(w: &'static Workload, args: &Args, traced: bool) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let outcome = if traced {
        let (outcome, spans) = ledger::traced(w, args.seed, args.seconds, &args.out)?;
        write_json(&spans_path(&args.out, w), &spans)?;
        outcome
    } else {
        ledger::untraced(w, args.seed, args.seconds, &args.out)?
    };
    write_json(&record_path(&args.out, w, traced), &outcome.to_json())?;
    println!(
        "{} ({}, seed {}): {}",
        w.name,
        pass_name(traced),
        args.seed,
        w.why
    );
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn record_path(out: &Path, w: &Workload, traced: bool) -> PathBuf {
    out.join(format!("{}.{}.json", w.name, pass_name(traced)))
}

fn spans_path(out: &Path, w: &Workload) -> PathBuf {
    out.join(format!("{}.trace.json", w.name))
}

/// Runs one pass in a child process (a re-exec of this binary) and
/// returns its detailed record.
fn child_pass(w: &Workload, args: &Args, out: &Path, traced: bool) -> Result<JsonValue, String> {
    // Whatever an earlier run left behind must not be read as this one's.
    for stale in [record_path(out, w, traced), spans_path(out, w)] {
        match std::fs::remove_file(&stale) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", stale.display()));
            }
            _ => {}
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .status()
        .map_err(|e| format!("cannot re-exec for {}: {e}", w.name))?;
    // 0: the pass ran and its checks held; 1: it ran, left its record,
    // and a check failed. Anything else died without a result.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{} ({}): {status}", w.name, pass_name(traced)));
    }
    read_json(&record_path(out, w, traced))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The full set: every selected workload untraced, then traced. Writes
/// `results.json` and `trace.json` under `out`; returns the results.
fn run_set(args: &Args, out: &Path) -> Result<JsonValue, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut records = Vec::new();
    let mut spans = Vec::new();
    // One child at a time: the load never exceeds what a workload itself
    // puts on the host (at most 2 busy threads / 2 connections).
    for traced in [false, true] {
        for w in &selected {
            records.push(child_pass(w, args, out, traced)?);
            if traced {
                if let JsonValue::Arr(mut s) = read_json(&spans_path(out, w))? {
                    spans.append(&mut s);
                }
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = JsonValue::Obj(vec![
        ("schema_version".into(), JsonValue::Uint(1)),
        (
            "host".into(),
            JsonValue::Obj(vec![
                ("nproc".into(), JsonValue::Uint(nproc as u64)),
                ("cpu".into(), JsonValue::Str(cpu_model())),
                (
                    "commit".into(),
                    JsonValue::Str(
                        std::env::var("PHASTLANE_BENCH_COMMIT")
                            .unwrap_or_else(|_| "unknown".into()),
                    ),
                ),
                (
                    "arena_layout".into(),
                    JsonValue::Str(phastlane_core::ARENA_LAYOUT.into()),
                ),
            ]),
        ),
        ("seed".into(), JsonValue::Uint(args.seed)),
        ("seconds".into(), JsonValue::Num(args.seconds)),
        ("passes".into(), JsonValue::Arr(records)),
    ]);
    write_json(&out.join("results.json"), &results)?;
    write_json(
        &out.join("trace.json"),
        &JsonValue::Obj(vec![
            ("schema_version".into(), JsonValue::Uint(1)),
            ("spans".into(), JsonValue::Arr(spans)),
        ]),
    )?;
    println!("results -> {}", out.join("results.json").display());
    println!("trace   -> {}", out.join("trace.json").display());
    Ok(results)
}

/// The passes of a results file, as `(workload, traced, record)`.
fn passes(results: &JsonValue) -> Vec<(&str, bool, &JsonValue)> {
    results
        .get("passes")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            let name = p.get("workload")?.as_str()?;
            let traced = matches!(p.get("traced")?, JsonValue::Bool(true));
            Some((name, traced, p))
        })
        .collect()
}

fn total_failed(results: &JsonValue) -> u64 {
    passes(results)
        .iter()
        .filter_map(|(_, _, p)| p.get("failed")?.as_u64())
        .sum()
}

fn metric_value(pass: &JsonValue, name: &str) -> Option<f64> {
    pass.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares two sets of the same code. Every end-to-end metric of every
/// workload must agree within its bound, every `sim.*` value exactly,
/// and nothing may have failed. Returns the number of disagreements.
fn compare_sets(a: &JsonValue, b: &JsonValue) -> usize {
    let mut bad = 0;
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (name, traced, first) in passes(a) {
        let Some((_, _, second)) = passes(b)
            .into_iter()
            .find(|(n, t, _)| *n == name && *t == traced)
        else {
            println!("{name}: missing from the second set");
            bad += 1;
            continue;
        };
        if traced {
            let layers = metrics::per_layer();
            for metric in layers.iter().map(|m| m.name.as_str()) {
                if !metric.starts_with("sim.") {
                    continue;
                }
                let (x, y) = (metric_value(first, metric), metric_value(second, metric));
                if x.map(f64::to_bits) != y.map(f64::to_bits) {
                    println!("{name:<22} {metric:<20} {x:?} != {y:?}  SIMULATED RESULT DIFFERS");
                    bad += 1;
                }
            }
            continue;
        }
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (metric_value(first, m.name), metric_value(second, m.name))
            else {
                println!("{name:<22} {:<20} missing", m.name);
                bad += 1;
                continue;
            };
            // How much worse the second set reads, as a share of the first.
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let verdict = if worse.abs() > m.bound {
                bad += 1;
                "  OUT OF BOUND"
            } else {
                ""
            };
            println!(
                "{name:<22} {:<20} {x:>14.6} {y:>14.6} {:>+7.2}% {:>5.0}%{verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    for (label, set) in [("first", a), ("second", b)] {
        let failed = total_failed(set);
        if failed > 0 {
            println!("{label} set: {failed} failed operation(s) or check(s)");
            bad += 1;
        }
    }
    bad
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    match args.mode {
        Mode::Pass { traced } => {
            let w = args.workload.expect("parse_args checked --workload");
            run_pass(w, &args, traced)
        }
        Mode::Run => {
            let results = run_set(&args, &args.out)?;
            Ok(total_failed(&results) == 0)
        }
        Mode::Twice => {
            let first = run_set(&args, &args.out.join("set-1"))?;
            let second = run_set(&args, &args.out.join("set-2"))?;
            let bad = compare_sets(&first, &second);
            println!("{bad} disagreement(s) between the two sets");
            Ok(bad == 0)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("phastlane-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_selects_one_pass() {
        let a = parse_args(&argv(
            "--workload splash2-replay --seed 5 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Pass { traced: true });
        assert_eq!(a.workload.unwrap().name, "splash2-replay");
        assert_eq!((a.seed, a.seconds), (5, 3.0));
        assert_eq!(parse_args(&argv("twice")).unwrap().mode, Mode::Twice);
        assert_eq!(parse_args(&[]).unwrap().mode, Mode::Run);
        assert!(parse_args(&argv("--trace 1")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
    }

    /// Re-executed with the ledger's arguments the test binary exits
    /// without writing a record, like a child that died early. The
    /// record an earlier run left must then be gone, not read as this
    /// run's result.
    #[test]
    fn a_stale_record_is_not_read_as_this_runs() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("stale-test-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let w = &WORKLOADS[0];
        let stale = [record_path(&out, w, true), spans_path(&out, w)];
        for path in &stale {
            std::fs::write(path, "{\"failed\": 0}").unwrap();
        }
        let args = parse_args(&[]).unwrap();
        assert!(child_pass(w, &args, &out, true).is_err());
        assert!(stale.iter().all(|p| !p.exists()));
        std::fs::remove_dir_all(&out).unwrap();
    }

    /// Profiles are per-workspace: unless this package repeats the root's
    /// `[profile.release]`, the ledger measures a different build.
    #[test]
    fn release_profile_matches_root() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let text = std::fs::read_to_string(manifest).expect(manifest);
            let mut lines: Vec<String> = text
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| {
                    l.split('#')
                        .next()
                        .unwrap_or("")
                        .split_whitespace()
                        .collect()
                })
                .filter(|l: &String| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let ours = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has a [profile.release]");
        assert_eq!(ours, root);
    }
}
