//! The `phastlane lab` subcommand: run a scenario-spec matrix on a
//! worker pool, record named baselines, and gate regressions.
//!
//! * `lab run FILE` — expand and execute the spec, print a per-job
//!   table, optionally export the canonical report (`--report-out`,
//!   `.json` or `.csv`) and the perf profile (`--perf-out`). The
//!   canonical export is byte-identical for any `--workers` value.
//! * `lab record FILE` — run, then write
//!   `<baseline-dir>/<name>.json` (the canonical report only, so the
//!   file is byte-identical on any host at any `--workers`).
//! * `lab compare FILE` — run fresh, diff against the recorded
//!   baseline, and **fail** (non-zero exit) on any regression beyond
//!   the `--tol-*` tolerances. Only deterministic metrics are gated;
//!   wall-clock speed is measured by `benchmark/` alone.

use crate::args::{ArgError, Parsed};
use phastlane_lab::baseline::{self, Tolerances};
use phastlane_lab::journal::{self, Journal};
use phastlane_lab::scheduler::{run_lab_opts, RunOptions};
use phastlane_lab::store::{self, StoreError};
use phastlane_lab::{LabReport, LabSpec};
use phastlane_netsim::obs::json;
use phastlane_netsim::obs::{EventSink, Phase, PhaseProfiler};
use std::path::{Path, PathBuf};

fn read_spec(p: &Parsed) -> Result<LabSpec, ArgError> {
    let path = p
        .positional(2)
        .ok_or_else(|| ArgError("lab run|record|compare <spec-file>".into()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    LabSpec::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

fn parse_tolerances(p: &Parsed) -> Result<Tolerances, ArgError> {
    // NaN or inf would make every `fresh > base * (1 + tol)` check
    // false and so switch the gate off without saying so.
    let tol = |key: &str, default: f64| -> Result<f64, ArgError> {
        let v: f64 = p.get_parsed(key, default)?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(ArgError(format!(
                "--{key} must be a finite, non-negative number, got {v}"
            )))
        }
    };
    let d = Tolerances::default();
    Ok(Tolerances {
        mean: tol("tol-mean", d.mean)?,
        p99: tol("tol-p99", d.p99)?,
        saturation: tol("tol-saturation", d.saturation)?,
    })
}

fn write_atomic(path: &str, body: &str) -> Result<(), ArgError> {
    // Atomic (temp + rename): a crash mid-export leaves the previous
    // file intact, never a torn report.
    store::write_atomic(Path::new(path), body.as_bytes())
        .map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

/// Builds the `--progress[=FILE]` NDJSON sink: a bare `--progress`
/// streams to stderr, `--progress=FILE` to the file. Returns the sink
/// plus its console label.
fn parse_progress(p: &Parsed) -> Result<Option<(EventSink, String)>, ArgError> {
    if let Some(path) = p.get("progress") {
        let file = std::fs::File::create(path)
            .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
        let sink = EventSink::new(Box::new(file), EventSink::DEFAULT_CAPACITY);
        Ok(Some((sink, format!("progress -> {path}"))))
    } else if p.flag("progress") {
        let sink = EventSink::new(Box::new(std::io::stderr()), EventSink::DEFAULT_CAPACITY);
        Ok(Some((sink, "progress -> stderr".into())))
    } else {
        Ok(None)
    }
}

/// The per-job table of a finished run, one line per job in matrix
/// order.
fn job_table(report: &LabReport) -> String {
    let mut out = format!(
        "{:>4} {:>12} {:>10} {:>6} {:>9} {:>8} {:>7} {:>9}\n",
        "job", "net", "work", "rate", "latency", "p99", "stable", "outcome"
    );
    for j in &report.jobs {
        let work = j
            .pattern
            .clone()
            .or_else(|| j.benchmark.clone())
            .unwrap_or_default();
        out.push_str(&format!(
            "{:>4} {:>12} {:>10} {:>6} {:>9} {:>8} {:>7} {:>9}\n",
            j.index,
            j.net,
            work,
            j.rate.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
            j.latency
                .mean()
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "-".into()),
            (j.latency.count() > 0)
                .then(|| j.latency.percentile(99.0))
                .flatten()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into()),
            j.stable
                .map(|s| if s { "yes" } else { "NO" }.to_string())
                .unwrap_or_else(|| "-".into()),
            j.outcome.label(),
        ));
    }
    out
}

fn execute(p: &Parsed, spec: &LabSpec) -> Result<(LabReport, String), ArgError> {
    let workers: usize = p.get_parsed("workers", 1)?;
    let mut spec = spec.clone();
    if p.flag("profile") || p.get("profile-sample").is_some() {
        spec.profile = p.get_parsed("profile-sample", PhaseProfiler::DEFAULT_SAMPLE_EVERY)?;
        if spec.profile == 0 {
            return Err(ArgError("--profile-sample must be positive".into()));
        }
    }
    let progress = parse_progress(p)?;

    // --preflight: statically verify the matrix before spending a
    // single cycle on it. Errors (partitioned pattern pairs, an
    // infeasible optical envelope, out-of-range sabotage) refuse the
    // run with a non-zero exit; warnings are printed and the run
    // proceeds.
    let mut preflight_note = String::new();
    if p.flag("preflight") {
        let findings = phastlane_analyze::preflight(&spec).map_err(ArgError)?;
        let warnings = findings.len();
        preflight_note = format!(
            "preflight: statically clean ({warnings} warning(s))\n{}",
            findings
                .iter()
                .map(|f| format!("  {f}\n"))
                .collect::<String>()
        );
    }

    // --resume JOURNAL: replay the finished jobs of an interrupted run.
    // The journal header pins the exact spec encoding, so resuming with
    // a different spec (or different spec-shaping flags) is an error,
    // not a silently mixed report.
    let mut resume_note = String::new();
    let resumed = match p.get("resume") {
        None => Vec::new(),
        Some(path) => {
            let rec = journal::load(Path::new(path)).map_err(ArgError)?;
            if rec.spec != spec.encode() {
                return Err(ArgError(format!(
                    "journal {path} was written by a different spec; \
                     resume with the same spec file and flags\n\
                     journal spec:\n{}\ncurrent spec:\n{}",
                    rec.spec,
                    spec.encode()
                )));
            }
            resume_note = format!(
                "resumed {} finished job(s) from {path}{}\n",
                rec.records.len(),
                if rec.torn_lines > 0 {
                    format!(" ({} torn line(s) dropped)", rec.torn_lines)
                } else {
                    String::new()
                }
            );
            rec.records
        }
    };

    // --journal FILE: checkpoint every finished job. On resume the
    // recovered records are re-appended first, so the new journal is
    // self-contained.
    let journal = match p.get("journal") {
        None => None,
        Some(path) => {
            let j = Journal::create(Path::new(path), &spec).map_err(ArgError)?;
            for rec in &resumed {
                j.append(rec);
            }
            Some((j, path.to_string()))
        }
    };

    let report = run_lab_opts(
        &spec,
        RunOptions {
            workers,
            progress: progress.as_ref().map(|(s, _)| s),
            journal: journal.as_ref().map(|(j, _)| j),
            resumed,
            cancel: None,
        },
    )
    .map_err(ArgError)?;
    let mut out = format!(
        "lab {}: {} jobs on {} workers ({}x{}, seed {})\n",
        spec.name,
        report.jobs.len(),
        report.workers,
        spec.mesh.width(),
        spec.mesh.height(),
        spec.seed,
    );
    out.push_str(&preflight_note);
    out.push_str(&resume_note);
    out.push_str(&job_table(&report));
    out.push_str(&format!(
        "wall: {:.3} s  serial est: {:.3} s  speedup: {:.2}x  {:.0} cycles/s\n",
        report.wall_seconds,
        report.serial_wall_seconds(),
        report.speedup(),
        report.cycles_per_sec(),
    ));
    if let Some(b) = report.merged_phases() {
        out.push_str("phases:");
        for ph in Phase::ALL {
            out.push_str(&format!(" {} {:.1}%", ph.name(), b.share(ph) * 100.0));
        }
        out.push('\n');
    }
    if let Some((sink, label)) = &progress {
        let t = sink.finish();
        out.push_str(&format!(
            "{label}: {} events ({} dropped, {} write errors)\n",
            t.emitted, t.dropped, t.write_errors
        ));
    }
    if let Some((j, path)) = &journal {
        out.push_str(&format!(
            "journal -> {path} ({} record(s), {} write error(s))\n",
            report.jobs.len(),
            j.write_errors()
        ));
    }
    if let Some(path) = p.get("report-out") {
        let body = if path.ends_with(".csv") {
            report.to_csv()
        } else {
            report.canonical_json().to_string_pretty()
        };
        write_atomic(path, &body)?;
        out.push_str(&format!("report -> {path}\n"));
    }
    if let Some(path) = p.get("perf-out") {
        write_atomic(path, &report.perf_json().to_string_pretty())?;
        out.push_str(&format!("perf -> {path}\n"));
    }
    Ok((report, out))
}

fn baseline_path(p: &Parsed, spec: &LabSpec) -> (PathBuf, String) {
    let dir = PathBuf::from(p.get("baseline-dir").unwrap_or("results/baselines"));
    let name = p.get("name").unwrap_or(&spec.name).to_string();
    (dir.join(format!("{name}.json")), name)
}

/// `phastlane lab run|record|compare`.
///
/// # Errors
///
/// Propagates argument/spec/I-O errors; `compare` also errors (non-zero
/// exit) when the fresh run regresses past tolerance.
pub fn cmd_lab(p: &Parsed) -> Result<String, ArgError> {
    match p.positional(1) {
        Some("run") => {
            let spec = read_spec(p)?;
            let (_, out) = execute(p, &spec)?;
            Ok(out)
        }
        Some("record") => {
            let spec = read_spec(p)?;
            let (report, mut out) = execute(p, &spec)?;
            let (path, name) = baseline_path(p, &spec);
            // Baselines are written atomically under a checksum header:
            // a torn or bit-rotted baseline is detected at compare time
            // instead of silently gating against garbage.
            store::write_checksummed(
                &path,
                &baseline::baseline_json(&name, &report).to_string_pretty(),
            )
            .map_err(|e| ArgError(format!("cannot write baseline: {e}")))?;
            out.push_str(&format!("baseline {name} -> {}\n", path.display()));
            Ok(out)
        }
        Some("compare") => {
            let spec = read_spec(p)?;
            let tol = parse_tolerances(p)?;
            let (path, name) = baseline_path(p, &spec);
            let text = match store::read_checksummed(&path) {
                Ok(text) => text,
                Err(StoreError::Missing(_)) => {
                    return Err(ArgError(format!(
                        "cannot read baseline {} (record it first with `lab record`): \
                         no such file",
                        path.display()
                    )))
                }
                Err(e) if e.is_corrupt() => {
                    // Never gate against damaged bytes: move the file
                    // aside and tell the user to re-record.
                    let where_to = match store::quarantine(&path) {
                        Ok(q) => format!("quarantined to {}", q.display()),
                        Err(qe) => format!("quarantine failed ({qe}); inspect it by hand"),
                    };
                    return Err(ArgError(format!(
                        "{e}\nthe damaged baseline was {where_to}; \
                         re-record it with `lab record`"
                    )));
                }
                Err(e) => return Err(ArgError(format!("cannot read baseline: {e}"))),
            };
            let recorded = json::parse(&text).map_err(|e| {
                ArgError(format!(
                    "{} is not a valid baseline (truncated or hand-edited?): {e}\n\
                     re-record it with `lab record`",
                    path.display()
                ))
            })?;
            let (report, mut out) = execute(p, &spec)?;
            let regressions = baseline::compare(&recorded, &report, &tol).map_err(ArgError)?;
            if regressions.is_empty() {
                out.push_str(&format!("baseline {name}: OK, no regressions\n"));
                Ok(out)
            } else {
                let mut msg = format!("baseline {name}: {} regression(s):\n", regressions.len());
                for r in &regressions {
                    msg.push_str(&format!("  {r}\n"));
                }
                Err(ArgError(msg))
            }
        }
        other => Err(ArgError(format!(
            "lab subcommand must be run|record|compare, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::obs::json::JsonValue;

    fn parsed(words: &[&str]) -> Parsed {
        Parsed::parse(words.iter().map(|s| s.to_string())).expect("parses")
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phastlane-lab-cmd-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn write_spec(dir: &Path, body: &str) -> String {
        let path = dir.join("test.lab");
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    }

    const SPEC: &str = "name cmd-test\nmesh 4x4\nseed 5\nnets optical4\n\
                        patterns uniform\nrates 0.02 0.05\n\
                        warmup 100\nmeasure 300\ndrain 1000\n";

    #[test]
    fn run_prints_table_and_exports() {
        let dir = scratch("run");
        let spec = write_spec(&dir, SPEC);
        let report = dir.join("report.json");
        let perf = dir.join("perf.json");
        let out = cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--workers",
            "2",
            "--report-out",
            report.to_str().unwrap(),
            "--perf-out",
            perf.to_str().unwrap(),
        ]))
        .expect("runs");
        assert!(out.contains("2 jobs on 2 workers"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"jobs\""));
        assert!(!text.contains("wall"), "canonical export leaks wall clock");
        let perf_text = std::fs::read_to_string(&perf).unwrap();
        assert!(perf_text.contains("speedup"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_stream_leaves_canonical_export_identical() {
        let dir = scratch("progress");
        let spec = write_spec(&dir, SPEC);
        let silent = dir.join("silent.json");
        let streamed = dir.join("streamed.json");
        let ndjson = dir.join("progress.ndjson");
        cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--report-out",
            silent.to_str().unwrap(),
        ]))
        .expect("silent run");
        let out = cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--workers",
            "2",
            &format!("--progress={}", ndjson.display()),
            "--report-out",
            streamed.to_str().unwrap(),
        ]))
        .expect("streamed run");
        assert!(out.contains("progress ->"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&silent).unwrap(),
            std::fs::read_to_string(&streamed).unwrap(),
            "--progress must not change a canonical bit"
        );
        let text = std::fs::read_to_string(&ndjson).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2 + 2 * 2, "lifecycle events present: {text}");
        assert!(lines[0].contains("\"lab_started\""), "{text}");
        assert!(lines.last().unwrap().contains("\"lab_finished\""), "{text}");
        for line in &lines {
            json::parse(line).expect("each progress line is one JSON object");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_flag_surfaces_phases_in_perf_but_not_canonical() {
        let dir = scratch("profile");
        let spec = write_spec(&dir, SPEC);
        let report = dir.join("report.json");
        let perf = dir.join("perf.json");
        let out = cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--profile",
            "--report-out",
            report.to_str().unwrap(),
            "--perf-out",
            perf.to_str().unwrap(),
        ]))
        .expect("profiled run");
        assert!(out.contains("phases:"), "{out}");
        let canonical = std::fs::read_to_string(&report).unwrap();
        assert!(
            !canonical.contains("phases"),
            "canonical export leaks the profile: {canonical}"
        );
        let perf_text = std::fs::read_to_string(&perf).unwrap();
        assert!(perf_text.contains("\"phases\""), "{perf_text}");
        for name in ["route", "arbitrate", "traverse", "eject", "fault", "drain"] {
            assert!(
                perf_text.contains(name),
                "missing phase {name}: {perf_text}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_then_compare_passes_clean() {
        let dir = scratch("record-compare");
        let spec = write_spec(&dir, SPEC);
        let bdir = dir.join("baselines");
        let record = parsed(&[
            "lab",
            "record",
            &spec,
            "--baseline-dir",
            bdir.to_str().unwrap(),
        ]);
        let out = cmd_lab(&record).expect("records");
        assert!(out.contains("baseline cmd-test ->"), "{out}");
        assert!(bdir.join("cmd-test.json").exists());

        let compare = parsed(&[
            "lab",
            "compare",
            &spec,
            "--baseline-dir",
            bdir.to_str().unwrap(),
        ]);
        let out = cmd_lab(&compare).expect("zero-drift compare passes");
        assert!(out.contains("no regressions"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_is_byte_identical_across_workers_and_writes_only_the_baseline() {
        let dir = scratch("record-workers");
        let spec = write_spec(&dir, SPEC);
        for workers in ["1", "2"] {
            cmd_lab(&parsed(&[
                "lab",
                "record",
                &spec,
                "--workers",
                workers,
                "--baseline-dir",
                dir.join(format!("w{workers}")).to_str().unwrap(),
            ]))
            .expect("records");
        }
        assert_eq!(
            std::fs::read(dir.join("w1/cmd-test.json")).unwrap(),
            std::fs::read(dir.join("w2/cmd-test.json")).unwrap(),
            "a baseline holds no wall-clock or worker-count field"
        );
        let ls = |d: &Path| {
            let mut names: Vec<String> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(ls(&dir), ["test.lab", "w1", "w2"]);
        assert_eq!(ls(&dir.join("w1")), ["cmd-test.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_or_negative_tolerances_are_rejected() {
        for key in ["tol-mean", "tol-p99", "tol-saturation"] {
            for bad in ["NaN", "inf", "-inf", "-0.1"] {
                let err = parse_tolerances(&parsed(&["lab", "compare", &format!("--{key}={bad}")]))
                    .expect_err("a tolerance that disables the gate must be refused");
                assert!(err.to_string().contains(&format!("--{key}")), "{err}");
            }
            let tol = parse_tolerances(&parsed(&["lab", "compare", &format!("--{key}=0.25")]))
                .expect("a plain fraction is accepted");
            assert_ne!(tol, Tolerances::default());
        }
    }

    #[test]
    fn compare_fails_on_injected_regression() {
        let dir = scratch("regression");
        let spec = write_spec(&dir, SPEC);
        let bdir = dir.join("baselines");
        cmd_lab(&parsed(&[
            "lab",
            "record",
            &spec,
            "--baseline-dir",
            bdir.to_str().unwrap(),
        ]))
        .expect("records");

        // Inject a regression: halve every baseline latency so the fresh
        // (unchanged) run looks twice as slow. Read and write back through
        // the checksum layer, so the doctored file still verifies.
        let bpath = bdir.join("cmd-test.json");
        let text = store::read_checksummed(&bpath).unwrap();
        let mut recorded = json::parse(&text).unwrap();
        fn halve_latencies(v: &mut JsonValue) {
            match v {
                JsonValue::Obj(pairs) => {
                    for (k, val) in pairs.iter_mut() {
                        if k == "latency" {
                            if let JsonValue::Obj(lat) = val {
                                for (lk, lv) in lat.iter_mut() {
                                    let halved = match (lk.as_str(), &*lv) {
                                        ("mean", JsonValue::Num(n)) => {
                                            Some(JsonValue::Num(n / 2.0))
                                        }
                                        ("p99" | "p50", JsonValue::Uint(n)) => {
                                            Some(JsonValue::Uint(n / 2))
                                        }
                                        _ => None,
                                    };
                                    if let Some(h) = halved {
                                        *lv = h;
                                    }
                                }
                            }
                        } else {
                            halve_latencies(val);
                        }
                    }
                }
                JsonValue::Arr(items) => items.iter_mut().for_each(halve_latencies),
                _ => {}
            }
        }
        halve_latencies(&mut recorded);
        store::write_checksummed(&bpath, &recorded.to_string_pretty()).unwrap();

        let err = cmd_lab(&parsed(&[
            "lab",
            "compare",
            &spec,
            "--baseline-dir",
            bdir.to_str().unwrap(),
        ]))
        .expect_err("doctored baseline must flag a regression");
        assert!(err.to_string().contains("regression"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_without_baseline_is_a_clear_error() {
        let dir = scratch("no-baseline");
        let spec = write_spec(&dir, SPEC);
        let err = cmd_lab(&parsed(&[
            "lab",
            "compare",
            &spec,
            "--baseline-dir",
            dir.join("nowhere").to_str().unwrap(),
        ]))
        .expect_err("missing baseline");
        assert!(err.to_string().contains("record it first"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_journal_to_a_byte_identical_report() {
        let dir = scratch("resume");
        let spec = write_spec(&dir, SPEC);
        let full = dir.join("full.json");
        let resumed = dir.join("resumed.json");
        let journal = dir.join("run.ndjson");

        // Uninterrupted run (no journal) is the reference.
        cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--report-out",
            full.to_str().unwrap(),
        ]))
        .expect("reference run");

        // Journaled run; then chop the journal down to one finished job
        // to simulate a SIGKILL partway through.
        let out = cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .expect("journaled run");
        assert!(out.contains("journal ->"), "{out}");
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 records: {text}");
        std::fs::write(&journal, format!("{}\n{}\n", lines[0], lines[1])).unwrap();

        let out = cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--resume",
            journal.to_str().unwrap(),
            "--report-out",
            resumed.to_str().unwrap(),
        ]))
        .expect("resumed run");
        assert!(out.contains("resumed 1 finished job(s)"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "resume must reproduce the uninterrupted report byte-for-byte"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_mismatched_spec() {
        let dir = scratch("resume-mismatch");
        let spec = write_spec(&dir, SPEC);
        let journal = dir.join("run.ndjson");
        cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .expect("journaled run");
        // Same journal, different spec: refuse to mix runs.
        let other = dir.join("other.lab");
        std::fs::write(&other, SPEC.replace("rates 0.02 0.05", "rates 0.02 0.06")).unwrap();
        let err = cmd_lab(&parsed(&[
            "lab",
            "run",
            other.to_str().unwrap(),
            "--resume",
            journal.to_str().unwrap(),
        ]))
        .expect_err("mismatched spec accepted");
        assert!(err.to_string().contains("different spec"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_baseline_is_quarantined_not_compared() {
        let dir = scratch("corrupt-baseline");
        let spec = write_spec(&dir, SPEC);
        let bdir = dir.join("baselines");
        cmd_lab(&parsed(&[
            "lab",
            "record",
            &spec,
            "--baseline-dir",
            bdir.to_str().unwrap(),
        ]))
        .expect("records");
        // Tear the baseline: flip a byte inside the checksummed payload.
        let bpath = bdir.join("cmd-test.json");
        let mut bytes = std::fs::read(&bpath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&bpath, &bytes).unwrap();

        let err = cmd_lab(&parsed(&[
            "lab",
            "compare",
            &spec,
            "--baseline-dir",
            bdir.to_str().unwrap(),
        ]))
        .expect_err("corrupt baseline compared");
        let msg = err.to_string();
        assert!(msg.contains("corrupt"), "{msg}");
        assert!(msg.contains("quarantined"), "{msg}");
        assert!(!bpath.exists(), "bad file moved aside");
        assert!(bdir.join("cmd-test.json.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sabotaged_jobs_surface_terminal_outcomes_in_the_report() {
        let dir = scratch("sabotage");
        let spec = write_spec(
            &dir,
            "name sabotage-cli\nmesh 4x4\nnets optical4\npatterns uniform\n\
             rates 0.02 0.05 0.08\nwarmup 50\nmeasure 100\ndrain 400\n\
             retry-backoff-ms 1\nsabotage panic@0 livelock@2\n",
        );
        let report = dir.join("report.json");
        let out = cmd_lab(&parsed(&[
            "lab",
            "run",
            &spec,
            "--workers",
            "2",
            "--report-out",
            report.to_str().unwrap(),
        ]))
        .expect("sabotaged lab still finishes");
        assert!(out.contains("panicked"), "{out}");
        assert!(out.contains("timed_out"), "{out}");
        let text = std::fs::read_to_string(&report).unwrap();
        assert!(text.contains("\"panicked\""), "{text}");
        assert!(text.contains("\"timed_out\""), "{text}");
        assert!(text.contains("livelock"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preflight_annotates_a_clean_spec() {
        let dir = scratch("preflight-clean");
        let spec = write_spec(&dir, SPEC);
        let out = cmd_lab(&parsed(&["lab", "run", &spec, "--preflight"])).expect("clean spec runs");
        assert!(out.contains("preflight: statically clean"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preflight_refuses_a_statically_doomed_spec() {
        let dir = scratch("preflight-doomed");
        // Intensity 1.0 activates every samplable fault: the worst-case
        // static view partitions pairs, so the matrix is doomed before
        // cycle 0 and --preflight must refuse it (non-zero exit via Err).
        let spec = write_spec(
            &dir,
            "name doomed\nmesh 4x4\nseed 7\nnets optical4\npatterns transpose\n\
             rates 0.02\nintensities 1.0\nwarmup 50\nmeasure 100\ndrain 400\n",
        );
        let err = cmd_lab(&parsed(&["lab", "run", &spec, "--preflight"]))
            .expect_err("doomed spec must be refused");
        let msg = err.to_string();
        assert!(msg.contains("statically doomed"), "{msg}");
        // Without the gate the same spec is accepted (and would burn
        // cycles discovering the partition dynamically).
        cmd_lab(&parsed(&["lab", "run", &spec])).expect("ungated run proceeds");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_subcommand_and_missing_spec() {
        assert!(cmd_lab(&parsed(&["lab"])).is_err());
        assert!(cmd_lab(&parsed(&["lab", "frobnicate"])).is_err());
        assert!(cmd_lab(&parsed(&["lab", "run"])).is_err());
        assert!(cmd_lab(&parsed(&["lab", "run", "/no/such/file.lab"])).is_err());
    }
}
