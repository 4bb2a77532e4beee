//! The in-process front door: exactly the calls `phastlane lab run`
//! makes, from spec text to canonical report bytes on disk.

use crate::replay;
use crate::spans::{SpanId, Tracer};
use crate::workloads::{FrontDoor, Workload};
use phastlane_lab::journal::{self, Journal};
use phastlane_lab::scheduler::{run_lab_opts, RunOptions};
use phastlane_lab::spec::expand;
use phastlane_lab::{store, LabReport, LabSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a traced pass hangs its spans; `None` runs untraced.
pub type Trace<'a> = Option<(&'a mut Tracer, SpanId)>;

/// Runs `f` under a span when tracing, bare otherwise.
pub fn spanned<T>(
    trace: &mut Trace<'_>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some((tracer, parent)) => {
            let id = tracer.open(Some(*parent), None, layer, name);
            let out = f();
            tracer.close(id);
            out
        }
        None => f(),
    }
}

fn lab_options(w: &Workload) -> (usize, bool, bool) {
    match w.front_door {
        FrontDoor::Lab {
            workers,
            preflight,
            journal,
            ..
        } => (workers, preflight, journal),
        FrontDoor::Serve { .. } => (1, false, false),
    }
}

pub fn report_path(out: &Path, w: &Workload) -> PathBuf {
    out.join(format!("{}.report.json", w.name))
}

pub fn journal_path(out: &Path, w: &Workload) -> PathBuf {
    out.join(format!("{}.journal.ndjson", w.name))
}

/// Everything `lab run` does before `run_lab_opts`: parse, preflight
/// where the workload asks for it, journal creation likewise.
fn pre_run(
    w: &Workload,
    text: &str,
    out: &Path,
    trace: &mut Trace<'_>,
) -> Result<(LabSpec, Option<Journal>), String> {
    let (_, preflight, journaled) = lab_options(w);
    let spec = spanned(trace, "lab", "spec_parse", || LabSpec::parse(text))?;
    if preflight {
        spanned(trace, "analyze", "preflight", || {
            phastlane_analyze::preflight(&spec)
        })?;
    }
    let journal = if journaled {
        Some(spanned(trace, "lab", "journal_create", || {
            Journal::create(&journal_path(out, w), &spec)
        })?)
    } else {
        None
    };
    Ok((spec, journal))
}

/// One sample of the set-up time, in seconds: everything that happens
/// before a job's first cycle, once for every job of the spec —
/// [`pre_run`], the job expansion `run_lab_opts` starts with, and each
/// job's network construction and fault plan. Work that a change moves
/// out of the cycle loop into a constructor lands here.
pub fn setup_sample(w: &Workload, text: &str, out: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let (spec, journal) = pre_run(w, text, out, &mut None)?;
    for job in expand(&spec) {
        let mut net = replay::build_job_network(&spec, &job)?;
        replay::install_fault_plan(&spec, &job, &mut net);
        black_box(net);
    }
    drop(journal);
    Ok(start.elapsed().as_secs_f64())
}

/// One pass of the whole pipeline.
pub struct Pass {
    pub report: LabReport,
    /// The canonical report, as written to disk.
    pub bytes: String,
    /// Spec text in to report bytes on disk.
    pub wall_s: f64,
}

pub fn pass(w: &Workload, text: &str, out: &Path, mut trace: Trace<'_>) -> Result<Pass, String> {
    let (workers, _, _) = lab_options(w);
    let start = Instant::now();
    let (spec, journal) = pre_run(w, text, out, &mut trace)?;
    let report = spanned(&mut trace, "lab", "run_lab_opts", || {
        run_lab_opts(
            &spec,
            RunOptions {
                workers,
                journal: journal.as_ref(),
                ..RunOptions::default()
            },
        )
    })?;
    let bytes = spanned(&mut trace, "lab", "report_json", || {
        report.canonical_json().to_string_pretty()
    });
    spanned(&mut trace, "lab", "store_write", || {
        store::write_atomic(&report_path(out, w), bytes.as_bytes())
    })
    .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(j) = &journal {
        if j.write_errors() > 0 {
            return Err(format!("{} journal write error(s)", j.write_errors()));
        }
    }
    Ok(Pass {
        report,
        bytes,
        wall_s,
    })
}

/// Output checks on one pass, one message per failure: every job
/// completed, the workload is what its name says, the bytes on disk are
/// the canonical bytes, and the journal gives back every record.
pub fn check_pass(w: &Workload, p: &Pass, out: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for j in &p.report.jobs {
        if !j.outcome.is_completed() {
            failures.push(format!("job {} ended {}", j.index, j.outcome.label()));
        }
        if let (Some(want), Some(_)) = (w.expect_stable, &j.pattern) {
            if j.stable != Some(want) {
                failures.push(format!(
                    "job {} ({} {} @ {:?}) is stable={:?}, the workload needs {want}",
                    j.index,
                    j.net,
                    j.pattern.as_deref().unwrap_or("-"),
                    j.rate,
                    j.stable
                ));
            }
        }
    }
    match std::fs::read(report_path(out, w)) {
        Ok(on_disk) if on_disk == p.bytes.as_bytes() => {}
        Ok(_) => failures.push("report on disk differs from the canonical bytes".into()),
        Err(e) => failures.push(format!("report not on disk: {e}")),
    }
    let (_, _, journaled) = lab_options(w);
    if journaled {
        match journal::load(&journal_path(out, w)) {
            Ok(rec) if rec.records.len() == p.report.jobs.len() && rec.torn_lines == 0 => {}
            Ok(rec) => failures.push(format!(
                "journal returned {} of {} records ({} torn)",
                rec.records.len(),
                p.report.jobs.len(),
                rec.torn_lines
            )),
            Err(e) => failures.push(format!("journal unreadable: {e}")),
        }
    }
    failures
}

/// One timed repeat: the workload's `passes` passes back to back, a
/// set-up sequence before each, both read at their fastest.
///
/// The reference host is a shared VM whose neighbours add time in
/// bursts and never take any away, so the fastest of a repeat's passes
/// is the one they disturbed least; across repeats the ledger reports
/// the median and quartiles of those readings.
pub struct Repeat {
    /// The fastest set-up sequence.
    pub setup_s: f64,
    /// The fastest pass, spec text in to report bytes on disk.
    pub wall_s: f64,
    /// Jobs and simulated cycles of one pass.
    pub jobs: u64,
    pub cycles: u64,
    pub passes: u64,
    pub last: Pass,
    pub failures: Vec<String>,
}

/// Runs one repeat. Checks run between passes, outside the timed walls.
pub fn repeat(w: &Workload, text: &str, out: &Path) -> Result<Repeat, String> {
    let FrontDoor::Lab { passes, .. } = w.front_door else {
        return Err(format!("{} is not a lab workload", w.name));
    };
    let mut setup_s = f64::INFINITY;
    let mut wall_s = f64::INFINITY;
    let mut failures = Vec::new();
    let mut last: Option<Pass> = None;
    for _ in 0..passes {
        setup_s = setup_s.min(setup_sample(w, text, out)?);
        let p = pass(w, text, out, None)?;
        failures.append(&mut check_pass(w, &p, out));
        if last.as_ref().is_some_and(|l| l.bytes != p.bytes) {
            failures.push("report bytes differ between passes".into());
        }
        wall_s = wall_s.min(p.wall_s);
        last = Some(p);
    }
    let last = last.ok_or_else(|| format!("{} has zero passes", w.name))?;
    Ok(Repeat {
        setup_s,
        wall_s,
        jobs: last.report.jobs.len() as u64,
        cycles: last.report.total_cycles(),
        passes: passes as u64,
        last,
        failures,
    })
}
