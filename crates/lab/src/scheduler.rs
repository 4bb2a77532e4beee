//! Deterministic `std::thread` worker pool over the expanded job list.
//!
//! Determinism holds by construction, not by locking discipline:
//! * every job's seeds come from [`crate::spec::expand`] — a pure
//!   function of the spec, fixed before any thread starts;
//! * each job builds, drives, and drops its own network on its worker
//!   thread; no simulation state is shared;
//! * results land in a slot indexed by the job's matrix index, so the
//!   report order is the matrix order no matter which worker finished
//!   first.
//!
//! The only cross-thread state is the `AtomicUsize` job cursor and the
//! mutex-guarded result slots — neither influences any simulated bit.

use crate::journal::Journal;
use crate::report::{JobRecord, LabReport};
use crate::runner;
use crate::spec::{expand, JobSpec, LabSpec};
use phastlane_netsim::obs::json::JsonValue;
use phastlane_netsim::obs::{stamped, EventSink};
use phastlane_netsim::watchdog::CancelToken;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Shared progress bookkeeping for one lab run: lifecycle events stream
/// to the sink as NDJSON while atomic tallies feed the rolling
/// throughput / ETA fields. Everything here is observation — no
/// simulated bit depends on it, so the canonical report is identical
/// with or without a sink attached.
struct Progress<'a> {
    sink: &'a EventSink,
    started: Instant,
    total_jobs: usize,
    /// Jobs recovered from a journal: part of `finished` / `total`, but
    /// not of this session's rate or ETA.
    resumed: usize,
    /// Jobs and cycles completed since `started`.
    ran: AtomicUsize,
    cycles_done: AtomicU64,
}

impl<'a> Progress<'a> {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall/speedup metrics for the perf layer; excluded from the canonical report"
    )]
    fn new(sink: &'a EventSink, total_jobs: usize, resumed: usize) -> Self {
        Progress {
            sink,
            started: Instant::now(),
            total_jobs,
            resumed,
            ran: AtomicUsize::new(0),
            cycles_done: AtomicU64::new(0),
        }
    }

    fn lab_started(&self, spec: &LabSpec, to_run: usize, workers: usize) {
        self.sink.emit(&stamped(
            Some("lab_started"),
            vec![
                ("name".into(), JsonValue::Str(spec.name.clone())),
                ("jobs".into(), JsonValue::Uint(self.total_jobs as u64)),
                ("groups".into(), JsonValue::Uint(to_run as u64)),
                ("workers".into(), JsonValue::Uint(workers as u64)),
            ],
        ));
    }

    fn job_started(&self, job: &JobSpec) {
        self.sink.emit(&stamped(
            Some("job_started"),
            vec![
                ("job".into(), JsonValue::Uint(job.index as u64)),
                ("net".into(), JsonValue::Str(job.net.clone())),
            ],
        ));
    }

    /// Emits `job_finished` with a rolling cycles/s over everything this
    /// session ran and a naive remaining-time estimate
    /// (`elapsed / ran * remaining`).
    fn job_finished(&self, rec: &JobRecord) {
        let cycles = self.cycles_done.fetch_add(rec.cycles, Ordering::Relaxed) + rec.cycles;
        let ran = self.ran.fetch_add(1, Ordering::Relaxed) + 1;
        let finished = self.resumed + ran;
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            cycles as f64 / elapsed
        } else {
            0.0
        };
        let remaining = self.total_jobs.saturating_sub(finished);
        let eta = elapsed / ran as f64 * remaining as f64;
        self.sink.emit(&stamped(
            Some("job_finished"),
            vec![
                ("job".into(), JsonValue::Uint(rec.index as u64)),
                ("cycles".into(), JsonValue::Uint(rec.cycles)),
                ("wall_seconds".into(), JsonValue::Num(rec.wall_seconds)),
                ("finished".into(), JsonValue::Uint(finished as u64)),
                ("total".into(), JsonValue::Uint(self.total_jobs as u64)),
                ("cycles_per_sec".into(), JsonValue::Num(rate)),
                ("eta_seconds".into(), JsonValue::Num(eta)),
            ],
        ));
    }

    fn lab_finished(&self, ok: bool) {
        self.sink.emit(&stamped(
            Some("lab_finished"),
            vec![
                ("ok".into(), JsonValue::Bool(ok)),
                (
                    "wall_seconds".into(),
                    JsonValue::Num(self.started.elapsed().as_secs_f64()),
                ),
            ],
        ));
    }
}

/// Expands `spec` and runs every job on a pool of `workers` threads
/// (clamped to `1..=jobs`). Any worker count produces a byte-identical
/// canonical report.
///
/// # Errors
///
/// Errors if the spec expands to no jobs, or any job fails (unknown
/// network/benchmark — normally caught at parse time).
pub fn run_lab(spec: &LabSpec, workers: usize) -> Result<LabReport, String> {
    run_lab_with(spec, workers, None)
}

/// [`run_lab`] with an optional streaming progress sink: per-job
/// lifecycle events (`lab_started`, `job_started`, `job_finished` with
/// rolling cycles/s and ETA, `lab_finished`) are emitted as one JSON
/// object per line. The sink is backpressure-aware — a slow consumer
/// sheds events rather than stalling workers — and purely
/// observational: the canonical report is byte-identical with or
/// without it.
///
/// # Errors
///
/// Same conditions as [`run_lab`].
pub fn run_lab_with(
    spec: &LabSpec,
    workers: usize,
    progress: Option<&EventSink>,
) -> Result<LabReport, String> {
    run_lab_opts(
        spec,
        RunOptions {
            workers,
            progress,
            ..RunOptions::default()
        },
    )
}

/// Everything configurable about one lab execution beyond the spec
/// itself. All of it is harness plumbing — none of these fields can
/// change a canonical bit of the report.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Worker threads (clamped to `1..=jobs`).
    pub workers: usize,
    /// Streaming NDJSON progress sink.
    pub progress: Option<&'a EventSink>,
    /// Open run journal: every finished job is appended, so a killed
    /// run can resume.
    pub journal: Option<&'a Journal>,
    /// Records recovered from a previous run's journal. Their slots are
    /// pre-filled and only the remaining jobs execute; the final report
    /// is byte-identical to an uninterrupted run.
    pub resumed: Vec<JobRecord>,
    /// Cooperative cancellation: when cancelled, in-flight jobs stop at
    /// the watchdog's next gate with a `cancelled` outcome.
    pub cancel: Option<&'a CancelToken>,
    /// Attach a hot-loop phase profiler to every job's network; the
    /// merged breakdown lands in the perf layer only.
    pub profile: bool,
}

/// The full-control entry point: [`run_lab_with`] plus journaling,
/// resume, and cancellation. Every job runs through
/// [`runner::run_job`]: a panicking job records a terminal outcome
/// instead of killing the run.
///
/// # Errors
///
/// If the spec expands to no jobs, a resumed record's index is out of
/// range, or any job fails structurally (unknown network/benchmark).
#[expect(
    clippy::disallowed_methods,
    reason = "wall/speedup metrics for the perf layer; excluded from the canonical report"
)]
pub fn run_lab_opts(spec: &LabSpec, opts: RunOptions<'_>) -> Result<LabReport, String> {
    let jobs = expand(spec);
    if jobs.is_empty() {
        return Err("spec expands to zero jobs".into());
    }
    let wall_start = Instant::now();

    let slots: Vec<Mutex<Option<Result<JobRecord, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    for rec in &opts.resumed {
        let slot = slots.get(rec.index).ok_or_else(|| {
            format!(
                "resumed record for job {} but the spec expands to only {} jobs",
                rec.index,
                jobs.len()
            )
        })?;
        *slot.lock().expect("slot lock") = Some(Ok(rec.clone()));
    }

    // Only the jobs without a resumed record still run.
    let remaining: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| slots[j.index].lock().expect("slot lock").is_none())
        .collect();
    let workers = opts.workers.max(1).min(remaining.len().max(1));

    let progress = opts
        .progress
        .map(|sink| Progress::new(sink, jobs.len(), opts.resumed.len()));
    if let Some(p) = &progress {
        p.lab_started(spec, remaining.len(), workers);
    }

    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = remaining.get(next) else {
                    break;
                };
                if let Some(p) = &progress {
                    p.job_started(job);
                }
                let result = runner::run_job(spec, job, opts.cancel, opts.profile);
                if let Ok(rec) = &result {
                    if let Some(j) = opts.journal {
                        j.append(rec);
                    }
                    if let Some(p) = &progress {
                        p.job_finished(rec);
                    }
                }
                *slots[job.index].lock().expect("slot lock") = Some(result);
            });
        }
    });

    let collect = || -> Result<Vec<JobRecord>, String> {
        let mut records = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let result = slot
                .into_inner()
                .expect("slot lock")
                .unwrap_or_else(|| Err(format!("job {i} never ran")));
            records.push(result.map_err(|e| format!("job {i}: {e}"))?);
        }
        Ok(records)
    };
    let records = collect();
    if let Some(p) = &progress {
        p.lab_finished(records.is_ok());
    }

    Ok(LabReport::new(
        spec.clone(),
        records?,
        workers,
        wall_start.elapsed().as_secs_f64(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> LabSpec {
        LabSpec::parse(
            "name pool-test\nmesh 4x4\nseed 3\nnets optical4 electrical2\n\
             patterns uniform transpose\nrates 0.02 0.04\n\
             warmup 100\nmeasure 300\ndrain 1000\n",
        )
        .unwrap()
    }

    #[test]
    fn parallel_run_matches_serial_byte_for_byte() {
        let spec = small_spec();
        let serial = run_lab(&spec, 1).unwrap();
        let parallel = run_lab(&spec, 8).unwrap();
        assert_eq!(serial.jobs.len(), 8);
        assert_eq!(
            serial.canonical_json().to_string_pretty(),
            parallel.canonical_json().to_string_pretty()
        );
        assert_eq!(serial.workers, 1);
        // Worker count is clamped to the job count.
        assert_eq!(parallel.workers, 8);
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let spec = LabSpec::parse(
            "mesh 4x4\nnets optical4\npatterns uniform\nrates 0.02\n\
             warmup 50\nmeasure 100\ndrain 400\n",
        )
        .unwrap();
        let report = run_lab(&spec, 64).unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn zero_workers_means_one() {
        let spec = LabSpec::parse(
            "mesh 4x4\nnets optical4\npatterns uniform\nrates 0.02\n\
             warmup 50\nmeasure 100\ndrain 400\n",
        )
        .unwrap();
        assert_eq!(run_lab(&spec, 0).unwrap().workers, 1);
    }

    #[test]
    fn records_come_back_in_matrix_order() {
        let report = run_lab(&small_spec(), 4).unwrap();
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    /// Shared-buffer writer so the test can read back what streamed.
    struct Capture(std::sync::Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn progress_stream_is_valid_ndjson_and_leaves_the_report_untouched() {
        let spec = small_spec();
        let silent = run_lab(&spec, 2).unwrap();

        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::new(Box::new(Capture(buf.clone())), EventSink::DEFAULT_CAPACITY);
        let streamed = run_lab_with(&spec, 2, Some(&sink)).unwrap();
        let tally = sink.finish();
        assert_eq!(tally.dropped, 0);
        assert_eq!(tally.write_errors, 0);

        assert_eq!(
            silent.canonical_json().to_string_pretty(),
            streamed.canonical_json().to_string_pretty(),
            "a progress sink must not change a single canonical bit"
        );

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // lab_started + 8 started + 8 finished + lab_finished.
        assert_eq!(lines.len(), 18);
        let mut kinds = Vec::new();
        for line in &lines {
            let v = phastlane_netsim::obs::json::parse(line).expect("each line is one JSON object");
            kinds.push(v.get("event").and_then(|e| e.as_str()).unwrap().to_string());
            assert_eq!(
                v.get("schema_version").and_then(|s| s.as_u64()),
                Some(phastlane_netsim::obs::EVENT_SCHEMA_VERSION),
                "every lifecycle event is schema-stamped: {line}"
            );
        }
        assert_eq!(kinds[0], "lab_started");
        assert_eq!(kinds[lines.len() - 1], "lab_finished");
        assert_eq!(kinds.iter().filter(|k| *k == "job_started").count(), 8);
        assert_eq!(kinds.iter().filter(|k| *k == "job_finished").count(), 8);
        // The last finished event reports full completion.
        let last_done = lines
            .iter()
            .map(|l| phastlane_netsim::obs::json::parse(l).unwrap())
            .rfind(|v| v.get("event").and_then(|e| e.as_str()) == Some("job_finished"))
            .unwrap();
        assert_eq!(last_done.get("finished").and_then(|f| f.as_u64()), Some(8));
        assert_eq!(last_done.get("total").and_then(|t| t.as_u64()), Some(8));
    }

    #[test]
    fn resumed_jobs_count_as_finished_but_not_toward_rate_or_eta() {
        let spec = small_spec();
        let full = run_lab(&spec, 1).unwrap();
        let (resumed, fresh) = full.jobs.split_at(6);

        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::new(Box::new(Capture(buf.clone())), EventSink::DEFAULT_CAPACITY);
        let progress = Progress::new(&sink, full.jobs.len(), resumed.len());
        // Let the session clock move, so a rate or ETA that folds the
        // six recovered jobs in is off by far more than timer jitter.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let before = progress.started.elapsed().as_secs_f64();
        progress.job_finished(&fresh[0]);
        sink.finish();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let event = phastlane_netsim::obs::json::parse(text.trim()).unwrap();
        let num = |key: &str| event.get(key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(event.get("finished").and_then(|f| f.as_u64()), Some(7));
        assert_eq!(event.get("total").and_then(|t| t.as_u64()), Some(8));
        // One job ran this session and one remains: the rate covers that
        // job's cycles alone and the ETA is one job's worth of elapsed.
        assert!(
            num("cycles_per_sec") <= fresh[0].cycles as f64 / before,
            "{text}"
        );
        assert!(num("eta_seconds") >= before, "{text}");
    }

    #[test]
    fn profiled_lab_keeps_canonical_identical_and_surfaces_phases_in_perf() {
        let spec = small_spec();
        let plain = run_lab(&spec, 2).unwrap();
        let profiled = run_lab_opts(
            &spec,
            RunOptions {
                workers: 2,
                profile: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.canonical_json().to_string_pretty(),
            profiled.canonical_json().to_string_pretty(),
            "profiling is observation only"
        );
        assert!(plain.perf_json().get("phases").is_none());
        let merged = profiled
            .merged_phases()
            .expect("profiled jobs carry phases");
        assert!(merged.cycles > 0);
        assert!(merged.sampled_cycles > 0);
        let perf = profiled.perf_json();
        let phases = perf.get("phases").expect("perf carries merged breakdown");
        assert!(phases.get("cycles").and_then(|c| c.as_u64()).unwrap() > 0);
    }
}
