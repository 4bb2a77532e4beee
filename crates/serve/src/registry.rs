//! The job registry: every submitted lab, its lifecycle state, its
//! event fan-out, and — when a state directory is configured — its
//! on-disk persistence, so a restarted server still answers for jobs
//! it ran before the restart.
//!
//! | state-directory file | contents | durability |
//! |---|---|---|
//! | `jobs.log` | one [`journal::frame`]d line per state change: `submitted{id, workers, spec}`, `running{id}`, `finished{id, status, error}` | only `submitted` is synced, before `POST /jobs` answers 202; it is appended under the id lock, so log order is id order |
//! | `job-<id>.report.json` | the canonical report, byte-identical to `lab run` | [`store::write_atomic`] (fsync, rename), done before `finished` is appended |
//! | `job-<id>.journal` | the run journal, appended by the worker | flushed per matrix job |
//!
//! So a job costs two syncs; a lost `finished` only re-runs the job,
//! whose bytes are identical. [`Registry::open`] rebuilds the status it
//! serves from memory by replaying the log up to the first torn or
//! CRC-failing line, truncating it there so the next append starts on a
//! line boundary; `recover` then reads the files beside it.
//!
//! The run journal stays its own file: it is the lab's resume format
//! (`journal::load`, `lab run --resume`), and folding it in would need a
//! second writer for the same records. It is not free: without it the
//! `serve-smalljobs` closed loop ran 5–13 % faster (EXPERIMENTS.md).

use phastlane_lab::journal;
use phastlane_lab::report::JobRecord;
use phastlane_lab::spec::LabSpec;
use phastlane_lab::store;
use phastlane_netsim::obs::json::JsonValue;
use phastlane_netsim::obs::{stamped, EventFanout, FanoutSubscriber};
use phastlane_netsim::watchdog::CancelToken;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lifecycle state of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a pool worker.
    Queued,
    /// A pool worker is simulating it.
    Running,
    /// Finished; the canonical report is available.
    Done,
    /// The run errored (structural failure, not a lost race).
    Failed,
    /// Cancelled before or during the run.
    Cancelled,
}

impl JobStatus {
    /// Wire label used in status JSON and in the job log.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    fn parse(label: &str) -> Option<JobStatus> {
        use JobStatus::*;
        [Queued, Running, Done, Failed, Cancelled]
            .into_iter()
            .find(|s| s.label() == label)
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// One registered job (registry-internal).
struct Job {
    id: u64,
    spec: LabSpec,
    workers: usize,
    status: JobStatus,
    error: Option<String>,
    /// Canonical report bytes, exactly what `lab run --report-out`
    /// writes.
    report: Option<Arc<String>>,
    /// Journal records recovered from a previous process, pre-filled
    /// into the run so finished jobs are not re-simulated.
    resumed: Vec<JobRecord>,
    cancel: CancelToken,
    events: Arc<EventFanout>,
}

impl Job {
    fn queued(id: u64, spec: LabSpec, workers: usize) -> Job {
        Job {
            id,
            spec,
            workers,
            status: JobStatus::Queued,
            error: None,
            report: None,
            resumed: Vec::new(),
            cancel: CancelToken::new(),
            events: EventFanout::with_defaults(),
        }
    }

    fn error_json(&self) -> JsonValue {
        self.error.clone().map_or(JsonValue::Null, JsonValue::Str)
    }
}

/// Everything a pool worker needs to run one job, cloned out of the
/// registry so the lock is never held across a simulation.
pub struct WorkItem {
    /// Job id.
    pub id: u64,
    /// Parsed spec.
    pub spec: LabSpec,
    /// Worker threads for `run_lab_opts`.
    pub workers: usize,
    /// Journal records recovered from a previous process.
    pub resumed: Vec<JobRecord>,
    /// Cooperative cancellation handle (also held by the registry).
    pub cancel: CancelToken,
    /// Event fan-out this job publishes progress to.
    pub events: Arc<EventFanout>,
    /// Where the worker should journal finished jobs, if persistence
    /// is on.
    pub journal_path: Option<PathBuf>,
}

/// `<state-dir>/jobs.log`, open for appending, and its counters.
struct JobLog {
    dir: PathBuf,
    /// The file and the end of its last whole line.
    file: Mutex<(File, u64)>,
    records: AtomicU64,
    /// The log's `sync_data` calls plus the reports written.
    syncs: AtomicU64,
    write_errors: AtomicU64,
}

impl JobLog {
    /// Appends one framed record, `sync_data`ing it when `durable`. A
    /// failure is counted and cuts the file back to its last whole line.
    fn append(&self, kind: &str, body: &JsonValue, durable: bool) -> Result<(), String> {
        let line = journal::frame(kind, body) + "\n";
        let mut guard = self.file.lock().expect("job log lock");
        let (file, len) = &mut *guard;
        let mut wrote = file.write_all(line.as_bytes());
        if durable {
            wrote = wrote.and_then(|()| file.sync_data());
        }
        if let Err(e) = wrote {
            let _ = file.set_len(*len);
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(format!("{}: {e}", self.dir.join("jobs.log").display()));
        }
        *len += line.len() as u64;
        self.records.fetch_add(1, Ordering::Relaxed);
        self.syncs.fetch_add(u64::from(durable), Ordering::Relaxed);
        Ok(())
    }
}

/// Thread-safe registry of all jobs this server knows about.
#[derive(Default)]
pub struct Registry {
    log: Option<JobLog>,
    jobs: Mutex<Vec<Job>>,
    /// The last id issued; 0 before the first.
    last_id: Mutex<u64>,
}

impl Registry {
    /// Opens a registry, replaying `<state_dir>/jobs.log` when a state
    /// directory is given. Returns the registry plus the ids of jobs
    /// that were queued or running when the previous process died and
    /// must be re-enqueued.
    ///
    /// # Errors
    ///
    /// On I/O failure, on a state directory in the layout that predates
    /// the log, or on an intact log record that cannot be replayed.
    pub fn open(state_dir: Option<&Path>) -> Result<(Registry, Vec<u64>), String> {
        let mut reg = Registry::default();
        let Some(dir) = state_dir else {
            return Ok((reg, Vec::new()));
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join("jobs.log");
        let fresh = !path.exists();
        // Ids start at 1: the old layout always wrote a `job-1.spec`.
        if fresh && dir.join("job-1.spec").exists() {
            return Err(format!("{}: pre-log layout (job-<id>.spec)", dir.display()));
        }
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut options = File::options();
        options.read(true).append(true).create(true);
        let mut file = options.open(&path).map_err(io)?;
        if fresh {
            // The entry must be as durable as the first synced submission.
            File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
        }
        // Not to EOF: a device in its place (`/dev/full`) reads forever.
        let len = file.metadata().map_err(io)?.len();
        let mut raw = Vec::new();
        (&mut file).take(len).read_to_end(&mut raw).map_err(io)?;
        let (mut jobs, valid) =
            replay(&raw).map_err(|n| format!("{}: line {n} cannot be replayed", path.display()))?;
        if valid < raw.len() {
            file.set_len(valid as u64).map_err(io)?;
        }
        let requeue = recover(&mut jobs, dir);
        reg.last_id = Mutex::new(jobs.last().map_or(0, |j| j.id));
        reg.jobs = Mutex::new(jobs);
        reg.log = Some(JobLog {
            dir: dir.to_path_buf(),
            file: Mutex::new((file, valid as u64)),
            records: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        });
        Ok((reg, requeue))
    }

    /// Registers a new job as queued and returns its id, appending and
    /// syncing its `submitted` record first when there is a log.
    ///
    /// # Errors
    ///
    /// `cannot persist job: <path>: <err>`; nothing is registered then.
    pub fn submit(&self, spec: LabSpec, workers: usize) -> Result<u64, String> {
        // Held until the push: ids enter the log and `jobs` in order.
        let mut last = self.last_id.lock().expect("id lock");
        let id = *last + 1;
        if let Some(log) = &self.log {
            let body = JsonValue::Obj(vec![
                ("id".into(), JsonValue::Uint(id)),
                ("workers".into(), JsonValue::Uint(workers as u64)),
                ("spec".into(), JsonValue::Str(spec.encode())),
            ]);
            log.append("submitted", &body, true)
                .map_err(|e| format!("cannot persist job: {e}"))?;
        }
        *last = id;
        let job = Job::queued(id, spec, workers);
        self.jobs.lock().expect("registry lock").push(job);
        Ok(id)
    }

    /// Marks a queued job running and clones out what the worker
    /// needs. Returns `None` if the job is gone or no longer queued
    /// (e.g. cancelled while waiting).
    pub fn start(&self, id: u64) -> Option<WorkItem> {
        let mut jobs = self.jobs.lock().expect("registry lock");
        let at = slot(&jobs, id)?;
        let job = &mut jobs[at];
        if job.status != JobStatus::Queued {
            return None;
        }
        job.status = JobStatus::Running;
        let item = WorkItem {
            id,
            spec: job.spec.clone(),
            workers: job.workers,
            resumed: std::mem::take(&mut job.resumed),
            cancel: job.cancel.clone(),
            events: Arc::clone(&job.events),
            journal_path: self.log.as_ref().map(|l| job_file(&l.dir, id, "journal")),
        };
        self.log_change(jobs, at);
        Some(item)
    }

    /// Records the outcome of a run. The report is persisted *before*
    /// `finished` is appended, so a crash between the two re-runs the
    /// job; a report that cannot be persisted fails the job.
    pub fn finish(&self, id: u64, outcome: Result<String, String>, cancelled: bool) {
        let outcome = match (outcome, &self.log) {
            (Ok(canonical), Some(log)) => {
                let path = job_file(&log.dir, id, "report.json");
                store::write_atomic(&path, canonical.as_bytes())
                    .map(|()| {
                        log.syncs.fetch_add(1, Ordering::Relaxed);
                        canonical
                    })
                    .map_err(|e| format!("cannot persist report {e}"))
            }
            (outcome, _) => outcome,
        };
        let mut jobs = self.jobs.lock().expect("registry lock");
        let at = slot(&jobs, id).expect("jobs are never removed");
        let job = &mut jobs[at];
        job.status = match (&outcome, cancelled) {
            (_, true) => JobStatus::Cancelled,
            (Ok(_), false) => JobStatus::Done,
            (Err(_), false) => JobStatus::Failed,
        };
        match outcome {
            Ok(canonical) => job.report = Some(Arc::new(canonical)),
            Err(e) => job.error = Some(e),
        }
        job.events.close();
        self.log_change(jobs, at);
    }

    /// Requests cancellation. A queued job flips straight to
    /// cancelled; a running one gets its token cancelled and lands as
    /// cancelled when the worker reaches the next watchdog gate.
    /// Returns the job's status after the request, or `None` for an
    /// unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let mut jobs = self.jobs.lock().expect("registry lock");
        let at = slot(&jobs, id)?;
        let job = &mut jobs[at];
        job.cancel.cancel();
        if job.status == JobStatus::Queued {
            job.status = JobStatus::Cancelled;
            job.events.close();
            self.log_change(jobs, at);
            return Some(JobStatus::Cancelled);
        }
        Some(job.status)
    }

    /// Cancels every job that is not yet terminal (shutdown path).
    /// Returns the ids that were still live.
    pub fn cancel_all(&self) -> Vec<u64> {
        let live: Vec<u64> = {
            let jobs = self.jobs.lock().expect("registry lock");
            jobs.iter()
                .filter(|j| !j.status.is_terminal())
                .map(|j| j.id)
                .collect()
        };
        for &id in &live {
            self.cancel(id);
        }
        live
    }

    /// Status JSON for one job.
    pub fn status_json(&self, id: u64) -> Option<JsonValue> {
        let jobs = self.jobs.lock().expect("registry lock");
        slot(&jobs, id).map(|at| status_json_of(&jobs[at]))
    }

    /// Status JSON for every job, ascending id.
    pub fn list_json(&self) -> JsonValue {
        let jobs = self.jobs.lock().expect("registry lock");
        stamped(
            None,
            vec![(
                "jobs".into(),
                JsonValue::Arr(jobs.iter().map(status_json_of).collect()),
            )],
        )
    }

    /// The finished job's canonical report bytes, if it has one.
    pub fn report(&self, id: u64) -> Option<Arc<String>> {
        let jobs = self.jobs.lock().expect("registry lock");
        jobs[slot(&jobs, id)?].report.clone()
    }

    /// Subscribes to a job's event stream (replays buffered history).
    /// Returns `None` for an unknown id.
    pub fn subscribe(&self, id: u64) -> Option<FanoutSubscriber> {
        let jobs = self.jobs.lock().expect("registry lock");
        slot(&jobs, id).map(|at| jobs[at].events.subscribe())
    }

    /// `[total, queued, running, done, failed, cancelled]` counts; the
    /// queued one is the bounded-queue measure behind 429 rejections.
    pub fn counts(&self) -> [u64; 6] {
        let jobs = self.jobs.lock().expect("registry lock");
        let mut out = [jobs.len() as u64, 0, 0, 0, 0, 0];
        for j in jobs.iter() {
            // Slots 1 to 5 follow `JobStatus`'s declaration order.
            out[1 + j.status as usize] += 1;
        }
        out
    }

    /// `(published, dropped)` event totals across every job's fan-out.
    pub fn event_totals(&self) -> (u64, u64) {
        let jobs = self.jobs.lock().expect("registry lock");
        jobs.iter().fold((0, 0), |(p, d), j| {
            (p + j.events.published(), d + j.events.dropped())
        })
    }

    /// The job log's `[records, syncs, write_errors]` since this process
    /// opened it (zeros without a state directory).
    pub fn log_counts(&self) -> [u64; 3] {
        let Some(log) = &self.log else { return [0; 3] };
        [&log.records, &log.syncs, &log.write_errors].map(|n| n.load(Ordering::Relaxed))
    }

    /// Appends `running` or `finished` for `jobs[at]`, unsynced, after
    /// releasing the lock; a failure is only counted (it costs a re-run).
    fn log_change(&self, jobs: MutexGuard<'_, Vec<Job>>, at: usize) {
        let Some(log) = &self.log else { return };
        let job = &jobs[at];
        let mut body = vec![("id".into(), JsonValue::Uint(job.id))];
        let terminal = job.status.is_terminal();
        if terminal {
            body.push(("status".into(), JsonValue::Str(job.status.label().into())));
            body.push(("error".into(), job.error_json()));
        }
        drop(jobs);
        let kind = if terminal { "finished" } else { "running" };
        let _ = log.append(kind, &JsonValue::Obj(body), false);
    }
}

fn job_file(dir: &Path, id: u64, suffix: &str) -> PathBuf {
    dir.join(format!("job-{id}.{suffix}"))
}

/// Where job `id` sits in `jobs`. Ids enter in ascending order (log
/// order is id order), so no request scans every job ever seen.
fn slot(jobs: &[Job], id: u64) -> Option<usize> {
    jobs.binary_search_by_key(&id, |j| j.id).ok()
}

fn status_json_of(job: &Job) -> JsonValue {
    stamped(
        None,
        vec![
            ("id".into(), JsonValue::Uint(job.id)),
            ("name".into(), JsonValue::Str(job.spec.name.clone())),
            ("status".into(), JsonValue::Str(job.status.label().into())),
            ("workers".into(), JsonValue::Uint(job.workers as u64)),
            ("error".into(), job.error_json()),
            ("has_report".into(), JsonValue::Bool(job.report.is_some())),
        ],
    )
}

/// Replays the log's whole, intact lines into jobs and returns them with
/// that prefix's length. `Err(n)`: intact line `n` cannot be applied.
fn replay(raw: &[u8]) -> Result<(Vec<Job>, usize), usize> {
    let mut jobs = Vec::new();
    let mut valid = 0;
    for (n, line) in raw.split_inclusive(|&b| b == b'\n').enumerate() {
        let text = line.strip_suffix(b"\n").map(std::str::from_utf8);
        let Some((kind, body)) = text.and_then(Result::ok).and_then(journal::unframe) else {
            break;
        };
        apply(&mut jobs, &kind, &body).ok_or(n + 1)?;
        valid += line.len();
    }
    Ok((jobs, valid))
}

/// Applies one intact log record to the job table.
fn apply(jobs: &mut Vec<Job>, kind: &str, body: &JsonValue) -> Option<()> {
    let [id, workers, spec, status, error] =
        ["id", "workers", "spec", "status", "error"].map(|key| body.get(key));
    let id = id?.as_u64()?;
    if kind == "submitted" && jobs.last().is_none_or(|j| j.id < id) {
        let spec = LabSpec::parse(spec?.as_str()?).ok()?;
        let workers = usize::try_from(workers?.as_u64()?).ok()?.max(1);
        jobs.push(Job::queued(id, spec, workers));
        return Some(());
    }
    let at = slot(jobs, id)?;
    jobs[at].status = match kind {
        "running" => JobStatus::Running,
        "finished" => JobStatus::parse(status?.as_str()?)?,
        _ => return None,
    };
    jobs[at].error = error.and_then(JsonValue::as_str).map(str::to_string);
    Some(())
}

/// Returns the ids to re-enqueue: a `done` job whose report is gone, and
/// `queued` / `running` ones, resumed from their journals if intact.
fn recover(jobs: &mut [Job], dir: &Path) -> Vec<u64> {
    let mut requeue = Vec::new();
    for job in jobs {
        match job.status {
            JobStatus::Done => {
                match std::fs::read_to_string(job_file(dir, job.id, "report.json")) {
                    Ok(report) => job.report = Some(Arc::new(report)),
                    Err(_) => job.status = JobStatus::Queued,
                }
            }
            JobStatus::Failed | JobStatus::Cancelled => {}
            JobStatus::Queued | JobStatus::Running => {
                job.status = JobStatus::Queued;
                match journal::load(&job_file(dir, job.id, "journal")) {
                    Ok(rec) if rec.spec == job.spec.encode() => job.resumed = rec.records,
                    _ => {}
                }
            }
        }
        // A terminal job closed its stream; reopen-as-closed so event
        // subscribers get an immediate, clean end-of-stream.
        if job.status.is_terminal() {
            job.events.close();
        } else {
            requeue.push(job.id);
        }
    }
    requeue
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::obs::EVENT_SCHEMA_VERSION;
    use phastlane_netsim::rng::SimRng;

    fn spec() -> LabSpec {
        LabSpec::parse(
            "name reg-test\nmesh 4x4\nseed 7\nnets optical4\npatterns uniform\n\
             rates 0.02\nwarmup 50\nmeasure 100\ndrain 500\n",
        )
        .unwrap()
    }

    fn temp_state(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phastlane-reg-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn status_of(reg: &Registry, id: u64) -> String {
        let status = reg.status_json(id).unwrap();
        status.get("status").unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let (reg, requeue) = Registry::open(None).unwrap();
        assert!(requeue.is_empty());
        let id = reg.submit(spec(), 2).unwrap();
        assert_eq!(reg.counts()[1], 1);
        let item = reg.start(id).expect("queued job starts");
        assert_eq!(item.workers, 2);
        assert_eq!(reg.counts()[1], 0);
        assert!(reg.start(id).is_none(), "running job cannot start twice");
        reg.finish(id, Ok("{\"x\": 1}\n".into()), false);
        let status = reg.status_json(id).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(
            status.get("schema_version").unwrap().as_u64(),
            Some(EVENT_SCHEMA_VERSION)
        );
        assert_eq!(reg.report(id).unwrap().as_str(), "{\"x\": 1}\n");
        assert_eq!(reg.log_counts(), [0; 3], "no state directory, no log");
    }

    #[test]
    fn cancelling_a_queued_job_is_immediate() {
        let (reg, _) = Registry::open(None).unwrap();
        let id = reg.submit(spec(), 1).unwrap();
        assert_eq!(reg.cancel(id), Some(JobStatus::Cancelled));
        assert!(reg.start(id).is_none(), "cancelled job never starts");
        assert!(reg.cancel(999).is_none(), "unknown id");
    }

    #[test]
    fn cancelling_a_running_job_trips_the_token() {
        let (reg, _) = Registry::open(None).unwrap();
        let id = reg.submit(spec(), 1).unwrap();
        let item = reg.start(id).unwrap();
        assert!(!item.cancel.is_cancelled());
        assert_eq!(reg.cancel(id), Some(JobStatus::Running));
        assert!(item.cancel.is_cancelled(), "worker sees the request");
        reg.finish(id, Err("cancelled".into()), true);
        let status = reg.status_json(id).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("cancelled"));
    }

    #[test]
    fn persisted_done_job_survives_restart() {
        let dir = temp_state("done");
        {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let id = reg.submit(spec(), 2).unwrap();
            reg.start(id).unwrap();
            reg.finish(id, Ok("canonical-bytes\n".into()), false);
            assert_eq!(reg.log_counts(), [3, 2, 0], "3 records, 2 syncs");
        }
        let (reg, requeue) = Registry::open(Some(&dir)).unwrap();
        assert!(requeue.is_empty(), "done jobs are not re-enqueued");
        assert_eq!(reg.report(1).unwrap().as_str(), "canonical-bytes\n");
        let status = reg.status_json(1).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("done"));
        // New submissions continue the id sequence.
        assert_eq!(reg.submit(spec(), 1).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_job_is_requeued_on_restart() {
        let dir = temp_state("requeue");
        {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let id = reg.submit(spec(), 1).unwrap();
            reg.start(id).unwrap();
            // Process dies here: the log's last word is "running".
        }
        let (reg, requeue) = Registry::open(Some(&dir)).unwrap();
        assert_eq!(requeue, vec![1], "interrupted job comes back queued");
        let status = reg.status_json(1).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("queued"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_write_failure_fails_the_job_by_name() {
        let dir = temp_state("report-fail");
        std::fs::create_dir_all(dir.join("job-1.report.json")).unwrap();
        {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let id = reg.submit(spec(), 1).unwrap();
            reg.start(id).unwrap();
            reg.finish(id, Ok("canonical-bytes\n".into()), false);
            assert_eq!(status_of(&reg, id), "failed");
            let error = reg.status_json(id).unwrap();
            let error = error.get("error").unwrap().as_str().unwrap();
            assert!(
                error.starts_with("cannot persist report ") && error.contains("job-1.report.json"),
                "{error}"
            );
            assert!(reg.report(id).is_none(), "GET …/report answers 404");
            assert_eq!(reg.log_counts(), [3, 1, 0], "only the submission synced");
        }
        let (reg, requeue) = Registry::open(Some(&dir)).unwrap();
        assert!(requeue.is_empty());
        assert_eq!(
            status_of(&reg, 1),
            "failed",
            "a restart must not claim done"
        );
        assert!(reg.report(1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_log_layout_is_refused_by_name() {
        let dir = temp_state("pre-log");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("job-1.spec"), spec().encode()).unwrap();
        let err = Registry::open(Some(&dir)).err().expect("refused");
        assert!(err.contains("pre-log layout"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log whose last two records are a submission and its
    /// cancellation, cut at every byte of those two records.
    #[test]
    fn torn_log_tail_at_every_offset_recovers_the_prefix() {
        let dir = temp_state("torn");
        let log_path = dir.join("jobs.log");
        {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let done = reg.submit(spec(), 1).unwrap();
            reg.start(done).unwrap();
            reg.finish(done, Ok("report\n".into()), false);
            let interrupted = reg.submit(spec(), 2).unwrap();
            reg.start(interrupted).unwrap();
        }
        let before = std::fs::metadata(&log_path).unwrap().len() as usize;
        {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let id = reg.submit(spec(), 1).unwrap();
            assert_eq!(reg.cancel(id), Some(JobStatus::Cancelled));
        }
        let full = std::fs::read(&log_path).unwrap();
        let middle = before + full[before..].iter().position(|&b| b == b'\n').unwrap() + 1;
        for cut in before..full.len() {
            std::fs::write(&log_path, &full[..cut]).unwrap();
            let (reg, requeue) = Registry::open(Some(&dir)).unwrap();
            let (boundary, expect) = if cut < middle {
                (before, vec!["done", "queued"])
            } else {
                (middle, vec!["done", "queued", "queued"])
            };
            assert_eq!(
                std::fs::metadata(&log_path).unwrap().len() as usize,
                boundary,
                "cut {cut}: truncated to the last whole line"
            );
            let got: Vec<String> = (1..=expect.len() as u64)
                .map(|id| status_of(&reg, id))
                .collect();
            assert_eq!(got, expect, "cut {cut}");
            assert!(
                reg.status_json(expect.len() as u64 + 1).is_none(),
                "cut {cut}"
            );
            assert_eq!(requeue.len(), expect.len() - 1, "cut {cut}");
            let next = reg.submit(spec(), 1).unwrap();
            drop(reg);
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            assert_eq!(
                status_of(&reg, next),
                "queued",
                "cut {cut}: submit after reopen"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Queued and running both come back as queued after a restart.
    fn as_replayed(list: &JsonValue) -> String {
        list.to_string_compact()
            .replace("\"status\":\"running\"", "\"status\":\"queued\"")
    }

    #[test]
    fn replayed_registry_answers_like_the_live_one() {
        let dir = temp_state("replay");
        let mut rng = SimRng::seed_from_u64(2009);
        let live = {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let mut ids: Vec<u64> = Vec::new();
            for op in 0..200 {
                if ids.is_empty() {
                    ids.push(reg.submit(spec(), 1).unwrap());
                    continue;
                }
                let id = ids[rng.gen_range(0..ids.len())];
                // A worker only ever finishes the job it started.
                let running = status_of(&reg, id) == "running";
                match rng.gen_range(0..6u64) {
                    0 => ids.push(reg.submit(spec(), rng.gen_range(1..4usize)).unwrap()),
                    1 => {
                        reg.start(id);
                    }
                    2 if running => reg.finish(id, Ok(format!("report {op}\n")), false),
                    3 if running => reg.finish(id, Err(format!("error {op}")), false),
                    4 if running => reg.finish(id, Err("cancelled".into()), true),
                    5 => {
                        reg.cancel(id);
                    }
                    _ => {}
                }
            }
            let list = reg.list_json().to_string_compact();
            for label in ["queued", "running", "done", "failed", "cancelled"] {
                assert!(list.contains(&format!("\"{label}\"")), "no {label} job");
            }
            as_replayed(&reg.list_json())
        };
        let (reg, _) = Registry::open(Some(&dir)).unwrap();
        assert_eq!(as_replayed(&reg.list_json()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
