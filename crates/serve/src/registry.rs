//! The job registry: every submitted lab, its lifecycle state, its
//! event fan-out, and — when a state directory is configured — its
//! on-disk persistence, so a restarted server still answers for jobs
//! it ran before the restart.
//!
//! Persistence layout under the state directory (all writes go through
//! [`store::write_atomic`], so readers racing a transition see the old
//! or the new file, never a torn one):
//!
//! | file                  | contents                                  |
//! |-----------------------|-------------------------------------------|
//! | `job-<id>.spec`       | the spec exactly as `LabSpec::encode`s it |
//! | `job-<id>.status.json`| the same status JSON `GET /jobs/<id>` serves |
//! | `job-<id>.report.json`| the canonical report, byte-identical to `lab run` |
//! | `job-<id>.journal`    | the run journal (written by the worker)   |
//!
//! On [`Registry::open`] the directory is scanned: finished jobs come
//! back queryable, and jobs that were queued or running when the
//! process died are re-enqueued with their journal records pre-filled,
//! so already-finished cycles are not re-simulated.

use phastlane_lab::journal;
use phastlane_lab::report::JobRecord;
use phastlane_lab::spec::LabSpec;
use phastlane_lab::store;
use phastlane_netsim::obs::json::JsonValue;
use phastlane_netsim::obs::{EventFanout, FanoutSubscriber, EVENT_SCHEMA_VERSION};
use phastlane_netsim::watchdog::CancelToken;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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
    /// Wire label used in status JSON and persisted status files.
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
        Some(match label {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "done" => JobStatus::Done,
            "failed" => JobStatus::Failed,
            "cancelled" => JobStatus::Cancelled,
            _ => return None,
        })
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled
        )
    }
}

/// One registered job (registry-internal).
struct Job {
    id: u64,
    spec: LabSpec,
    spec_text: String,
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

/// Thread-safe registry of all jobs this server knows about.
pub struct Registry {
    state_dir: Option<PathBuf>,
    jobs: Mutex<Vec<Job>>,
    next_id: Mutex<u64>,
}

impl Registry {
    /// Opens a registry, recovering persisted jobs from `state_dir`
    /// when one is given. Returns the registry plus the ids of jobs
    /// that were queued or running when the previous process died and
    /// must be re-enqueued.
    ///
    /// # Errors
    ///
    /// If the state directory cannot be created or scanned. Individual
    /// unreadable job files degrade to a fresh re-run, not an error.
    pub fn open(state_dir: Option<&Path>) -> Result<(Registry, Vec<u64>), String> {
        let reg = Registry {
            state_dir: state_dir.map(Path::to_path_buf),
            jobs: Mutex::new(Vec::new()),
            next_id: Mutex::new(1),
        };
        let Some(dir) = state_dir else {
            return Ok((reg, Vec::new()));
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("job-")
                .and_then(|s| s.strip_suffix(".spec"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut requeue = Vec::new();
        for id in ids {
            match recover_job(dir, id) {
                Some(job) => {
                    if job.status == JobStatus::Queued {
                        requeue.push(id);
                    }
                    reg.jobs.lock().expect("registry lock").push(job);
                    let mut next = reg.next_id.lock().expect("id lock");
                    *next = (*next).max(id + 1);
                }
                None => continue,
            }
        }
        Ok((reg, requeue))
    }

    /// Registers a new job as queued, persisting its spec and status.
    /// Returns the assigned id.
    pub fn submit(&self, spec: LabSpec, workers: usize) -> u64 {
        // Held until the push, so ids enter `jobs` in ascending order
        // (what `slot` searches by) whoever the callers are.
        let mut next = self.next_id.lock().expect("id lock");
        let id = *next;
        *next += 1;
        let job = Job {
            id,
            spec_text: spec.encode(),
            spec,
            workers,
            status: JobStatus::Queued,
            error: None,
            report: None,
            resumed: Vec::new(),
            cancel: CancelToken::new(),
            events: EventFanout::with_defaults(),
        };
        self.persist_spec(&job);
        self.persist_status(&job);
        self.jobs.lock().expect("registry lock").push(job);
        id
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
            journal_path: self.journal_path(id),
        };
        let status = status_json_of(job);
        let path = self.status_path(id);
        drop(jobs);
        persist_json(path, &status);
        Some(item)
    }

    /// Records the outcome of a run. On success the canonical report
    /// bytes are persisted *before* the status flips to done, so a
    /// crash between the two writes re-runs the job instead of serving
    /// a missing report.
    pub fn finish(&self, id: u64, outcome: Result<String, String>, cancelled: bool) {
        let report_path = self.report_path(id);
        let mut jobs = self.jobs.lock().expect("registry lock");
        let Some(at) = slot(&jobs, id) else {
            return;
        };
        let job = &mut jobs[at];
        match outcome {
            Ok(canonical) => {
                if let Some(path) = &report_path {
                    let _ = store::write_atomic(path, canonical.as_bytes());
                }
                job.report = Some(Arc::new(canonical));
                job.status = if cancelled {
                    JobStatus::Cancelled
                } else {
                    JobStatus::Done
                };
            }
            Err(e) => {
                job.status = if cancelled {
                    JobStatus::Cancelled
                } else {
                    JobStatus::Failed
                };
                job.error = Some(e);
            }
        }
        job.events.close();
        let status = status_json_of(job);
        let path = self.status_path(id);
        drop(jobs);
        persist_json(path, &status);
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
            let status = status_json_of(job);
            let after = job.status;
            let path = self.status_path(id);
            drop(jobs);
            persist_json(path, &status);
            return Some(after);
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

    /// Status JSON for one job — the same shape that gets persisted.
    pub fn status_json(&self, id: u64) -> Option<JsonValue> {
        let jobs = self.jobs.lock().expect("registry lock");
        slot(&jobs, id).map(|at| status_json_of(&jobs[at]))
    }

    /// Status JSON for every job, ascending id.
    pub fn list_json(&self) -> JsonValue {
        let jobs = self.jobs.lock().expect("registry lock");
        JsonValue::Obj(vec![
            (
                "schema_version".into(),
                JsonValue::Uint(EVENT_SCHEMA_VERSION),
            ),
            (
                "jobs".into(),
                JsonValue::Arr(jobs.iter().map(status_json_of).collect()),
            ),
        ])
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

    /// Jobs currently waiting for a worker (the bounded-queue measure
    /// behind 429 rejections).
    pub fn queued_count(&self) -> usize {
        let jobs = self.jobs.lock().expect("registry lock");
        jobs.iter()
            .filter(|j| j.status == JobStatus::Queued)
            .count()
    }

    /// Whether any job is not yet terminal.
    pub fn has_live_jobs(&self) -> bool {
        let jobs = self.jobs.lock().expect("registry lock");
        jobs.iter().any(|j| !j.status.is_terminal())
    }

    /// `(total, queued, running, done, failed, cancelled)` counts.
    pub fn counts(&self) -> [u64; 6] {
        let jobs = self.jobs.lock().expect("registry lock");
        let mut out = [jobs.len() as u64, 0, 0, 0, 0, 0];
        for j in jobs.iter() {
            let slot = match j.status {
                JobStatus::Queued => 1,
                JobStatus::Running => 2,
                JobStatus::Done => 3,
                JobStatus::Failed => 4,
                JobStatus::Cancelled => 5,
            };
            out[slot] += 1;
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

    fn state_file(&self, id: u64, suffix: &str) -> Option<PathBuf> {
        self.state_dir
            .as_ref()
            .map(|d| d.join(format!("job-{id}.{suffix}")))
    }

    fn status_path(&self, id: u64) -> Option<PathBuf> {
        self.state_file(id, "status.json")
    }

    fn report_path(&self, id: u64) -> Option<PathBuf> {
        self.state_file(id, "report.json")
    }

    /// Journal path for a job (where the worker appends records).
    pub fn journal_path(&self, id: u64) -> Option<PathBuf> {
        self.state_file(id, "journal")
    }

    fn persist_spec(&self, job: &Job) {
        if let Some(path) = self.state_file(job.id, "spec") {
            let _ = store::write_atomic(&path, job.spec_text.as_bytes());
        }
    }

    fn persist_status(&self, job: &Job) {
        persist_json(self.status_path(job.id), &status_json_of(job));
    }
}

/// Where job `id` sits in `jobs`. Ids enter in ascending order —
/// recovery sorts them, `submit` issues them under the lock it pushes
/// under — so no request scans every job the server has ever seen.
fn slot(jobs: &[Job], id: u64) -> Option<usize> {
    jobs.binary_search_by_key(&id, |j| j.id).ok()
}

fn persist_json(path: Option<PathBuf>, json: &JsonValue) {
    if let Some(path) = path {
        let _ = store::write_atomic(&path, json.to_string_pretty().as_bytes());
    }
}

fn status_json_of(job: &Job) -> JsonValue {
    JsonValue::Obj(vec![
        (
            "schema_version".into(),
            JsonValue::Uint(EVENT_SCHEMA_VERSION),
        ),
        ("id".into(), JsonValue::Uint(job.id)),
        ("name".into(), JsonValue::Str(job.spec.name.clone())),
        ("status".into(), JsonValue::Str(job.status.label().into())),
        ("workers".into(), JsonValue::Uint(job.workers as u64)),
        (
            "error".into(),
            match &job.error {
                Some(e) => JsonValue::Str(e.clone()),
                None => JsonValue::Null,
            },
        ),
        ("has_report".into(), JsonValue::Bool(job.report.is_some())),
    ])
}

/// Rebuilds one job from its persisted files. Unreadable or
/// inconsistent files degrade toward "run it again": a job claimed
/// done without a readable report is re-queued, and a journal that no
/// longer matches the spec is ignored.
fn recover_job(dir: &Path, id: u64) -> Option<Job> {
    let spec_text = std::fs::read_to_string(dir.join(format!("job-{id}.spec"))).ok()?;
    let spec = LabSpec::parse(&spec_text).ok()?;
    let status_path = dir.join(format!("job-{id}.status.json"));
    let persisted = std::fs::read_to_string(&status_path)
        .ok()
        .and_then(|text| phastlane_netsim::obs::json::parse(&text).ok());
    let status = persisted
        .as_ref()
        .and_then(|v| v.get("status"))
        .and_then(JsonValue::as_str)
        .and_then(JobStatus::parse)
        .unwrap_or(JobStatus::Queued);
    let workers = persisted
        .as_ref()
        .and_then(|v| v.get("workers"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(1) as usize;
    let error = persisted
        .as_ref()
        .and_then(|v| v.get("error"))
        .and_then(JsonValue::as_str)
        .map(str::to_string);

    let mut job = Job {
        id,
        spec,
        spec_text,
        workers: workers.max(1),
        status,
        error,
        report: None,
        resumed: Vec::new(),
        cancel: CancelToken::new(),
        events: EventFanout::with_defaults(),
    };

    match job.status {
        JobStatus::Done => {
            match std::fs::read_to_string(dir.join(format!("job-{id}.report.json"))) {
                Ok(report) => job.report = Some(Arc::new(report)),
                // Status says done but the report is gone: re-run.
                Err(_) => job.status = JobStatus::Queued,
            }
        }
        JobStatus::Failed | JobStatus::Cancelled => {}
        JobStatus::Queued | JobStatus::Running => {
            // Interrupted mid-flight: resume from the journal if it is
            // intact and still matches the spec.
            job.status = JobStatus::Queued;
            let journal_path = dir.join(format!("job-{id}.journal"));
            if journal_path.exists() {
                if let Ok(rec) = journal::load(&journal_path) {
                    if rec.spec == job.spec_text {
                        job.resumed = rec.records;
                    }
                }
            }
        }
    }
    // A terminal job closed its stream; reopen-as-closed so event
    // subscribers get an immediate, clean end-of-stream.
    if job.status.is_terminal() {
        job.events.close();
    }
    Some(job)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LabSpec {
        LabSpec::parse(
            "name reg-test\nmesh 4x4\nseed 7\nnets optical4\npatterns uniform\n\
             rates 0.02\nwarmup 50\nmeasure 100\ndrain 500\n",
        )
        .unwrap()
    }

    #[test]
    fn lifecycle_queued_running_done() {
        let (reg, requeue) = Registry::open(None).unwrap();
        assert!(requeue.is_empty());
        let id = reg.submit(spec(), 2);
        assert_eq!(reg.queued_count(), 1);
        let item = reg.start(id).expect("queued job starts");
        assert_eq!(item.workers, 2);
        assert_eq!(reg.queued_count(), 0);
        assert!(reg.start(id).is_none(), "running job cannot start twice");
        reg.finish(id, Ok("{\"x\": 1}\n".into()), false);
        let status = reg.status_json(id).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(
            status.get("schema_version").unwrap().as_u64(),
            Some(EVENT_SCHEMA_VERSION)
        );
        assert_eq!(reg.report(id).unwrap().as_str(), "{\"x\": 1}\n");
    }

    #[test]
    fn cancelling_a_queued_job_is_immediate() {
        let (reg, _) = Registry::open(None).unwrap();
        let id = reg.submit(spec(), 1);
        assert_eq!(reg.cancel(id), Some(JobStatus::Cancelled));
        assert!(reg.start(id).is_none(), "cancelled job never starts");
        assert!(reg.cancel(999).is_none(), "unknown id");
    }

    #[test]
    fn cancelling_a_running_job_trips_the_token() {
        let (reg, _) = Registry::open(None).unwrap();
        let id = reg.submit(spec(), 1);
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
        let dir =
            std::env::temp_dir().join(format!("phastlane-reg-{}-{}", std::process::id(), "done"));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let id = reg.submit(spec(), 2);
            reg.start(id).unwrap();
            reg.finish(id, Ok("canonical-bytes\n".into()), false);
        }
        let (reg, requeue) = Registry::open(Some(&dir)).unwrap();
        assert!(requeue.is_empty(), "done jobs are not re-enqueued");
        assert_eq!(reg.report(1).unwrap().as_str(), "canonical-bytes\n");
        let status = reg.status_json(1).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("done"));
        // New submissions continue the id sequence.
        assert_eq!(reg.submit(spec(), 1), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_job_is_requeued_on_restart() {
        let dir = std::env::temp_dir().join(format!(
            "phastlane-reg-{}-{}",
            std::process::id(),
            "requeue"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (reg, _) = Registry::open(Some(&dir)).unwrap();
            let id = reg.submit(spec(), 1);
            reg.start(id).unwrap();
            // Process dies here: status file says "running".
        }
        let (reg, requeue) = Registry::open(Some(&dir)).unwrap();
        assert_eq!(requeue, vec![1], "interrupted job comes back queued");
        let status = reg.status_json(1).unwrap();
        assert_eq!(status.get("status").unwrap().as_str(), Some("queued"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
