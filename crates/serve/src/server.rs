//! The job server: a blocking accept loop, a bounded job queue, a
//! persistent worker pool, and the route table tying HTTP paths to the
//! registry, the event fan-outs, and the baseline store.
//!
//! Threading model (documented in DESIGN.md §Serving layer). Every
//! thread sleeps in a blocking wait that the event it is waiting for —
//! or shutdown — ends; none wakes on a timer:
//!
//! * **accept thread** — blocks in `accept()`, spawns one short-lived
//!   handler thread per connection (one request per connection, so
//!   there is no keep-alive state to manage); shutdown wakes it with a
//!   loopback connection to its own port;
//! * **worker pool** — `workers` threads blocking on a condvar'd
//!   `VecDeque<job id>`; each pops an id, runs the lab through the
//!   exact same `run_lab_opts` entry point the CLI uses, and records
//!   the canonical result;
//! * **handler threads** — parse, route, respond, exit. Event-stream
//!   handlers live as long as their subscriber, blocked in the
//!   fan-out's `wait`; a slow or wedged consumer sheds events in its
//!   own bounded queue and never blocks a worker.
//!
//! Determinism contract: the canonical report served for a job is the
//! byte-for-byte output of `LabReport::canonical_json().to_string_pretty()`
//! — the same bytes `phastlane lab run --report-out` writes — no matter
//! how many sessions are submitting, watching, or polling concurrently.

use crate::http;
use crate::registry::{Registry, WorkItem};
use phastlane_lab::journal::Journal;
use phastlane_lab::scheduler::{run_lab_opts, RunOptions};
use phastlane_lab::spec::LabSpec;
use phastlane_lab::store::{self, StoreError};
use phastlane_netsim::obs::json::{self, JsonValue};
use phastlane_netsim::obs::{stamped, EventSink, FanoutClosed};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop backs off after `accept()` itself fails
/// (out of descriptors, say), so a persistent error cannot spin it.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// Server socket read timeout (a stalled peer cannot pin a handler).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Server socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything configurable about one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7690` (`:0` picks a free port).
    pub addr: String,
    /// Worker-pool threads (concurrent jobs), clamped to ≥ 1.
    pub workers: usize,
    /// Most jobs allowed to wait in the queue; submissions beyond it
    /// are rejected with `429`.
    pub queue_depth: usize,
    /// Directory the baseline endpoints read from.
    pub baseline_dir: PathBuf,
    /// Directory for job persistence; `None` disables persistence.
    pub state_dir: Option<PathBuf>,
    /// Whether `POST /shutdown` is honoured (CI and tests); without it
    /// the endpoint answers `403` and only signals stop the server.
    pub allow_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
            baseline_dir: PathBuf::from("results/baselines"),
            state_dir: None,
            allow_shutdown: false,
        }
    }
}

/// State shared by the accept loop, handlers, and the worker pool.
struct Shared {
    registry: Registry,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    queue_depth: usize,
    baseline_dir: PathBuf,
    allow_shutdown: bool,
    /// Only ever set while holding `queue`: a worker that found the
    /// queue empty and the flag clear is inside `queue_cv.wait` before
    /// the flag can flip, so the notify cannot slip past it, and a
    /// submission that saw it clear was queued before any worker left.
    shutdown: AtomicBool,
    /// Where a loopback connection reaches the listener.
    wake_addr: SocketAddr,
    rejected: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Stops admissions, wakes every parked thread, and cancels every
    /// live job (which closes its fan-out, ending its event streams).
    /// Idempotent.
    fn request_shutdown(&self) {
        let first = {
            let _q = self.queue.lock().expect("queue lock");
            let first = !self.shutdown.swap(true, Ordering::AcqRel);
            self.queue_cv.notify_all();
            first
        };
        if first {
            // The accept thread is parked in `accept()`: hand it a
            // connection. It carries no bytes, so its handler reads EOF
            // and answers nothing. A failed dial is fine — see
            // `accept_loop`.
            let _ = TcpStream::connect(self.wake_addr);
        }
        self.registry.cancel_all();
    }
}

/// Final accounting returned by [`ServerHandle::join`].
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// `[total, queued, running, done, failed, cancelled]` job counts
    /// at shutdown.
    pub jobs: [u64; 6],
    /// Submissions rejected with `429`.
    pub rejected: u64,
}

/// A running server: its bound address plus the handles needed to stop
/// it and reap its threads.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: String,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Asks the server to stop: no new jobs are accepted, queued jobs
    /// are cancelled, and in-flight runs are cancelled cooperatively.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Whether a shutdown was requested (by signal, endpoint, or
    /// [`request_shutdown`](ServerHandle::request_shutdown)).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Stops the server (idempotent with
    /// [`request_shutdown`](ServerHandle::request_shutdown)), waits for
    /// the accept loop and every worker to exit, and returns the final
    /// accounting. Every transition was appended to the job log as it
    /// happened, so nothing extra needs flushing here.
    pub fn join(self) -> ServeSummary {
        self.request_shutdown();
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        ServeSummary {
            jobs: self.shared.registry.counts(),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
        }
    }
}

/// Binds, recovers persisted jobs, starts the pool, and begins
/// accepting connections.
///
/// # Errors
///
/// If the address cannot be bound or the state directory cannot be
/// opened.
pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    let local_addr = bound.to_string();
    // A listener on the unspecified address is dialled through loopback.
    let mut wake_addr = bound;
    if bound.ip().is_unspecified() {
        wake_addr.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }

    let (registry, requeue) = Registry::open(config.state_dir.as_deref())?;
    let shared = Arc::new(Shared {
        registry,
        queue: Mutex::new(requeue.into_iter().collect()),
        queue_cv: Condvar::new(),
        queue_depth: config.queue_depth.max(1),
        baseline_dir: config.baseline_dir.clone(),
        allow_shutdown: config.allow_shutdown,
        shutdown: AtomicBool::new(false),
        wake_addr,
        rejected: AtomicU64::new(0),
    });

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };

    Ok(ServerHandle {
        shared,
        local_addr,
        accept,
        workers,
    })
}

/// Blocks in `accept()`, handing each connection to its own short-lived
/// thread. A signal cannot end the wait — glibc installs handlers with
/// `SA_RESTART`, so `accept` simply resumes after the handler ran — so
/// the call that flips the shutdown flag dials the listener instead.
/// The flag is re-checked after *every* accept, never before one: the
/// dial only has to succeed while this thread is parked, which is while
/// the backlog is empty; if the backlog is so full that the dial is
/// refused, the accepts draining it see the flag on their own. And the
/// connection just accepted is always handled first, so a real client
/// that raced the wake-up is answered, not reset.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(&shared, stream));
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
        if shared.shutting_down() {
            return;
        }
    }
}

/// One pool worker: pop a job id, run it, repeat until shutdown.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(id) = q.pop_front() {
                    break Some(id);
                }
                if shared.shutting_down() {
                    break None;
                }
                q = shared.queue_cv.wait(q).expect("queue lock");
            }
        };
        match id {
            Some(id) => run_job(shared, id),
            None => return,
        }
    }
}

/// Runs one job through the same entry point the CLI uses. Progress
/// flows through an [`EventSink`] publishing straight into the job's
/// fan-out, so each line is serialised once and queued once per
/// watcher; the registry, not the sink, closes the fan-out once the
/// status is terminal. None of the attached plumbing (sink, journal,
/// cancel token) can change a canonical bit of the report.
fn run_job(shared: &Shared, id: u64) {
    // A job cancelled while queued answers `start` with None.
    let Some(item) = shared.registry.start(id) else {
        return;
    };
    let WorkItem {
        spec,
        workers,
        resumed,
        cancel,
        events,
        journal_path,
        ..
    } = item;

    let sink = EventSink::publishing(events);
    let journal = journal_path
        .as_deref()
        .and_then(|p| Journal::create(p, &spec).ok());
    if let Some(j) = &journal {
        // Re-pin recovered records so the journal stays complete if
        // this process also dies mid-run.
        for rec in &resumed {
            j.append(rec);
        }
    }

    let result = run_lab_opts(
        &spec,
        RunOptions {
            workers,
            progress: Some(&sink),
            journal: journal.as_ref(),
            resumed,
            cancel: Some(&cancel),
            profile: false,
        },
    );

    let cancelled = cancel.is_cancelled();
    let outcome = result.map(|report| report.canonical_json().to_string_pretty());
    shared.registry.finish(id, outcome, cancelled);
}

/// Reads, routes, and answers one request, then closes the connection.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    match http::read_request(&mut reader) {
        Ok(Some(req)) => route(shared, &req, &mut writer),
        Ok(None) => {}
        Err(e) => {
            let _ = http::respond(
                &mut writer,
                400,
                "application/json",
                error_body(&e).as_bytes(),
            );
        }
    }
}

/// A one-field JSON error payload.
fn error_body(message: &str) -> String {
    stamped(None, vec![("error".into(), JsonValue::Str(message.into()))]).to_string_pretty()
}

fn respond_json(w: &mut impl Write, status: u16, body: &JsonValue) {
    let _ = http::respond(
        w,
        status,
        "application/json",
        body.to_string_pretty().as_bytes(),
    );
}

fn respond_error(w: &mut impl Write, status: u16, message: &str) {
    let _ = http::respond(
        w,
        status,
        "application/json",
        error_body(message).as_bytes(),
    );
}

/// The route table.
fn route(shared: &Arc<Shared>, req: &http::Request, w: &mut impl Write) {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit_job(shared, &req.body, w),
        ("GET", ["jobs"]) => respond_json(w, 200, &shared.registry.list_json()),
        ("GET", ["jobs", id]) => {
            match parse_id(id).and_then(|id| shared.registry.status_json(id)) {
                Some(status) => respond_json(w, 200, &status),
                None => respond_error(w, 404, "no such job"),
            }
        }
        ("GET", ["jobs", id, "report"]) => {
            match parse_id(id).and_then(|id| shared.registry.report(id)) {
                // The exact canonical bytes `lab run --report-out`
                // writes — this is what CI `cmp`s.
                Some(report) => {
                    let _ = http::respond(w, 200, "application/json", report.as_bytes());
                }
                None => respond_error(w, 404, "report not available"),
            }
        }
        ("GET", ["jobs", id, "events"]) => stream_events(shared, parse_id(id), w),
        ("POST", ["jobs", id, "cancel"]) => {
            match parse_id(id).and_then(|id| shared.registry.cancel(id).map(|s| (id, s))) {
                Some((id, status)) => respond_json(
                    w,
                    200,
                    &stamped(
                        None,
                        vec![
                            ("id".into(), JsonValue::Uint(id)),
                            ("status".into(), JsonValue::Str(status.label().into())),
                        ],
                    ),
                ),
                None => respond_error(w, 404, "no such job"),
            }
        }
        ("GET", ["baselines"]) => list_baselines(shared, w),
        ("GET", ["baselines", name]) => read_baseline(shared, name, w),
        ("GET", ["healthz"]) => respond_json(
            w,
            200,
            &stamped(None, vec![("status".into(), JsonValue::Str("ok".into()))]),
        ),
        ("GET", ["statsz"]) => respond_json(w, 200, &stats_json(shared)),
        ("POST", ["shutdown"]) => {
            if shared.allow_shutdown {
                shared.request_shutdown();
                respond_json(
                    w,
                    200,
                    &stamped(
                        None,
                        vec![("status".into(), JsonValue::Str("shutting_down".into()))],
                    ),
                );
            } else {
                respond_error(w, 403, "shutdown endpoint disabled; send SIGTERM instead");
            }
        }
        ("GET" | "POST", _) => respond_error(w, 404, "no such route"),
        _ => respond_error(w, 405, "method not allowed"),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// `POST /jobs`: body is either a raw lab spec or a JSON envelope
/// `{"spec": "...", "workers": N}`. The spec must parse *and* pass the
/// static preflight — a statically doomed spec is a client error, not
/// a queued failure.
fn submit_job(shared: &Shared, body: &[u8], w: &mut impl Write) {
    let Ok(text) = std::str::from_utf8(body) else {
        return respond_error(w, 400, "body is not UTF-8");
    };
    let (spec_text, workers) = if text.trim_start().starts_with('{') {
        let parsed = match json::parse(text) {
            Ok(v) => v,
            Err(e) => return respond_error(w, 400, &format!("bad JSON envelope: {e:?}")),
        };
        let Some(spec) = parsed.get("spec").and_then(JsonValue::as_str) else {
            return respond_error(w, 400, "JSON envelope is missing a \"spec\" string");
        };
        let workers = parsed
            .get("workers")
            .and_then(JsonValue::as_u64)
            .unwrap_or(1) as usize;
        (spec.to_string(), workers)
    } else {
        (text.to_string(), 1)
    };
    let spec = match LabSpec::parse(&spec_text) {
        Ok(s) => s,
        Err(e) => return respond_error(w, 400, &format!("bad spec: {e}")),
    };
    if let Err(e) = phastlane_analyze::preflight(&spec) {
        return respond_error(w, 400, &format!("preflight failed: {e}"));
    }
    // Shutdown check, depth check and submit under the queue lock:
    // concurrent submissions cannot both squeeze into the last slot, and
    // one admitted here is in the registry before shutdown's
    // `cancel_all` and in the queue before any worker leaves, so every
    // 202'd id is run or cancelled.
    let id = {
        let mut q = shared.queue.lock().expect("queue lock");
        if shared.shutting_down() {
            drop(q);
            return respond_error(w, 503, "server is shutting down");
        }
        let [_, queued, ..] = shared.registry.counts();
        if queued >= shared.queue_depth as u64 {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            drop(q);
            return respond_error(w, 429, "job queue is full, retry later");
        }
        let id = match shared.registry.submit(spec, workers.max(1)) {
            Ok(id) => id,
            Err(e) => {
                drop(q);
                return respond_error(w, 500, &e);
            }
        };
        q.push_back(id);
        shared.queue_cv.notify_one();
        id
    };
    respond_json(
        w,
        202,
        &stamped(
            None,
            vec![
                ("id".into(), JsonValue::Uint(id)),
                ("status".into(), JsonValue::Str("queued".into())),
            ],
        ),
    );
}

/// `GET /jobs/<id>/events`: a chunked NDJSON stream. The handler only
/// ever waits on the subscriber's own bounded queue — backpressure from
/// this socket sheds events for this subscriber alone and is reported
/// in the terminal `stream_end` line.
fn stream_events(shared: &Shared, id: Option<u64>, w: &mut impl Write) {
    let Some(sub) = id.and_then(|id| shared.registry.subscribe(id)) else {
        return respond_error(w, 404, "no such job");
    };
    if http::start_chunked(w, 200, "application/x-ndjson").is_err() {
        return;
    }
    loop {
        match sub.wait() {
            Ok(lines) => {
                let mut chunk = String::new();
                for line in lines {
                    chunk.push_str(&line);
                    chunk.push('\n');
                }
                if http::write_chunk(w, chunk.as_bytes()).is_err() {
                    return; // peer went away; subscriber drops on return
                }
            }
            Err(FanoutClosed { dropped }) => {
                let end = stamped(
                    Some("stream_end"),
                    vec![("dropped".into(), JsonValue::Uint(dropped))],
                );
                let mut line = end.to_string_compact();
                line.push('\n');
                let _ = http::write_chunk(w, line.as_bytes());
                let _ = http::end_chunked(w);
                return;
            }
        }
    }
}

/// `GET /baselines`: the recorded baseline names, sorted.
fn list_baselines(shared: &Shared, w: &mut impl Write) {
    let mut names = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&shared.baseline_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".json") {
                names.push(stem.to_string());
            }
        }
    }
    names.sort();
    respond_json(
        w,
        200,
        &stamped(
            None,
            vec![(
                "baselines".into(),
                JsonValue::Arr(names.into_iter().map(JsonValue::Str).collect()),
            )],
        ),
    );
}

/// `GET /baselines/<name>`: the verified baseline payload. The
/// checksum frame is validated on every read, so a torn or bit-rotted
/// file answers `500`, never garbage.
fn read_baseline(shared: &Shared, name: &str, w: &mut impl Write) {
    if name.is_empty() || name.contains(['/', '\\']) || name.contains("..") {
        return respond_error(w, 400, "invalid baseline name");
    }
    let path = shared.baseline_dir.join(format!("{name}.json"));
    match store::read_checksummed(&path) {
        Ok(payload) => {
            let _ = http::respond(w, 200, "application/json", payload.as_bytes());
        }
        Err(StoreError::Missing(_)) => respond_error(w, 404, "no such baseline"),
        Err(e) => respond_error(w, 500, &format!("baseline unreadable: {e}")),
    }
}

/// `GET /statsz`: queue, job, rejection, event-delivery and job-log
/// counters.
fn stats_json(shared: &Shared) -> JsonValue {
    let [total, queued, running, done, failed, cancelled] = shared.registry.counts();
    let (published, dropped) = shared.registry.event_totals();
    let [records, syncs, write_errors] = shared.registry.log_counts();
    stamped(
        None,
        vec![
            (
                "jobs".into(),
                JsonValue::Obj(vec![
                    ("total".into(), JsonValue::Uint(total)),
                    ("queued".into(), JsonValue::Uint(queued)),
                    ("running".into(), JsonValue::Uint(running)),
                    ("done".into(), JsonValue::Uint(done)),
                    ("failed".into(), JsonValue::Uint(failed)),
                    ("cancelled".into(), JsonValue::Uint(cancelled)),
                ]),
            ),
            (
                "queue_depth".into(),
                JsonValue::Uint(shared.queue_depth as u64),
            ),
            (
                "rejected".into(),
                JsonValue::Uint(shared.rejected.load(Ordering::Relaxed)),
            ),
            (
                "events".into(),
                JsonValue::Obj(vec![
                    ("published".into(), JsonValue::Uint(published)),
                    ("dropped".into(), JsonValue::Uint(dropped)),
                ]),
            ),
            (
                "log".into(),
                JsonValue::Obj(vec![
                    ("records".into(), JsonValue::Uint(records)),
                    ("syncs".into(), JsonValue::Uint(syncs)),
                    ("write_errors".into(), JsonValue::Uint(write_errors)),
                ]),
            ),
            (
                "shutting_down".into(),
                JsonValue::Bool(shared.shutting_down()),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use phastlane_netsim::obs::EVENT_SCHEMA_VERSION;
    use std::io::Read;
    use std::sync::mpsc;
    use std::time::Instant;

    /// How long a test waits for something that must happen at once; a
    /// lost wake-up fails here instead of hanging the suite.
    const PROMPT: Duration = Duration::from_secs(5);

    /// One optical cell on a 4x4 mesh: a few milliseconds of work.
    const SMALL_SPEC: &str = "name serve-small\nmesh 4x4\nseed 7\nnets optical4\n\
                              patterns uniform\nrates 0.02\nwarmup 50\nmeasure 100\ndrain 500\n";

    fn test_server(config: ServerConfig) -> ServerHandle {
        start(config).expect("server starts")
    }

    /// `join`, failing the test if it does not return promptly.
    fn join_promptly(handle: ServerHandle) -> ServeSummary {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(handle.join()));
        rx.recv_timeout(PROMPT)
            .expect("join returns: every parked thread was woken")
    }

    /// Follows a job's event stream; whether it ended in `stream_end`.
    fn follow_to_stream_end(addr: &str, id: u64) -> bool {
        let mut ended = false;
        let status = client::stream(addr, &format!("/jobs/{id}/events"), |line| {
            ended |= line.contains("\"stream_end\"");
        })
        .expect("event stream");
        status == 200 && ended
    }

    fn id_of(body: &[u8]) -> u64 {
        json::parse(std::str::from_utf8(body).expect("utf-8 body"))
            .expect("json body")
            .get("id")
            .and_then(JsonValue::as_u64)
            .expect("job id")
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let handle = test_server(ServerConfig::default());
        let addr = handle.local_addr().to_string();
        let (status, body) = client::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let v = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(EVENT_SCHEMA_VERSION)
        );
        let (status, _) = client::request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client::request(&addr, "DELETE", "/healthz", None).unwrap();
        assert_eq!(status, 405);
        handle.join();
    }

    #[test]
    fn malformed_specs_are_rejected_with_400() {
        let handle = test_server(ServerConfig::default());
        let addr = handle.local_addr().to_string();
        let (status, body) =
            client::request(&addr, "POST", "/jobs", Some(b"not a spec at all")).unwrap();
        assert_eq!(status, 400);
        let v = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(v.get("error").unwrap().as_str().unwrap().contains("spec"));
        let (status, _) =
            client::request(&addr, "POST", "/jobs", Some(b"{\"no_spec\": 1}")).unwrap();
        assert_eq!(status, 400);
        // Each spec is refused by the line to blame.
        for (spec, line, needle) in [
            // Removed keys are unknown keys like any other: a batch knob,
            // the job-level retry (a deterministic job would only replay
            // its failure), a second cycle bound, and a profiler a served
            // job never shows.
            ("mesh 4x4\nbatch 4\n", "line 2", "unknown key"),
            ("mesh 4x4\nretries 3\n", "line 2", "unknown key"),
            ("mesh 4x4\ncycle-budget 100\n", "line 2", "unknown key"),
            ("mesh 4x4\nprofile 32\n", "line 2", "unknown key"),
            // A mesh with more nodes than a u16 node id names.
            ("mesh 256x512\n", "line 1", "at most 65536"),
            // A matrix of 4.3e9 jobs, or a replay trace of 1e300 times
            // the misses: the worker's expansion or trace generation
            // alone would exhaust memory and kill the server.
            (
                "mesh 4x4\nintensities 0.1\nreplicas 4294967295\n",
                "line 3",
                "jobs",
            ),
            ("mesh 4x4\nbenchmarks FFT\nscale 1e300\n", "line 3", "scale"),
        ] {
            let (status, body) =
                client::request(&addr, "POST", "/jobs", Some(spec.as_bytes())).unwrap();
            assert_eq!(status, 400, "{spec}");
            let text = String::from_utf8(body).unwrap();
            assert!(text.contains(line) && text.contains(needle), "{text}");
        }
        handle.join();
    }

    #[test]
    fn shutdown_endpoint_is_gated() {
        let handle = test_server(ServerConfig::default());
        let addr = handle.local_addr().to_string();
        let (status, _) = client::request(&addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 403, "disabled by default");
        handle.join();

        let handle = test_server(ServerConfig {
            allow_shutdown: true,
            ..ServerConfig::default()
        });
        let addr = handle.local_addr().to_string();
        let (status, _) = client::request(&addr, "POST", "/shutdown", None).unwrap();
        assert_eq!(status, 200);
        assert!(handle.shutdown_requested());
        handle.join();
    }

    #[test]
    fn baseline_names_are_validated() {
        let handle = test_server(ServerConfig::default());
        let addr = handle.local_addr().to_string();
        let (status, _) = client::request(&addr, "GET", "/baselines/..%2Fetc", None).unwrap();
        assert_eq!(status, 400);
        let (status, _) =
            client::request(&addr, "GET", "/baselines/definitely-missing", None).unwrap();
        assert_eq!(status, 404);
        handle.join();
    }

    /// The behavioural guard against a poll timer on any request path:
    /// at 20 ms per accept the first loop alone took a second.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "test: asserts on wall time")]
    fn no_request_waits_out_a_timer() {
        let handle = test_server(ServerConfig::default());
        let addr = handle.local_addr().to_string();

        let t = Instant::now();
        for _ in 0..50 {
            let (status, _) = client::request(&addr, "GET", "/healthz", None).unwrap();
            assert_eq!(status, 200);
        }
        let healthz = t.elapsed();
        assert!(
            healthz < Duration::from_millis(500),
            "50 x /healthz: {healthz:?}"
        );

        let t = Instant::now();
        for _ in 0..10 {
            let (status, body) =
                client::request(&addr, "POST", "/jobs", Some(SMALL_SPEC.as_bytes())).unwrap();
            assert_eq!(status, 202);
            let id = id_of(&body);
            assert!(follow_to_stream_end(&addr, id));
            let (status, _) =
                client::request(&addr, "GET", &format!("/jobs/{id}/report"), None).unwrap();
            assert_eq!(status, 200, "the report is there when the stream ends");
        }
        let jobs = t.elapsed();
        assert!(jobs < Duration::from_secs(1), "10 round trips: {jobs:?}");
        join_promptly(handle);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "test: asserts on wall time")]
    fn idle_start_then_join_always_returns() {
        let t = Instant::now();
        for _ in 0..200 {
            join_promptly(test_server(ServerConfig::default()));
        }
        assert!(t.elapsed() < PROMPT, "200 idle joins: {:?}", t.elapsed());
    }

    #[test]
    fn unspecified_bind_addresses_still_shut_down() {
        for (bind, loopback) in [("0.0.0.0:0", "127.0.0.1"), ("[::]:0", "[::1]")] {
            let config = ServerConfig {
                addr: bind.into(),
                ..ServerConfig::default()
            };
            let handle = match start(config) {
                Ok(h) => h,
                // A host without IPv6 cannot bind `[::]`.
                Err(_) if bind.starts_with('[') => continue,
                Err(e) => panic!("{bind}: {e}"),
            };
            let port = handle.local_addr().rsplit(':').next().unwrap().to_string();
            let (status, _) =
                client::request(&format!("{loopback}:{port}"), "GET", "/healthz", None).unwrap();
            assert_eq!(status, 200, "{bind}");
            join_promptly(handle);
        }
    }

    #[test]
    fn parked_worker_is_woken_by_submit_and_by_shutdown() {
        let handle = test_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let addr = handle.local_addr().to_string();
        // Two jobs in turn: the worker is back on the condvar for the
        // second, whatever it was doing when the first arrived.
        for _ in 0..2 {
            let (status, body) =
                client::request(&addr, "POST", "/jobs", Some(SMALL_SPEC.as_bytes())).unwrap();
            assert_eq!(status, 202);
            let id = id_of(&body);
            let (tx, rx) = mpsc::channel();
            let addr = addr.clone();
            std::thread::spawn(move || tx.send(follow_to_stream_end(&addr, id)));
            assert!(
                rx.recv_timeout(PROMPT).expect("submit wakes the worker"),
                "job {id} ran to stream_end"
            );
        }
        let summary = join_promptly(handle);
        assert_eq!(summary.jobs[3], 2, "both done");
    }

    fn state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("phastlane-server-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("state dir");
        dir
    }

    fn statsz(addr: &str) -> JsonValue {
        let (status, body) = client::request(addr, "GET", "/statsz", None).unwrap();
        assert_eq!(status, 200);
        json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
    }

    /// Fsyncs per job read end to end: the submission and the report.
    #[test]
    fn statsz_counts_two_syncs_per_done_job() {
        let dir = state_dir("syncs");
        let handle = test_server(ServerConfig {
            state_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let addr = handle.local_addr().to_string();
        for _ in 0..5 {
            let (status, body) =
                client::request(&addr, "POST", "/jobs", Some(SMALL_SPEC.as_bytes())).unwrap();
            assert_eq!(status, 202);
            assert!(follow_to_stream_end(&addr, id_of(&body)));
        }
        let stats = statsz(&addr);
        let count = |block: &str, key: &str| stats.get(block).unwrap().get(key).unwrap().as_u64();
        assert_eq!(count("jobs", "done"), Some(5));
        assert_eq!(count("log", "syncs"), Some(10), "2 x done");
        assert_eq!(count("log", "write_errors"), Some(0));
        join_promptly(handle);
        // The `finished` records are appended after the stream closes.
        let log = std::fs::read_to_string(dir.join("jobs.log")).unwrap();
        assert_eq!(log.lines().count(), 15, "submitted, running, finished x 5");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn log_write_failure_refuses_the_submission() {
        let dir = state_dir("dev-full");
        std::os::unix::fs::symlink("/dev/full", dir.join("jobs.log")).unwrap();
        let handle = test_server(ServerConfig {
            state_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let addr = handle.local_addr().to_string();
        let (status, body) =
            client::request(&addr, "POST", "/jobs", Some(SMALL_SPEC.as_bytes())).unwrap();
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("cannot persist job: "), "{body}");
        assert!(body.contains("jobs.log"), "{body}");
        let (status, body) = client::request(&addr, "GET", "/jobs", None).unwrap();
        assert_eq!(status, 200);
        let list = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(list.get("jobs").unwrap().as_arr().map(<[_]>::len), Some(0));
        let stats = statsz(&addr);
        let log = stats.get("log").unwrap();
        assert_eq!(log.get("write_errors").unwrap().as_u64(), Some(1));
        assert_eq!(log.get("records").unwrap().as_u64(), Some(0));
        join_promptly(handle);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One `POST /jobs` over a bare socket, without the client's connect
    /// retries: the status and body, or `None` once the server is gone.
    fn raw_post(addr: &str, spec: &str) -> Option<(u16, String)> {
        let mut s = TcpStream::connect(addr).ok()?;
        s.set_read_timeout(Some(PROMPT)).ok()?;
        write!(
            s,
            "POST /jobs HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{spec}",
            spec.len()
        )
        .ok()?;
        let mut text = String::new();
        s.read_to_string(&mut text).ok()?;
        let status = text.split_ascii_whitespace().nth(1)?.parse().ok()?;
        let body = text.split_once("\r\n\r\n")?.1.to_string();
        Some((status, body))
    }

    /// Posters keep submitting across the instant shutdown is requested.
    /// Each submission is refused (503, or the listener is gone) or
    /// admitted; an admitted one must end terminal with its stream
    /// closed — never sit `queued` behind workers that already left.
    #[test]
    fn submissions_racing_shutdown_are_refused_or_cancelled() {
        for round in 0..20 {
            let handle = test_server(ServerConfig {
                workers: 1,
                queue_depth: 4096,
                ..ServerConfig::default()
            });
            let addr = handle.local_addr().to_string();
            let (admitted_tx, admitted_rx) = mpsc::channel();
            let posters: Vec<_> = (0..4)
                .map(|_| {
                    let addr = addr.clone();
                    let admitted_tx = admitted_tx.clone();
                    std::thread::spawn(move || {
                        let mut ids = Vec::new();
                        while let Some((status, body)) = raw_post(&addr, SMALL_SPEC) {
                            match status {
                                202 => {
                                    ids.push(id_of(body.as_bytes()));
                                    if ids.len() == 1 {
                                        admitted_tx.send(()).expect("the test is listening");
                                    }
                                }
                                503 => break,
                                other => panic!("round {round}: POST answered {other}: {body}"),
                            }
                        }
                        ids
                    })
                })
                .collect();
            // Every poster is mid-loop before the flag flips.
            for _ in 0..posters.len() {
                admitted_rx.recv_timeout(PROMPT).expect("a first 202");
            }
            handle.request_shutdown();
            let ids: Vec<u64> = posters
                .into_iter()
                .flat_map(|p| p.join().expect("poster thread"))
                .collect();

            // Before `join`, whose own `cancel_all` would sweep up a job
            // admitted behind the first one's back.
            let shared = Arc::clone(&handle.shared);
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                for id in ids {
                    let sub = shared.registry.subscribe(id).expect("admitted id is known");
                    while sub.wait().is_ok() {}
                }
                tx.send(())
            });
            rx.recv_timeout(PROMPT)
                .expect("every admitted job's event stream is closed");
            let summary = join_promptly(handle);
            assert_eq!(summary.jobs[1] + summary.jobs[2], 0, "round {round}");
        }
    }
}
