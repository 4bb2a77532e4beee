//! End-to-end tests for the job service: the determinism contract
//! (API results byte-identical to a direct `run_lab`), queue
//! backpressure, event streaming, and graceful shutdown without torn
//! state.

use phastlane_lab::spec::LabSpec;
use phastlane_lab::{journal, run_lab, run_lab_with};
use phastlane_netsim::obs::json::{self, JsonValue};
use phastlane_netsim::obs::{EventSink, EVENT_SCHEMA_VERSION};
use phastlane_serve::{client, server, ServerConfig};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small but non-trivial matrix (4 jobs), quick enough to run twice.
const QUICK_SPEC: &str = "name serve-e2e\nmesh 4x4\nseed 7\n\
                          nets optical4 electrical3\npatterns uniform\n\
                          rates 0.02 0.05\nwarmup 200\nmeasure 800\ndrain 2000\n";

/// A deliberately long single job: the measure window is big enough
/// that the run is still in flight when the test acts on it, and a
/// wall budget backstops the test if cancellation ever breaks.
const SLOW_SPEC: &str = "name serve-slow-e2e\nmesh 8x8\nseed 11\nnets optical4\n\
                         patterns uniform\nrates 0.1\nwarmup 1000\n\
                         measure 50000000\ndrain 5000\nwall-budget 120\n";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phastlane-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn submit(addr: &str, spec: &str, workers: u64) -> (u16, JsonValue) {
    let envelope = JsonValue::Obj(vec![
        ("spec".into(), JsonValue::Str(spec.into())),
        ("workers".into(), JsonValue::Uint(workers)),
    ]);
    let (status, body) = client::request(
        addr,
        "POST",
        "/jobs",
        Some(envelope.to_string_compact().as_bytes()),
    )
    .expect("submit request");
    let v = json::parse(std::str::from_utf8(&body).expect("utf-8 body")).expect("json body");
    (status, v)
}

fn job_status(addr: &str, id: u64) -> String {
    let (status, body) =
        client::request(addr, "GET", &format!("/jobs/{id}"), None).expect("status request");
    assert_eq!(status, 200, "job {id} should exist");
    json::parse(std::str::from_utf8(&body).unwrap())
        .expect("status json")
        .get("status")
        .and_then(JsonValue::as_str)
        .expect("status field")
        .to_string()
}

fn wait_for(addr: &str, id: u64, predicate: impl Fn(&str) -> bool) -> String {
    loop {
        let s = job_status(addr, id);
        if predicate(&s) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn fetch_report(addr: &str, id: u64) -> Vec<u8> {
    let (status, body) =
        client::request(addr, "GET", &format!("/jobs/{id}/report"), None).expect("report request");
    assert_eq!(status, 200, "report for job {id} should be ready");
    body
}

/// The acceptance bar: two concurrent client sessions submitting the
/// same spec get reports byte-identical to each other AND to a direct
/// serial `run_lab` of that spec — the API layer, the worker pool, and
/// the concurrent sessions contribute no bits.
#[test]
fn concurrent_sessions_match_serial_run_byte_for_byte() {
    let spec = LabSpec::parse(QUICK_SPEC).expect("spec parses");
    let reference = run_lab(&spec, 1)
        .expect("serial reference run")
        .canonical_json()
        .to_string_pretty();

    let handle = server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    // Two sessions race: different worker counts per job, submitted
    // concurrently, sharing the pool.
    let reports: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|workers| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let (status, v) = submit(&addr, QUICK_SPEC, workers);
                    assert_eq!(status, 202, "submit accepted: {v:?}");
                    let id = v.get("id").and_then(JsonValue::as_u64).expect("job id");
                    assert_eq!(
                        v.get("schema_version").and_then(JsonValue::as_u64),
                        Some(EVENT_SCHEMA_VERSION)
                    );
                    let state = wait_for(&addr, id, |s| {
                        s == "done" || s == "failed" || s == "cancelled"
                    });
                    assert_eq!(state, "done");
                    fetch_report(&addr, id)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            std::str::from_utf8(report).unwrap(),
            reference,
            "session {i}: served report must be byte-identical to the serial run"
        );
    }
    handle.join();
}

/// Backpressure: with one worker and a queue depth of one, a third
/// concurrent submission bounces with 429 while the first two hold the
/// pool and the queue.
#[test]
fn full_queue_rejects_with_429() {
    let handle = server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    let (status, v) = submit(&addr, SLOW_SPEC, 1);
    assert_eq!(status, 202, "{v:?}");
    wait_for(&addr, 1, |s| s == "running");

    let (status, v) = submit(&addr, SLOW_SPEC, 1);
    assert_eq!(status, 202, "one slot in the queue: {v:?}");

    let (status, v) = submit(&addr, SLOW_SPEC, 1);
    assert_eq!(status, 429, "queue full must reject: {v:?}");
    assert!(
        v.get("error").and_then(JsonValue::as_str).is_some(),
        "429 carries an error body"
    );

    // The rejection is visible in /statsz.
    let (status, body) = client::request(&addr, "GET", "/statsz", None).unwrap();
    assert_eq!(status, 200);
    let stats = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(stats.get("rejected").and_then(JsonValue::as_u64), Some(1));

    // Cancel both jobs so join is quick.
    for id in [1, 2] {
        let (status, _) =
            client::request(&addr, "POST", &format!("/jobs/{id}/cancel"), None).unwrap();
        assert_eq!(status, 200);
    }
    wait_for(&addr, 1, |s| s == "cancelled" || s == "done");
    handle.join();
}

/// The event stream replays history, stamps every line with
/// `schema_version`, and terminates with an accounted `stream_end`.
#[test]
fn event_stream_is_versioned_ndjson_with_clean_end() {
    let handle = server::start(ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr().to_string();

    let (status, v) = submit(&addr, QUICK_SPEC, 2);
    assert_eq!(status, 202, "{v:?}");
    wait_for(&addr, 1, |s| s == "done");

    // Subscribing after completion still replays the buffered history.
    let mut lines = Vec::new();
    let status = client::stream(&addr, "/jobs/1/events", |line| {
        lines.push(line.to_string());
    })
    .expect("stream");
    assert_eq!(status, 200);
    // 4 jobs: lab_started + 4x(job_started, job_finished) + lab_finished
    // + stream_end.
    assert_eq!(lines.len(), 11, "lifecycle lines: {lines:#?}");
    for line in &lines {
        let v = json::parse(line).expect("each line is one JSON object");
        assert_eq!(
            v.get("schema_version").and_then(JsonValue::as_u64),
            Some(EVENT_SCHEMA_VERSION),
            "every event is stamped: {line}"
        );
    }
    assert!(lines[0].contains("\"lab_started\""), "{:?}", lines[0]);
    let last = lines.last().unwrap();
    let end = json::parse(last).unwrap();
    assert_eq!(
        end.get("event").and_then(JsonValue::as_str),
        Some("stream_end")
    );
    assert_eq!(end.get("dropped").and_then(JsonValue::as_u64), Some(0));

    // Streaming an unknown job answers 404, not a hang.
    let status = client::stream(&addr, "/jobs/99/events", |_| {}).expect("stream call");
    assert_eq!(status, 404);
    handle.join();
}

/// A lifecycle line with its wall-clock fields masked.
fn masked(line: &str) -> String {
    let Ok(JsonValue::Obj(pairs)) = json::parse(line) else {
        panic!("not one JSON object: {line}");
    };
    let pairs = pairs.into_iter().map(|(key, value)| match key.as_str() {
        "wall_seconds" | "cycles_per_sec" | "eta_seconds" => (key, JsonValue::Null),
        _ => (key, value),
    });
    JsonValue::Obj(pairs.collect()).to_string_compact()
}

/// Shared-buffer writer so the test can read back what the sink wrote.
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Both readers of a run — a writer sink (`lab run --progress`) and a
/// served event stream — see the same lines in the same order; the
/// served stream only appends `stream_end`.
#[test]
fn progress_sink_and_served_stream_carry_the_same_lines() {
    let spec = LabSpec::parse(QUICK_SPEC).expect("spec parses");
    let buf = Arc::new(Mutex::new(Vec::new()));
    let sink = EventSink::new(
        Box::new(Capture(Arc::clone(&buf))),
        EventSink::DEFAULT_CAPACITY,
    );
    run_lab_with(&spec, 1, Some(&sink)).expect("local run");
    assert_eq!(sink.finish().dropped, 0);
    let local: Vec<String> = String::from_utf8(buf.lock().unwrap().clone())
        .expect("utf-8 stream")
        .lines()
        .map(masked)
        .collect();

    let handle = server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    let (status, v) = submit(&addr, QUICK_SPEC, 1);
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("id").and_then(JsonValue::as_u64).expect("job id");
    let mut served = Vec::new();
    let status = client::stream(&addr, &format!("/jobs/{id}/events"), |line| {
        served.push(masked(line));
    })
    .expect("stream");
    assert_eq!(status, 200);
    handle.join();

    let end = served.pop().expect("a served stream is never empty");
    assert_eq!(
        end,
        r#"{"event":"stream_end","schema_version":1,"dropped":0}"#
    );
    assert_eq!(local.len(), 10, "lab_started + 4 x 2 + lab_finished");
    assert_eq!(served, local);
}

/// Graceful shutdown mid-job: the in-flight run is cancelled
/// cooperatively, every job-log record is whole (CRC-framed lines, the
/// file ending on a line boundary), and a restarted registry recovers
/// the state.
#[test]
fn shutdown_mid_job_leaves_no_torn_state() {
    let dir = scratch("shutdown");
    let handle = server::start(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();

    let (status, v) = submit(&addr, SLOW_SPEC, 1);
    assert_eq!(status, 202, "{v:?}");
    wait_for(&addr, 1, |s| s == "running");

    // Kill the server mid-run. join() drains: cancels the in-flight
    // job and waits for the worker to record a terminal state.
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.jobs[0], 1, "one job seen");

    // Every job-log line is whole and passes its CRC; the first
    // submits job 1 and the last records its terminal state.
    let log = std::fs::read_to_string(dir.join("jobs.log")).expect("job log persisted");
    assert!(log.ends_with('\n'), "the log ends on a line boundary");
    let records: Vec<(String, JsonValue)> = log
        .lines()
        .map(|line| journal::unframe(line).expect("every record is intact"))
        .collect();
    let (kind, submitted) = &records[0];
    assert_eq!(kind, "submitted");
    assert_eq!(submitted.get("id").and_then(JsonValue::as_u64), Some(1));
    let spec_text = submitted
        .get("spec")
        .and_then(JsonValue::as_str)
        .expect("spec persisted");
    LabSpec::parse(spec_text).expect("persisted spec re-parses");
    let (kind, finished) = records.last().expect("records");
    assert_eq!(kind, "finished");
    let state = finished
        .get("status")
        .and_then(JsonValue::as_str)
        .expect("status field");
    assert!(
        state == "cancelled" || state == "done",
        "terminal state persisted, got {state:?}"
    );
    let journal_path = dir.join("job-1.journal");
    if journal_path.exists() {
        let rec = journal::load(&journal_path).expect("journal header + records load");
        assert_eq!(rec.spec, spec_text, "journal pins the exact spec");
    }

    // A fresh server over the same state dir recovers without error
    // and still answers for the job.
    let handle = server::start(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("restarted server");
    let addr = handle.local_addr().to_string();
    let (code, body) = client::request(&addr, "GET", "/jobs/1", None).unwrap();
    assert_eq!(code, 200, "recovered job is queryable");
    let v = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v.get("id").and_then(JsonValue::as_u64), Some(1));
    handle.request_shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart recovery honours the determinism contract: a server killed
/// mid-run re-runs (resuming from the journal) and the eventual report
/// is byte-identical to a serial `run_lab`.
#[test]
fn recovered_job_still_produces_canonical_bytes() {
    let dir = scratch("recover");
    let spec = LabSpec::parse(QUICK_SPEC).unwrap();
    let reference = run_lab(&spec, 1)
        .unwrap()
        .canonical_json()
        .to_string_pretty();

    // First server: accept the job but die before any worker can take
    // it (zero-ish window: shut down immediately after submit).
    let handle = server::start(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.local_addr().to_string();
    let (status, _) = submit(&addr, QUICK_SPEC, 1);
    assert_eq!(status, 202);
    handle.request_shutdown();
    handle.join();

    // Second server: the job comes back queued (it was cancelled only
    // if a worker had already started it — accept either, but a
    // re-submitted run must still match the reference).
    let handle = server::start(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("restarted server");
    let addr = handle.local_addr().to_string();
    let state = job_status(&addr, 1);
    let id = if state == "queued" || state == "running" || state == "done" {
        1
    } else {
        // The first process got far enough to cancel it; run it again.
        let (status, v) = submit(&addr, QUICK_SPEC, 1);
        assert_eq!(status, 202);
        v.get("id").and_then(JsonValue::as_u64).unwrap()
    };
    let state = wait_for(&addr, id, |s| {
        s == "done" || s == "failed" || s == "cancelled"
    });
    assert_eq!(state, "done");
    let report = fetch_report(&addr, id);
    assert_eq!(
        std::str::from_utf8(&report).unwrap(),
        reference,
        "recovered run is byte-identical to the serial reference"
    );
    handle.request_shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
