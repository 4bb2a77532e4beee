//! The loopback front door: an in-process `phastlane_serve` server and a
//! closed loop of clients, each submitting its next spec only after the
//! previous job's report is in hand.

use phastlane_netsim::obs::json::{self, JsonValue};
use phastlane_serve::client;
use phastlane_serve::server::{self, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn state_dir(out: &Path) -> PathBuf {
    out.join("serve-state")
}

/// Removes whatever an earlier server persisted.
pub fn clear_state(out: &Path) -> Result<(), String> {
    let state = state_dir(out);
    if state.exists() {
        std::fs::remove_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    }
    Ok(())
}

/// Creates the state directory and starts a server on it: what a
/// deployment does before its first submission.
pub fn start(out: &Path) -> Result<ServerHandle, String> {
    let state = state_dir(out);
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 16,
        baseline_dir: out.join("serve-baselines"),
        state_dir: Some(state),
        allow_shutdown: false,
    })
}

/// One request of a submission, in nanoseconds since the epoch the loop
/// was given.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Interval {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One submit → events → report round trip.
#[derive(Debug, Clone, Default)]
pub struct Submission {
    pub post: Interval,
    pub events: Interval,
    pub report: Interval,
    /// Why the submission failed, if it did (refused, wrong status, no
    /// `stream_end`, report bytes differing from the lab's).
    pub failure: Option<String>,
}

impl Submission {
    /// Submit sent to report bytes in hand.
    pub fn latency_ms(&self) -> f64 {
        (self.report.end_ns - self.post.start_ns) as f64 / 1e6
    }
}

fn timed<T>(epoch: Instant, f: impl FnOnce() -> T) -> (T, Interval) {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let out = f();
    let end_ns = epoch.elapsed().as_nanos() as u64;
    (out, Interval { start_ns, end_ns })
}

/// `POST /jobs`, watch `/jobs/<id>/events` to `stream_end`, `GET
/// /jobs/<id>/report`, and compare the bytes with `expected`.
fn submit(addr: &str, spec: &str, expected: &str, epoch: Instant) -> Submission {
    let mut s = Submission::default();
    let (posted, post) = timed(epoch, || {
        client::request(addr, "POST", "/jobs", Some(spec.as_bytes()))
    });
    s.post = post;
    s.events = Interval {
        start_ns: post.end_ns,
        end_ns: post.end_ns,
    };
    s.report = s.events;
    let id = match posted {
        Ok((202, body)) => json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|v| v.get("id").and_then(JsonValue::as_u64)),
        Ok((status, _)) => {
            s.failure = Some(format!("POST /jobs answered {status}"));
            return s;
        }
        Err(e) => {
            s.failure = Some(e);
            return s;
        }
    };
    let Some(id) = id else {
        s.failure = Some("POST /jobs answered without an id".into());
        return s;
    };

    let mut ended = false;
    let (streamed, events) = timed(epoch, || {
        client::stream(addr, &format!("/jobs/{id}/events"), |line| {
            ended |= line.contains("\"stream_end\"");
        })
    });
    s.events = events;
    s.report = Interval {
        start_ns: events.end_ns,
        end_ns: events.end_ns,
    };
    match streamed {
        Ok(200) if ended => {}
        Ok(status) => {
            s.failure = Some(format!("event stream: status {status}, stream_end={ended}"));
            return s;
        }
        Err(e) => {
            s.failure = Some(e);
            return s;
        }
    }

    let (fetched, report) = timed(epoch, || {
        client::request(addr, "GET", &format!("/jobs/{id}/report"), None)
    });
    s.report = report;
    match fetched {
        Ok((200, body)) if body == expected.as_bytes() => {}
        Ok((200, _)) => s.failure = Some("served report differs from the lab's bytes".into()),
        Ok((status, _)) => s.failure = Some(format!("GET report answered {status}")),
        Err(e) => s.failure = Some(e),
    }
    s
}

/// The closed loop: `clients` threads, each making `per_client`
/// submissions back to back. Returns every submission, client-major.
pub fn closed_loop(
    addr: &str,
    spec: &str,
    expected: &str,
    clients: usize,
    per_client: usize,
    epoch: Instant,
) -> Vec<Submission> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    (0..per_client)
                        .map(|_| submit(addr, spec, expected, epoch))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    })
}

/// Median round trip of `n` sequential `GET /healthz` calls, in ms: the
/// bare HTTP codec plus the accept loop, with no job behind it.
pub fn healthz_ms(addr: &str, n: usize) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let (status, _) = client::request(addr, "GET", "/healthz", None)?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&samples))
}

/// `(rejected, events published, events dropped)` from `/statsz`.
pub fn statsz(addr: &str) -> Result<(u64, u64, u64), String> {
    let (status, body) = client::request(addr, "GET", "/statsz", None)?;
    if status != 200 {
        return Err(format!("/statsz answered {status}"));
    }
    let v = json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("{e:?}"))?;
    let field = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_u64);
    let events = v.get("events").ok_or("statsz has no events block")?;
    match (
        field(&v, "rejected"),
        field(events, "published"),
        field(events, "dropped"),
    ) {
        (Some(r), Some(p), Some(d)) => Ok((r, p, d)),
        _ => Err("statsz is missing a counter".into()),
    }
}
