//! The `phastlane serve` and `phastlane client` subcommands: run the
//! simulator as a long-running job service, and talk to one.
//!
//! * `serve` — bind the HTTP/NDJSON API, recover persisted jobs from
//!   `--state-dir`, and run until SIGTERM/SIGINT (or `POST /shutdown`
//!   when `--allow-shutdown` is given). Shutdown is graceful: no new
//!   jobs are accepted, queued jobs are cancelled, in-flight runs stop
//!   cooperatively at the next watchdog gate, and the process exits 0.
//! * `client submit|status|watch|shutdown` — the matching client. A
//!   `submit --wait --report-out FILE` writes the canonical report
//!   byte-for-byte as served, so `cmp` against a local `lab run`
//!   export is the determinism check.

use crate::args::{ArgError, Parsed};
use phastlane_netsim::obs::json::{self, JsonValue};
use phastlane_serve::{client, server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Default bind address for `serve` and target for `client`.
const DEFAULT_ADDR: &str = "127.0.0.1:7690";

/// How often the serve main loop re-checks the shutdown flags. The one
/// timer the serving path keeps: a signal handler can only flip an
/// atomic, so some thread has to look at it, and this loop is on no
/// request's path.
const SIGNAL_POLL: Duration = Duration::from_millis(200);

/// Set by the SIGINT/SIGTERM handler; polled by the serve main loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::Release);
}

/// Installs the async-signal-safe handlers. The handler only flips an
/// atomic; all real shutdown work happens on the main thread. (glibc's
/// `signal()` installs with `SA_RESTART`, which is why shutdown wakes
/// the server's blocked `accept` with a connection instead of counting
/// on the signal to interrupt it.)
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// `phastlane serve`: run the job service until asked to stop.
///
/// # Errors
///
/// Propagates bind/state-dir failures and malformed options.
pub fn cmd_serve(p: &Parsed) -> Result<String, ArgError> {
    let config = ServerConfig {
        addr: p.get("addr").unwrap_or(DEFAULT_ADDR).to_string(),
        workers: p.get_parsed("workers", 2)?,
        queue_depth: p.get_parsed("queue-depth", 16)?,
        baseline_dir: PathBuf::from(p.get("baseline-dir").unwrap_or("results/baselines")),
        state_dir: p.get("state-dir").map(PathBuf::from),
        allow_shutdown: p.flag("allow-shutdown"),
    };
    install_signal_handlers();
    let handle = server::start(config).map_err(ArgError)?;
    // Announce readiness on stderr immediately (the Ok return only
    // prints at exit); scripts wait for this line.
    eprintln!("phastlane-serve listening on {}", handle.local_addr());
    while !SIGNALLED.load(Ordering::Acquire) && !handle.shutdown_requested() {
        std::thread::sleep(SIGNAL_POLL);
    }
    eprintln!("phastlane-serve: shutting down");
    let summary = handle.join();
    let [total, _, _, done, failed, cancelled] = summary.jobs;
    Ok(format!(
        "serve: {total} job(s) seen ({done} done, {failed} failed, \
         {cancelled} cancelled), {} submission(s) rejected\n",
        summary.rejected
    ))
}

fn addr_of(p: &Parsed) -> String {
    p.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
}

/// Formats an HTTP error response into a CLI error carrying the status
/// code (scripts grep for "HTTP 400" / "HTTP 429").
fn http_error(context: &str, status: u16, body: &[u8]) -> ArgError {
    let detail = std::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok())
        .and_then(|v| v.get("error").and_then(JsonValue::as_str).map(String::from))
        .unwrap_or_else(|| String::from_utf8_lossy(body).trim().to_string());
    ArgError(format!("{context} (HTTP {status}): {detail}"))
}

/// Blocks until the job reaches a terminal status; returns that status.
/// The server ends a job's event stream when the job turns terminal, so
/// this follows the stream to its end and then reads the status once.
/// Only a stream cut short — the client's idle read timeout on a job
/// silent for minutes — finds the job still live, and follows it again.
fn wait_for_terminal(addr: &str, id: u64) -> Result<String, ArgError> {
    loop {
        let followed = client::stream(addr, &format!("/jobs/{id}/events"), |_| {});
        let (status, body) =
            client::request(addr, "GET", &format!("/jobs/{id}"), None).map_err(ArgError)?;
        if status != 200 {
            return Err(http_error("status fetch failed", status, &body));
        }
        let v = json::parse(std::str::from_utf8(&body).unwrap_or(""))
            .map_err(|e| ArgError(format!("bad status JSON: {e}")))?;
        let state = v
            .get("status")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string();
        match (state.as_str(), followed) {
            ("done" | "failed" | "cancelled", _) => return Ok(state),
            (_, Err(_)) => {}
            (_, Ok(code)) => {
                return Err(ArgError(format!(
                    "event stream of job {id} ended (HTTP {code}) with the job still {state}"
                )))
            }
        }
    }
}

fn cmd_client_submit(p: &Parsed) -> Result<String, ArgError> {
    let addr = addr_of(p);
    let path = p
        .positional(2)
        .ok_or_else(|| ArgError("client submit <spec-file> [--addr A] [--wait]".into()))?;
    let spec_text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let workers: u64 = p.get_parsed("workers", 1)?;
    let envelope = JsonValue::Obj(vec![
        ("spec".into(), JsonValue::Str(spec_text)),
        ("workers".into(), JsonValue::Uint(workers)),
    ]);
    let (status, body) = client::request(
        &addr,
        "POST",
        "/jobs",
        Some(envelope.to_string_compact().as_bytes()),
    )
    .map_err(ArgError)?;
    if status != 202 {
        return Err(http_error("submission rejected", status, &body));
    }
    let v = json::parse(std::str::from_utf8(&body).unwrap_or(""))
        .map_err(|e| ArgError(format!("bad submit response: {e}")))?;
    let id = v
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| ArgError("submit response carries no job id".into()))?;
    let mut out = format!("job {id} queued on {addr}\n");

    if p.flag("wait") || p.get("report-out").is_some() {
        let state = wait_for_terminal(&addr, id)?;
        out.push_str(&format!("job {id}: {state}\n"));
        if state != "done" {
            return Err(ArgError(format!("{out}job {id} ended {state}, no report")));
        }
        if let Some(dest) = p.get("report-out") {
            let (status, report) =
                client::request(&addr, "GET", &format!("/jobs/{id}/report"), None)
                    .map_err(ArgError)?;
            if status != 200 {
                return Err(http_error("report fetch failed", status, &report));
            }
            // Verbatim bytes: this file must `cmp` equal to a local
            // `lab run --report-out` export of the same spec.
            std::fs::write(dest, &report)
                .map_err(|e| ArgError(format!("cannot write {dest}: {e}")))?;
            out.push_str(&format!("report -> {dest} ({} bytes)\n", report.len()));
        }
    }
    Ok(out)
}

fn cmd_client_status(p: &Parsed) -> Result<String, ArgError> {
    let addr = addr_of(p);
    let id = p
        .positional(2)
        .ok_or_else(|| ArgError("client status <job-id> [--addr A]".into()))?;
    let (status, body) =
        client::request(&addr, "GET", &format!("/jobs/{id}"), None).map_err(ArgError)?;
    if status != 200 {
        return Err(http_error("status fetch failed", status, &body));
    }
    Ok(String::from_utf8_lossy(&body).into_owned())
}

fn cmd_client_watch(p: &Parsed) -> Result<String, ArgError> {
    let addr = addr_of(p);
    let id = p
        .positional(2)
        .ok_or_else(|| ArgError("client watch <job-id> [--addr A]".into()))?;
    let mut lines = 0u64;
    let status = client::stream(&addr, &format!("/jobs/{id}/events"), |line| {
        // Live NDJSON passthrough: each event is printed as it arrives.
        println!("{line}");
        lines += 1;
    })
    .map_err(ArgError)?;
    if status != 200 {
        return Err(ArgError(format!(
            "event stream refused (HTTP {status}); does job {id} exist?"
        )));
    }
    Ok(format!("watched job {id}: {lines} event line(s)\n"))
}

fn cmd_client_shutdown(p: &Parsed) -> Result<String, ArgError> {
    let addr = addr_of(p);
    let (status, body) = client::request(&addr, "POST", "/shutdown", None).map_err(ArgError)?;
    if status != 200 {
        return Err(http_error("shutdown refused", status, &body));
    }
    Ok(format!("server at {addr} is shutting down\n"))
}

/// `phastlane client submit|status|watch|shutdown`.
///
/// # Errors
///
/// Propagates connection and HTTP-level failures (with the status code
/// in the message).
pub fn cmd_client(p: &Parsed) -> Result<String, ArgError> {
    match p.positional(1) {
        Some("submit") => cmd_client_submit(p),
        Some("status") => cmd_client_status(p),
        Some("watch") => cmd_client_watch(p),
        Some("shutdown") => cmd_client_shutdown(p),
        other => Err(ArgError(format!(
            "client subcommand must be submit|status|watch|shutdown, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(words: &[&str]) -> Parsed {
        Parsed::parse(words.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn client_requires_a_subcommand() {
        assert!(cmd_client(&parsed(&["client"])).is_err());
        assert!(cmd_client(&parsed(&["client", "frobnicate"])).is_err());
        assert!(cmd_client(&parsed(&["client", "submit"])).is_err());
        assert!(cmd_client(&parsed(&["client", "status"])).is_err());
    }

    #[test]
    fn serve_then_client_roundtrip_in_process() {
        // Drive the real server through the client subcommands over a
        // loopback socket picked by the OS.
        let handle = server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            allow_shutdown: true,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = handle.local_addr().to_string();

        let dir = std::env::temp_dir().join(format!("phastlane-serve-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("t.lab");
        std::fs::write(
            &spec,
            "name serve-cli\nmesh 4x4\nseed 5\nnets optical4\npatterns uniform\n\
             rates 0.02\nwarmup 50\nmeasure 100\ndrain 500\n",
        )
        .unwrap();
        let report = dir.join("report.json");

        let out = cmd_client(&parsed(&[
            "client",
            "submit",
            spec.to_str().unwrap(),
            &format!("--addr={addr}"),
            "--wait",
            "--report-out",
            report.to_str().unwrap(),
        ]))
        .expect("submit + wait + fetch");
        assert!(out.contains("done"), "{out}");
        assert!(report.exists());

        let out = cmd_client(&parsed(&[
            "client",
            "status",
            "1",
            &format!("--addr={addr}"),
        ]))
        .expect("status");
        assert!(out.contains("\"done\""), "{out}");

        let out = cmd_client(&parsed(&[
            "client",
            "watch",
            "1",
            &format!("--addr={addr}"),
        ]))
        .expect("watch replays a finished job's history");
        assert!(out.contains("event line(s)"), "{out}");

        let out = cmd_client(&parsed(&["client", "shutdown", &format!("--addr={addr}")]))
            .expect("shutdown");
        assert!(out.contains("shutting down"), "{out}");
        assert!(handle.shutdown_requested());
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
