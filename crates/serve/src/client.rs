//! The matching HTTP/1.1 client: one request per connection, chunked
//! decoding for event streams, and a bounded connect-retry so callers
//! racing server startup (CI smoke, tests) need no external wait loop.

use crate::http;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-request socket timeout. Individual requests are short — long
/// work is followed on its event stream, not held in one long request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Read timeout while watching an event stream: lifecycle events can be
/// minutes apart on a big matrix.
const STREAM_TIMEOUT: Duration = Duration::from_secs(300);

/// Connect attempts (spaced [`RETRY_DELAY`] apart) before giving up.
const CONNECT_RETRIES: u32 = 25;
const RETRY_DELAY: Duration = Duration::from_millis(200);

/// Connects with bounded retries, absorbing the startup race when the
/// server was launched an instant ago.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for attempt in 0..CONNECT_RETRIES {
        if attempt > 0 {
            std::thread::sleep(RETRY_DELAY);
        }
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("cannot connect to {addr}: {last}"))
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(), String> {
    let body = body.unwrap_or(&[]);
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: phastlane\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .and_then(|()| stream.write_all(body))
    .and_then(|()| stream.flush())
    .map_err(|e| format!("write to server failed: {e}"))
}

/// Reads the status line + headers; returns (status, headers). Lines
/// and header count are bounded as on the server side.
fn read_head(r: &mut impl BufRead) -> Result<(u16, Vec<(String, String)>), String> {
    let line = http::read_line(r)?;
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    Ok((status, http::read_headers(r)?))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn is_chunked(headers: &[(String, String)]) -> bool {
    header(headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
}

fn content_length(headers: &[(String, String)]) -> Result<Option<u64>, String> {
    header(headers, "content-length")
        .map(|v| v.parse().map_err(|_| format!("bad content-length {v:?}")))
        .transpose()
}

/// Reads `len` bytes, or to EOF when `len` is `None`. The buffer grows
/// only with the bytes that arrive: a length the peer merely claims
/// reserves nothing.
fn read_body(r: &mut impl Read, len: Option<u64>) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    r.take(len.unwrap_or(u64::MAX))
        .read_to_end(&mut out)
        .map_err(|e| format!("read error: {e}"))?;
    match len {
        Some(n) if (out.len() as u64) < n => Err(format!("short body: {} of {n} bytes", out.len())),
        _ => Ok(out),
    }
}

/// Reads one chunk of a chunked body; `Ok(None)` on the terminal chunk.
fn read_chunk(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, String> {
    let size_line = http::read_line(r)?;
    let size = u64::from_str_radix(size_line.trim(), 16)
        .map_err(|_| format!("bad chunk size {size_line:?}"))?;
    if size == 0 {
        return Ok(None);
    }
    let chunk = read_body(r, Some(size))?;
    let mut crlf = [0u8; 2];
    r.read_exact(&mut crlf)
        .map_err(|e| format!("short chunk: {e}"))?;
    Ok(Some(chunk))
}

/// One complete HTTP exchange: connect (with retries), send, read the
/// whole response. Returns `(status, body)`.
///
/// # Errors
///
/// Connection, protocol, or I/O failures — HTTP error *statuses* are
/// returned, not turned into `Err`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .map_err(|e| format!("socket setup failed: {e}"))?;
    send_request(&mut stream, method, path, body)?;
    let mut r = BufReader::new(stream);
    let (status, headers) = read_head(&mut r)?;
    if !is_chunked(&headers) {
        return Ok((status, read_body(&mut r, content_length(&headers)?)?));
    }
    let mut out = Vec::new();
    while let Some(chunk) = read_chunk(&mut r)? {
        out.extend_from_slice(&chunk);
    }
    Ok((status, out))
}

/// Streams a chunked NDJSON response, invoking `on_line` per complete
/// line as it arrives. Returns the HTTP status (lines are only
/// delivered for 200s).
///
/// # Errors
///
/// Connection, protocol, or I/O failures.
pub fn stream(addr: &str, path: &str, mut on_line: impl FnMut(&str)) -> Result<u16, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(STREAM_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .map_err(|e| format!("socket setup failed: {e}"))?;
    send_request(&mut stream, "GET", path, None)?;
    let mut r = BufReader::new(stream);
    let (status, headers) = read_head(&mut r)?;
    if status != 200 {
        return Ok(status);
    }
    let mut pending = Vec::new();
    let mut complete_lines = |pending: &mut Vec<u8>| {
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let rest = pending.split_off(pos + 1);
            let mut line = std::mem::replace(pending, rest);
            line.pop();
            on_line(&String::from_utf8_lossy(&line));
        }
    };
    if is_chunked(&headers) {
        while let Some(chunk) = read_chunk(&mut r)? {
            pending.extend_from_slice(&chunk);
            complete_lines(&mut pending);
        }
    } else {
        pending = read_body(&mut r, content_length(&headers)?)?;
        complete_lines(&mut pending);
    }
    if !pending.is_empty() {
        on_line(&String::from_utf8_lossy(&pending));
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// Serves `response` verbatim to `connections` clients in turn, each
    /// after reading its whole request head, so an error the client
    /// reports comes from the response and not from a reset socket.
    fn serve_verbatim(response: Vec<u8>, connections: usize) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address").to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..connections {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut r = BufReader::new(stream);
                while http::read_line(&mut r).is_ok_and(|line| !line.is_empty()) {}
                let mut w = r.into_inner();
                let _ = w.write_all(&response);
                let _ = w.shutdown(std::net::Shutdown::Write);
                // Held until the client hangs up, so it reads EOF, not a reset.
                let _ = w.read_to_end(&mut Vec::new());
            }
        });
        (addr, server)
    }

    #[test]
    fn hostile_responses_are_errors_not_panics_or_huge_buffers() {
        let chunked = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n";
        let cases = [
            // `size + 2` overflowed here.
            (format!("{chunked}ffffffffffffffff\r\nabc"), "short body"),
            // A terabyte chunk: only what arrives is buffered.
            (format!("{chunked}10000000000\r\nabc"), "short body"),
            (format!("{chunked}1ffffffffffffffff\r\n"), "bad chunk size"),
            (
                "HTTP/1.1 200 OK\r\ncontent-length: 1099511627776\r\n\r\nabc".to_string(),
                "short body",
            ),
            (
                format!(
                    "HTTP/1.1 200 OK\r\nx: {}\r\n\r\n",
                    "a".repeat(http::MAX_LINE)
                ),
                "too long",
            ),
            (
                format!(
                    "HTTP/1.1 200 OK\r\n{}\r\n",
                    "h: v\r\n".repeat(http::MAX_HEADERS + 1)
                ),
                "too many headers",
            ),
        ];
        for (response, expect) in cases {
            let (addr, server) = serve_verbatim(response.clone().into_bytes(), 2);
            let head = &response[..response.len().min(60)];
            let err = request(&addr, "GET", "/x", None).expect_err(head);
            assert!(err.contains(expect), "request {head:?}: {err}");
            let err = stream(&addr, "/x", |_| {}).expect_err(head);
            assert!(err.contains(expect), "stream {head:?}: {err}");
            server.join().expect("server thread");
        }
    }
}
