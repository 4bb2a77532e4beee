//! The matching HTTP/1.1 client: one request per connection, chunked
//! decoding for event streams, and a bounded connect-retry so callers
//! racing server startup (CI smoke, tests) need no external wait loop.

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

/// Reads the status line + headers; returns (status, headers).
fn read_head(r: &mut impl BufRead) -> Result<(u16, Vec<(String, String)>), String> {
    let mut line = String::new();
    r.read_line(&mut line)
        .map_err(|e| format!("read error: {e}"))?;
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        r.read_line(&mut line)
            .map_err(|e| format!("read error: {e}"))?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((n, v)) = line.split_once(':') {
            headers.push((n.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    Ok((status, headers))
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Reads one chunk of a chunked body; `Ok(None)` on the terminal chunk.
fn read_chunk(r: &mut impl BufRead) -> Result<Option<Vec<u8>>, String> {
    let mut size_line = String::new();
    r.read_line(&mut size_line)
        .map_err(|e| format!("read error: {e}"))?;
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| format!("bad chunk size {size_line:?}"))?;
    if size == 0 {
        return Ok(None);
    }
    let mut chunk = vec![0u8; size + 2]; // payload + CRLF
    r.read_exact(&mut chunk)
        .map_err(|e| format!("short chunk: {e}"))?;
    chunk.truncate(size);
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
    let mut out = Vec::new();
    if header(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        while let Some(chunk) = read_chunk(&mut r)? {
            out.extend_from_slice(&chunk);
        }
    } else if let Some(len) = header(&headers, "content-length") {
        let len: usize = len.parse().map_err(|_| "bad content-length".to_string())?;
        out.resize(len, 0);
        r.read_exact(&mut out)
            .map_err(|e| format!("short body: {e}"))?;
    } else {
        r.read_to_end(&mut out)
            .map_err(|e| format!("read error: {e}"))?;
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
    let chunked =
        header(&headers, "transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let mut pending = Vec::new();
    loop {
        let bytes = if chunked {
            match read_chunk(&mut r)? {
                Some(c) => c,
                None => break,
            }
        } else {
            let mut buf = vec![0u8; 4096];
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    buf.truncate(n);
                    buf
                }
                Err(e) => return Err(format!("read error: {e}")),
            }
        };
        pending.extend_from_slice(&bytes);
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let rest = pending.split_off(pos + 1);
            let mut line = std::mem::replace(&mut pending, rest);
            line.pop();
            on_line(&String::from_utf8_lossy(&line));
        }
    }
    if !pending.is_empty() {
        on_line(&String::from_utf8_lossy(&pending));
    }
    Ok(status)
}
