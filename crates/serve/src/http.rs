//! A deliberately small HTTP/1.1 codec: exactly what the job service
//! needs, nothing more.
//!
//! The workspace is dependency-free by design, so this module
//! hand-rolls the wire format the same way `obs::json` hand-rolls JSON:
//! request-line + headers + `Content-Length` body on the way in,
//! `Connection: close` responses (fixed-length or chunked) on the way
//! out. Every connection serves one request — the client opens a fresh
//! socket per call, which keeps the server's connection handling to a
//! single read-route-write pass with no keep-alive state machine.
//!
//! Hard limits guard the parser: header lines are capped, header count
//! is capped, and bodies are capped, so a hostile peer cannot balloon
//! memory with an unbounded request.

use std::io::{BufRead, Write};

/// Longest accepted request/header line, in bytes.
pub const MAX_LINE: usize = 8 * 1024;

/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 64;

/// Largest accepted request body (lab specs are kilobytes).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path, query string included if any.
    pub path: String,
    /// Header name/value pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, sized by `Content-Length` (empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// A header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one line up to CRLF/LF, rejecting lines over [`MAX_LINE`].
pub(crate) fn read_line(r: &mut impl BufRead) -> Result<String, String> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err("header line too long".into());
                }
            }
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| "header line is not UTF-8".into())
}

/// Parses one request off the stream. `Ok(None)` means the peer closed
/// the connection without sending anything (a bare health-probe
/// connect, not an error).
///
/// # Errors
///
/// Malformed request lines, oversized headers/body, or I/O failures.
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, String> {
    let line = read_line(r)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut words = line.split_ascii_whitespace();
    let (method, path, version) = match (words.next(), words.next(), words.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(format!("malformed request line {line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    let headers = read_headers(r)?;
    let length: usize = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v.parse().map_err(|_| format!("bad content-length {v:?}"))?,
    };
    if length > MAX_BODY {
        return Err(format!("body of {length} bytes exceeds the {MAX_BODY} cap"));
    }
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Reads header lines up to the blank line that ends them, rejecting
/// more than [`MAX_HEADERS`]; names are lowercased.
///
/// # Errors
///
/// A malformed or oversized line, too many headers, or an I/O failure.
pub(crate) fn read_headers(r: &mut impl BufRead) -> Result<Vec<(String, String)>, String> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err("too many headers".into());
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Canonical reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response and flushes it.
///
/// # Errors
///
/// Propagates socket write failures (peer gone).
pub fn respond(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        reason(status),
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Starts a chunked response; follow with [`write_chunk`] calls and one
/// [`end_chunked`].
///
/// # Errors
///
/// Propagates socket write failures.
pub fn start_chunked(w: &mut impl Write, status: u16, content_type: &str) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
         transfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        reason(status)
    )?;
    w.flush()
}

/// Writes one chunk and flushes it so streaming consumers see it
/// immediately. Empty payloads are skipped (an empty chunk would
/// terminate the stream).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunk(w: &mut impl Write, bytes: &[u8]) -> std::io::Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", bytes.len())?;
    w.write_all(bytes)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Terminates a chunked response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn end_chunked(w: &mut impl Write) -> std::io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, String> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn empty_connection_is_not_an_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/99\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").is_err());
    }

    #[test]
    fn oversized_requests_are_bounded() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 1));
        assert!(parse(&long).is_err());
        let many = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "h: v\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(parse(&many).is_err());
        let big = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse(&big).is_err());
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        respond(&mut out, 404, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn chunked_stream_roundtrips() {
        let mut out = Vec::new();
        start_chunked(&mut out, 200, "application/x-ndjson").unwrap();
        write_chunk(&mut out, b"{\"a\": 1}\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not terminal
        write_chunk(&mut out, b"{\"b\": 2}\n").unwrap();
        end_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked"), "{text}");
        assert!(text.contains("9\r\n{\"a\": 1}\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
    }
}
