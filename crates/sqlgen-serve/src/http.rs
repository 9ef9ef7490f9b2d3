//! Minimal hand-rolled HTTP/1.1: request parsing and response writing.
//!
//! Std-only by design (the build environment has no registry access, so
//! tokio/hyper are out); the server needs exactly the subset implemented
//! here: request line + headers + `Content-Length` bodies, keep-alive, and
//! hard limits that map hostile inputs to typed errors (400/413) instead of
//! panics or unbounded allocation. Chunked transfer encoding is rejected —
//! every client this server cares about sends sized bodies.
//!
//! The parser reads from any [`BufRead`], so the fuzz harness can drive it
//! with raw byte soup without opening sockets.

use std::io::{BufRead, Write};

/// Parser limits. Defaults: 8 KiB of request line + headers, 1 MiB body.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub max_head: usize,
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 8 * 1024,
            max_body: 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path including any query string, as sent.
    pub path: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`; inverted for 1.0).
    pub keep_alive: bool,
    /// Inbound `traceparent` header, verbatim (validated later by the
    /// trace layer, which falls back to a fresh id on garbage).
    pub traceparent: Option<String>,
    /// Inbound `X-Request-Id` header, verbatim.
    pub request_id: Option<String>,
    pub body: Vec<u8>,
}

/// Why a request could not be parsed. `status()` maps the recoverable
/// variants to the response the connection should send before closing.
#[derive(Debug)]
pub enum ParseError {
    /// Clean EOF before any request byte — the keep-alive peer went away.
    Eof,
    /// Connection died mid-request; nothing useful to send.
    Incomplete,
    /// Malformed request → 400.
    BadRequest(&'static str),
    /// Over a parser limit → 413.
    TooLarge(&'static str),
    /// Transport error (including read timeouts) → close.
    Io(std::io::ErrorKind),
}

impl ParseError {
    /// The HTTP status this error maps to, when one should be sent at all.
    pub fn status(&self) -> Option<u16> {
        match self {
            ParseError::BadRequest(_) => Some(400),
            ParseError::TooLarge(_) => Some(413),
            ParseError::Eof | ParseError::Incomplete | ParseError::Io(_) => None,
        }
    }

    pub fn detail(&self) -> &'static str {
        match self {
            ParseError::BadRequest(d) | ParseError::TooLarge(d) => d,
            ParseError::Eof => "eof",
            ParseError::Incomplete => "incomplete",
            ParseError::Io(_) => "io",
        }
    }
}

/// Reads one request from `r`. Bounded: at most `limits.max_head` header
/// bytes and `limits.max_body` body bytes are ever buffered.
pub fn read_request(r: &mut impl BufRead, limits: &Limits) -> Result<Request, ParseError> {
    let mut head_budget = limits.max_head;
    let request_line = match read_line(r, &mut head_budget)? {
        Some(line) => line,
        None => return Err(ParseError::Eof),
    };
    let line = String::from_utf8(request_line)
        .map_err(|_| ParseError::BadRequest("request line is not utf-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or(ParseError::BadRequest("empty request line"))?;
    let path = parts
        .next()
        .ok_or(ParseError::BadRequest("missing request path"))?;
    let version = parts
        .next()
        .ok_or(ParseError::BadRequest("missing http version"))?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequest("trailing tokens in request line"));
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(ParseError::BadRequest("bad method"));
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::BadRequest("unsupported http version")),
    };

    let mut keep_alive = keep_alive_default;
    let mut content_length: Option<usize> = None;
    let mut traceparent: Option<String> = None;
    let mut request_id: Option<String> = None;
    loop {
        let line = match read_line(r, &mut head_budget)? {
            Some(line) => line,
            None => return Err(ParseError::Incomplete),
        };
        if line.is_empty() {
            break; // end of headers
        }
        let line =
            String::from_utf8(line).map_err(|_| ParseError::BadRequest("header is not utf-8"))?;
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::BadRequest("header without colon"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| ParseError::BadRequest("bad content-length"))?;
                if content_length.is_some_and(|prev| prev != n) {
                    return Err(ParseError::BadRequest("conflicting content-length"));
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                return Err(ParseError::BadRequest(
                    "transfer-encoding is not supported; send content-length",
                ));
            }
            "connection" => {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            // Propagation headers are carried verbatim; the trace layer
            // validates them (and never trusts their contents).
            "traceparent" => traceparent = Some(value.to_string()),
            "x-request-id" => request_id = Some(value.to_string()),
            _ => {}
        }
    }

    let len = content_length.unwrap_or(0);
    if len > limits.max_body {
        return Err(ParseError::TooLarge("body exceeds limit"));
    }
    let mut body = vec![0u8; len];
    if len > 0 {
        read_exact(r, &mut body)?;
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        keep_alive,
        traceparent,
        request_id,
        body,
    })
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator.
/// `Ok(None)` = EOF before any byte. Decrements `budget`; exceeding it is
/// [`ParseError::TooLarge`].
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<Option<Vec<u8>>, ParseError> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf().map_err(io_err)?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(ParseError::Incomplete);
        }
        let (chunk, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        if chunk > *budget {
            return Err(ParseError::TooLarge("headers exceed limit"));
        }
        *budget -= chunk;
        line.extend_from_slice(&buf[..chunk]);
        r.consume(chunk);
        if found {
            // Strip "\n" and an optional preceding "\r".
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(line));
        }
    }
}

fn read_exact(r: &mut impl BufRead, mut out: &mut [u8]) -> Result<(), ParseError> {
    while !out.is_empty() {
        let buf = r.fill_buf().map_err(io_err)?;
        if buf.is_empty() {
            return Err(ParseError::Incomplete);
        }
        let n = buf.len().min(out.len());
        out[..n].copy_from_slice(&buf[..n]);
        r.consume(n);
        out = &mut out[n..];
    }
    Ok(())
}

fn io_err(e: std::io::Error) -> ParseError {
    ParseError::Io(e.kind())
}

/// Outcome of an incremental parse attempt over an accumulation buffer.
#[derive(Debug)]
pub enum BufParse {
    /// One full request parsed; the first `usize` bytes of the buffer were
    /// consumed (drain them before the next attempt).
    Complete(Request, usize),
    /// The buffer holds a prefix of a valid request; read more bytes.
    Partial,
    /// The buffer can never become a valid request (400/413 via
    /// [`ParseError::status`]).
    Error(ParseError),
}

/// Non-blocking front-end to [`read_request`] for the event loop: parses
/// from whatever has been buffered so far. Limits apply exactly as in
/// [`read_request`], so a head over `max_head` or a declared body over
/// `max_body` turns into [`BufParse::Error`] even before the peer finishes
/// sending — bounded memory against slowloris-style trickle.
pub fn parse_buf(buf: &[u8], limits: &Limits) -> BufParse {
    let mut cur = std::io::Cursor::new(buf);
    match read_request(&mut cur, limits) {
        Ok(req) => BufParse::Complete(req, cur.position() as usize),
        // EOF in a Cursor just means the rest hasn't arrived yet.
        Err(ParseError::Eof | ParseError::Incomplete) => BufParse::Partial,
        Err(e) => BufParse::Error(e),
    }
}

/// An outgoing response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    /// Extra headers (name, value) — e.g. `Retry-After` on 429.
    pub headers: Vec<(String, String)>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
            headers: Vec::new(),
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// JSON `{"error": detail}` with the given status.
    pub fn error(status: u16, detail: &str) -> Self {
        let obj = serde_json::Value::String(detail.to_string());
        Response::json(status, format!("{{\"error\": {obj}}}"))
    }

    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }
}

pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes `resp`; `keep_alive: false` adds `Connection: close`.
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if !keep_alive {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: two writes would put them in separate TCP
    // segments, and Nagle + delayed ACK turns that into ~40ms per response.
    head.push_str(&resp.body);
    w.write_all(head.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut Cursor::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let req =
            parse(b"POST /generate HTTP/1.1\r\ncontent-length: 4\r\nHost: x\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/generate");
        assert!(req.keep_alive);
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn captures_propagation_headers_verbatim() {
        let tp = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01";
        let raw = format!("GET / HTTP/1.1\r\nTraceParent: {tp}\r\nX-Request-ID: deadbeef\r\n\r\n");
        let req = parse(raw.as_bytes()).unwrap();
        assert_eq!(req.traceparent.as_deref(), Some(tp));
        assert_eq!(req.request_id.as_deref(), Some("deadbeef"));
        let req = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.traceparent, None);
        assert_eq!(req.request_id, None);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn malformed_inputs_map_to_400() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\ncontent-length: nan\r\n\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status(), Some(400), "{err:?} for {bad:?}");
        }
    }

    #[test]
    fn oversized_inputs_map_to_413() {
        let mut big_head = b"GET / HTTP/1.1\r\n".to_vec();
        big_head.extend(std::iter::repeat_n(b'x', 10_000));
        assert_eq!(parse(&big_head).unwrap_err().status(), Some(413));

        let huge_body = b"POST / HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n".to_vec();
        assert_eq!(parse(&huge_body).unwrap_err().status(), Some(413));
    }

    #[test]
    fn truncated_inputs_close_without_response() {
        assert!(matches!(parse(b""), Err(ParseError::Eof)));
        for trunc in [
            &b"POST /generate HT"[..],
            b"GET / HTTP/1.1\r\ncontent-le",
            b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc",
        ] {
            let err = parse(trunc).unwrap_err();
            assert!(err.status().is_none(), "{err:?}");
        }
    }

    #[test]
    fn response_writer_emits_valid_http() {
        let mut out = Vec::new();
        let resp = Response::json(429, "{}".to_string()).with_header("retry-after", "1".into());
        write_response(&mut out, &resp, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
