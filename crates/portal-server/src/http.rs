//! A deliberately small HTTP/1.1 implementation over `std::io`.
//!
//! Supports exactly what the portal front-end and the batch-execution API
//! need: GET/HEAD/POST requests, percent-decoded paths and query strings,
//! `Content-Length`-framed request bodies (bounded), keep-alive
//! connections, and `Content-Length`-framed responses. No chunked
//! encoding, no TLS.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on one request line or header line, bytes.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers per request.
const MAX_HEADERS: usize = 64;
/// Upper bound on a request body. Requests carry configs and batches of
/// ratios, never plate frames (those only travel in `/v1/batch` replies).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// One parsed HTTP request head.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method ("GET", "HEAD", ...).
    pub method: String,
    /// Percent-decoded path, query string stripped ("/records").
    pub path: String,
    /// Percent-decoded query pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length`-framed; empty for GET/HEAD).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Header value (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// True when the client asked to drop the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|c| c.eq_ignore_ascii_case("close"))
    }

    /// Body as UTF-8.
    pub fn body_text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// Errors a request parse can produce (each maps to a 4xx).
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line or header.
    Malformed(&'static str),
    /// A line or the header block exceeded the size limits.
    TooLarge,
    /// The socket failed mid-read.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::TooLarge => write!(f, "request too large"),
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ParseError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(ParseError::Io)?;
        if buf.is_empty() {
            // Clean EOF before any byte → no more requests on the socket.
            return if line.is_empty() { Ok(None) } else { Err(ParseError::Malformed("eof")) };
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map(|i| i + 1).unwrap_or(buf.len());
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if line.len() > MAX_LINE {
            return Err(ParseError::TooLarge);
        }
        if nl.is_some() {
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| ParseError::Malformed("non-utf8 header"));
        }
    }
}

/// Decode `%xx` escapes and `+`-as-space (query component form).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Read one request head off the socket.
///
/// Returns `Ok(None)` on a clean EOF (keep-alive connection closed by the
/// peer between requests).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, ParseError> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_ascii_whitespace();
    let method = parts.next().ok_or(ParseError::Malformed("empty request line"))?;
    let target = parts.next().ok_or(ParseError::Malformed("missing target"))?;
    let version = parts.next().ok_or(ParseError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader)? else {
            return Err(ParseError::Malformed("eof in headers"));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge);
        }
        let (name, value) =
            line.split_once(':').ok_or(ParseError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Read a Content-Length-framed body so keep-alive framing stays in
    // sync even on routes that ignore it. An unparsable length is a hard
    // error — treating it as 0 would leave body bytes in the stream to be
    // misread as the next request line.
    let mut body = Vec::new();
    let length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => {
            v.parse::<usize>().map_err(|_| ParseError::Malformed("bad content-length"))?
        }
        None => 0,
    };
    if length > 0 {
        if length > MAX_BODY {
            return Err(ParseError::TooLarge);
        }
        body = vec![0u8; length];
        reader.read_exact(&mut body).map_err(ParseError::Io)?;
    }

    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path),
        query: parse_query(raw_query),
        headers,
        body,
    }))
}

/// One response, always `Content-Length`-framed.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Extra headers (name, value).
    pub headers: Vec<(String, String)>,
    /// Body bytes (omitted on the wire for HEAD).
    pub body: Vec<u8>,
    /// True when the connection must be dropped without writing anything —
    /// nothing goes on the wire, the socket just closes. Used by chaos
    /// injection to simulate a worker dying mid-request.
    pub hangup: bool,
}

impl Response {
    /// A response with a status, content type, and body.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            headers: Vec::new(),
            body: body.into(),
            hangup: false,
        }
    }

    /// Plain-text 200.
    pub fn text(body: impl Into<Vec<u8>>) -> Response {
        Response::new(200, "text/plain; charset=utf-8", body)
    }

    /// HTML 200.
    pub fn html(body: impl Into<Vec<u8>>) -> Response {
        Response::new(200, "text/html; charset=utf-8", body)
    }

    /// JSON 200.
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response::new(200, "application/json", body)
    }

    /// Plain-text error with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        Response::new(status, "text/plain; charset=utf-8", format!("{message}\n"))
    }

    /// A load-shedding refusal: `429` (per-tenant quota) or `503`
    /// (capacity), always carrying a `Retry-After` hint in whole seconds
    /// so well-behaved clients back off instead of hammering.
    pub fn shed(status: u16, message: &str, retry_after: Duration) -> Response {
        Response::error(status, message).with_header("Retry-After", retry_after.as_secs().max(1))
    }

    /// A connection hangup: the handler decided to drop the socket without
    /// answering (chaos `kill` fault). The connection loop writes nothing
    /// and closes; the status/body here never reach the wire.
    pub fn hangup() -> Response {
        Response { hangup: true, ..Response::new(500, "text/plain", "") }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: impl std::fmt::Display) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

/// Serialize a response; `head_only` suppresses the body (HEAD), `close`
/// advertises connection teardown.
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
    head_only: bool,
    close: bool,
) -> io::Result<()> {
    write!(w, "HTTP/1.1 {} {}\r\n", resp.status, resp.reason())?;
    write!(w, "Content-Type: {}\r\n", resp.content_type)?;
    write!(w, "Content-Length: {}\r\n", resp.body.len())?;
    for (name, value) in &resp.headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "Connection: {}\r\n\r\n", if close { "close" } else { "keep-alive" })?;
    if !head_only {
        w.write_all(&resp.body)?;
    }
    w.flush()
}

/// Slow-loris protection: a [`Read`] adapter over a borrowed `TcpStream`
/// that enforces two wall-clock bounds per request:
///
/// * while *idle* (no byte of the next request seen yet) each read waits
///   at most `idle_timeout` — a silent keep-alive connection is released
///   after that;
/// * from the first byte of a request, every subsequent read is capped by
///   the time remaining until `now + request_deadline` — a client
///   trickling one header byte per second cannot pin a pool thread past
///   the deadline, because the socket timeout is re-armed with the
///   *remaining* time, not a fresh per-read allowance.
///
/// Call [`DeadlineStream::start_request`] before parsing each request so
/// the deadline re-arms per request, not per connection. Reads served
/// from the `BufReader` above this adapter (pipelined bytes) don't touch
/// the clock, which only makes the bound more generous, never tighter.
pub struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    idle_timeout: Duration,
    request_deadline: Duration,
    deadline: Option<Instant>,
}

impl<'a> DeadlineStream<'a> {
    /// Wrap `stream`; both durations are clamped to at least 1 ms so a
    /// zero config can't turn every read into an instant timeout.
    pub fn new(
        stream: &'a TcpStream,
        idle_timeout: Duration,
        request_deadline: Duration,
    ) -> DeadlineStream<'a> {
        DeadlineStream {
            stream,
            idle_timeout: idle_timeout.max(Duration::from_millis(1)),
            request_deadline: request_deadline.max(Duration::from_millis(1)),
            deadline: None,
        }
    }

    /// Reset to the idle phase; the next byte read arms a fresh deadline.
    pub fn start_request(&mut self) {
        self.deadline = None;
    }

    /// True when the last read failed because the request deadline
    /// expired (as opposed to an idle keep-alive timeout).
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.deadline {
            None => self.idle_timeout,
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "request read deadline exceeded",
                    ));
                }
                left
            }
        };
        self.stream.set_read_timeout(Some(timeout))?;
        let n = self.stream.read(buf)?;
        if self.deadline.is_none() && n > 0 {
            self.deadline = Some(Instant::now() + self.request_deadline);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Request {
        read_request(&mut BufReader::new(text.as_bytes())).unwrap().unwrap()
    }

    #[test]
    fn parses_request_line_and_headers() {
        let r = parse("GET /records?kind=sample&limit=5 HTTP/1.1\r\nHost: x\r\nX-A: b\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/records");
        assert_eq!(r.query_param("kind"), Some("sample"));
        assert_eq!(r.query_param("limit"), Some("5"));
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("X-A"), Some("b"));
        assert!(!r.wants_close());
    }

    #[test]
    fn percent_decoding_applies() {
        let r = parse("GET /blobs/blob%3Aabc?name=a%20b+c HTTP/1.1\r\n\r\n");
        assert_eq!(r.path, "/blobs/blob:abc");
        assert_eq!(r.query_param("name"), Some("a b c"));
        assert_eq!(percent_decode("100%"), "100%");
    }

    #[test]
    fn clean_eof_returns_none() {
        assert!(read_request(&mut BufReader::new(&b""[..])).unwrap().is_none());
    }

    #[test]
    fn malformed_requests_error() {
        assert!(read_request(&mut BufReader::new(&b"GARBAGE\r\n\r\n"[..])).is_err());
        assert!(read_request(&mut BufReader::new(&b"GET / SPDY/3\r\n\r\n"[..])).is_err());
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(10_000));
        assert!(read_request(&mut BufReader::new(long.as_bytes())).is_err());
    }

    #[test]
    fn connection_close_detected() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(r.wants_close());
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::text("hello"), false, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn head_omits_body() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::text("hello"), true, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }
}
