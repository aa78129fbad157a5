//! The server half of HTTP/1.1 over `std::io`.
//!
//! Supports exactly what the portal front-end and the batch-execution API
//! need: GET/HEAD/POST requests, percent-decoded paths and query strings,
//! `Content-Length`-framed request bodies (bounded), keep-alive
//! connections, and `Content-Length`-framed responses. Heads are read by
//! the same bounded reader the clients use ([`sdl_core::http`]). No
//! chunked encoding, no TLS.

use sdl_core::http::{self, ParseError};
use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on a request body. Requests carry configs and batches of
/// ratios, never plate frames (those only travel in `/v1/batch` replies):
/// a full 96-well `/v1/batch` body is ~4.7 KB. Every admitted connection
/// has its own thread, so at the default 256-connection cap at most
/// 128 MiB of request bodies are buffered at once.
pub const MAX_BODY: usize = 512 * 1024;

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

/// Decode `%xx` escapes and `+`-as-space (query component form).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Exactly two hex digits; `from_str_radix` would also take
                // a sign (`%+f`).
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    h.iter()
                        .try_fold(0u8, |acc, &b| Some(acc << 4 | (b as char).to_digit(16)? as u8))
                });
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
/// Returns `Ok(None)` when the peer hung up between requests (a
/// keep-alive connection closed or reset before the next request line).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, ParseError> {
    let Some(line) = http::read_line(reader)? else {
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

    let headers = http::read_headers(reader)?;
    // Read a Content-Length-framed body so keep-alive framing stays in
    // sync even on routes that ignore it. An unparsable length is a hard
    // error — treating it as 0 would leave body bytes in the stream to be
    // misread as the next request line.
    let length = http::content_length(&headers, MAX_BODY)?.unwrap_or(0);
    let body = http::read_body(reader, length)?;

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
///   trickling one header byte per second cannot hold its connection
///   thread past the deadline, because the socket timeout is re-armed
///   with the *remaining* time, not a fresh per-read allowance.
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
    use proptest::prelude::*;
    use sdl_core::http::{read_response, MAX_LINE};
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
    fn percent_escapes_take_exactly_two_hex_digits() {
        assert_eq!(percent_decode("a%+fb"), "a% fb");
        assert_eq!(percent_decode("a%-fb"), "a%-fb");
        assert_eq!(percent_decode("%4a%4A%zz%4"), "JJ%zz%4");
    }

    #[test]
    fn content_length_takes_digits_only() {
        let body = |len: &str| {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\nhello");
            read_request(&mut BufReader::new(raw.as_bytes())).map(|r| r.unwrap().body)
        };
        assert_eq!(body("5").unwrap(), b"hello");
        for bad in ["+5", "-5", "", "5a", "0x5"] {
            assert!(
                matches!(body(bad), Err(ParseError::Malformed("bad content-length"))),
                "{bad:?}"
            );
        }
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

    /// Percent-encode every byte outside `[A-Za-z0-9/._~-]`, so decoding
    /// must give back exactly `s`.
    fn encode(s: &str) -> String {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'/' | b'.' | b'_' | b'~' | b'-' => {
                    char::from(b).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    /// The decoding rules one byte at a time: `%` and two hex digits is
    /// that byte, `+` is a space, anything else is itself.
    fn model_decode(s: &str) -> String {
        fn hex(c: Option<&u8>) -> Option<u8> {
            match *c? {
                c @ b'0'..=b'9' => Some(c - b'0'),
                c @ b'a'..=b'f' => Some(c - b'a' + 10),
                c @ b'A'..=b'F' => Some(c - b'A' + 10),
                _ => None,
            }
        }
        let b = s.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < b.len() {
            match (b[i], hex(b.get(i + 1)), hex(b.get(i + 2))) {
                (b'%', Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                (b'+', ..) => {
                    out.push(b' ');
                    i += 1;
                }
                (c, ..) => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// A reader that counts the bytes pulled through it.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, dense in the parser's delimiters and digits,
        /// never panic it, with or without a valid head in front.
        #[test]
        fn arbitrary_bytes_never_panic(
            head in prop_oneof![
                Just(""),
                Just("GET / HTTP/1.1\r\n"),
                Just("POST /v1/batch HTTP/1.1\r\nContent-Length: "),
            ],
            bytes in proptest::collection::vec(
                prop_oneof![
                    Just(b'\r'),
                    Just(b'\n'),
                    Just(b':'),
                    Just(b'%'),
                    b'0'..=b'9',
                    any::<u8>(),
                ],
                0..512,
            ),
        ) {
            let mut input = head.as_bytes().to_vec();
            input.extend_from_slice(&bytes);
            let mut reader = BufReader::new(&input[..]);
            while let Ok(Some(_)) = read_request(&mut reader) {}
        }

        /// A request built from arbitrary fields parses back to those
        /// fields, and the bytes after its body stay unread for the next
        /// request.
        #[test]
        fn built_requests_parse_back(
            method in "[A-Za-z]{1,7}",
            path in any::<String>(),
            query in proptest::collection::vec((any::<String>(), any::<String>()), 0..4),
            headers in proptest::collection::vec(("[A-Za-z0-9-]{1,12}", "[ -~é☃]{0,24}"), 0..8),
            body in proptest::collection::vec(any::<u8>(), 0..256),
            next in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut target = format!("/{}", encode(&path));
            if !query.is_empty() {
                let pairs: Vec<String> =
                    query.iter().map(|(k, v)| format!("{}={}", encode(k), encode(v))).collect();
                target = format!("{target}?{}", pairs.join("&"));
            }
            let mut raw = format!("{method} {target} HTTP/1.1\r\n");
            for (name, value) in &headers {
                raw.push_str(&format!("X-{name}: {value}\r\n"));
            }
            raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut raw = raw.into_bytes();
            raw.extend_from_slice(&body);
            raw.extend_from_slice(&next);

            let mut reader = BufReader::new(&raw[..]);
            let req = read_request(&mut reader).unwrap().unwrap();
            prop_assert_eq!(req.method, method.to_ascii_uppercase());
            prop_assert_eq!(req.path, format!("/{path}"));
            prop_assert_eq!(req.query, query);
            let mut want: Vec<(String, String)> = headers
                .iter()
                .map(|(n, v)| (format!("x-{}", n.to_ascii_lowercase()), v.trim().to_string()))
                .collect();
            want.push(("content-length".to_string(), body.len().to_string()));
            prop_assert_eq!(req.headers, want);
            prop_assert_eq!(req.body, body);
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            prop_assert_eq!(rest, next);
        }

        /// `percent_decode` agrees with the model on strings dense in `%`,
        /// signs and hex digits, `%+f` among them.
        #[test]
        fn percent_decode_matches_the_model(
            parts in proptest::collection::vec(
                prop_oneof!["%", "[+]", "-", "[0-9a-fA-F]", "[g-z ]", "[é☃]"],
                0..24,
            ),
        ) {
            let s = parts.concat();
            prop_assert_eq!(percent_decode(&s), model_decode(&s), "{:?}", s);
        }

        /// A header line with no newline is refused as `TooLarge` after
        /// reading at most `MAX_LINE` plus one buffer fill.
        #[test]
        fn endless_header_line_is_too_large(
            capacity in 1usize..4096,
            headers in 0usize..4,
            byte in any::<u8>(),
        ) {
            let byte = if byte == b'\n' { b'x' } else { byte };
            let mut head = "GET / HTTP/1.1\r\n".to_string();
            for i in 0..headers {
                head.push_str(&format!("X-{i}: v\r\n"));
            }
            let source = Counting { inner: head.as_bytes().chain(io::repeat(byte)), read: 0 };
            let mut reader = BufReader::with_capacity(capacity, source);
            prop_assert!(matches!(read_request(&mut reader), Err(ParseError::TooLarge { .. })));
            let read = reader.get_ref().read;
            prop_assert!(read <= head.len() + MAX_LINE + capacity, "read {} bytes", read);
        }

        /// The client's response reader shares the head reader: arbitrary
        /// bytes never panic it either, with or without a valid status
        /// line in front.
        #[test]
        fn arbitrary_response_bytes_never_panic(
            head in prop_oneof![
                Just(""),
                Just("HTTP/1.1 200 OK\r\n"),
                Just("HTTP/1.1 200 OK\r\nContent-Length: "),
            ],
            bytes in proptest::collection::vec(
                prop_oneof![
                    Just(b'\r'),
                    Just(b'\n'),
                    Just(b':'),
                    Just(b' '),
                    b'0'..=b'9',
                    any::<u8>(),
                ],
                0..512,
            ),
        ) {
            let mut input = head.as_bytes().to_vec();
            input.extend_from_slice(&bytes);
            let mut reader = BufReader::new(&input[..]);
            while let Ok(Some(_)) = read_response(&mut reader) {}
        }

        /// A response built from an arbitrary status, headers and body
        /// parses back to those fields, and the bytes after its body stay
        /// unread for the next response.
        #[test]
        fn built_responses_parse_back(
            status in 100u16..1000,
            reason in "[ -~]{0,16}",
            headers in proptest::collection::vec(("[A-Za-z0-9-]{1,12}", "[ -~é☃]{0,24}"), 0..8),
            body in proptest::collection::vec(any::<u8>(), 0..256),
            next in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut raw = format!("HTTP/1.1 {status} {reason}\r\n");
            for (name, value) in &headers {
                raw.push_str(&format!("X-{name}: {value}\r\n"));
            }
            raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut raw = raw.into_bytes();
            raw.extend_from_slice(&body);
            raw.extend_from_slice(&next);

            let mut reader = BufReader::new(&raw[..]);
            let resp = read_response(&mut reader).unwrap().unwrap();
            prop_assert_eq!(resp.status, status);
            let mut want: Vec<(String, String)> = headers
                .iter()
                .map(|(n, v)| (format!("x-{}", n.to_ascii_lowercase()), v.trim().to_string()))
                .collect();
            want.push(("content-length".to_string(), body.len().to_string()));
            prop_assert_eq!(resp.headers, want);
            prop_assert_eq!(resp.body, body);
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            prop_assert_eq!(rest, next);
        }

        /// A response header line with no newline is refused as
        /// `TooLarge` after reading at most `MAX_LINE` plus one buffer
        /// fill, as a request's is.
        #[test]
        fn endless_response_header_line_is_too_large(
            capacity in 1usize..4096,
            headers in 0usize..4,
            byte in any::<u8>(),
        ) {
            let byte = if byte == b'\n' { b'x' } else { byte };
            let mut head = "HTTP/1.1 200 OK\r\n".to_string();
            for i in 0..headers {
                head.push_str(&format!("X-{i}: v\r\n"));
            }
            let source = Counting { inner: head.as_bytes().chain(io::repeat(byte)), read: 0 };
            let mut reader = BufReader::with_capacity(capacity, source);
            prop_assert!(matches!(read_response(&mut reader), Err(ParseError::TooLarge { .. })));
            let read = reader.get_ref().read;
            prop_assert!(read <= head.len() + MAX_LINE + capacity, "read {} bytes", read);
        }
    }
}
