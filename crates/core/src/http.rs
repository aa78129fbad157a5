//! HTTP/1.1 message heads, read within bounds, and a keep-alive client.
//!
//! Both directions of the lab's HTTP traffic read heads through this
//! module: the portal server's request parser (`sdl-portal-server`) and
//! every client — [`RemoteBackend`](crate::RemoteBackend), the campaign
//! scheduler's health probe, `sdl-lab watch` and the bench bins. So one
//! set of limits holds on every socket: a line is at most [`MAX_LINE`]
//! bytes, a head at most [`MAX_HEADERS`] headers, `Content-Length` is
//! digits only, and a response body at most [`MAX_RESPONSE`] bytes.
//! Messages are `Content-Length`-framed on keep-alive connections: no
//! chunked encoding, no TLS.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on one start line or header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers in one head.
pub const MAX_HEADERS: usize = 64;
/// Largest response body a client allocates for. A `/v1/batch` reply
/// carries one plate frame (~0.9 MB at 640×480); a `Content-Length` past
/// this is a broken or hostile peer, refused before allocating for it.
pub const MAX_RESPONSE: usize = 64 * 1024 * 1024;

/// Connect timeout of [`HttpClient::connect`].
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Read timeout of [`HttpClient::connect`]; longer than the portal's 25 s
/// ceiling on an `/events` long-poll.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a message could not be read.
#[derive(Debug)]
pub enum ParseError {
    /// A malformed start line, header or `Content-Length`.
    Malformed(&'static str),
    /// A line, the header count or a body length over its limit.
    TooLarge {
        /// What is over the limit.
        what: &'static str,
        /// The limit.
        limit: usize,
    },
    /// The socket failed mid-read.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(what) => write!(f, "malformed message: {what}"),
            ParseError::TooLarge { what, limit } => {
                write!(f, "{what} exceeds the limit of {limit}")
            }
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<ParseError> for io::Error {
    fn from(e: ParseError) -> io::Error {
        match e {
            ParseError::Io(e) => e,
            e => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

/// Read one line of at most [`MAX_LINE`] bytes and strip its line end.
///
/// `Ok(None)` means the peer hung up, closing or resetting the
/// connection, before the line's first byte: between two messages, the
/// end of the connection.
pub fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ParseError> {
    let mut line = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if line.is_empty() && hung_up(&e) => return Ok(None),
            Err(e) => return Err(ParseError::Io(e)),
        };
        if buf.is_empty() {
            return if line.is_empty() { Ok(None) } else { Err(ParseError::Malformed("eof")) };
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map(|i| i + 1).unwrap_or(buf.len());
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if line.len() > MAX_LINE {
            return Err(ParseError::TooLarge { what: "line length", limit: MAX_LINE });
        }
        if nl.is_some() {
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| ParseError::Malformed("non-utf8 line"));
        }
    }
}

/// A read error that means the peer hung up rather than failed.
fn hung_up(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe | io::ErrorKind::UnexpectedEof
    )
}

/// Read the header lines that follow a start line, through the blank line
/// that ends the head: at most [`MAX_HEADERS`], each `name: value`, names
/// lower-cased, names and values trimmed.
pub fn read_headers(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, ParseError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or(ParseError::Malformed("eof in headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge { what: "header count", limit: MAX_HEADERS });
        }
        let (name, value) =
            line.split_once(':').ok_or(ParseError::Malformed("header without colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// The head's `Content-Length`, if it has one, and at most `limit`.
/// Digits only: `str::parse` would also take a sign (`+5`).
pub fn content_length(
    headers: &[(String, String)],
    limit: usize,
) -> Result<Option<usize>, ParseError> {
    let Some((_, value)) = headers.iter().find(|(k, _)| k == "content-length") else {
        return Ok(None);
    };
    let length = Some(value)
        .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or(ParseError::Malformed("bad content-length"))?;
    if length > limit {
        return Err(ParseError::TooLarge { what: "body length", limit });
    }
    Ok(Some(length))
}

/// Read a body of exactly `length` bytes.
pub fn read_body(reader: &mut impl Read, length: usize) -> Result<Vec<u8>, ParseError> {
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(ParseError::Io)?;
    Ok(body)
}

/// One response as read off the wire.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Read one response: an `HTTP/1.x` status line with a three-digit code,
/// the headers, and a body framed by a `Content-Length` of at most
/// [`MAX_RESPONSE`].
///
/// `Ok(None)` means the peer hung up before the first byte of the status
/// line, so it answered nothing (see [`read_line`]).
pub fn read_response(reader: &mut impl BufRead) -> Result<Option<HttpResponse>, ParseError> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let status = parse_status(&line).ok_or(ParseError::Malformed("bad status line"))?;
    let headers = read_headers(reader)?;
    let length = content_length(&headers, MAX_RESPONSE)?
        .ok_or(ParseError::Malformed("missing content-length"))?;
    let body = read_body(reader, length)?;
    Ok(Some(HttpResponse { status, headers, body }))
}

/// The code of an `HTTP/1.x SSS reason` status line: three digits, so
/// `+20` is refused as `parse` alone would not.
fn parse_status(line: &str) -> Option<u16> {
    let mut parts = line.splitn(3, ' ');
    let (version, code) = (parts.next()?, parts.next()?);
    let three_digits = code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit());
    if !version.starts_with("HTTP/1.") || !three_digits {
        return None;
    }
    code.parse().ok()
}

/// The bytes of one request for `path`: a GET, or with a body a JSON POST.
pub(crate) fn request_bytes(path: &str, body: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + path.len() + body.map_or(0, <[u8]>::len));
    let method = if body.is_some() { "POST" } else { "GET" };
    let _ = write!(out, "{method} {path} HTTP/1.1\r\nHost: sdl-lab\r\n");
    if let Some(body) = body {
        let _ =
            write!(out, "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n", body.len());
        out.extend_from_slice(body);
    } else {
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connect to `addr` with a 5 s connect timeout; reads time out after
    /// 30 s.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        HttpClient::connect_timeout(addr, CONNECT_TIMEOUT, READ_TIMEOUT)
    }

    /// Connect to the first address `addr` resolves to that accepts within
    /// `connect`; reads on the connection time out after `read`.
    pub(crate) fn connect_timeout(
        addr: impl ToSocketAddrs,
        connect: Duration,
        read: Duration,
    ) -> io::Result<HttpClient> {
        let mut last = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, connect) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(read))?;
                    return Ok(HttpClient { reader: BufReader::new(stream) });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no addresses resolved")))
    }

    /// Issue one GET over the persistent connection.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.send(&request_bytes(path, None))?;
        self.answer()
    }

    /// Issue one JSON POST over the persistent connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.send(&request_bytes(path, Some(body.as_bytes())))?;
        self.answer()
    }

    /// Write request bytes (see [`request_bytes`]) without reading.
    pub(crate) fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.reader.get_mut().write_all(bytes)
    }

    /// Read the next response (see [`read_response`]).
    pub(crate) fn read_response(&mut self) -> Result<Option<HttpResponse>, ParseError> {
        read_response(&mut self.reader)
    }

    fn answer(&mut self) -> io::Result<HttpResponse> {
        self.read_response()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed before a response")
        })
    }
}

/// One-shot GET over a fresh connection.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> io::Result<HttpResponse> {
    HttpClient::connect(addr)?.get(path)
}

/// One-shot JSON POST over a fresh connection.
pub fn post(addr: impl ToSocketAddrs, path: &str, body: &str) -> io::Result<HttpResponse> {
    HttpClient::connect(addr)?.post(path, body)
}
