//! A minimal HTTP/1.1 client for tests and the load generator.
//!
//! Talks `Content-Length`-framed keep-alive HTTP — exactly the dialect the
//! server speaks. Not a general-purpose client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest response body the client allocates for. A `Content-Length` past
/// it is refused before any allocation (`RemoteBackend` applies the same
/// limit to `/v1` replies).
const MAX_RESPONSE: usize = 64 * 1024 * 1024;

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

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient { reader, writer: stream })
    }

    /// Issue one GET over the persistent connection.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        write!(self.writer, "GET {path} HTTP/1.1\r\nHost: portal\r\n\r\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Issue one JSON POST over the persistent connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        write!(
            self.writer,
            "POST {path} HTTP/1.1\r\nHost: portal\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad status: {status_line}"))
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing content-length"))?;
        if length > MAX_RESPONSE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response of {length} bytes exceeds the {MAX_RESPONSE}-byte limit"),
            ));
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(HttpResponse { status, headers, body })
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
