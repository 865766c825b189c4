//! Minimal HTTP/1.1 transport: request reading with size limits, and
//! response writing with keep-alive.
//!
//! The service speaks just enough HTTP/1.1 for JSON-over-POST clients
//! (curl, the bench harness's loopback transport, the integration tests):
//! `Content-Length` framed bodies, case-insensitive headers, persistent
//! connections by default, `Connection: close` honored. Chunked encoding,
//! pipelining tricks, and expect/continue are deliberately out of scope —
//! a request using them is rejected rather than misparsed.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;

use crate::error::AppError;

/// Maximum accepted size of the request line + headers block; no single
/// line is buffered beyond it.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (query strings are not used by this API and are kept
    /// attached — no route carries one).
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Looks up a header by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before a request line — the
    /// normal end of a keep-alive session, not an error to report.
    Closed,
    /// The socket's read timeout elapsed with no byte of a new request on
    /// the wire: an idle keep-alive tick. The caller decides whether to
    /// keep waiting (and can check a shutdown flag between ticks).
    Idle,
    /// The bytes on the wire are not an HTTP/1.1 request we accept.
    Malformed(String),
    /// The declared body exceeds the configured limit.
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
    /// The socket failed mid-read.
    Io(std::io::Error),
}

impl ReadError {
    /// The answer to a request rejected before routing: 413
    /// `body_too_large` for a declared body over the limit, 400 `bad_json`
    /// for malformed bytes. `None` when the connection simply ends (closed,
    /// idle or failed socket) and there is nobody to answer.
    pub fn rejection(&self) -> Option<AppError> {
        match self {
            ReadError::Malformed(message) => {
                Some(AppError::bad_json(format!("malformed request: {message}")))
            }
            ReadError::TooLarge { declared, limit } => {
                Some(AppError::body_too_large(*declared, *limit))
            }
            ReadError::Closed | ReadError::Idle | ReadError::Io(_) => None,
        }
    }
}

/// Reads one request from `reader`, enforcing `max_body` on the declared
/// `Content-Length` and [`MAX_HEAD_BYTES`] on every head line as it is
/// read. `TooLarge` is returned *before* the body is consumed, so the
/// caller must close the connection after answering it.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let request_line = read_line(reader, true)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_line(reader, false)?;
        head_bytes += line.len() + 2;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed("header block too large".into()));
        }
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::Malformed(
            "chunked bodies are not supported".into(),
        ));
    }

    let declared = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if declared > max_body {
        return Err(ReadError::TooLarge {
            declared,
            limit: max_body,
        });
    }
    if declared > 0 {
        let mut body = vec![0u8; declared];
        reader.read_exact(&mut body).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                ReadError::Malformed("connection truncated mid-body".into())
            }
            _ => ReadError::Io(e),
        })?;
        request.body = body;
    }
    Ok(request)
}

/// Reads one CRLF (or bare-LF) terminated line, buffering at most
/// `MAX_HEAD_BYTES + 1` bytes of it. `at_start` distinguishes a clean
/// keep-alive close (EOF before any byte) from a truncated request.
fn read_line<R: BufRead>(reader: &mut R, at_start: bool) -> Result<String, ReadError> {
    let mut line = String::new();
    let limit = MAX_HEAD_BYTES as u64 + 1;
    match reader.by_ref().take(limit).read_line(&mut line) {
        Ok(0) if at_start => Err(ReadError::Closed),
        Ok(0) => Err(ReadError::Malformed(
            "connection truncated mid-request".into(),
        )),
        Ok(n) if n > MAX_HEAD_BYTES => Err(ReadError::Malformed("line too long".into())),
        Ok(_) => {
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(line)
        }
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Err(ReadError::Malformed("request is not valid UTF-8".into()))
        }
        Err(e)
            if at_start
                && line.is_empty()
                && matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
        {
            // Read timeout with nothing consumed: the connection is merely
            // idle between requests, not broken.
            Err(ReadError::Idle)
        }
        Err(e) => Err(ReadError::Io(e)),
    }
}

/// The reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a JSON response; `close` adds `Connection: close`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n",
        status,
        status_text(status),
        body.len(),
        if close { "connection: close\r\n" } else { "" },
    );
    // One write per response: split head/body writes interact with Nagle +
    // delayed ACK into ~40 ms stalls per request on loopback.
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body.as_bytes());
    stream.write_all(&wire)?;
    stream.flush()
}
