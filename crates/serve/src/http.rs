//! Minimal hand-rolled HTTP/1.1 support: request parsing and response
//! rendering over any buffered stream.
//!
//! Deliberately std-only (same spirit as the engine's hand-rolled CSV
//! front-end): exactly the subset the JSON API needs — a request line, headers,
//! an optional `Content-Length` body — with hard limits on line length, header
//! count, and body size so one connection cannot balloon memory. Connections
//! are persistent by default (HTTP/1.1 keep-alive): the server loops multiple
//! exchanges per connection, honoring `Connection:` headers, an idle timeout,
//! and a per-connection request cap before answering `Connection: close`
//! (see [`crate::server`] for the connection loop itself).
//!
//! Request smuggling is rejected at the parser: several `Content-Length`
//! headers that disagree are a hard `400` — a proxy and this server must never
//! disagree about where one request ends and the next begins.
//!
//! On the way out, every message — a buffered response, a chunked head, each
//! chunk, the terminating chunk — is rendered into one buffer and leaves in a
//! single `write` call (see `render_head`).

use std::io::{BufRead, Write};
use std::time::Instant;

/// Longest accepted request line or header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes (datasets ride in the body).
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Upper-cased request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any query string stripped (e.g. `/v1/jobs/job-3`).
    pub path: String,
    /// Raw query string after `?`, if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs in arrival order; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Minor HTTP version: `0` for `HTTP/1.0`, `1` for `HTTP/1.1`.
    pub minor_version: u8,
}

impl HttpRequest {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open after this
    /// exchange: an explicit `Connection: close` wins, an explicit
    /// `Connection: keep-alive` wins for HTTP/1.0, and otherwise the
    /// HTTP/1.1 default (persistent) / HTTP/1.0 default (close) applies.
    pub fn wants_keep_alive(&self) -> bool {
        let tokens: Vec<String> = self
            .header("connection")
            .map(|v| {
                v.split(',')
                    .map(|t| t.trim().to_ascii_lowercase())
                    .collect()
            })
            .unwrap_or_default();
        if tokens.iter().any(|t| t == "close") {
            return false;
        }
        if tokens.iter().any(|t| t == "keep-alive") {
            return true;
        }
        self.minor_version >= 1
    }

    /// The body as UTF-8 text.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::bad("request body is not UTF-8"))
    }

    /// Reads and parses one request from a buffered stream.
    pub fn read_from(stream: &mut impl BufRead) -> Result<HttpRequest, HttpError> {
        Self::read_from_duplex(stream, &mut std::io::sink())
    }

    /// Like [`HttpRequest::read_from`], but answers `Expect: 100-continue` on
    /// `interim` before consuming the body — curl sends that header for
    /// bodies over ~1 KiB and stalls ~1 s waiting for the interim response.
    pub fn read_from_duplex(
        stream: &mut impl BufRead,
        interim: &mut impl Write,
    ) -> Result<HttpRequest, HttpError> {
        Self::read_from_duplex_deadline(stream, interim, None)
    }

    /// Like [`HttpRequest::read_from_duplex`], with a hard deadline for
    /// receiving the **entire** request. A per-read socket timeout alone does
    /// not stop a slow-loris client dripping one byte per interval; the
    /// deadline is checked as bytes arrive, so such a connection is cut off
    /// with `408` no matter how steadily it trickles.
    ///
    /// A read timeout **before the first byte of the request line** returns
    /// the silent [`HttpError::closed`] marker: an idle keep-alive connection
    /// that reaches its idle timeout is dropped without a response. A timeout
    /// (or deadline expiry) after bytes arrived is a real `408`.
    pub fn read_from_duplex_deadline(
        stream: &mut impl BufRead,
        interim: &mut impl Write,
        deadline: Option<Instant>,
    ) -> Result<HttpRequest, HttpError> {
        let request_line = read_line(stream, true, deadline)?;
        if request_line.is_empty() {
            return Err(HttpError::closed());
        }
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| HttpError::bad("empty request line"))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| HttpError::bad("request line has no path"))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError::bad("request line has no HTTP version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::new(505, format!("unsupported {version}")));
        }
        let minor_version: u8 = version["HTTP/1.".len()..]
            .parse()
            .map_err(|_| HttpError::bad(format!("malformed HTTP version `{version}`")))?;
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };

        let mut headers = Vec::new();
        loop {
            let line = read_line(stream, false, deadline)?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= MAX_HEADERS {
                return Err(HttpError::bad("too many headers"));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::bad("malformed header line"))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        // This parser frames bodies by Content-Length only. A request carrying
        // Transfer-Encoding would desync the connection under keep-alive (its
        // chunked body bytes would parse as the *next* request — the other
        // request-smuggling shape), so it is refused outright (RFC 9112 §6.1).
        if headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return Err(HttpError::new(
                501,
                "Transfer-Encoding is not supported; send a Content-Length body",
            ));
        }

        // Several `Content-Length` headers that agree are tolerated (RFC 9110
        // §8.6 allows folding an identical list); any disagreement is the
        // request-smuggling shape and must be a hard 400, never "first wins".
        let mut content_length: Option<usize> = None;
        for (_, value) in headers.iter().filter(|(n, _)| n == "content-length") {
            let parsed = value
                .parse::<usize>()
                .map_err(|_| HttpError::bad("invalid Content-Length"))?;
            match content_length {
                Some(previous) if previous != parsed => {
                    return Err(HttpError::bad(format!(
                        "conflicting Content-Length headers ({previous} vs {parsed})"
                    )));
                }
                _ => content_length = Some(parsed),
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::new(
                413,
                format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES} byte limit"),
            ));
        }
        let expects_continue = headers
            .iter()
            .any(|(n, v)| n == "expect" && v.to_ascii_lowercase().contains("100-continue"));
        if expects_continue && content_length > 0 {
            // A failed interim write means the client is gone; the body read
            // below surfaces that as the error.
            let _ = interim.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            let _ = interim.flush();
        }
        // Chunked reads instead of one `read_exact`, so the receive deadline
        // also covers a body that trickles in.
        let mut body = vec![0u8; content_length];
        let mut filled = 0usize;
        while filled < content_length {
            if deadline_expired(deadline) {
                return Err(HttpError::new(408, "request receive deadline exceeded"));
            }
            match stream.read(&mut body[filled..]) {
                Ok(0) => return Err(HttpError::bad("body shorter than Content-Length")),
                Ok(n) => filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(HttpError::new(408, "timed out reading the request body"));
                }
                Err(_) => return Err(HttpError::bad("body shorter than Content-Length")),
            }
        }
        Ok(HttpRequest {
            method,
            path,
            query,
            headers,
            body,
            minor_version,
        })
    }
}

/// True when a receive deadline is set and has passed.
fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Reads one CRLF- (or LF-) terminated line, enforcing [`MAX_LINE_BYTES`] and
/// the whole-request receive `deadline` (checked per arriving byte, so a
/// trickling sender cannot out-wait the per-read socket timeout).
///
/// With `idle_ok`, a read timeout before any byte arrives maps to the silent
/// [`HttpError::closed`] marker (used for the request line, so idle keep-alive
/// connections close without a bogus `408`); any later stall stays a `408`.
fn read_line(
    stream: &mut impl BufRead,
    idle_ok: bool,
    deadline: Option<Instant>,
) -> Result<String, HttpError> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break, // connection closed
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                raw.push(byte[0]);
                if raw.len() > MAX_LINE_BYTES {
                    return Err(HttpError::bad("header line too long"));
                }
                if deadline_expired(deadline) {
                    return Err(HttpError::new(408, "request receive deadline exceeded"));
                }
            }
            Err(e)
                if idle_ok
                    && raw.is_empty()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(HttpError::closed());
            }
            Err(e) => return Err(HttpError::new(408, format!("read failed: {e}"))),
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| HttpError::bad("header line is not UTF-8"))
}

/// One HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (200, 202, 400, 404, 429, 503, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`), rendered before `Connection:`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serializes the response with `Connection: close` (the one-shot form;
    /// the server's keep-alive loop uses [`HttpResponse::write_conn`]).
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        self.write_conn(stream, false)
    }

    /// Serializes the response (status line, headers, body) onto a stream in
    /// one write, announcing whether the connection stays open for another
    /// exchange.
    pub fn write_conn(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut message = Vec::with_capacity(HEAD_CAPACITY + self.body.len());
        render_head(
            &mut message,
            self.status,
            self.content_type,
            Framing::Length(self.body.len()),
            &self.extra_headers,
            keep_alive,
        )?;
        message.extend_from_slice(self.body.as_bytes());
        stream.write_all(&message)?;
        stream.flush()
    }
}

/// Room reserved for a response head, so appending the body rarely
/// reallocates.
const HEAD_CAPACITY: usize = 256;

/// How a response body is delimited on the wire.
enum Framing {
    /// `Content-Length`: a buffered body of this many bytes.
    Length(usize),
    /// `Transfer-Encoding: chunked`: a streamed body ended by a zero chunk.
    Chunked,
}

/// Renders a response head into `out`: the status line, `Content-Type`, the
/// framing header, `extra_headers`, `Connection:` and the blank line.
///
/// Every message leaves in one `write` call: the head rides in the same
/// buffer as a buffered body, and each chunk of a streamed body is framed
/// whole. Many small writes would let Nagle's algorithm hold everything
/// after the first segment until the client's delayed ACK (~40 ms).
fn render_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    framing: Framing,
    extra_headers: &[(&'static str, String)],
    keep_alive: bool,
) -> std::io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
        status_reason(status)
    )?;
    match framing {
        Framing::Length(length) => write!(out, "Content-Length: {length}\r\n")?,
        Framing::Chunked => out.extend_from_slice(b"Transfer-Encoding: chunked\r\n"),
    }
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(out, "Connection: {connection}\r\n\r\n")
}

/// Header block of a streamed (`Transfer-Encoding: chunked`) response.
///
/// Chunked framing is used for **responses only** — chunked *requests* are
/// still refused with `501` by the parser above, because a request body
/// without a `Content-Length` would desync keep-alive framing. A chunked
/// response has no such problem: the terminating zero-length chunk marks the
/// body end explicitly, so the connection can stay open for the next
/// exchange exactly like a `Content-Length` response.
#[derive(Debug, Clone)]
pub struct ChunkedResponse {
    /// Status code (normally 200; the head is written before the body).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers, rendered before `Connection:`.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl ChunkedResponse {
    /// A chunked NDJSON response head (`application/x-ndjson`).
    pub fn ndjson(status: u16) -> Self {
        Self {
            status,
            content_type: "application/x-ndjson",
            extra_headers: Vec::new(),
        }
    }

    /// Adds an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Writes the status line and headers in one write, announcing chunked
    /// framing, and returns the body writer. The head is flushed immediately
    /// so clients see the response begin before the first chunk is produced.
    pub fn begin<'a, W: Write>(
        &self,
        stream: &'a mut W,
        keep_alive: bool,
    ) -> std::io::Result<ChunkedBody<'a, W>> {
        let mut head = Vec::with_capacity(HEAD_CAPACITY);
        render_head(
            &mut head,
            self.status,
            self.content_type,
            Framing::Chunked,
            &self.extra_headers,
            keep_alive,
        )?;
        stream.write_all(&head)?;
        stream.flush()?;
        Ok(ChunkedBody {
            stream,
            finished: false,
        })
    }
}

/// Writer for the body of a [`ChunkedResponse`]: one `write_chunk` per
/// payload piece (flushed immediately, so NDJSON lines arrive as they are
/// produced), then [`ChunkedBody::finish`] for the terminating zero chunk.
#[derive(Debug)]
pub struct ChunkedBody<'a, W: Write> {
    stream: &'a mut W,
    finished: bool,
}

impl<W: Write> ChunkedBody<'_, W> {
    /// Writes one chunk (size line, payload, CRLF) in one write and flushes
    /// it. Empty payloads are skipped — a zero-length chunk would terminate
    /// the body ([`ChunkedBody::finish`] does that explicitly).
    pub fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        // Up to 16 hex digits plus two CRLFs of framing.
        let mut frame = Vec::with_capacity(data.len() + 20);
        write!(frame, "{:x}\r\n", data.len())?;
        frame.extend_from_slice(data);
        frame.extend_from_slice(b"\r\n");
        self.stream.write_all(&frame)?;
        self.stream.flush()
    }

    /// Writes the terminating zero-length chunk. Idempotent.
    pub fn finish(&mut self) -> std::io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// An HTTP-level failure carrying the status it should be reported with.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// Status code to report (`0` marks a silently closed connection).
    pub status: u16,
    /// Human-readable description.
    pub message: String,
}

impl HttpError {
    /// An error with an explicit status.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }

    /// A `400 Bad Request` error.
    pub fn bad(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }

    /// Marker for a connection that closed (or idled out) before sending a
    /// request; the server drops it without answering.
    pub fn closed() -> Self {
        Self::new(0, "connection closed before a request arrived")
    }

    /// True when the peer closed the connection without a request.
    pub fn is_closed(&self) -> bool {
        self.status == 0
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http {}: {}", self.status, self.message)
    }
}

impl std::error::Error for HttpError {}

/// The standard reason phrase for a status code.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        415 => "Unsupported Media Type",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        HttpRequest::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body() {
        let request =
            parse("POST /v1/consensus HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
                .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/consensus");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert_eq!(request.body_utf8().unwrap(), "{\"a\"");
        assert_eq!(request.minor_version, 1);
    }

    #[test]
    fn parses_get_with_query_and_no_body() {
        let request = parse("GET /v1/jobs/job-3?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/v1/jobs/job-3");
        assert_eq!(request.query.as_deref(), Some("verbose=1"));
        assert!(request.body.is_empty());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse("").unwrap_err().is_closed());
        assert_eq!(parse("GET\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x HTTP/2\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(
            parse("GET /x HTTP/1.1\r\nbroken header\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: oops\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Body shorter than declared.
        assert_eq!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
                .unwrap_err()
                .status,
            400
        );
        // Oversized declared body.
        let huge = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(parse(&huge).unwrap_err().status, 413);
    }

    #[test]
    fn malformed_minor_versions_are_rejected() {
        assert_eq!(parse("GET /x HTTP/1.x\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x HTTP/1.\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x HTTP/1.1\r\n\r\n").unwrap().minor_version, 1);
    }

    #[test]
    fn transfer_encoding_is_refused() {
        // Chunked framing would desync keep-alive connections (smuggling
        // shape): refuse it outright instead of misreading the body.
        let err = parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 501);
        assert!(err.message.contains("Transfer-Encoding"), "{err}");
    }

    #[test]
    fn receive_deadline_cuts_off_trickling_requests() {
        // An already-expired deadline trips as soon as bytes arrive.
        let raw = "GET /v1/methods HTTP/1.1\r\n\r\n";
        let expired = Some(Instant::now() - std::time::Duration::from_millis(1));
        let err = HttpRequest::read_from_duplex_deadline(
            &mut BufReader::new(raw.as_bytes()),
            &mut std::io::sink(),
            expired,
        )
        .unwrap_err();
        assert_eq!(err.status, 408);
        assert!(err.message.contains("deadline"), "{err}");

        // A generous deadline lets a complete request through untouched.
        let future = Some(Instant::now() + std::time::Duration::from_secs(60));
        let request = HttpRequest::read_from_duplex_deadline(
            &mut BufReader::new(raw.as_bytes()),
            &mut std::io::sink(),
            future,
        )
        .unwrap();
        assert_eq!(request.path, "/v1/methods");
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // The request-smuggling shape: two Content-Length headers disagreeing
        // about where the body ends. Must be 400, never "first header wins".
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nokummm")
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("conflicting"), "{err}");

        // Identical duplicates fold to one value (RFC 9110 §8.6).
        let request =
            parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(request.body_utf8().unwrap(), "ok");
    }

    #[test]
    fn keep_alive_negotiation_follows_version_and_connection_header() {
        let http11 = parse("GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert!(http11.wants_keep_alive(), "HTTP/1.1 defaults persistent");

        let http11_close = parse("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!http11_close.wants_keep_alive());

        let http10 = parse("GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(http10.minor_version, 0);
        assert!(!http10.wants_keep_alive(), "HTTP/1.0 defaults close");

        let http10_ka = parse("GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(http10_ka.wants_keep_alive());

        // `close` wins over other tokens in a list.
        let mixed = parse("GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(!mixed.wants_keep_alive());
    }

    #[test]
    fn expect_100_continue_gets_an_interim_response() {
        let raw = "POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let mut interim = Vec::new();
        let request =
            HttpRequest::read_from_duplex(&mut BufReader::new(raw.as_bytes()), &mut interim)
                .unwrap();
        assert_eq!(request.body_utf8().unwrap(), "ok");
        assert_eq!(
            String::from_utf8(interim).unwrap(),
            "HTTP/1.1 100 Continue\r\n\r\n"
        );

        // No Expect header: nothing interim is written.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut interim = Vec::new();
        HttpRequest::read_from_duplex(&mut BufReader::new(raw.as_bytes()), &mut interim).unwrap();
        assert!(interim.is_empty());
    }

    #[test]
    fn response_serializes_with_headers() {
        let mut out = Vec::new();
        HttpResponse::json(429, "{\"error\":\"overloaded\"}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"overloaded\"}"));
    }

    #[test]
    fn response_keep_alive_and_extra_headers_serialize() {
        let mut out = Vec::new();
        HttpResponse::json(503, "{\"error\":\"busy\"}")
            .with_header("Retry-After", "1")
            .write_conn(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));

        let mut out = Vec::new();
        HttpResponse::json(200, "{}")
            .write_conn(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn chunked_response_frames_each_chunk_and_terminates() {
        let mut out = Vec::new();
        {
            let head = ChunkedResponse::ndjson(200).with_header("X-Demo", "1");
            let mut body = head.begin(&mut out, true).unwrap();
            body.write_chunk(b"{\"index\":0}\n").unwrap();
            body.write_chunk(b"").unwrap(); // skipped, must not terminate
            body.write_chunk(b"{\"summary\":true}\n").unwrap();
            body.finish().unwrap();
            body.finish().unwrap(); // idempotent
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/x-ndjson\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("X-Demo: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Content-Length"), "chunked bodies have none");
        // Chunk framing: hex size, payload, CRLF — then the zero terminator.
        assert!(text.contains("c\r\n{\"index\":0}\n\r\n"), "{text}");
        assert!(text.contains("11\r\n{\"summary\":true}\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"), "{text}");
        let zero_chunks = text.matches("0\r\n\r\n").count();
        assert_eq!(zero_chunks, 1, "finish must be idempotent: {text}");
    }

    #[test]
    fn chunked_response_close_negotiation() {
        let mut out = Vec::new();
        {
            let mut body = ChunkedResponse::ndjson(200).begin(&mut out, false).unwrap();
            body.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"));
    }

    /// A sink that accepts every buffer whole and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl CountingWriter {
        /// The calls and bytes written since the last `take`.
        fn take(&mut self) -> (usize, String) {
            let writes = std::mem::take(&mut self.writes);
            let text = String::from_utf8(std::mem::take(&mut self.bytes)).unwrap();
            (writes, text)
        }
    }

    #[test]
    fn every_message_leaves_in_one_write() {
        // Several writes per message let Nagle hold all but the first
        // segment until the peer's delayed ACK: ~40 ms per exchange.
        let mut sink = CountingWriter::default();
        HttpResponse::json(503, "{\"error\":\"busy\"}")
            .with_header("Retry-After", "1")
            .with_header("x-request-id", "r-1")
            .write_conn(&mut sink, true)
            .unwrap();
        assert_eq!(
            sink.take(),
            (
                1,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 16\r\nRetry-After: 1\r\nx-request-id: r-1\r\n\
                 Connection: keep-alive\r\n\r\n{\"error\":\"busy\"}"
                    .to_string()
            )
        );

        let mut body = ChunkedResponse::ndjson(200)
            .with_header("x-request-id", "r-2")
            .begin(&mut sink, false)
            .unwrap();
        assert_eq!(
            body.stream.take(),
            (
                1,
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                 Transfer-Encoding: chunked\r\nx-request-id: r-2\r\n\
                 Connection: close\r\n\r\n"
                    .to_string()
            )
        );
        body.write_chunk(b"{\"index\":0}\n").unwrap();
        assert_eq!(
            body.stream.take(),
            (1, "c\r\n{\"index\":0}\n\r\n".to_string())
        );
        body.finish().unwrap();
        assert_eq!(body.stream.take(), (1, "0\r\n\r\n".to_string()));
    }

    #[test]
    fn reason_phrases_cover_api_statuses() {
        for status in [200, 202, 400, 404, 405, 408, 409, 413, 429, 500, 503] {
            assert_ne!(status_reason(status), "Unknown");
        }
        assert_eq!(status_reason(999), "Unknown");
    }
}
