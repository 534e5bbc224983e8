//! Shared raw-socket HTTP client helpers for the serve integration tests:
//! framing-aware response reads (keep-alive connections never reach EOF, so
//! `read_to_string` would hang) and a pinned demo dataset payload.
#![allow(dead_code)] // each test binary uses a subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mani_engine::EngineConfig;
use mani_serve::{Server, ServerConfig, ServerHandle};
use serde::Value;

/// Spawns a test server with the given connection-pool shape.
pub fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind an ephemeral port")
        .spawn()
        .expect("spawn the accept loop")
}

/// A small engine config for tests (bounded threads, default queue).
pub fn small_engine(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        ..EngineConfig::default()
    }
}

/// Writes one JSON request onto an open stream without reading the
/// response. `close` adds `Connection: close`; otherwise HTTP/1.1
/// keep-alive applies.
pub fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    send_binary_request(
        stream,
        method,
        path,
        "application/json",
        body.as_bytes(),
        close,
    );
}

/// Writes one request with an arbitrary (possibly binary) body and an
/// explicit `Content-Type` — the columnar upload path. `close` adds
/// `Connection: close`; otherwise HTTP/1.1 keep-alive applies.
///
/// Head and body leave in one write: split across several, the client's
/// own Nagle would hold the rest until the server's delayed ACK (~40 ms)
/// on every keep-alive exchange after the first.
pub fn send_binary_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
    close: bool,
) {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{connection}Content-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).expect("send request");
}

/// One one-shot exchange with a binary body returning `(status, JSON)`.
pub fn exchange_binary(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    send_binary_request(&mut stream, method, path, content_type, body, true);
    let (status, _, body) = read_response(&mut stream);
    let value = serde_json::from_str(&body).unwrap_or(Value::Null);
    (status, value)
}

/// Reads exactly one HTTP response off the stream (headers, then the body's
/// `Content-Length` bytes — works on keep-alive connections where EOF never
/// comes). Returns `(status, headers, body)`; header names are lower-cased.
pub fn read_response(stream: &mut TcpStream) -> (u16, Vec<(String, String)>, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    // Headers end at the first CRLFCRLF.
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            other => panic!("connection ended mid-headers ({other:?}); got {raw:?}"),
        }
    }
    let head = String::from_utf8(raw).expect("UTF-8 response head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .expect("status line")
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().expect("numeric Content-Length"))
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    (
        status,
        headers,
        String::from_utf8(body).expect("UTF-8 body"),
    )
}

/// Reads the head (status line + headers) of one HTTP response, leaving the
/// stream positioned at the first body byte. Used for chunked responses,
/// which [`read_response`]'s `Content-Length` framing cannot handle.
pub fn read_head(stream: &mut TcpStream) -> (u16, Vec<(String, String)>) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            other => panic!("connection ended mid-headers ({other:?}); got {raw:?}"),
        }
    }
    let head = String::from_utf8(raw).expect("UTF-8 response head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .expect("status line")
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers)
}

/// Reads one chunk of a chunked response body. `None` marks the terminating
/// zero-length chunk (trailer consumed): the body is complete and the
/// connection is positioned at the next exchange. The server writes one
/// NDJSON line per chunk, so for `"stream": true` one chunk is one line.
pub fn read_chunk(stream: &mut TcpStream) -> Option<String> {
    let mut size_line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(1) => {
                if byte[0] == b'\n' {
                    break;
                }
                size_line.push(byte[0]);
            }
            other => panic!("connection ended mid-chunk-size ({other:?})"),
        }
    }
    if size_line.last() == Some(&b'\r') {
        size_line.pop();
    }
    let size = usize::from_str_radix(
        std::str::from_utf8(&size_line).expect("UTF-8 chunk size"),
        16,
    )
    .unwrap_or_else(|_| panic!("malformed chunk size {size_line:?}"));
    let mut payload = vec![0u8; size + 2]; // payload + trailing CRLF
    stream.read_exact(&mut payload).expect("read chunk payload");
    assert_eq!(
        &payload[size..],
        b"\r\n",
        "chunk payload must end with CRLF"
    );
    payload.truncate(size);
    if size == 0 {
        return None;
    }
    Some(String::from_utf8(payload).expect("UTF-8 chunk"))
}

/// Recursively strips volatile timing fields (`duration_ms`,
/// `total_solve_time_ms`) — and optionally the `cached` markers — so two
/// response payloads can be compared bit-for-bit on everything that is not
/// wall-clock noise.
pub fn strip_volatile(value: &Value, strip_cached: bool) -> Value {
    match value {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .filter(|(key, _)| {
                    key != "duration_ms"
                        && key != "total_solve_time_ms"
                        && !(strip_cached && key == "cached")
                })
                .map(|(key, inner)| (key.clone(), strip_volatile(inner, strip_cached)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(
            items
                .iter()
                .map(|item| strip_volatile(item, strip_cached))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The `Connection:` header value of a response, lower-cased.
pub fn connection_header(headers: &[(String, String)]) -> Option<String> {
    headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
}

/// One one-shot exchange (`Connection: close`) returning `(status, JSON)`.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    send_request(&mut stream, method, path, body, true);
    let (status, _, body) = read_response(&mut stream);
    let value = serde_json::from_str(&body).unwrap_or(Value::Null);
    (status, value)
}

/// One one-shot `GET` returning `(status, headers, raw body text)` — for
/// non-JSON endpoints like `/metrics` (Prometheus text exposition).
pub fn fetch_text(addr: SocketAddr, path: &str) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    send_request(&mut stream, "GET", path, "", true);
    read_response(&mut stream)
}

/// Integer lookup along a JSON path; panics with context when absent.
pub fn get_u64(value: &Value, path: &[&str]) -> u64 {
    let mut current = value;
    for key in path {
        current = current.get(key).unwrap_or(&Value::Null);
    }
    match current {
        Value::UInt(u) => *u,
        Value::Int(i) => *i as u64,
        other => panic!("expected integer at {path:?}, found {other:?}"),
    }
}

/// A six-candidate dataset JSON object under `name`.
pub fn demo_dataset(name: &str) -> String {
    format!(
        r#"{{
            "name": "{name}",
            "candidates": [
                {{"name": "a", "attributes": {{"G": "x"}}}},
                {{"name": "b", "attributes": {{"G": "y"}}}},
                {{"name": "c", "attributes": {{"G": "x"}}}},
                {{"name": "d", "attributes": {{"G": "y"}}}},
                {{"name": "e", "attributes": {{"G": "x"}}}},
                {{"name": "f", "attributes": {{"G": "y"}}}}
            ],
            "rankings": [
                ["a","b","c","d","e","f"],
                ["f","e","d","c","b","a"],
                ["b","a","c","e","d","f"]
            ]
        }}"#
    )
}

/// A consensus request body over [`demo_dataset`].
pub fn consensus_body(name: &str, methods: &str, delta: f64, wait: bool) -> String {
    format!(
        r#"{{"dataset": {}, "methods": [{methods}], "delta": {delta}, "wait": {wait}}}"#,
        demo_dataset(name)
    )
}
