//! Integration tests for the serve hardening work: keep-alive connection
//! reuse, poisoned-framing close, slow-loris read timeouts, `503` at pool
//! saturation (never a silent drop), the dataset registry round trip,
//! latency histograms advancing in `GET /v1/stats`, a deeply nested body the
//! server survives, keep-alive exchanges and streamed sessions that never
//! wait for a delayed ACK, and weighted edits and uploads whose cost follows
//! their body rather than their weight — all over real sockets.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use common::{
    connection_header, consensus_body, demo_dataset, exchange, exchange_binary, get_u64,
    read_chunk, read_head, read_response, send_request, small_engine, spawn_server,
};
use mani_serve::{ServerConfig, COLUMNAR_CONTENT_TYPE};
use mani_service::{ColumnarDataset, COLUMNAR_MAGIC};
use serde::Value;

#[test]
fn keep_alive_connection_serves_multiple_exchanges() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(2),
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Three sequential exchanges on ONE connection: a solve, a stats read,
    // and a cached replay — each response must announce keep-alive.
    let solve = consensus_body("ka", r#""Fair-Borda""#, 0.2, true);
    for (round, (method, path, body)) in [
        ("POST", "/v1/consensus", solve.clone()),
        ("GET", "/v1/stats", String::new()),
        ("POST", "/v1/consensus", solve.clone()),
    ]
    .into_iter()
    .enumerate()
    {
        send_request(&mut stream, method, path, &body, false);
        let (status, headers, body) = read_response(&mut stream);
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(
            connection_header(&headers).as_deref(),
            Some("keep-alive"),
            "round {round}"
        );
    }

    // The replay was served from the response cache, on the same socket.
    send_request(&mut stream, "GET", "/v1/stats", "", false);
    let (_, _, stats) = read_response(&mut stream);
    let stats: Value = serde_json::from_str(&stats).unwrap();
    assert!(get_u64(&stats, &["response_cache", "hits"]) >= 1);
    assert_eq!(get_u64(&stats, &["engine", "submitted"]), 1);
    assert!(
        get_u64(&stats, &["server", "keepalive_reuses"]) >= 3,
        "{stats:?}"
    );
    assert_eq!(get_u64(&stats, &["server", "connections_accepted"]), 1);

    // An explicit `Connection: close` ends the session after the response.
    send_request(&mut stream, "GET", "/v1/methods", "", true);
    let (status, headers, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert_eq!(connection_header(&headers).as_deref(), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "nothing may follow a closing response");
    handle.stop();
}

#[test]
fn request_cap_closes_the_connection() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        max_requests_per_conn: 2,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_request(&mut stream, "GET", "/v1/methods", "", false);
    let (_, headers, _) = read_response(&mut stream);
    assert_eq!(connection_header(&headers).as_deref(), Some("keep-alive"));
    send_request(&mut stream, "GET", "/v1/methods", "", false);
    let (_, headers, _) = read_response(&mut stream);
    assert_eq!(
        connection_header(&headers).as_deref(),
        Some("close"),
        "the second exchange hits the cap"
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty());
    handle.stop();
}

#[test]
fn poisoned_second_request_answers_400_and_closes() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_request(&mut stream, "GET", "/v1/methods", "", false);
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200);

    // A garbage second request poisons the framing: the server answers 400
    // with `Connection: close` and drops the connection.
    stream
        .write_all(b"NOT-AN-HTTP-REQUEST\r\n\r\n")
        .expect("send garbage");
    let (status, headers, body) = read_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert_eq!(connection_header(&headers).as_deref(), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty());

    // A partial second request (body stalls short of Content-Length) is a
    // clean timeout + close, not a hang: the body read gives up server-side.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_request(&mut stream, "GET", "/v1/methods", "", false);
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    stream
        .write_all(b"POST /v1/consensus HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"tru")
        .expect("send partial request");
    let (status, headers, _) = read_response(&mut stream);
    assert_eq!(status, 408, "stalled body must time out");
    assert_eq!(connection_header(&headers).as_deref(), Some("close"));
    handle.stop();
}

#[test]
fn conflicting_content_lengths_are_rejected_over_the_wire() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"POST /v1/consensus HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nokxxx",
        )
        .expect("send smuggling-shaped request");
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("conflicting"), "{body}");
    handle.stop();
}

#[test]
fn slow_loris_stall_times_out_with_408() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        read_timeout: Duration::from_millis(250),
        idle_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    });
    // Trickle a partial request line and stall: the server must answer 408
    // within its read timeout, not hold the worker forever.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /v1/meth").expect("partial bytes");
    let started = Instant::now();
    let (status, headers, _) = read_response(&mut stream);
    assert_eq!(status, 408);
    assert_eq!(connection_header(&headers).as_deref(), Some("close"));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout must fire promptly"
    );

    // A trickling slow-loris — one byte per interval, each gap well inside
    // the per-read socket timeout — still hits the whole-request receive
    // deadline: the worker is reclaimed with a 408, not pinned indefinitely.
    let mut dripper = TcpStream::connect(handle.addr()).expect("connect");
    dripper
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    // Endless drip material: gaps (60 ms) stay far inside the per-read socket
    // timeout (250 ms), so only the whole-request deadline can cut this off.
    let drip = b"GET /v1/methods HTTP/1.1\r\nHost: drip-drip-drip-drip-drip-drip\r\n";
    let mut answered = None;
    'drip: for byte in drip.iter().cycle() {
        // Probe for the 408 BEFORE writing again, so the drip never races the
        // server-side close into a reset that discards the response.
        dripper
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        let mut probe = [0u8; 256];
        if let Ok(n) = dripper.read(&mut probe) {
            if n > 0 {
                answered = Some(String::from_utf8_lossy(&probe[..n]).to_string());
                break 'drip;
            }
        }
        if dripper.write_all(std::slice::from_ref(byte)).is_err() {
            break 'drip; // already cut off; pick the response up below
        }
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "deadline never fired"
        );
        std::thread::sleep(Duration::from_millis(60));
    }
    let answered = answered.unwrap_or_else(|| {
        dripper
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        let _ = dripper.read_to_end(&mut rest);
        String::from_utf8_lossy(&rest).to_string()
    });
    assert!(answered.starts_with("HTTP/1.1 408"), "{answered}");
    assert!(answered.contains("deadline"), "{answered}");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "deadline must reclaim the worker promptly"
    );

    // An idle keep-alive connection that never sends its next request is
    // closed silently (EOF), not answered with a bogus 408.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_request(&mut stream, "GET", "/v1/methods", "", false);
    let (status, _, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "idle close must be silent, got {rest:?}");
    handle.stop();
}

#[test]
fn saturated_pool_answers_503_with_retry_after() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        conn_threads: 1,
        max_connections: 1,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    // Occupy the single pool slot with a live keep-alive connection.
    let mut occupant = TcpStream::connect(handle.addr()).expect("connect occupant");
    occupant
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_request(&mut occupant, "GET", "/v1/methods", "", false);
    let (status, headers, _) = read_response(&mut occupant);
    assert_eq!(status, 200);
    assert_eq!(connection_header(&headers).as_deref(), Some("keep-alive"));

    // Saturated: the next connection is answered 503 on the accept path —
    // an explicit response with Retry-After, never a silent drop. The reject
    // path answers without reading a request, so the probe only reads (a
    // write could race the server-side close into a reset).
    let mut rejected = TcpStream::connect(handle.addr()).expect("connect surplus");
    rejected
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, headers, body) = read_response(&mut rejected);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("saturated"), "{body}");
    let retry_after = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .map(|(_, v)| v.clone());
    assert_eq!(retry_after.as_deref(), Some("1"), "{headers:?}");

    // The occupant still works (its worker was never stolen) and observes the
    // rejection in the stats counters.
    send_request(&mut occupant, "GET", "/v1/stats", "", false);
    let (status, _, stats) = read_response(&mut occupant);
    assert_eq!(status, 200);
    let stats: Value = serde_json::from_str(&stats).unwrap();
    assert!(get_u64(&stats, &["server", "connections_rejected"]) >= 1);
    assert_eq!(get_u64(&stats, &["server", "max_connections"]), 1);
    assert_eq!(get_u64(&stats, &["server", "conn_threads"]), 1);

    // Releasing the occupant frees the slot: a fresh connection is served.
    // Until the worker observes the close, attempts may still be rejected
    // (503, or a reset racing the rejection) — retry until admitted.
    drop(occupant);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let attempt = (|| -> std::io::Result<String> {
            let mut retry = TcpStream::connect(handle.addr())?;
            retry.set_read_timeout(Some(Duration::from_secs(10)))?;
            retry.write_all(b"GET /v1/methods HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")?;
            let mut raw = String::new();
            retry.read_to_string(&mut raw)?;
            Ok(raw)
        })();
        if let Ok(raw) = attempt {
            if raw.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(raw.is_empty() || raw.starts_with("HTTP/1.1 503"), "{raw}");
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.stop();
}

#[test]
fn idle_keep_alive_sessions_shed_when_connections_queue_behind_the_pool() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        conn_threads: 1,
        max_connections: 4,
        // Long idle timeout: only shedding can free the worker promptly.
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    // Session A completes one exchange, then sits idle on its keep-alive
    // connection — pinning the pool's only worker.
    let mut idle_session = TcpStream::connect(handle.addr()).expect("connect");
    idle_session
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_request(&mut idle_session, "GET", "/v1/methods", "", false);
    let (status, headers, _) = read_response(&mut idle_session);
    assert_eq!(status, 200);
    assert_eq!(connection_header(&headers).as_deref(), Some("keep-alive"));

    // A second connection queues behind the busy pool. The idle worker must
    // notice the contention, silently shed session A, and serve this one —
    // long before A's 30 s idle timeout would have freed it.
    let mut queued = TcpStream::connect(handle.addr()).expect("connect queued");
    queued
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    send_request(&mut queued, "GET", "/v1/methods", "", true);
    let started = Instant::now();
    let (status, _, body) = read_response(&mut queued);
    assert_eq!(status, 200, "queued connection must be served: {body}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shedding must free the worker promptly, not after the idle timeout"
    );

    // Session A was closed silently (EOF, no stray bytes).
    let mut rest = Vec::new();
    idle_session.read_to_end(&mut rest).expect("read EOF");
    assert!(rest.is_empty(), "shed must be silent, got {rest:?}");
    handle.stop();
}

/// Strips volatile fields (timings, cache flags) so solve payloads can be
/// compared bit-for-bit.
fn normalized(results: &Value) -> String {
    fn strip(value: &Value) -> Value {
        match value {
            Value::Object(entries) => Value::Object(
                entries
                    .iter()
                    .filter(|(k, _)| {
                        k != "duration_ms" && k != "cached" && k != "precedence_cache_hit"
                    })
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Value::Array(items) => Value::Array(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    serde_json::to_string(&strip(results)).unwrap()
}

#[test]
fn dataset_registry_round_trip_matches_inline_solves() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(2),
        cache_capacity: 16,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Upload once...
    let (status, uploaded) = exchange(addr, "POST", "/v1/datasets", &demo_dataset("reg"));
    assert_eq!(status, 200, "{uploaded:?}");
    let id = uploaded
        .get("id")
        .and_then(Value::as_str)
        .expect("dataset id")
        .to_string();
    assert!(id.starts_with("ds-"), "{id}");
    assert_eq!(uploaded.get("created"), Some(&Value::Bool(true)));

    let (status, meta) = exchange(addr, "GET", &format!("/v1/datasets/{id}"), "");
    assert_eq!(status, 200, "{meta:?}");
    assert_eq!(get_u64(&meta, &["candidates"]), 6);
    assert_eq!(get_u64(&meta, &["rankings"]), 3);

    // ...solve many times by reference. The first by-id solve computes...
    let by_id = format!(
        r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda", "Fair-Copeland"], "delta": 0.2, "wait": true}}"#
    );
    let (status, from_registry) = exchange(addr, "POST", "/v1/consensus", &by_id);
    assert_eq!(status, 200, "{from_registry:?}");
    assert_eq!(from_registry.get("cached"), Some(&Value::Bool(false)));

    // ...and the same request with inline rows is bit-identical (and is a
    // response-cache hit: the registry id IS the content fingerprint).
    let inline = consensus_body("reg", r#""Fair-Borda", "Fair-Copeland""#, 0.2, true);
    let (status, from_inline) = exchange(addr, "POST", "/v1/consensus", &inline);
    assert_eq!(status, 200, "{from_inline:?}");
    assert_eq!(from_inline.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(
        normalized(from_registry.get("results").unwrap()),
        normalized(from_inline.get("results").unwrap()),
        "by-reference and inline solves must return identical results"
    );

    // A different delta by id reuses the warm precedence matrix: still just
    // one build after a second full solve.
    let with_other_delta = format!(
        r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda"], "delta": 0.35, "wait": true}}"#
    );
    let (status, _) = exchange(addr, "POST", "/v1/consensus", &with_other_delta);
    assert_eq!(status, 200);
    let (_, stats) = exchange(addr, "GET", "/v1/stats", "");
    assert_eq!(
        get_u64(&stats, &["precedence_cache", "builds"]),
        1,
        "registered datasets share the engine's warm matrix: {stats:?}"
    );
    assert_eq!(get_u64(&stats, &["datasets_registered"]), 1);

    // Audits accept dataset references too.
    let audit = format!(r#"{{"dataset": {{"id": "{id}"}}, "delta": 0.1}}"#);
    let (status, audited) = exchange(addr, "POST", "/v1/audit", &audit);
    assert_eq!(status, 200, "{audited:?}");
    assert!(audited.get("consensus").is_some());

    // Delete: metadata and by-id solves both 404 afterwards.
    let (status, deleted) = exchange(addr, "DELETE", &format!("/v1/datasets/{id}"), "");
    assert_eq!(status, 200, "{deleted:?}");
    assert_eq!(deleted.get("deleted"), Some(&Value::Bool(true)));
    let (status, _) = exchange(addr, "GET", &format!("/v1/datasets/{id}"), "");
    assert_eq!(status, 404);
    let (status, missing) = exchange(addr, "POST", "/v1/consensus", &by_id);
    assert_eq!(status, 404, "{missing:?}");
    handle.stop();
}

#[test]
fn stats_expose_per_endpoint_latency_histograms() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(2),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let (_, _) = exchange(addr, "GET", "/v1/methods", "");
    let solve = consensus_body("hist", r#""Fair-Borda""#, 0.2, true);
    let (_, _) = exchange(addr, "POST", "/v1/consensus", &solve);
    let (_, _) = exchange(addr, "POST", "/v1/consensus", &solve);
    let (_, before) = exchange(addr, "GET", "/v1/stats", "");

    assert_eq!(get_u64(&before, &["latency", "consensus", "count"]), 2);
    assert_eq!(get_u64(&before, &["latency", "methods", "count"]), 1);
    let buckets = before
        .get("latency")
        .and_then(|l| l.get("consensus"))
        .and_then(|h| h.get("buckets"))
        .and_then(Value::as_array)
        .expect("bucket counts");
    let sum: u64 = buckets
        .iter()
        .map(|b| match b {
            Value::UInt(u) => *u,
            other => panic!("non-integer bucket {other:?}"),
        })
        .sum();
    assert_eq!(sum, 2, "bucket counts sum to the sample count");
    let bounds = before
        .get("latency")
        .and_then(|l| l.get("consensus"))
        .and_then(|h| h.get("le_us"))
        .and_then(Value::as_array)
        .expect("bucket bounds");
    assert_eq!(buckets.len(), bounds.len() + 1, "one overflow bucket");

    // Counters advance monotonically with traffic.
    let (_, _) = exchange(addr, "POST", "/v1/consensus", &solve);
    let (_, after) = exchange(addr, "GET", "/v1/stats", "");
    assert_eq!(get_u64(&after, &["latency", "consensus", "count"]), 3);
    assert!(
        get_u64(&after, &["latency", "stats", "count"])
            > get_u64(&before, &["latency", "stats", "count"]),
        "stats endpoint records itself"
    );
    handle.stop();
}

#[test]
fn deeply_nested_json_body_answers_400_and_the_server_keeps_serving() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    // Unbounded, this recursion would overflow a connection worker's stack
    // and abort the whole process.
    let (status, body) = exchange(addr, "POST", "/v1/consensus", &"[".repeat(1 << 20));
    assert_eq!(status, 400, "{body:?}");
    let message = body.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(message.contains("nesting deeper than 128"), "{body:?}");
    let (status, _) = exchange(addr, "GET", "/v1/methods", "");
    assert_eq!(status, 200);
    handle.stop();
}

/// Columnar bytes for a dataset of `attributes` (name, domain), candidates
/// (name, one value index per attribute) and one ranking of candidate ids.
/// The header fingerprint is zero: a refused schema fails before it is read.
fn columnar_body(
    attributes: &[(&str, Vec<String>)],
    candidates: &[(&str, Vec<u32>)],
    ranking: &[u32],
) -> Vec<u8> {
    fn put_str(out: &mut Vec<u8>, text: &str) {
        out.extend_from_slice(&(text.len() as u32).to_le_bytes());
        out.extend_from_slice(text.as_bytes());
    }
    let mut out = COLUMNAR_MAGIC.to_vec();
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.extend_from_slice(&0u64.to_le_bytes()); // fingerprint
    put_str(&mut out, "wide-domains");
    out.extend_from_slice(&(attributes.len() as u32).to_le_bytes());
    for (name, values) in attributes {
        put_str(&mut out, name);
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for value in values {
            put_str(&mut out, value);
        }
    }
    out.extend_from_slice(&(candidates.len() as u32).to_le_bytes());
    for (name, _) in candidates {
        put_str(&mut out, name);
    }
    for column in 0..attributes.len() {
        for (_, values) in candidates {
            out.extend_from_slice(&values[column].to_le_bytes());
        }
    }
    out.extend_from_slice(&1u32.to_le_bytes()); // one ranking
    out.extend_from_slice(&(ranking.len() as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&(ranking.len() as u64).to_le_bytes());
    for id in ranking {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

#[test]
fn attribute_domains_past_the_group_bound_answer_400_through_both_codecs() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    // Two candidates, three attributes of 2,000 declared values each: 8e9
    // intersectional groups. Unbounded, the first solve would allocate one
    // counter per group (64 GB) and abort the process.
    let domain: Vec<String> = (0..2000).map(|v| format!("v{v}")).collect();
    let quoted: Vec<String> = domain.iter().map(|v| format!("\"{v}\"")).collect();
    let quoted = quoted.join(",");
    let body = format!(
        r#"{{"dataset": {{"name": "wide-domains",
            "candidates": [
                {{"name": "a", "attributes": {{"A": "v0", "B": "v0", "C": "v0"}}}},
                {{"name": "b", "attributes": {{"A": "v1", "B": "v1", "C": "v1"}}}}
            ],
            "rankings": [["a", "b"]],
            "domains": {{"A": [{quoted}], "B": [{quoted}], "C": [{quoted}]}}}},
            "methods": ["Fair-Borda"], "wait": true}}"#
    );
    assert!(body.len() > 40_000, "{} bytes", body.len());
    let (status, reply) = exchange(addr, "POST", "/v1/consensus", &body);
    assert_eq!(status, 400, "{reply:?}");
    let message = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(message.contains("intersectional groups"), "{reply:?}");

    let attributes: Vec<(&str, Vec<String>)> = ["A", "B", "C"]
        .into_iter()
        .map(|name| (name, domain.clone()))
        .collect();
    let candidates = [("a", vec![0, 0, 0]), ("b", vec![1, 1, 1])];
    let columnar = columnar_body(&attributes, &candidates, &[0, 1]);
    let (status, reply) = exchange_binary(
        addr,
        "POST",
        "/v1/consensus?methods=Fair-Borda&wait=true",
        COLUMNAR_CONTENT_TYPE,
        &columnar,
    );
    assert_eq!(status, 400, "{reply:?}");
    let message = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(message.contains("intersectional groups"), "{reply:?}");

    // The server keeps serving.
    let (status, _) = exchange(
        addr,
        "POST",
        "/v1/consensus",
        &consensus_body("after", r#""Fair-Borda""#, 0.2, true),
    );
    assert_eq!(status, 200);
    handle.stop();
}

#[test]
fn keep_alive_exchanges_do_not_wait_for_delayed_acks() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        ..ServerConfig::default()
    });
    // The client's Nagle stays on: one write per request is enough. If a
    // response left in several writes, each exchange after the first would
    // wait for the client's delayed ACK (>= 40 ms on Linux).
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    for round in 0..20 {
        send_request(&mut stream, "GET", "/v1/methods", "", false);
        let (status, _, _) = read_response(&mut stream);
        assert_eq!(status, 200, "round {round}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 keep-alive exchanges took {elapsed:?}"
    );
    handle.stop();
}

#[test]
fn streamed_sessions_do_not_wait_for_delayed_acks() {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        ..ServerConfig::default()
    });
    // A session's head and NDJSON lines are separate writes. Under Nagle
    // each line waits for the client's delayed ACK of the one before it, so
    // this covers TCP_NODELAY on the server socket.
    let session = format!(
        r#"{{"dataset": {}, "methods": ["Fair-Borda"], "delta": 0.2,
            "edits": [{{"op": "append", "ranking": ["f","a","b","c","d","e"]}},
                      {{"op": "append", "ranking": ["a","f","b","c","e","d"]}}]}}"#,
        demo_dataset("nodelay")
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut durations = Vec::new();
    for _ in 0..8 {
        let started = Instant::now();
        send_request(&mut stream, "POST", "/v1/sessions", &session, false);
        let (status, _) = read_head(&mut stream);
        assert_eq!(status, 200);
        let mut lines = 0;
        while read_chunk(&mut stream).is_some() {
            lines += 1;
        }
        assert_eq!(lines, 3, "two edit lines + summary");
        durations.push(started.elapsed());
    }
    // Every session but the first would stall under Nagle; allow one slow
    // outlier for a busy host.
    let prompt = durations
        .iter()
        .filter(|d| **d < Duration::from_millis(40))
        .count();
    assert!(prompt >= 7, "sessions took {durations:?}");
    handle.stop();
}

/// Serialises the weight probes: each reads the process's memory
/// high-water mark around its requests, so no two may overlap.
static WEIGHT_PROBES: Mutex<()> = Mutex::new(());

/// The process's peak resident set (`VmHWM`) in kB. The server runs in this
/// process, so its allocations count.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line")
}

/// Most a weight probe may raise the peak resident set. Expanding weight
/// 2^24 into copies raised it by 3.4 GB.
const PROBE_RSS_KB: u64 = 64 * 1024;

/// A live server for one weight probe, with a registered four-candidate
/// dataset of two rankings; returns the server and the dataset's id.
fn weight_probe_server() -> (mani_serve::ServerHandle, String) {
    let handle = spawn_server(ServerConfig {
        engine: small_engine(1),
        ..ServerConfig::default()
    });
    let (status, uploaded) = exchange(handle.addr(), "POST", "/v1/datasets", PAIR);
    assert_eq!(status, 200, "{uploaded:?}");
    let id = uploaded.get("id").and_then(Value::as_str).unwrap();
    (handle, id.to_string())
}

/// Four candidates ranked by two rankings.
const PAIR: &str = r#"{"name": "pair",
    "candidates": [
        {"name": "a", "attributes": {"G": "x"}}, {"name": "b", "attributes": {"G": "y"}},
        {"name": "c", "attributes": {"G": "x"}}, {"name": "d", "attributes": {"G": "y"}}
    ],
    "rankings": [["a","b","c","d"], ["d","c","b","a"]]}"#;

/// One op of `weight` copies of the ranking `b, a, d, c` (or `order`).
fn weighted_op(op: &str, order: &str, weight: u64) -> String {
    format!(r#"{{"op": "{op}", "ranking": [{order}], "weight": {weight}}}"#)
}

const BADC: &str = r#""b","a","d","c""#;
const CDAB: &str = r#""c","d","a","b""#;

/// PATCHes the dataset `id` with `ops`, returning the status, the reply and
/// the time the exchange took.
fn patch(addr: SocketAddr, id: &str, ops: &[String]) -> (u16, Value, Duration) {
    let started = Instant::now();
    let body = format!(r#"{{"ops": [{}]}}"#, ops.join(","));
    let (status, reply) = exchange(addr, "PATCH", &format!("/v1/datasets/{id}"), &body);
    (status, reply, started.elapsed())
}

/// The server still answers after a probe.
fn assert_still_serving(addr: SocketAddr) {
    let (status, methods) = exchange(addr, "GET", "/v1/methods", "");
    assert_eq!(status, 200, "{methods:?}");
}

#[test]
fn a_patch_of_weight_two_to_the_24_answers_at_once_in_flat_memory() {
    let _serial = WEIGHT_PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, id) = weight_probe_server();
    let addr = handle.addr();
    let before = peak_rss_kb();
    let (status, reply, elapsed) = patch(addr, &id, &[weighted_op("append", BADC, 1 << 24)]);
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(get_u64(&reply, &["rankings"]), 2 + (1 << 24));
    assert!(elapsed < Duration::from_millis(500), "took {elapsed:?}");
    let grown = peak_rss_kb() - before;
    assert!(grown < PROBE_RSS_KB, "peak RSS grew by {grown} kB");
    assert_still_serving(addr);
    handle.stop();
}

#[test]
fn a_patch_past_the_total_weight_limit_answers_400() {
    let _serial = WEIGHT_PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, id) = weight_probe_server();
    let addr = handle.addr();
    let before = peak_rss_kb();
    let (status, reply, elapsed) = patch(addr, &id, &[weighted_op("append", BADC, 4_294_967_295)]);
    assert_eq!(status, 400, "{reply:?}");
    let message = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(
        message.contains("total ranking weight 4294967297"),
        "{reply:?}"
    );
    assert!(message.contains("4294967295"), "{reply:?}");
    assert!(elapsed < Duration::from_millis(500), "took {elapsed:?}");
    assert!(peak_rss_kb() - before < PROBE_RSS_KB);
    // The refused edit installed nothing.
    let (_, meta) = exchange(addr, "GET", &format!("/v1/datasets/{id}"), "");
    assert_eq!(get_u64(&meta, &["version"]), 1);
    assert_still_serving(addr);
    handle.stop();
}

#[test]
fn a_patch_up_to_the_total_weight_limit_answers_and_solves() {
    let _serial = WEIGHT_PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, id) = weight_probe_server();
    let addr = handle.addr();
    let before = peak_rss_kb();
    let (status, reply, elapsed) = patch(addr, &id, &[weighted_op("append", BADC, 4_294_967_293)]);
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(get_u64(&reply, &["rankings"]), u64::from(u32::MAX));
    assert!(elapsed < Duration::from_millis(500), "took {elapsed:?}");
    let solve = format!(
        r#"{{"dataset": {{"id": "{id}"}}, "methods": ["Fair-Borda"], "delta": 0.2, "wait": true}}"#
    );
    let (status, solved) = exchange(addr, "POST", "/v1/consensus", &solve);
    assert_eq!(status, 200, "{solved:?}");
    let result = &solved.get("results").and_then(Value::as_array).unwrap()[0];
    assert!(result.get("pd_loss").is_some(), "{solved:?}");
    assert!(peak_rss_kb() - before < PROBE_RSS_KB);
    assert_still_serving(addr);
    handle.stop();
}

#[test]
fn retracting_copies_before_a_heavy_run_takes_milliseconds() {
    let _serial = WEIGHT_PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, id) = weight_probe_server();
    let addr = handle.addr();
    let (status, reply, _) = patch(
        addr,
        &id,
        &[
            weighted_op("append", BADC, 256),
            weighted_op("append", CDAB, 1 << 20),
        ],
    );
    assert_eq!(status, 200, "{reply:?}");
    let before = peak_rss_kb();
    let (status, reply, elapsed) = patch(addr, &id, &[weighted_op("retract", BADC, 256)]);
    assert_eq!(status, 200, "{reply:?}");
    assert_eq!(get_u64(&reply, &["retracts"]), 256);
    assert_eq!(get_u64(&reply, &["rankings"]), 2 + (1 << 20));
    // Removing one copy at a time behind 2^20 others took ~4 s.
    assert!(elapsed < Duration::from_millis(100), "took {elapsed:?}");
    assert!(peak_rss_kb() - before < PROBE_RSS_KB);
    assert_still_serving(addr);
    handle.stop();
}

#[test]
fn columnar_weights_decode_up_to_the_total_weight_limit_and_answer_400_past_it() {
    let _serial = WEIGHT_PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, _) = weight_probe_server();
    let addr = handle.addr();
    let before = peak_rss_kb();
    let solve = "/v1/consensus?methods=Fair-Borda&delta=0.2&wait=true";
    let parsed = mani_service::parse_dataset(&mani_service::parse_body(PAIR).unwrap()).unwrap();
    let mut columns = ColumnarDataset::from_dataset(&parsed);
    columns.weights = Some(vec![u32::MAX - 1, 1]);
    let at_limit = columns.encode().unwrap();
    let (status, reply) = exchange_binary(addr, "POST", solve, COLUMNAR_CONTENT_TYPE, &at_limit);
    assert_eq!(status, 200, "{reply:?}");
    let result = &reply.get("results").and_then(Value::as_array).unwrap()[0];
    assert!(result.get("pd_loss").is_some(), "{reply:?}");
    // One more copy is past the limit. The encoder refuses that total, so
    // the body's weights column (its last 8 bytes) is rewritten.
    let mut past = at_limit;
    let at = past.len() - 8;
    past[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let (status, reply) = exchange_binary(addr, "POST", solve, COLUMNAR_CONTENT_TYPE, &past);
    assert_eq!(status, 400, "{reply:?}");
    let message = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(message.contains("total ranking weight"), "{reply:?}");
    assert!(peak_rss_kb() - before < PROBE_RSS_KB);
    assert_still_serving(addr);
    handle.stop();
}

#[test]
fn a_session_edit_of_a_huge_weight_costs_its_body_too() {
    let _serial = WEIGHT_PROBES.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, _) = weight_probe_server();
    let addr = handle.addr();
    let session = |weight: u64| {
        format!(
            r#"{{"dataset": {PAIR}, "methods": ["Fair-Borda"], "delta": 0.2,
                "edits": [{}, {}]}}"#,
            weighted_op("append", BADC, weight),
            weighted_op("retract", BADC, weight / 2),
        )
    };
    let before = peak_rss_kb();
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send_request(&mut stream, "POST", "/v1/sessions", &session(1 << 24), true);
    let (status, _) = read_head(&mut stream);
    assert_eq!(status, 200);
    let mut lines = Vec::new();
    while let Some(chunk) = read_chunk(&mut stream) {
        lines.push(chunk);
    }
    let elapsed = started.elapsed();
    assert_eq!(lines.len(), 3, "two edit lines + summary: {lines:?}");
    let last: Value = serde_json::from_str(&lines[1]).unwrap();
    assert_eq!(get_u64(&last, &["rankings"]), 2 + (1 << 23));
    assert!(elapsed < Duration::from_millis(500), "took {elapsed:?}");
    assert!(peak_rss_kb() - before < PROBE_RSS_KB);

    let (status, reply) = exchange(addr, "POST", "/v1/sessions", &session(4_294_967_295));
    assert_eq!(status, 400, "{reply:?}");
    let message = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(message.contains("total ranking weight"), "{reply:?}");
    assert_still_serving(addr);
    handle.stop();
}
