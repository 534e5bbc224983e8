//! The TCP accept loop and the bounded connection worker pool.
//!
//! The accept thread never parses HTTP: it only bounds admission. Each
//! accepted stream is handed to one of [`ServerConfig::conn_threads`] worker
//! threads over a channel, gated by an in-flight counter capped at
//! [`ServerConfig::max_connections`]. When the pool is saturated — or no
//! worker thread could be spawned at all — the accept path answers `503
//! Service Unavailable` with a `Retry-After` header instead of silently
//! dropping the connection (the failure mode of the old detached
//! thread-per-connection design: a failed `thread::Builder::spawn` dropped
//! the stream and the client hung until its own timeout).
//!
//! Workers loop HTTP/1.1 keep-alive exchanges per connection: multiple
//! requests are served on one socket, bounded by an idle timeout between
//! requests, a per-request read timeout, and a per-connection request cap,
//! after which the response carries `Connection: close`. Heavy lifting still
//! happens inside the engine's worker pool; connection workers mostly parse,
//! enqueue, and serialize.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mani_engine::EngineConfig;

use crate::handlers::{AppState, Handled};
use crate::http::{HttpRequest, HttpResponse};
use mani_service::error_body;

/// Default bound on connections in flight (queued + being served).
pub const DEFAULT_MAX_CONNECTIONS: usize = 256;
/// Default per-read timeout while a request is being received.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Default wait for the next request on an idle keep-alive connection.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Default cap on exchanges served over one keep-alive connection.
pub const DEFAULT_MAX_REQUESTS_PER_CONN: usize = 128;
/// `Retry-After` seconds advertised on `503` rejections.
const RETRY_AFTER_SECS: u64 = 1;

/// Server construction parameters. Zero values mean "use the default".
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine configuration (threads, queue depth, default budget).
    pub engine: EngineConfig,
    /// Response-cache entry bound (`0` = default).
    pub cache_capacity: usize,
    /// Most connections in flight (queued for a worker + being served) before
    /// the accept path answers `503` (`0` = [`DEFAULT_MAX_CONNECTIONS`]).
    pub max_connections: usize,
    /// Connection worker threads (`0` = `min(8, available cores)`).
    pub conn_threads: usize,
    /// Per-read timeout while receiving a request (zero =
    /// [`DEFAULT_READ_TIMEOUT`]).
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection waits for its next request
    /// before the server closes it (zero = [`DEFAULT_IDLE_TIMEOUT`]).
    pub idle_timeout: Duration,
    /// Exchanges served per connection before `Connection: close`
    /// (`0` = [`DEFAULT_MAX_REQUESTS_PER_CONN`]).
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            cache_capacity: 0,
            max_connections: 0,
            conn_threads: 0,
            read_timeout: Duration::ZERO,
            idle_timeout: Duration::ZERO,
            max_requests_per_conn: 0,
        }
    }
}

/// Connection-loop limits with defaults applied, shared by every worker.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    read_timeout: Duration,
    idle_timeout: Duration,
    max_requests: usize,
}

impl ConnLimits {
    fn resolve(config: &ServerConfig) -> Self {
        Self {
            read_timeout: if config.read_timeout.is_zero() {
                DEFAULT_READ_TIMEOUT
            } else {
                config.read_timeout
            },
            idle_timeout: if config.idle_timeout.is_zero() {
                DEFAULT_IDLE_TIMEOUT
            } else {
                config.idle_timeout
            },
            max_requests: if config.max_requests_per_conn == 0 {
                DEFAULT_MAX_REQUESTS_PER_CONN
            } else {
                config.max_requests_per_conn
            },
        }
    }
}

/// A bound (but not yet accepting) HTTP server over one [`AppState`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    limits: ConnLimits,
    max_connections: usize,
    conn_threads: usize,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8080`; port `0` picks a free port) and
    /// builds the engine behind it.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Self> {
        let limits = ConnLimits::resolve(&config);
        let max_connections = if config.max_connections == 0 {
            DEFAULT_MAX_CONNECTIONS
        } else {
            config.max_connections
        };
        let conn_threads = if config.conn_threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .min(8)
        } else {
            config.conn_threads
        };
        let state = Arc::new(AppState::new(config.engine, config.cache_capacity));
        state.connections().configure(max_connections, conn_threads);
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            state,
            limits,
            max_connections,
            conn_threads,
        })
    }

    /// The bound address (useful after binding port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared application state.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// The resolved connection bound.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// The resolved connection worker count.
    pub fn conn_threads(&self) -> usize {
        self.conn_threads
    }

    /// Serves connections until the process exits.
    pub fn run(self) -> std::io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        self.accept_loop(&stop)
    }

    /// Serves connections on a background thread, returning a handle that can
    /// stop the loop (used by tests and embedding callers).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::clone(&self.state);
        let loop_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("mani-serve-accept".into())
            .spawn(move || {
                let _ = self.accept_loop(&loop_stop);
            })?;
        Ok(ServerHandle {
            addr,
            state,
            stop,
            thread,
        })
    }

    fn accept_loop(&self, stop: &Arc<AtomicBool>) -> std::io::Result<()> {
        // Connections in flight: queued in the channel or inside a worker.
        // Incremented on admission by the accept thread, decremented by the
        // worker when the connection closes.
        let in_flight = Arc::new(AtomicUsize::new(0));
        let (sender, receiver) = std::sync::mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        let mut workers = Vec::with_capacity(self.conn_threads);
        for index in 0..self.conn_threads {
            // A failed spawn leaves fewer workers; zero workers means every
            // connection is answered 503 below — never a hang.
            match self.spawn_worker(index, &receiver, &in_flight, stop) {
                Ok(handle) => workers.push(handle),
                Err(error) => {
                    mani_obs::warn!("serve", "worker spawn failed", index = index, error = error);
                }
            }
        }
        mani_obs::info!(
            "serve",
            "accepting connections",
            workers = workers.len(),
            max_connections = self.max_connections,
        );

        for stream in self.listener.incoming() {
            if stop.load(Ordering::Acquire) {
                break;
            }
            match stream {
                Ok(stream) => {
                    if workers.is_empty() || !self.try_admit(&in_flight) {
                        reject_busy(&self.state, stream);
                        continue;
                    }
                    if let Err(failed) = sender.send(stream) {
                        // Every worker exited (e.g. panicked): the channel is
                        // closed. SendError hands the stream back — release
                        // the slot and answer 503 rather than dropping it.
                        in_flight.fetch_sub(1, Ordering::AcqRel);
                        reject_busy(&self.state, failed.0);
                    }
                }
                Err(e) => {
                    // Transient accept errors (aborted handshakes, fd
                    // exhaustion) must not take the server down — but they
                    // also must not busy-spin a core while the condition
                    // persists, so back off briefly before retrying.
                    if e.kind() != std::io::ErrorKind::Interrupted {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
        drop(sender);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Reserves an in-flight slot if the pool is below `max_connections`.
    fn try_admit(&self, in_flight: &AtomicUsize) -> bool {
        in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                (current < self.max_connections).then_some(current + 1)
            })
            .is_ok()
    }

    fn spawn_worker(
        &self,
        index: usize,
        receiver: &Arc<Mutex<Receiver<TcpStream>>>,
        in_flight: &Arc<AtomicUsize>,
        stop: &Arc<AtomicBool>,
    ) -> std::io::Result<std::thread::JoinHandle<()>> {
        let receiver = Arc::clone(receiver);
        let in_flight = Arc::clone(in_flight);
        let stop = Arc::clone(stop);
        let state = Arc::clone(&self.state);
        let limits = self.limits;
        std::thread::Builder::new()
            .name(format!("mani-serve-conn-{index}"))
            .spawn(move || loop {
                let stream = {
                    let guard = receiver.lock().expect("connection queue lock poisoned");
                    match guard.recv() {
                        Ok(stream) => stream,
                        Err(_) => break, // accept loop gone: shut down
                    }
                };
                // A handler panic must neither kill the worker nor leak the
                // admission slot (a leaked slot would shrink the pool until
                // try_admit rejects everything).
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(&state, stream, &limits, &stop, &in_flight);
                }));
                in_flight.fetch_sub(1, Ordering::AcqRel);
            })
    }
}

/// Answers `503 Service Unavailable` (with `Retry-After`) on the accept path
/// — used when the pool is saturated or no worker could be spawned. Writing
/// inline on the accept thread is safe: the response is ~150 bytes into a
/// fresh socket whose send buffer is empty, so the kernel absorbs it without
/// blocking even if the client never reads; the write timeout is pure
/// belt-and-braces against pathological socket states.
fn reject_busy(state: &AppState, mut stream: TcpStream) {
    state.connections().record_rejected_busy();
    // The request was never read, so no client id exists: generate one so the
    // rejection is still correlatable between the response and the log line.
    let request_id = mani_obs::fresh_request_id();
    mani_obs::warn!(
        "serve",
        "connection rejected: pool saturated",
        req_id = request_id,
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let response = HttpResponse::json(503, error_body("connection pool saturated; retry shortly"))
        .with_header("Retry-After", RETRY_AFTER_SECS.to_string())
        .with_header("x-request-id", request_id);
    let _ = response.write_conn(&mut stream, false);
}

/// A running server: address, state, and a way to stop the accept loop.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (for stats assertions in tests).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stops the accept loop and joins the server thread; workers finish
    /// their current connection (bounded by the idle timeout) and exit.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

/// How often an idle keep-alive wait re-checks for contention and shutdown.
const IDLE_POLL_SLICE: Duration = Duration::from_millis(100);

/// Serves one connection: loops keep-alive exchanges until the client closes,
/// asks to close, errors, idles out, hits the per-connection request cap, or
/// — while sitting *idle* between requests — other connections queue behind
/// the busy pool (idle shedding; active clients keep their connection).
fn handle_connection(
    state: &Arc<AppState>,
    stream: TcpStream,
    limits: &ConnLimits,
    stop: &AtomicBool,
    in_flight: &AtomicUsize,
) {
    state.connections().record_accepted();
    // Each message already leaves in one write; without Nagle, the chunks
    // of a streamed body also go out as they are produced instead of
    // waiting for the client's delayed ACK of the previous one (~40 ms).
    let _ = stream.set_nodelay(true);
    let conn_threads = state.connections().snapshot().conn_threads as usize;
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut served = 0usize;
    loop {
        // Phase 1: wait for the first byte of the next request (the idle
        // phase). Polled in short slices so a worker parked on an idle
        // keep-alive connection notices contention (connections queued
        // beyond the worker count) or shutdown within ~100 ms and releases
        // itself with a silent close — instead of pinning the pool for the
        // full idle timeout while admitted clients hang in the queue.
        let idle_budget = if served == 0 {
            limits.read_timeout
        } else {
            limits.idle_timeout
        };
        let can_shed = served > 0; // a freshly admitted connection is always served
        if !await_request_bytes(
            &mut reader,
            &writer,
            idle_budget,
            can_shed,
            in_flight,
            conn_threads,
            stop,
        ) {
            return; // EOF, idle timeout, shed, or shutdown: close silently
        }

        // Phase 2: bytes are flowing — the whole request (head + body) must
        // arrive within `read_timeout` of its first byte. The socket timeout
        // bounds each blocking read (the clone shares the socket, so setting
        // it on the writer governs the reader too); the deadline bounds the
        // total, so a trickling slow-loris cannot out-wait the per-read
        // timeout and pin this worker.
        let _ = writer.set_read_timeout(Some(limits.read_timeout));
        let deadline = Some(Instant::now() + limits.read_timeout);
        match HttpRequest::read_from_duplex_deadline(&mut reader, &mut writer, deadline) {
            // Peer closed before sending a request: close silently.
            Err(error) if error.is_closed() => return,
            // Any other parse failure poisons the framing (a partial request
            // may be sitting in the buffer): answer and close. Parse errors
            // never reach dispatch, so the request id is generated here.
            Err(error) => {
                let request_id = mani_obs::fresh_request_id();
                mani_obs::warn!(
                    "serve",
                    "request parse failed",
                    req_id = request_id,
                    status = error.status,
                    error = error.message,
                );
                let response = HttpResponse::json(error.status, error_body(&error.message))
                    .with_header("x-request-id", request_id);
                let _ = response.write_conn(&mut writer, false);
                return;
            }
            Ok(request) => {
                state.connections().record_request(served > 0);
                served += 1;
                let keep_alive = request.wants_keep_alive()
                    && served < limits.max_requests
                    && !stop.load(Ordering::Acquire);
                let write_ok = match state.dispatch(&request) {
                    Handled::Response(response) => {
                        response.write_conn(&mut writer, keep_alive).is_ok()
                    }
                    Handled::Stream(stream) => {
                        // A streamed response can span many seconds of solve
                        // time; a client that stops reading must not pin this
                        // worker once the socket buffer fills. A write timeout
                        // turns that stall into an error → connection close →
                        // slot release (jobs finish in the engine regardless,
                        // and their results stay pollable via /v1/jobs).
                        let _ = writer.set_write_timeout(Some(limits.read_timeout));
                        let ok = state.stream_ndjson(stream, &mut writer, keep_alive).is_ok();
                        let _ = writer.set_write_timeout(None);
                        ok
                    }
                };
                if !write_ok || !keep_alive {
                    return;
                }
            }
        }
    }
}

/// Waits for request bytes to become available, polling in
/// [`IDLE_POLL_SLICE`] slices. Returns `false` when the connection should be
/// closed silently instead: EOF, the idle `budget` spent, shutdown, or —
/// when `can_shed` — more connections in flight than workers (someone is
/// queued waiting for this very worker).
#[allow(clippy::too_many_arguments)]
fn await_request_bytes(
    reader: &mut BufReader<TcpStream>,
    writer: &TcpStream,
    budget: Duration,
    can_shed: bool,
    in_flight: &AtomicUsize,
    conn_threads: usize,
    stop: &AtomicBool,
) -> bool {
    use std::io::BufRead;
    let mut waited = Duration::ZERO;
    loop {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let slice = IDLE_POLL_SLICE.min(budget.saturating_sub(waited));
        if slice.is_zero() {
            return false; // idle budget exhausted
        }
        let _ = writer.set_read_timeout(Some(slice));
        match reader.fill_buf() {
            Ok(buffered) => return !buffered.is_empty(), // false = EOF
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                waited += slice;
                if can_shed && in_flight.load(Ordering::Acquire) > conn_threads {
                    return false; // shed: let a queued connection have the worker
                }
            }
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::http_roundtrip;

    #[test]
    fn spawned_server_answers_and_stops() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                engine: EngineConfig {
                    threads: 1,
                    ..EngineConfig::default()
                },
                cache_capacity: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        let (status, body) = http_roundtrip(handle.addr(), "GET /v1/methods HTTP/1.1", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("Fair-Schulze"));
        let (status, _) = http_roundtrip(handle.addr(), "GET /nope HTTP/1.1", "");
        assert_eq!(status, 404);
        handle.stop();
    }

    #[test]
    fn config_defaults_resolve() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        assert_eq!(server.max_connections(), DEFAULT_MAX_CONNECTIONS);
        assert!(server.conn_threads() >= 1 && server.conn_threads() <= 8);
        let snapshot = server.state().connections().snapshot();
        assert_eq!(snapshot.max_connections as usize, DEFAULT_MAX_CONNECTIONS);

        let sized = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                max_connections: 3,
                conn_threads: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sized.max_connections(), 3);
        assert_eq!(sized.conn_threads(), 2);
    }
}
