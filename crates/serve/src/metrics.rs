//! Connection-pool counters for the HTTP transport.
//!
//! Request latency histograms moved into `mani-service` (they are an
//! operation-level concern every transport shares); what remains here is the
//! one piece of telemetry only this HTTP server can observe: the connection
//! pool. [`ServeCounters`] tracks accepted connections, `503`-rejected ones,
//! requests served, and keep-alive reuses, and snapshots them as the service
//! core's transport-neutral [`TransportStats`] for `/v1/stats` and
//! `/metrics` rendering.

use std::sync::atomic::{AtomicU64, Ordering};

use mani_service::TransportStats;

/// Connection-pool counters, updated by the accept loop and the workers.
#[derive(Debug, Default)]
pub struct ServeCounters {
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    requests: AtomicU64,
    keepalive_reuses: AtomicU64,
    max_connections: AtomicU64,
    conn_threads: AtomicU64,
}

impl ServeCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps the pool shape (called once by the server at startup).
    pub fn configure(&self, max_connections: usize, conn_threads: usize) {
        self.max_connections
            .store(max_connections as u64, Ordering::Relaxed);
        self.conn_threads
            .store(conn_threads as u64, Ordering::Relaxed);
    }

    /// One connection handed to the pool.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection answered `503` on the accept path.
    pub fn record_rejected_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// One HTTP exchange served; `reused` marks a keep-alive follow-up.
    pub fn record_request(&self, reused: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if reused {
            self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counter values, in the service core's transport-neutral form.
    pub fn snapshot(&self) -> TransportStats {
        TransportStats {
            max_connections: self.max_connections.load(Ordering::Relaxed),
            conn_threads: self.conn_threads.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_counters_accumulate() {
        let counters = ServeCounters::new();
        assert_eq!(counters.snapshot(), TransportStats::default());
        counters.configure(256, 8);
        counters.record_accepted();
        counters.record_request(false);
        counters.record_request(true);
        counters.record_rejected_busy();
        assert_eq!(
            counters.snapshot(),
            TransportStats {
                max_connections: 256,
                conn_threads: 8,
                accepted: 1,
                rejected_busy: 1,
                requests: 2,
                keepalive_reuses: 1,
            }
        );
    }
}
