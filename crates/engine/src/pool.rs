//! A small fixed-size worker thread pool built on `std` threads and channels.
//!
//! The engine deliberately avoids external executor crates: jobs are boxed
//! closures pushed down an [`mpsc`] channel that every worker drains through a
//! shared receiver. The pool only executes fire-and-forget jobs
//! ([`WorkerPool::execute`]); collecting results is the caller's business —
//! the engine's job collectors gather each request's method results and
//! publish them through a [`crate::JobHandle`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Saturation counters shared between the pool handle and its workers.
#[derive(Debug, Default)]
struct PoolCounters {
    /// Jobs enqueued but not yet picked up by a worker.
    queued: AtomicUsize,
    /// Workers currently executing a job.
    busy: AtomicUsize,
    /// Jobs finished (including panicked ones) since the pool started.
    executed: AtomicU64,
}

/// Point-in-time saturation view of a [`WorkerPool`], for `/metrics` and
/// `/v1/stats`: `queued > 0` with `busy == threads` means the pool is the
/// bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs waiting in the channel, not yet picked up.
    pub queued: usize,
    /// Workers currently executing a job.
    pub busy: usize,
    /// Jobs finished since the pool started.
    pub executed: u64,
}

/// Fixed-size pool of worker threads executing boxed jobs.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<PoolCounters>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|index| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("mani-worker-{index}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawning worker thread failed")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            counters: Arc::new(PoolCounters::default()),
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one fire-and-forget job.
    pub fn execute(&self, job: Job) {
        // Wrap the job in counter updates. The guard decrements `busy` and
        // bumps `executed` in its Drop, so a panicking job (unwound past
        // `job()` and caught in `worker_loop`) still balances the counters.
        struct BusyGuard(Arc<PoolCounters>);
        impl Drop for BusyGuard {
            fn drop(&mut self) {
                self.0.busy.fetch_sub(1, Ordering::Relaxed);
                self.0.executed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.counters.queued.fetch_add(1, Ordering::Relaxed);
        let counters = Arc::clone(&self.counters);
        let wrapped: Job = Box::new(move || {
            counters.queued.fetch_sub(1, Ordering::Relaxed);
            counters.busy.fetch_add(1, Ordering::Relaxed);
            let _guard = BusyGuard(counters);
            job();
        });
        self.sender
            .as_ref()
            .expect("pool already shut down")
            .send(wrapped)
            .expect("worker threads terminated early");
    }

    /// Current saturation counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            queued: self.counters.queued.load(Ordering::Relaxed),
            busy: self.counters.busy.load(Ordering::Relaxed),
            executed: self.counters.executed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's receive loop.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let guard = receiver.lock().expect("pool receiver lock poisoned");
            guard.recv()
        };
        match job {
            // A panicking job must not kill the worker: remaining queued jobs
            // still need a thread.
            Ok(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Err(_) => return, // channel closed: pool is shutting down
        }
    }
}

/// One worker per available core (minimum one).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Enqueues `jobs` jobs that each send their index down a channel, and
    /// returns the receiver.
    fn send_indexes(pool: &WorkerPool, jobs: usize) -> Receiver<usize> {
        let (tx, rx) = mpsc::channel();
        for index in 0..jobs {
            let tx = tx.clone();
            pool.execute(Box::new(move || {
                tx.send(index).expect("test receiver alive")
            }));
        }
        rx
    }

    /// Polls until the pool reports `executed` finished jobs and an idle
    /// state: the busy guard drops just after a job's last statement, so it
    /// may trail a completion message by an instant.
    fn wait_for_idle(pool: &WorkerPool, executed: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = pool.stats();
            if stats.executed == executed && stats.busy == 0 && stats.queued == 0 {
                return;
            }
            assert!(Instant::now() < deadline, "stats stuck: {stats:?}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn all_workers_participate() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.num_threads(), 4);
        let mut seen: Vec<usize> = send_indexes(&pool, 64).iter().take(64).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>(), "every job ran once");
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.num_threads(), 1);
        let rx = send_indexes(&pool, 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(0));
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(1);
        pool.execute(Box::new(|| panic!("boom")));
        // The single worker must still be alive to run this.
        let rx = send_indexes(&pool, 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(0));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn stats_count_executed_jobs_and_drain_to_idle() {
        let pool = WorkerPool::new(2);
        let rx = send_indexes(&pool, 8);
        assert_eq!(rx.iter().take(8).count(), 8);
        wait_for_idle(&pool, 8);
    }

    #[test]
    fn stats_balance_after_a_panicking_job() {
        let pool = WorkerPool::new(1);
        pool.execute(Box::new(|| panic!("boom")));
        wait_for_idle(&pool, 1);
    }
}
