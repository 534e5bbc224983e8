//! The consensus engine: fans requests out across a worker pool, shares
//! per-dataset precedence matrices through the [`PrecedenceCache`], and
//! collects each request's method results back in method order.
//!
//! Every submission runs as a job: one pool task per `(request, method)`
//! pair, gathered by a per-job collector into a [`JobHandle`]. The submission
//! styles differ only in admission and in who waits:
//!
//! * **Blocking** — [`ConsensusEngine::submit`] / [`ConsensusEngine::submit_batch`]
//!   spawn the jobs and wait on their handles. They are never rejected, but
//!   their jobs count in [`EngineStats::in_flight`] while they run.
//! * **Non-blocking** — [`ConsensusEngine::submit_async`] /
//!   [`ConsensusEngine::submit_batch_async`] return a [`JobHandle`] immediately.
//!   Async submissions pass through a bounded queue
//!   ([`EngineConfig::queue_depth`]); when the queue is full the engine rejects
//!   the request with [`EngineError::Overloaded`] instead of growing without
//!   bound, which is the backpressure signal the HTTP front-end turns into
//!   `429 Too Many Requests`.
//!
//! Either way a panicking method becomes an error result for its slot, and
//! every job records a phase trace.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mani_core::{MethodKind, MfcrContext};
use mani_fairness::FairnessThresholds;
use mani_obs::TraceTimeline;
use mani_ranking::Parallelism;

use crate::batch::{BatchCounters, BatchHandle};
use crate::cache::PrecedenceCache;
use crate::dataset::EngineDataset;
use crate::error::EngineError;
use crate::jobs::{JobHandle, JobId, JobState};
use crate::pool::{default_threads, WorkerPool};
use crate::request::{ConsensusRequest, ConsensusResponse, MethodResult};

/// Queue depth used when [`EngineConfig::queue_depth`] is `0`.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker thread count; `0` means one per available core.
    pub threads: usize,
    /// Node budget applied to exact methods when a request does not set one.
    pub default_budget: Option<u64>,
    /// Maximum number of jobs submitted but not yet completed before
    /// [`ConsensusEngine::submit_async`] starts rejecting with
    /// [`EngineError::Overloaded`]; `0` means [`DEFAULT_QUEUE_DEPTH`].
    /// Blocking submissions are never rejected, but their running jobs count
    /// toward the depth that async submissions see.
    pub queue_depth: usize,
    /// Kernel-level threads *within* one method solve (row-block matrix builds,
    /// tiled Schulze, subtree-parallel branch and bound); `0` means one per
    /// available core, `1` — the default — keeps kernels serial. Composes
    /// with `threads`: batch parallelism spreads requests, kernel parallelism
    /// accelerates each large request. Each kernel keeps its own size gate
    /// and stays serial below it: the matrix build below 2^22 cell updates
    /// (`n(n − 1)/2 · |R|`), Floyd–Warshall below
    /// 512 candidates per majority-graph component, and the exact search
    /// below 8 candidates.
    ///
    /// Kernel fan-out is **opt-in** for two reasons: completed solves are
    /// bit-identical but *anytime* exact solves (node budget exhausted) are
    /// not, because subtree workers race the shared budget — the serial
    /// default keeps default engine results reproducible run-to-run; and
    /// `threads × kernel_threads` can oversubscribe cores under a batch of
    /// concurrently large requests, which an operator should choose
    /// deliberately.
    pub kernel_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            default_budget: None,
            queue_depth: 0,
            kernel_threads: 1,
        }
    }
}

impl EngineConfig {
    /// The kernel [`Parallelism`] this config resolves to (`kernel_threads`
    /// of `0` means one per available core).
    pub fn kernel_parallelism(&self) -> Parallelism {
        match self.kernel_threads {
            0 => Parallelism::auto(),
            threads => Parallelism::new(threads),
        }
    }
}

/// Submission-queue and kernel-timing counters for one engine (see
/// [`ConsensusEngine::stats`]). Job counters cover blocking and async
/// submissions alike; matrix-build time and delta derivations live in
/// [`crate::CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Configured bound on concurrently in-flight async jobs.
    pub queue_depth: usize,
    /// Jobs submitted but not yet completed, blocking ones included.
    pub in_flight: usize,
    /// Jobs accepted since the engine was created.
    pub submitted: u64,
    /// Jobs completed since the engine was created.
    pub completed: u64,
    /// Async jobs rejected with [`EngineError::Overloaded`].
    pub rejected: u64,
    /// Wall-clock nanoseconds spent inside method solves, summed across all
    /// workers (CPU-side view of where engine time goes).
    pub solve_ns: u64,
    /// Branch-and-bound nodes expanded by exact methods across all solves.
    pub nodes_expanded: u64,
    /// Streaming batches opened via
    /// [`ConsensusEngine::submit_batch_streaming`].
    pub batches_opened: u64,
    /// Streaming batches whose every completion was yielded to the consumer.
    pub batches_drained: u64,
    /// Per-request completions yielded across all streaming batches.
    pub batch_results_yielded: u64,
    /// Worker-pool tasks waiting in the channel, not yet picked up.
    pub pool_queued: usize,
    /// Worker-pool threads currently executing a task.
    pub pool_busy: usize,
    /// Worker-pool tasks finished since the engine was created.
    pub pool_tasks_executed: u64,
    /// Blocked (tiled) Floyd–Warshall solves, process-wide (the tiled kernel
    /// operates on borrowed buffers, so its counters are shared by every
    /// engine in the process).
    pub fw_blocked_solves: u64,
    /// Tile relaxations performed by blocked Floyd–Warshall solves,
    /// process-wide (`⌈n / tile⌉³` per solve).
    pub fw_tiles_relaxed: u64,
    /// Row-block tasks spawned by parallel matrix builds, process-wide (the
    /// name predates the row-block build).
    pub ranking_shard_tasks: u64,
}

/// Counters shared between the engine and its in-flight job collectors.
#[derive(Debug, Default)]
struct JobCounters {
    in_flight: AtomicUsize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
}

/// Kernel timing counters shared with every solve task (matrix-build time
/// lives in [`crate::CacheStats::build_ns`]).
#[derive(Debug, Default)]
struct KernelCounters {
    solve_ns: AtomicU64,
    nodes_expanded: AtomicU64,
}

impl JobCounters {
    /// Marks one job finished: bumps `completed`, releases its queue slot.
    fn finish_one(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// A multi-threaded executor for MFCR consensus requests.
///
/// The engine owns a [`WorkerPool`] and a [`PrecedenceCache`]; submitting a
/// batch fans every `(request, method)` pair out as one task. All methods of
/// all requests that share a dataset reuse one precedence matrix and one group
/// index, so a batch over `d` datasets builds exactly `d` matrices however
/// many methods run.
#[derive(Debug)]
pub struct ConsensusEngine {
    pool: WorkerPool,
    cache: Arc<PrecedenceCache>,
    config: EngineConfig,
    queue_depth: usize,
    kernel: Parallelism,
    next_job_id: AtomicU64,
    counters: Arc<JobCounters>,
    kernel_counters: Arc<KernelCounters>,
    batch_counters: Arc<BatchCounters>,
}

impl Default for ConsensusEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ConsensusEngine {
    /// Engine with default configuration (one worker per core).
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let threads = if config.threads == 0 {
            default_threads()
        } else {
            config.threads
        };
        let queue_depth = if config.queue_depth == 0 {
            DEFAULT_QUEUE_DEPTH
        } else {
            config.queue_depth
        };
        let kernel = config.kernel_parallelism();
        Self {
            pool: WorkerPool::new(threads),
            cache: Arc::new(PrecedenceCache::new()),
            config,
            queue_depth,
            kernel,
            next_job_id: AtomicU64::new(1),
            counters: Arc::new(JobCounters::default()),
            kernel_counters: Arc::new(KernelCounters::default()),
            batch_counters: Arc::new(BatchCounters::default()),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// The kernel-parallelism budget applied to each method solve.
    pub fn kernel_parallelism(&self) -> Parallelism {
        self.kernel
    }

    /// The resolved bound on concurrently in-flight async jobs.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The shared precedence cache (inspect [`crate::CacheStats`] here).
    pub fn cache(&self) -> &PrecedenceCache {
        &self.cache
    }

    /// Current submission-queue and kernel-timing counters.
    pub fn stats(&self) -> EngineStats {
        let pool = self.pool.stats();
        let kernels = mani_ranking::kernel_counter_snapshot();
        EngineStats {
            queue_depth: self.queue_depth,
            in_flight: self.counters.in_flight.load(Ordering::Acquire),
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            solve_ns: self.kernel_counters.solve_ns.load(Ordering::Relaxed),
            nodes_expanded: self.kernel_counters.nodes_expanded.load(Ordering::Relaxed),
            batches_opened: self.batch_counters.opened.load(Ordering::Relaxed),
            batches_drained: self.batch_counters.drained.load(Ordering::Relaxed),
            batch_results_yielded: self.batch_counters.results_yielded.load(Ordering::Relaxed),
            pool_queued: pool.queued,
            pool_busy: pool.busy,
            pool_tasks_executed: pool.executed,
            fw_blocked_solves: kernels.fw_blocked_solves,
            fw_tiles_relaxed: kernels.fw_tiles_relaxed,
            ranking_shard_tasks: kernels.ranking_shard_tasks,
        }
    }

    /// Runs one request (a batch of size one), blocking until it completes.
    pub fn submit(&self, request: ConsensusRequest) -> Arc<ConsensusResponse> {
        self.submit_batch(vec![request])
            .pop()
            .expect("batch of one yields one response")
    }

    /// Runs a batch of requests across the worker pool and returns one
    /// response per request, in request order, with per-method results in each
    /// request's method order. Blocks until the whole batch completes.
    ///
    /// Each request runs as a job, exactly as through
    /// [`ConsensusEngine::submit_batch_async`], except that admission never
    /// rejects: the caller waits for its own work. The jobs still take ids
    /// and count in [`EngineStats::in_flight`], [`EngineStats::submitted`] and
    /// [`EngineStats::completed`] while they run.
    pub fn submit_batch(&self, requests: Vec<ConsensusRequest>) -> Vec<Arc<ConsensusResponse>> {
        self.counters
            .in_flight
            .fetch_add(requests.len(), Ordering::AcqRel);
        let handles: Vec<JobHandle> = requests
            .into_iter()
            .map(|request| self.spawn_job(request))
            .collect();
        handles.iter().map(JobHandle::wait).collect()
    }

    /// Submits one request without blocking and returns a [`JobHandle`] that
    /// can be polled or waited on.
    ///
    /// The handle's response is bit-identical to what [`ConsensusEngine::submit`]
    /// would return for the same request. Fails with [`EngineError::Overloaded`]
    /// when [`EngineConfig::queue_depth`] jobs are already in flight.
    pub fn submit_async(&self, request: ConsensusRequest) -> Result<JobHandle, EngineError> {
        self.reserve(1)?;
        Ok(self.spawn_job(request))
    }

    /// Submits several requests without blocking, all or nothing: when the
    /// queue cannot absorb the whole batch, no job is enqueued and
    /// [`EngineError::Overloaded`] is returned. Handles are in request order.
    pub fn submit_batch_async(
        &self,
        requests: Vec<ConsensusRequest>,
    ) -> Result<Vec<JobHandle>, EngineError> {
        self.reserve(requests.len())?;
        Ok(requests
            .into_iter()
            .map(|request| self.spawn_job(request))
            .collect())
    }

    /// Submits a batch without blocking and returns a [`BatchHandle`] that
    /// yields each response in **as-completed order** — the streaming flavour
    /// of [`ConsensusEngine::submit_batch`]. Per-response contents are
    /// bit-identical to the blocking batch; only delivery order differs
    /// ([`crate::BatchItem::index`] recovers request order).
    ///
    /// Admission is all-or-nothing like
    /// [`ConsensusEngine::submit_batch_async`]: a queue that cannot absorb the
    /// whole batch rejects it with [`EngineError::Overloaded`].
    pub fn submit_batch_streaming(
        &self,
        requests: Vec<ConsensusRequest>,
    ) -> Result<BatchHandle, EngineError> {
        let handles = self.submit_batch_async(requests)?;
        Ok(BatchHandle::with_counters(
            handles,
            Some(Arc::clone(&self.batch_counters)),
        ))
    }

    /// Reserves `slots` queue places or rejects with [`EngineError::Overloaded`].
    fn reserve(&self, slots: usize) -> Result<(), EngineError> {
        let mut current = self.counters.in_flight.load(Ordering::Acquire);
        loop {
            if current + slots > self.queue_depth {
                self.counters
                    .rejected
                    .fetch_add(slots as u64, Ordering::Relaxed);
                return Err(EngineError::Overloaded {
                    in_flight: current,
                    queue_depth: self.queue_depth,
                });
            }
            match self.counters.in_flight.compare_exchange_weak(
                current,
                current + slots,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Fans one reserved request out as method tasks and returns its handle.
    fn spawn_job(&self, request: ConsensusRequest) -> JobHandle {
        let id = JobId::from_raw(self.next_job_id.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(JobState::new());
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);

        if let Err(error) = request.validate() {
            // Invalid requests complete immediately without occupying a worker.
            self.counters.finish_one();
            state.complete(error_response(
                request.dataset.name().to_string(),
                request.methods.len(),
                error,
            ));
            return JobHandle::new(id, state);
        }

        let budget = request.budget.or(self.config.default_budget);
        let method_count = request.methods.len();
        let collector = Arc::new(JobCollector {
            dataset: request.dataset.name().to_string(),
            slots: Mutex::new((0..method_count).map(|_| None).collect()),
            remaining: AtomicUsize::new(method_count),
            state: Arc::clone(&state),
            counters: Arc::clone(&self.counters),
        });
        for (index, kind) in request.methods.iter().copied().enumerate() {
            let dataset = Arc::clone(&request.dataset);
            let thresholds = request.thresholds.clone();
            let cache = Arc::clone(&self.cache);
            let kernel = self.kernel;
            let kernel_counters = Arc::clone(&self.kernel_counters);
            let collector = Arc::clone(&collector);
            let trace = Arc::clone(state.trace());
            self.pool.execute(Box::new(move || {
                collector.state.mark_running();
                // A panicking solver must not leak the job's queue slot: turn
                // the panic into an error result so the job still completes.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    solve_one(
                        &cache,
                        &dataset,
                        thresholds,
                        kind,
                        budget,
                        kernel,
                        &kernel_counters,
                        &trace,
                    )
                }))
                .unwrap_or_else(|_| {
                    Err(EngineError::invalid(format!(
                        "method `{}` panicked",
                        kind.name()
                    )))
                });
                collector.finish(index, result);
            }));
        }
        JobHandle::new(id, state)
    }
}

/// Per-job result collector: method tasks deposit into `slots`; the task that
/// drops `remaining` to zero assembles the response, publishes it through the
/// job's [`JobState`], and releases the job's queue slot.
#[derive(Debug)]
struct JobCollector {
    dataset: String,
    slots: Mutex<Vec<Option<Result<MethodResult, EngineError>>>>,
    remaining: AtomicUsize,
    state: Arc<JobState>,
    counters: Arc<JobCounters>,
}

impl JobCollector {
    fn finish(&self, index: usize, result: Result<MethodResult, EngineError>) {
        {
            let mut slots = self.slots.lock().expect("job slots lock poisoned");
            slots[index] = Some(result);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let slots = std::mem::take(&mut *self.slots.lock().expect("job slots lock poisoned"));
            let results = slots
                .into_iter()
                .map(|slot| slot.expect("every method task deposited a result"))
                .collect();
            // Release the queue slot *before* publishing: a waiter observing
            // the completed response must also observe the updated counters.
            self.counters.finish_one();
            self.state
                .complete(assemble_response(self.dataset.clone(), results));
        }
    }
}

/// Runs one method over one dataset against the shared cache — the single
/// execution path behind every submission style. The cache probe is traced
/// as `matrix_build` when this task built the artifacts and as `cache_lookup`
/// otherwise (including any wait on another task's build); the method solve
/// is traced as `solve`.
#[allow(clippy::too_many_arguments)] // internal seam: every site is in this file
fn solve_one(
    cache: &PrecedenceCache,
    dataset: &EngineDataset,
    thresholds: FairnessThresholds,
    kind: MethodKind,
    budget: Option<u64>,
    kernel: Parallelism,
    kernel_counters: &KernelCounters,
    trace: &TraceTimeline,
) -> Result<MethodResult, EngineError> {
    let lookup_started = Instant::now();
    let (artifacts, cache_hit) = cache.get_or_build_with(dataset, &kernel);
    let phase = if cache_hit {
        "cache_lookup"
    } else {
        "matrix_build"
    };
    trace.record(phase, lookup_started, lookup_started.elapsed());
    let ctx = MfcrContext::new(
        dataset.db(),
        &artifacts.groups,
        dataset.profile(),
        thresholds,
    )
    .with_precedence(&artifacts.precedence)
    .with_consensus_memo(&artifacts.consensus)
    .with_parallelism(kernel);
    let method = match budget {
        Some(nodes) => kind.instantiate_with_nodes(nodes),
        None => kind.instantiate(),
    };
    let started = Instant::now();
    let outcome = method.solve(&ctx);
    let duration = started.elapsed();
    trace.record("solve", started, duration);
    let outcome = outcome?;
    kernel_counters
        .solve_ns
        .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
    kernel_counters
        .nodes_expanded
        .fetch_add(outcome.nodes_explored, Ordering::Relaxed);
    Ok(MethodResult {
        method: kind,
        outcome,
        duration,
        cache_hit,
    })
}

/// Response for a request that failed validation: every slot carries the
/// validation error (minimum one slot, so an empty method list still surfaces
/// its error).
fn error_response(dataset: String, method_count: usize, error: EngineError) -> ConsensusResponse {
    let message = match error {
        EngineError::InvalidRequest(message) => message,
        other => other.to_string(),
    };
    let results = (0..method_count.max(1))
        .map(|_| Err(EngineError::InvalidRequest(message.clone())))
        .collect();
    ConsensusResponse {
        dataset,
        results,
        total_solve_time: Duration::ZERO,
    }
}

/// Bundles per-method results into a response, totalling the solve time.
fn assemble_response(
    dataset: String,
    results: Vec<Result<MethodResult, EngineError>>,
) -> ConsensusResponse {
    let total_solve_time = results
        .iter()
        .flatten()
        .map(|r| r.duration)
        .sum::<Duration>();
    ConsensusResponse {
        dataset,
        results,
        total_solve_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::EngineDataset;
    use crate::jobs::JobStatus;
    use mani_core::MethodKind;
    use mani_fairness::FairnessThresholds;
    use mani_ranking::{CandidateDbBuilder, Ranking, RankingProfile};

    fn dataset(n: usize, seed: u64) -> Arc<EngineDataset> {
        let mut b = CandidateDbBuilder::new();
        let g = b.add_attribute("G", ["x", "y"]).unwrap();
        for i in 0..n {
            b.add_candidate(format!("c{i}"), [(g, i % 2)]).unwrap();
        }
        let db = b.build().unwrap();
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let rankings: Vec<Ranking> = (0..6).map(|_| Ranking::random(n, &mut rng)).collect();
        let profile = RankingProfile::new(rankings).unwrap();
        Arc::new(EngineDataset::new(format!("ds-{n}-{seed}"), db, profile).unwrap())
    }

    fn config(threads: usize) -> EngineConfig {
        EngineConfig {
            threads,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn submit_runs_methods_in_request_order() {
        let engine = ConsensusEngine::with_config(config(3));
        let methods = [
            MethodKind::FairBorda,
            MethodKind::FairCopeland,
            MethodKind::FairSchulze,
        ];
        let response = engine.submit(ConsensusRequest::new(
            dataset(10, 1),
            methods,
            FairnessThresholds::uniform(0.3),
        ));
        assert!(response.is_complete());
        let reported: Vec<MethodKind> = response.successes().map(|r| r.method).collect();
        assert_eq!(reported, methods);
        assert!(response.outcome(MethodKind::FairBorda).is_some());
        assert!(response.outcome(MethodKind::Kemeny).is_none());
    }

    #[test]
    fn batch_builds_each_dataset_once() {
        let engine = ConsensusEngine::with_config(config(4));
        let a = dataset(10, 1);
        let b = dataset(12, 2);
        let methods = [
            MethodKind::FairBorda,
            MethodKind::FairCopeland,
            MethodKind::FairSchulze,
            MethodKind::PickFairestPerm,
        ];
        let responses = engine.submit_batch(vec![
            ConsensusRequest::new(a.clone(), methods, FairnessThresholds::uniform(0.25)),
            ConsensusRequest::new(b, methods, FairnessThresholds::uniform(0.25)),
            // Same dataset again under another request: still no extra build.
            ConsensusRequest::new(a, methods, FairnessThresholds::uniform(0.1)),
        ]);
        assert_eq!(responses.len(), 3);
        for response in &responses {
            assert!(response.is_complete(), "{:?}", response.results);
        }
        let stats = engine.cache().stats();
        assert_eq!(stats.builds, 2, "two distinct datasets, two builds");
        // Exactly one method task per distinct dataset ran the build; every
        // other task, including those that waited on it, hit.
        let misses = responses
            .iter()
            .flat_map(|response| response.successes())
            .filter(|r| !r.cache_hit)
            .count();
        assert_eq!(misses, 2, "one miss per distinct dataset");
        assert_eq!(stats.hits + stats.builds, stats.lookups);
    }

    #[test]
    fn invalid_request_yields_an_error_response_without_blocking_others() {
        let engine = ConsensusEngine::with_config(config(2));
        let responses = engine.submit_batch(vec![
            ConsensusRequest::new(dataset(8, 3), [], FairnessThresholds::uniform(0.2)),
            ConsensusRequest::new(
                dataset(8, 4),
                [MethodKind::FairBorda],
                FairnessThresholds::uniform(0.2),
            ),
        ]);
        assert!(!responses[0].is_complete());
        assert!(matches!(
            responses[0].results[0],
            Err(EngineError::InvalidRequest(_))
        ));
        assert!(responses[1].is_complete());
    }

    #[test]
    fn default_budget_applies_to_exact_methods() {
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads: 2,
            default_budget: Some(3),
            ..EngineConfig::default()
        });
        let response = engine.submit(ConsensusRequest::new(
            dataset(14, 5),
            [MethodKind::FairKemeny],
            FairnessThresholds::uniform(0.3),
        ));
        let outcome = response.outcome(MethodKind::FairKemeny).unwrap();
        assert!(
            !outcome.optimal,
            "a 3-node budget cannot close n = 14, so the result must be anytime"
        );
    }

    #[test]
    fn kernel_threads_do_not_change_results() {
        // Force kernel parallelism on even for these small datasets and check
        // every method result is bit-identical to the serial-kernel engine.
        let methods = [
            MethodKind::FairBorda,
            MethodKind::FairCopeland,
            MethodKind::FairSchulze,
            MethodKind::FairKemeny,
        ];
        let serial_engine = ConsensusEngine::with_config(EngineConfig {
            threads: 2,
            kernel_threads: 1,
            ..EngineConfig::default()
        });
        let baseline = serial_engine.submit(ConsensusRequest::new(
            dataset(12, 9),
            methods,
            FairnessThresholds::uniform(0.25),
        ));
        assert!(baseline.is_complete());
        for kernel_threads in [2usize, 8] {
            let engine = ConsensusEngine::with_config(EngineConfig {
                threads: 2,
                kernel_threads,
                ..EngineConfig::default()
            });
            assert_eq!(engine.kernel_parallelism().max_threads(), kernel_threads);
            let response = engine.submit(ConsensusRequest::new(
                dataset(12, 9),
                methods,
                FairnessThresholds::uniform(0.25),
            ));
            assert!(response.is_complete());
            for (serial, parallel) in baseline.successes().zip(response.successes()) {
                assert_eq!(serial.method, parallel.method);
                assert_eq!(
                    serial.outcome.ranking,
                    parallel.outcome.ranking,
                    "{} changed under kernel_threads = {kernel_threads}",
                    serial.method.name()
                );
                assert_eq!(serial.outcome.pd_loss, parallel.outcome.pd_loss);
            }
        }
    }

    #[test]
    fn kernel_timing_counters_accumulate() {
        let engine = ConsensusEngine::with_config(config(2));
        let response = engine.submit(ConsensusRequest::new(
            dataset(12, 3),
            [MethodKind::FairBorda, MethodKind::FairKemeny],
            FairnessThresholds::uniform(0.3),
        ));
        assert!(response.is_complete());
        assert!(
            engine.cache().stats().build_ns > 0,
            "one matrix build must be timed"
        );
        let stats = engine.stats();
        assert!(stats.solve_ns > 0, "method solves must be timed");
        assert!(
            stats.nodes_expanded > 0,
            "Fair-Kemeny must report expanded nodes"
        );
        let kemeny = response.outcome(MethodKind::FairKemeny).unwrap();
        assert!(kemeny.nodes_explored > 0);
        let borda = response.outcome(MethodKind::FairBorda).unwrap();
        assert_eq!(borda.nodes_explored, 0, "polynomial methods do not search");
    }

    #[test]
    fn async_submission_completes_and_counts() {
        let engine = ConsensusEngine::with_config(config(2));
        let handle = engine
            .submit_async(ConsensusRequest::new(
                dataset(10, 7),
                [MethodKind::FairBorda, MethodKind::FairCopeland],
                FairnessThresholds::uniform(0.2),
            ))
            .expect("queue is empty");
        assert_eq!(handle.id().as_u64(), 1);
        let response = handle.wait();
        assert!(response.is_complete());
        assert_eq!(handle.status(), JobStatus::Done);
        assert!(handle.try_poll().is_some());
        let stats = engine.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn async_batch_over_queue_depth_is_rejected_atomically() {
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads: 2,
            queue_depth: 2,
            ..EngineConfig::default()
        });
        let requests: Vec<ConsensusRequest> = (0..3)
            .map(|i| {
                ConsensusRequest::new(
                    dataset(8, 10 + i),
                    [MethodKind::FairBorda],
                    FairnessThresholds::uniform(0.2),
                )
            })
            .collect();
        let err = engine.submit_batch_async(requests).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Overloaded {
                in_flight: 0,
                queue_depth: 2,
            }
        ));
        let stats = engine.stats();
        assert_eq!(stats.submitted, 0, "all-or-nothing: nothing was enqueued");
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn async_job_traces_queue_wait_cache_and_solve_phases() {
        let engine = ConsensusEngine::with_config(config(2));
        let ds = dataset(10, 21);
        let first = engine
            .submit_async(ConsensusRequest::new(
                Arc::clone(&ds),
                [MethodKind::FairBorda],
                FairnessThresholds::uniform(0.2),
            ))
            .expect("queue is empty");
        first.wait();
        let phases: Vec<&str> = first.trace().snapshot().iter().map(|p| p.name).collect();
        assert!(phases.contains(&"queue_wait"), "{phases:?}");
        assert!(phases.contains(&"matrix_build"), "cold cache: {phases:?}");
        assert!(phases.contains(&"solve"), "{phases:?}");

        // Same dataset again: the probe is now a hit and traces as a lookup.
        let second = engine
            .submit_async(ConsensusRequest::new(
                ds,
                [MethodKind::FairBorda],
                FairnessThresholds::uniform(0.2),
            ))
            .expect("queue is empty");
        second.wait();
        let trace = second.trace();
        let phases = trace.snapshot();
        assert!(
            phases.iter().any(|p| p.name == "cache_lookup"),
            "{phases:?}"
        );
        // Phases are merged by name (each appears once) and, for this
        // single-method job, their durations fit inside the traced span.
        let mut names: Vec<&str> = phases.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), phases.len(), "duplicate phase: {phases:?}");
        let total: u64 = phases.iter().map(|p| p.duration_ns).sum();
        assert!(
            total <= trace.span_ns(),
            "sequential phases exceed span: {total} > {}",
            trace.span_ns()
        );
    }

    #[test]
    fn stats_expose_pool_saturation() {
        let engine = ConsensusEngine::with_config(config(2));
        engine.submit(ConsensusRequest::new(
            dataset(10, 22),
            [MethodKind::FairBorda, MethodKind::FairCopeland],
            FairnessThresholds::uniform(0.2),
        ));
        // Busy-guard drops may trail the job's completion by an instant.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = engine.stats();
            if stats.pool_tasks_executed >= 2 && stats.pool_queued == 0 && stats.pool_busy == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "pool stats stuck: {stats:?}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn invalid_async_request_completes_immediately_with_error() {
        let engine = ConsensusEngine::with_config(config(1));
        let handle = engine
            .submit_async(ConsensusRequest::new(
                dataset(8, 3),
                [],
                FairnessThresholds::uniform(0.2),
            ))
            .expect("queue is empty");
        // No worker involvement: already done.
        let response = handle.try_poll().expect("validation errors are immediate");
        assert!(matches!(
            response.results[0],
            Err(EngineError::InvalidRequest(_))
        ));
        assert_eq!(engine.stats().in_flight, 0);
    }

    /// Occupies the engine's only worker until the returned sender fires (or
    /// is dropped), so jobs submitted meanwhile stay queued behind it.
    fn park_the_only_worker(engine: &ConsensusEngine) -> std::sync::mpsc::Sender<()> {
        assert_eq!(engine.threads(), 1);
        let (release, parked) = std::sync::mpsc::channel::<()>();
        engine.pool.execute(Box::new(move || {
            let _ = parked.recv();
        }));
        release
    }

    #[test]
    fn wait_timeout_expires_on_slow_jobs_and_status_progresses() {
        let engine = ConsensusEngine::with_config(config(1));
        let release = park_the_only_worker(&engine);
        let handle = engine
            .submit_async(ConsensusRequest::new(
                dataset(10, 11),
                [MethodKind::FairSchulze],
                FairnessThresholds::uniform(0.2),
            ))
            .expect("empty queue");
        assert_eq!(handle.id().to_string(), "job-1");
        // The worker is parked, so the job cannot start inside the timeout.
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_none());
        assert_eq!(handle.status(), JobStatus::Queued);

        release.send(()).expect("the parked worker is waiting");
        let response = handle.wait();
        assert!(response.is_complete());
        assert_eq!(handle.status(), JobStatus::Done);
        assert!(handle.wait_timeout(Duration::from_millis(1)).is_some());
        // try_poll keeps returning the same shared response.
        let a = handle.try_poll().unwrap();
        let b = handle.try_poll().unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn queue_overflow_returns_overloaded_instead_of_blocking() {
        // One worker, queue depth one: while the first job holds its slot,
        // the very next submission must be rejected — not queued, not blocked.
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        });
        let release = park_the_only_worker(&engine);
        let first = engine
            .submit_async(ConsensusRequest::new(
                dataset(10, 7),
                [MethodKind::FairSchulze],
                FairnessThresholds::uniform(0.2),
            ))
            .expect("first job fills the queue");

        let rejected = engine.submit_async(ConsensusRequest::new(
            dataset(8, 8),
            [MethodKind::FairBorda],
            FairnessThresholds::uniform(0.2),
        ));
        match rejected {
            Err(EngineError::Overloaded {
                in_flight,
                queue_depth,
            }) => {
                assert_eq!(in_flight, 1);
                assert_eq!(queue_depth, 1);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.in_flight, 1);

        // Draining the queue restores capacity.
        release.send(()).expect("the parked worker is waiting");
        assert!(first.wait().is_complete());
        assert_eq!(engine.stats().in_flight, 0);
        let accepted = engine
            .submit_async(ConsensusRequest::new(
                dataset(8, 9),
                [MethodKind::FairBorda],
                FairnessThresholds::uniform(0.2),
            ))
            .expect("drained queue accepts again");
        assert!(accepted.wait().is_complete());
    }

    #[test]
    fn completions_stream_in_as_completed_order() {
        let engine = ConsensusEngine::with_config(config(1));
        let release = park_the_only_worker(&engine);
        let valid = ConsensusRequest::new(
            dataset(10, 12),
            [MethodKind::FairBorda],
            FairnessThresholds::uniform(0.2),
        );
        let invalid = ConsensusRequest::new(dataset(8, 13), [], FairnessThresholds::uniform(0.2));
        let mut batch = engine
            .submit_batch_streaming(vec![valid, invalid])
            .expect("queue is empty");
        assert_eq!(batch.len(), 2);

        // The invalid request (index 1) completes at submission, while the
        // valid one (index 0) is still queued behind the parked worker.
        let first = batch.wait_next().expect("two jobs were submitted");
        assert_eq!(first.index, 1, "the completed request must stream first");
        assert!(matches!(
            first.response.results[0],
            Err(EngineError::InvalidRequest(_))
        ));
        assert_eq!(batch.handles()[0].status(), JobStatus::Queued);

        release.send(()).expect("the parked worker is waiting");
        let second = batch.wait_next().expect("the valid job completes too");
        assert_eq!(second.index, 0);
        assert!(second.response.is_complete());
        assert!(batch.is_drained());
        assert!(batch.wait_next().is_none());
    }

    #[test]
    fn blocking_batch_over_queue_depth_runs_and_counts_as_jobs() {
        let engine = ConsensusEngine::with_config(EngineConfig {
            threads: 2,
            queue_depth: 2,
            ..EngineConfig::default()
        });
        let requests: Vec<ConsensusRequest> = (0..5)
            .map(|i| {
                ConsensusRequest::new(
                    dataset(8, 30 + i),
                    [MethodKind::FairBorda, MethodKind::FairCopeland],
                    FairnessThresholds::uniform(0.2),
                )
            })
            .collect();
        let responses = engine.submit_batch(requests);
        assert_eq!(responses.len(), 5);
        assert!(responses.iter().all(|r| r.is_complete()));
        let stats = engine.stats();
        assert_eq!(stats.submitted, 5, "blocking requests are jobs");
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.in_flight, 0, "every slot released");
        assert_eq!(stats.rejected, 0, "blocking admission never rejects");
    }
}
