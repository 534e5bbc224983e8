//! Batch handles: as-completed streaming over a group of [`JobHandle`]s.
//!
//! [`crate::ConsensusEngine::submit_batch_streaming`] wraps the handles from
//! [`crate::ConsensusEngine::submit_batch_async`] in a [`BatchHandle`] that
//! yields each response **the moment its job completes**, in completion order
//! — the consumer of a threshold sweep sees the cheap Fair-Borda solves while
//! the expensive Fair-Kemeny ones are still searching. Delivery is
//! condvar-based: every job's state transition pushes its index onto the
//! batch's ready queue and signals the waiter ([`crate::jobs`] hooks the
//! notification into `JobState::complete`), so [`BatchHandle::wait_next`]
//! blocks without any polling loop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::jobs::{JobHandle, JobId};
use crate::request::ConsensusResponse;

/// Completion mailbox shared between a [`BatchHandle`] and the jobs it
/// groups. Jobs deposit their batch index on completion; the handle drains
/// indexes in arrival order.
#[derive(Debug, Default)]
pub(crate) struct BatchNotifier {
    /// Completed-but-not-yet-yielded batch indexes, in completion order.
    ready: Mutex<VecDeque<usize>>,
    cond: Condvar,
}

impl BatchNotifier {
    /// Records that the job at `index` completed and wakes the batch waiter.
    pub(crate) fn notify(&self, index: usize) {
        let mut ready = self.ready.lock().expect("batch ready lock poisoned");
        ready.push_back(index);
        self.cond.notify_all();
    }
}

/// Per-engine streaming-batch counters (surfaced via
/// [`crate::EngineStats`]).
#[derive(Debug, Default)]
pub(crate) struct BatchCounters {
    pub(crate) opened: AtomicU64,
    pub(crate) drained: AtomicU64,
    pub(crate) results_yielded: AtomicU64,
}

/// One completion yielded by a [`BatchHandle`], tagged with the position of
/// its request in the submitted batch.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Index of the originating request in the submitted batch.
    pub index: usize,
    /// The job's engine-unique id.
    pub id: JobId,
    /// The completed response (shared, identical to what
    /// [`JobHandle::wait`] on the same job returns).
    pub response: Arc<ConsensusResponse>,
}

/// Groups the [`JobHandle`]s of one async batch and yields completions in
/// as-completed order.
///
/// Responses are bit-identical to [`crate::ConsensusEngine::submit_batch`]
/// over the same requests; only the delivery order differs (completion order
/// instead of request order — [`BatchItem::index`] recovers request order).
#[derive(Debug)]
pub struct BatchHandle {
    handles: Vec<JobHandle>,
    notifier: Arc<BatchNotifier>,
    yielded: usize,
    counters: Option<Arc<BatchCounters>>,
    drained_recorded: bool,
}

impl BatchHandle {
    /// Groups `handles` (e.g. from
    /// [`crate::ConsensusEngine::submit_batch_async`]) into one streaming
    /// batch. Jobs that already completed are immediately ready, in handle
    /// order.
    pub fn new(handles: Vec<JobHandle>) -> Self {
        Self::with_counters(handles, None)
    }

    pub(crate) fn with_counters(
        handles: Vec<JobHandle>,
        counters: Option<Arc<BatchCounters>>,
    ) -> Self {
        let notifier = Arc::new(BatchNotifier::default());
        for (index, handle) in handles.iter().enumerate() {
            handle.subscribe(index, &notifier);
        }
        if let Some(counters) = &counters {
            counters.opened.fetch_add(1, Ordering::Relaxed);
            if handles.is_empty() {
                counters.drained.fetch_add(1, Ordering::Relaxed);
            }
        }
        Self {
            drained_recorded: handles.is_empty(),
            handles,
            notifier,
            yielded: 0,
            counters,
        }
    }

    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True for a batch over zero requests.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// True once every completion has been yielded.
    pub fn is_drained(&self) -> bool {
        self.yielded == self.handles.len()
    }

    /// The grouped handles, in request order.
    pub fn handles(&self) -> &[JobHandle] {
        &self.handles
    }

    /// Blocks until the next job completes and yields it; `None` once every
    /// completion has been yielded.
    pub fn wait_next(&mut self) -> Option<BatchItem> {
        if self.is_drained() {
            return None;
        }
        let index = {
            let mut ready = self
                .notifier
                .ready
                .lock()
                .expect("batch ready lock poisoned");
            loop {
                if let Some(index) = ready.pop_front() {
                    break index;
                }
                ready = self
                    .notifier
                    .cond
                    .wait(ready)
                    .expect("batch ready lock poisoned");
            }
        };
        Some(self.yield_item(index))
    }

    /// Yields the completed job at `index`, updating batch and engine
    /// counters.
    fn yield_item(&mut self, index: usize) -> BatchItem {
        let handle = &self.handles[index];
        let response = handle
            .try_poll()
            .expect("a notified job is always complete");
        self.yielded += 1;
        if let Some(counters) = &self.counters {
            counters.results_yielded.fetch_add(1, Ordering::Relaxed);
            if self.is_drained() && !self.drained_recorded {
                self.drained_recorded = true;
                counters.drained.fetch_add(1, Ordering::Relaxed);
            }
        }
        BatchItem {
            index,
            id: handle.id(),
            response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobStatus;
    use crate::jobs::{JobHandle, JobId};
    use std::time::Duration;

    fn response(name: &str) -> ConsensusResponse {
        ConsensusResponse {
            dataset: name.into(),
            results: Vec::new(),
            total_solve_time: Duration::ZERO,
        }
    }

    /// A handle plus direct access to its completion trigger.
    fn job(raw: u64) -> (JobHandle, Arc<crate::jobs::JobState>) {
        let state = Arc::new(crate::jobs::JobState::new());
        (
            JobHandle::new(JobId::from_raw(raw), Arc::clone(&state)),
            state,
        )
    }

    #[test]
    fn yields_in_completion_order_not_request_order() {
        let (h0, s0) = job(1);
        let (h1, s1) = job(2);
        let (h2, s2) = job(3);
        let mut batch = BatchHandle::new(vec![h0, h1, h2]);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_drained());

        s2.complete(response("c"));
        s0.complete(response("a"));
        let first = batch.wait_next().expect("one job is done");
        assert_eq!(first.index, 2, "last-submitted job completed first");
        assert_eq!(first.response.dataset, "c");
        assert_eq!(first.id.as_u64(), 3);
        let second = batch.wait_next().expect("another job is done");
        assert_eq!(second.index, 0);

        s1.complete(response("b"));
        assert_eq!(batch.wait_next().expect("final job").index, 1);
        assert!(batch.is_drained());
        assert!(batch.wait_next().is_none(), "drained batches yield None");
    }

    #[test]
    fn jobs_completed_before_grouping_are_immediately_ready() {
        let (h0, s0) = job(1);
        s0.complete(response("early"));
        assert_eq!(h0.status(), JobStatus::Done);
        let mut batch = BatchHandle::new(vec![h0]);
        let item = batch
            .wait_next()
            .expect("already-done job must be ready without a transition");
        assert_eq!(item.index, 0);
        assert_eq!(item.response.dataset, "early");
    }

    #[test]
    fn wait_next_blocks_until_a_completion_arrives() {
        let (h0, s0) = job(1);
        let mut batch = BatchHandle::new(vec![h0]);
        let completer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s0.complete(response("late"));
        });
        let item = batch.wait_next().expect("completion arrives");
        assert_eq!(item.response.dataset, "late");
        completer.join().unwrap();
    }

    #[test]
    fn counters_track_open_yield_drain() {
        let counters = Arc::new(BatchCounters::default());
        let (h0, s0) = job(1);
        let mut batch = BatchHandle::with_counters(vec![h0], Some(Arc::clone(&counters)));
        assert_eq!(counters.opened.load(Ordering::Relaxed), 1);
        assert_eq!(counters.drained.load(Ordering::Relaxed), 0);
        s0.complete(response("a"));
        batch.wait_next().expect("done");
        assert_eq!(counters.results_yielded.load(Ordering::Relaxed), 1);
        assert_eq!(counters.drained.load(Ordering::Relaxed), 1);

        // An empty batch opens already drained.
        let _empty = BatchHandle::with_counters(Vec::new(), Some(Arc::clone(&counters)));
        assert_eq!(counters.opened.load(Ordering::Relaxed), 2);
        assert_eq!(counters.drained.load(Ordering::Relaxed), 2);
    }
}
