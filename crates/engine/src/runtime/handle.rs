//! The caller's side of a submitted query: the handle it waits on or
//! cancels through, the completion cell the handle reads and the outcome
//! sealed into it.
//!
//! Cancellation ([`QueryHandle::cancel`]) closes and drains the query's
//! queues and completes the cell with [`EngineError::QueryCancelled`];
//! in-flight workers notice the closed queues (their flushes are dropped)
//! and move on, leaving the pool reusable. Dropping the
//! [`Runtime`](super::Runtime) signals shutdown, joins the workers, and
//! fails any still-pending query with [`EngineError::RuntimeShutdown`] so
//! no waiter ever hangs.

use super::{abort_query, QueryId, QueryState, RuntimeInner};
use crate::error::EngineError;
use crate::metrics::ExecutionMetrics;
use crate::Result;
use dbs3_storage::Tuple;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::time::Duration;

/// The completion cell a [`QueryHandle`] waits on. It lives apart from
/// the query's state, which the handle does not keep alive.
pub(super) struct CompletionCell {
    pub(super) outcome: Mutex<Option<Result<ExecutionOutcome>>>,
    pub(super) done: Condvar,
}

impl CompletionCell {
    /// Seals the outcome exactly once (first writer wins — a cancel racing
    /// a natural completion keeps the cancel) and wakes every waiter.
    pub(super) fn seal(&self, result: Result<ExecutionOutcome>) {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }
}

/// The result of a query execution.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// Materialised results, keyed by the store operator's result name.
    /// Empty per store when the schedule discards results
    /// ([`ExecutionSchedule::discard_results`](crate::ExecutionSchedule::discard_results)).
    pub results: BTreeMap<String, Vec<Tuple>>,
    /// Exact result cardinality per store name, filled in every mode —
    /// counting stores tally tuples they never materialise.
    pub cardinalities: BTreeMap<String, usize>,
    /// Execution metrics.
    pub metrics: ExecutionMetrics,
}

/// A handle to a query submitted to a [`Runtime`](super::Runtime).
///
/// The handle is detachable: dropping it does **not** cancel the query
/// (use [`QueryHandle::cancel`] for that); the runtime finishes the work
/// and discards the unobserved outcome.
///
/// The handle does not keep the query's state alive: a query that
/// finishes is sealed when the last worker lets go of it, after its queue
/// sets have gone back to the runtime, so the next query submitted after
/// [`QueryHandle::wait`] re-arms them.
pub struct QueryHandle {
    pub(super) id: QueryId,
    /// For [`QueryHandle::cancel`] and deadlines, while the query runs.
    pub(super) query: Weak<QueryState>,
    pub(super) cell: Arc<CompletionCell>,
    pub(super) inner: Arc<RuntimeInner>,
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryHandle").field("id", &self.id).finish()
    }
}

impl QueryHandle {
    /// The runtime-unique id of the submitted query.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Blocks until the query completes and returns its outcome. Returns
    /// [`EngineError::QueryCancelled`] if it was cancelled and
    /// [`EngineError::RuntimeShutdown`] if the runtime was dropped first.
    pub fn wait(self) -> Result<ExecutionOutcome> {
        let cell = &self.cell;
        let slot = cell.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        let mut slot = cell
            .done
            .wait_while(slot, |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        // `wait_while` returns only once the outcome is sealed, so the
        // fallback is never taken.
        slot.take().unwrap_or(Err(EngineError::RuntimeShutdown))
    }

    /// Like [`QueryHandle::wait`] with a deadline: blocks for at most
    /// `timeout`, and a timeout **cancels the query** — its queues are
    /// closed and drained, the admission slot
    /// ([`Runtime::live_queries`](super::Runtime::live_queries)) is
    /// released immediately, and the typed
    /// [`EngineError::DeadlineExceeded`] is returned. This is the deadline
    /// primitive a server wants: a wait that merely gave up would leave the
    /// timed-out query burning workers and holding its slot until it
    /// finished naturally.
    ///
    /// If the query completes in the race window between the timeout and
    /// the cancellation, the completed outcome wins and is returned.
    pub fn wait_timeout_or_cancel(self, timeout: Duration) -> Result<ExecutionOutcome> {
        {
            let cell = &self.cell;
            let slot = cell.outcome.lock().unwrap_or_else(PoisonError::into_inner);
            let (mut slot, _) = cell
                .done
                .wait_timeout_while(slot, timeout, |slot| slot.is_none())
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(result) = slot.take() {
                return result;
            }
        }
        let error = EngineError::DeadlineExceeded { query: self.id.0 };
        // A state that is gone was sealed as it dropped; otherwise
        // abort_query seals the error, or the outcome of a query that
        // finished in the meantime — either way one is there to take.
        if let Some(query) = self.query.upgrade() {
            abort_query(&self.inner, &query, error.clone());
        }
        self.cell
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or(Err(error))
    }

    /// Cancels the query: its queues are closed and drained, in-flight
    /// output is discarded, and `wait()` reports
    /// [`EngineError::QueryCancelled`]. Idempotent; a query that already
    /// completed keeps its outcome. The pool stays fully reusable.
    pub fn cancel(&self) {
        // A state that is gone belongs to a query already sealed.
        let Some(query) = self.query.upgrade() else {
            return;
        };
        if query
            .cancelled
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        abort_query(
            &self.inner,
            &query,
            EngineError::QueryCancelled { query: self.id.0 },
        );
    }
}
