//! # dbs3-engine
//!
//! The adaptive parallel execution engine of DBS3 — the paper's primary
//! contribution (Sections 2–3).
//!
//! The engine combines **static partitioning** with **dynamic processor
//! allocation**:
//!
//! * every operation of the extended plan has one *instance* per fragment,
//!   and every instance owns a FIFO **activation queue** ([`queue`]);
//! * one fixed **pool of threads** serves every operation of every live
//!   query ([`runtime`]); the queues live in shared memory so any thread of
//!   the pool can consume any activation;
//! * each operation's queues are ordered once by decreasing estimated cost,
//!   and every thread walks that order as a ring starting at its own slice:
//!   the slice is the thread's **main** queues, the rest its **secondary**
//!   ones, so a thread first drains its main queues and only then looks at
//!   the others, costliest first;
//! * a producer-side **internal activation cache** batches outgoing tuples
//!   per destination and flushes each buffer as one [`TupleBatch`] transport
//!   activation, so `CacheSize` tuples cross the queue under a single lock
//!   acquisition (implemented by the runtime's scatter buffers; metrics
//!   still count the paper's logical per-tuple activations, see
//!   [`activation`]);
//! * the **scheduler** ([`schedule`]) fixes the query's `ThreadNb` (step 1
//!   of the top-down approach of Figure 5, the width of the pool it runs on)
//!   and every operation's `QueueNb` and `CacheSize`; steps 2–4 — threads
//!   per subquery and per operation, and the Random/LPT choice — live in the
//!   simulator (`dbs3_sim`), the only code that models one pool per
//!   operation;
//! * the **runtime** ([`runtime`]) owns the worker threads: a pool,
//!   spawned by [`Runtime::new`], parked on a condvar when idle and joined
//!   when dropped, that executes any number of concurrently submitted
//!   queries — each tagged with a [`QueryId`] and observed through a
//!   [`QueryHandle`] (`wait`/`wait_timeout_or_cancel`/`cancel`).
//!
//! There is one way to run a plan: [`prepare`] it (expansion + scheduling,
//! answered from the plan cache on repeat) and hand the result to
//! [`Runtime::submit_prepared`] on a pool the caller owns. Blocking is
//! `.wait()` on the returned handle. [`Runtime::submit`] is the same path
//! for callers that hand-build an [`ExecutionSchedule`]. The engine keeps
//! no pool of its own: a query that wants threads of its own spawns a
//! runtime as wide as [`ExecutionSchedule::query_threads`] and drops it
//! when done, as the `dbs3` facade's blocking `run()` does.
//!
//! The engine executes plans with real OS threads and produces both the
//! query result and detailed [`metrics`] (per-thread busy time, activation
//! counts, queue contention) used by the experiments.

// A panic here kills a query, a session thread or the process: each
// justified site carries an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod activation;
pub mod cache;
pub mod error;
pub mod faults;
pub mod metrics;
mod op_state;
pub mod operators;
pub mod queue;
pub mod runtime;
pub mod schedule;
pub mod sync;

pub use activation::{Activation, TupleBatch};
pub use cache::{cache_stats, clear_caches, prepare, CacheCounters, CacheStats, PreparedPlan};
pub use error::EngineError;
pub use faults::{FaultAction, FaultGuard, FaultPlan, FaultPoint, FaultRule, FaultTrigger};
pub use metrics::{ExecutionMetrics, OperationMetrics};
pub use queue::{ActivationQueue, TryPushError};
pub use runtime::{ExecutionOutcome, QueryHandle, QueryId, Runtime};
pub use schedule::{
    ExecutionSchedule, OperationSchedule, Scheduler, SchedulerOptions, DEFAULT_MORSEL_ROWS,
};
pub use sync::CachePadded;

/// Convenient `Result` alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
