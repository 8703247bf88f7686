//! The vocabulary of running a query: which pool ([`Backend`]), how to
//! observe it ([`QueryHandle`]) and what comes back ([`QueryOutcome`],
//! [`BackendMetrics`]).
//!
//! The paper's central claim is that one plan can be executed under many
//! regimes — different thread counts, consumption strategies, cache sizes,
//! real OS threads or the simulated 72-processor KSR1. A
//! [`Query`](crate::Query) carries the regime as values: backend-neutral
//! knobs ([`SchedulerOptions`](dbs3_engine::SchedulerOptions)) plus a
//! [`Backend`], so swapping real threads for virtual time is a one-line
//! change:
//!
//! ```
//! use dbs3::prelude::*;
//!
//! let mut session = Session::new();
//! let spec = PartitionSpec::on("unique1", 8, 2);
//! session.load_wisconsin(&WisconsinConfig::narrow("A", 1_000), spec.clone())?;
//! session.load_wisconsin(&WisconsinConfig::narrow("Bprime", 100), spec)?;
//! let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
//!
//! // Real OS threads...
//! let threaded = session.query(&plan).threads(4).run()?;
//! // ...or the KSR1-scale simulator: only the `.on(...)` call changes.
//! let simulated = session
//!     .query(&plan)
//!     .threads(4)
//!     .on(Backend::Simulated(SimConfig::ksr1()))
//!     .run()?;
//!
//! assert_eq!(
//!     threaded.result_cardinality("Result"),
//!     simulated.result_cardinality("Result"),
//! );
//! # Ok::<(), dbs3::Error>(())
//! ```
//!
//! # One engine path, two choices of pool
//!
//! Every run on real threads is the same two engine calls —
//! [`dbs3_engine::prepare`] (expansion + scheduling, cached) then
//! [`Runtime::submit_prepared`] — and a [`QueryHandle`]. The only things
//! that vary are *which pool* and *whether the caller waits*:
//!
//! * [`Backend::Threaded`] (the default) uses the process-wide
//!   [`Runtime::shared`] pool whose width equals the schedule's total
//!   thread count. The pool is spawned on first use at that width, parks
//!   when idle and lives for the rest of the process.
//! * [`Backend::Pooled`] uses a [`Runtime`] the caller owns. Its width is
//!   fixed at [`Runtime::new`]; the query's `.threads(n)` knob still shapes
//!   the *schedule* (queue cost estimates, strategy picks) but does not
//!   resize the pool.
//!
//! `run()` is `submit` + [`QueryHandle::wait`] on whichever pool was
//! selected; [`Query::submit`](crate::Query::submit) returns the handle
//! instead of waiting. Any number of queries may be in flight on one pool,
//! with workers picking activations across all of them:
//!
//! ```
//! use dbs3::prelude::*;
//! use std::sync::Arc;
//!
//! let mut session = Session::new();
//! let spec = PartitionSpec::on("unique1", 8, 2);
//! session.load_wisconsin(&WisconsinConfig::narrow("A", 1_000), spec.clone())?;
//! session.load_wisconsin(&WisconsinConfig::narrow("Bprime", 100), spec)?;
//! let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
//!
//! let runtime = Arc::new(Runtime::new(4)?);
//! // Blocking, through the backend selector...
//! let pooled = session
//!     .query(&plan)
//!     .on(Backend::Pooled(Arc::clone(&runtime)))
//!     .run()?;
//! // ...or submit-and-wait with a handle.
//! let handle = session.query(&plan).submit(&runtime)?;
//! let submitted = handle.wait()?;
//! assert_eq!(pooled.result_cardinality("Result"), Some(100));
//! assert_eq!(submitted.result_cardinality("Result"), Some(100));
//! # Ok::<(), dbs3::Error>(())
//! ```

use crate::error::Result;
use dbs3_engine::{ExecutionMetrics, ExecutionOutcome, Runtime};
use dbs3_lera::{NodeId, OperatorKind, Plan};
use dbs3_sim::{SimConfig, SimReport};
use dbs3_storage::Tuple;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Where a [`Query`](crate::Query) runs, selected with
/// [`Query::on`](crate::Query::on).
#[derive(Debug, Clone, Default)]
pub enum Backend {
    /// Real OS threads on the process-wide [`Runtime::shared`] pool whose
    /// width is the schedule's total thread count (spawned on first use,
    /// reused by every later run at that width).
    #[default]
    Threaded,
    /// Real OS threads on a caller-owned [`Runtime`] pool, shared with
    /// whatever else the caller submits to it (see the
    /// [module docs](self)).
    Pooled(Arc<Runtime>),
    /// Replay the same schedule on the virtual-time simulator configured by
    /// the given [`SimConfig`] (e.g. [`SimConfig::ksr1`]). The config
    /// supplies only the machine model; the thread count and strategy come
    /// from the query, as on the real-thread backends — a query without
    /// `.threads(n)` runs with the count scheduling step 1 derives.
    Simulated(SimConfig),
}

/// A handle to a query submitted to a [`Runtime`] pool through
/// [`Query::submit`](crate::Query::submit) or
/// [`PreparedQuery::submit`](crate::PreparedQuery::submit).
///
/// Wraps the engine-level [`dbs3_engine::QueryHandle`], converting outcomes
/// to the facade's unified [`QueryOutcome`] and errors to [`crate::Error`].
/// Dropping the handle does not cancel the query.
#[derive(Debug)]
pub struct QueryHandle {
    inner: dbs3_engine::QueryHandle,
}

impl QueryHandle {
    pub(crate) fn new(inner: dbs3_engine::QueryHandle) -> Self {
        QueryHandle { inner }
    }

    /// The runtime-unique id of the submitted query.
    pub fn id(&self) -> dbs3_engine::QueryId {
        self.inner.id()
    }

    /// Whether the outcome is available (completed, cancelled or failed).
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Blocks until the query completes and returns its outcome. A
    /// cancelled query reports
    /// [`EngineError::QueryCancelled`](dbs3_engine::EngineError::QueryCancelled);
    /// a query orphaned by a dropped runtime reports
    /// [`EngineError::RuntimeShutdown`](dbs3_engine::EngineError::RuntimeShutdown).
    pub fn wait(self) -> Result<QueryOutcome> {
        Ok(QueryOutcome::from_execution(self.inner.wait()?))
    }

    /// Returns the outcome if the query already completed, without
    /// blocking. The first `Some` consumes the outcome; the handle is spent
    /// afterwards.
    pub fn try_outcome(&mut self) -> Option<Result<QueryOutcome>> {
        self.inner
            .try_outcome()
            .map(|result| Ok(QueryOutcome::from_execution(result?)))
    }

    /// Cancels the query; `wait()` then reports a typed cancelled error.
    /// Idempotent, and the runtime stays fully reusable.
    pub fn cancel(&self) {
        self.inner.cancel();
    }
}

/// Execution metrics of either backend, with shared accessors for the
/// quantities the paper's experiments compare: elapsed time, activation
/// counts and busy-time balance.
#[derive(Debug, Clone)]
pub enum BackendMetrics {
    /// Wall-clock metrics from the threaded engine.
    Threaded(ExecutionMetrics),
    /// Virtual-time report from the simulator.
    Simulated(SimReport),
}

impl BackendMetrics {
    /// Name of the backend that produced the metrics.
    pub fn backend_name(&self) -> &'static str {
        match self {
            BackendMetrics::Threaded(_) => "threaded",
            BackendMetrics::Simulated(_) => "simulated",
        }
    }

    /// Response time of the query: wall-clock for the threaded engine,
    /// virtual (KSR1-scale) time including start-up for the simulator.
    pub fn elapsed(&self) -> Duration {
        match self {
            BackendMetrics::Threaded(m) => m.elapsed,
            BackendMetrics::Simulated(r) => Duration::from_secs_f64(r.total_seconds()),
        }
    }

    /// Total activations consumed across all operations.
    pub fn total_activations(&self) -> u64 {
        match self {
            BackendMetrics::Threaded(m) => m.total_activations(),
            BackendMetrics::Simulated(r) => r.total_activations(),
        }
    }

    /// Activations consumed by one operation, if it was executed. (The
    /// simulator folds `Store` operations into their producers, so store
    /// nodes report `None` there.)
    pub fn activations(&self, node: NodeId) -> Option<u64> {
        match self {
            BackendMetrics::Threaded(m) => m.operation(node).map(|o| o.total_activations()),
            BackendMetrics::Simulated(r) => r.operation(node).map(|o| o.activations as u64),
        }
    }

    /// The largest per-operation `max_busy / avg_busy` ratio across the
    /// query's pools (1.0 = perfectly balanced) — the paper's load-balancing
    /// yardstick, defined identically for both backends.
    pub fn worst_imbalance(&self) -> f64 {
        match self {
            BackendMetrics::Threaded(m) => m.worst_imbalance(),
            BackendMetrics::Simulated(r) => r.worst_imbalance(),
        }
    }

    /// Total threads (real or virtual) the execution used.
    pub fn total_threads(&self) -> usize {
        match self {
            BackendMetrics::Threaded(m) => m.total_threads,
            BackendMetrics::Simulated(r) => r.threads,
        }
    }

    /// Query-setup cache activity attributed to this execution (prepared
    /// plans and shared build-side hash indexes); `None` for the simulator,
    /// which has no cache to consult. See
    /// [`ExecutionMetrics::caches`](dbs3_engine::ExecutionMetrics) for the
    /// attribution caveats under concurrency.
    pub fn cache_stats(&self) -> Option<dbs3_engine::CacheStats> {
        self.as_threaded().map(|m| m.caches)
    }

    /// The threaded engine's metrics, if this execution used real threads.
    pub fn as_threaded(&self) -> Option<&ExecutionMetrics> {
        match self {
            BackendMetrics::Threaded(m) => Some(m),
            BackendMetrics::Simulated(_) => None,
        }
    }

    /// The simulator's report, if this execution ran in virtual time.
    pub fn as_simulated(&self) -> Option<&SimReport> {
        match self {
            BackendMetrics::Threaded(_) => None,
            BackendMetrics::Simulated(r) => Some(r),
        }
    }
}

/// The unified result of running a [`Query`](crate::Query) on any backend.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Materialised result tuples, keyed by store name. Only the threaded
    /// and pooled backends materialise tuples — and not when the query ran
    /// with [`Query::discard_results`](crate::Query::discard_results); the
    /// simulator always leaves this empty and reports cardinalities instead.
    pub results: BTreeMap<String, Vec<Tuple>>,
    /// Exact result cardinality per store name, filled by every backend —
    /// the basis of cross-backend equivalence checks.
    pub cardinalities: BTreeMap<String, usize>,
    /// Execution metrics of the backend that ran the query.
    pub metrics: BackendMetrics,
}

impl QueryOutcome {
    /// Builds an outcome from a threaded-engine execution. Cardinalities
    /// come from the engine's own store tallies, so they stay exact when
    /// the query discarded its result tuples.
    pub fn from_execution(outcome: ExecutionOutcome) -> Self {
        QueryOutcome {
            results: outcome.results,
            cardinalities: outcome.cardinalities,
            metrics: BackendMetrics::Threaded(outcome.metrics),
        }
    }

    /// Builds an outcome from a simulation report, deriving each store's
    /// cardinality from the exact output count of the operation feeding it.
    pub fn from_sim_report(plan: &Plan, report: SimReport) -> Self {
        let mut cardinalities = BTreeMap::new();
        for node in plan.nodes() {
            if let OperatorKind::Store { result_name } = &node.kind {
                let produced = node
                    .producer()
                    .and_then(|p| report.operation(p))
                    .map(|op| op.tuples_out)
                    .unwrap_or(0);
                cardinalities.insert(result_name.clone(), produced);
            }
        }
        QueryOutcome {
            results: BTreeMap::new(),
            cardinalities,
            metrics: BackendMetrics::Simulated(report),
        }
    }

    /// Cardinality of the named result, if the plan stored it.
    pub fn result_cardinality(&self, name: &str) -> Option<usize> {
        self.cardinalities.get(name).copied()
    }

    /// The materialised tuples of a plan with exactly one store operator
    /// (threaded backend only).
    pub fn result(&self) -> Option<&Vec<Tuple>> {
        if self.results.len() == 1 {
            self.results.values().next()
        } else {
            None
        }
    }

    /// Shorthand for `metrics.elapsed()`.
    pub fn elapsed(&self) -> Duration {
        self.metrics.elapsed()
    }

    /// Shorthand for `metrics.as_simulated()`.
    pub fn sim_report(&self) -> Option<&SimReport> {
        self.metrics.as_simulated()
    }

    /// Shorthand for `metrics.as_threaded()`.
    pub fn execution_metrics(&self) -> Option<&ExecutionMetrics> {
        self.metrics.as_threaded()
    }
}
