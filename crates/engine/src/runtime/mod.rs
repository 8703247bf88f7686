//! The persistent multi-query runtime: one shared worker pool, many
//! concurrent queries.
//!
//! The paper's DBS3 engine keeps a fixed pool of threads alive and makes
//! *activations* — not threads — the unit of scheduled work. This module is
//! that model taken to its conclusion at the API boundary: a [`Runtime`]
//! spawns its worker threads **once**, parks them on a condvar while no
//! query is live, and accepts any number of concurrently submitted queries.
//! Each [`Runtime::submit`] call gives the query a private *queue set* —
//! one [`ActivationQueue`] per operation instance, exactly the structure
//! of Figure 4 — tags it with a [`QueryId`], and registers it with the pool.
//! A set comes re-armed from an earlier query when the runtime holds one
//! (the `spares` module keeps it).
//! Workers then pick activations **across all live queries**, still under
//! the paper's main/secondary queue split, so the intra-query scheduling of
//! Section 3 extends to inter-query scheduling without new mechanism.
//!
//! Each part of that model is decided in one file:
//!
//! * this one: the runtime, a query's state, submit, shutdown and abort,
//!   and the termination cascade that seals a query;
//! * `handle.rs`: the handle a caller waits on and its completion cell;
//! * `spares.rs`: what a warm runtime keeps for later queries;
//! * `parking.rs`: how idle workers sleep and wake, and the watchdog;
//! * `worker.rs`: how a worker finds work, from the walk over the live
//!   queries to the queue it pops;
//! * `route.rs`: where a batch's output goes: the producer-side cache,
//!   its flushes and cooperative backpressure.
//!
//! # Morsels
//!
//! Triggered operations receive their control activations at submit time.
//! A fragment larger than the schedule's `morsel_rows` is split into
//! [`Activation::Morsel`]s — contiguous row ranges, claimed one per pop —
//! instead of a single whole-fragment [`Activation::Trigger`], so several
//! workers can scan one fragment concurrently (the engine-side counterpart
//! of the simulator's `triggered_granule`). Only the lead morsel carries
//! logical weight: per-operation logical activation counts are identical
//! whatever the morsel size, which `tests/backend_equivalence.rs` pins
//! across backends.
//!
//! # Threads and termination
//!
//! * **Threads belong to the runtime.** No operation of a query owns a
//!   thread, and the pool width bounds actual parallelism. Per-operation
//!   thread counts (scheduling steps 2–3) exist only in the simulator.
//! * **Termination is by accounting.** Each operation's state word counts
//!   the queue weight it has pending (raised before every push, lowered
//!   after every pop) and the workers holding a batch of it; the operation
//!   is *finished* by the one transition that finds its input closed,
//!   nothing pending and nothing in flight (see `op_state.rs`). Finishing
//!   closes the consumer's queues and closes its input, and the check
//!   cascades down the pipeline. When every operation of a query has
//!   finished, its results and metrics wait for the last worker to let go
//!   of the query; its queue sets then go back to the runtime, the
//!   outcome is sealed into a completion cell, and the query's
//!   [`QueryHandle::wait`] returns.

mod handle;
mod parking;
mod route;
mod spares;
mod worker;

pub use handle::{ExecutionOutcome, QueryHandle};

use crate::activation::Activation;
use crate::cache::PreparedPlan;
use crate::error::EngineError;
use crate::faults::{self, FaultAction, FaultPoint};
use crate::metrics::{ExecutionMetrics, OperationMetrics, ThreadMetrics};
use crate::op_state::{Effect, Event, OpState, OpWord, MAX_INFLIGHT};
use crate::operators::{
    BoundOperator, FilterOperator, PipelinedJoinOperator, Router, StoreOperator, TransmitOperator,
    Transmitted, TriggeredJoinOperator,
};
use crate::queue::ActivationQueue;
use crate::schedule::ExecutionSchedule;
use crate::Result;
use dbs3_lera::{CostParameters, ExtendedPlan, NodeId, OperatorKind, OuterInput, Plan};
use dbs3_storage::Catalog;
use handle::CompletionCell;
use parking::{watchdog_loop, IdleParking};
use route::ConsumerLink;
#[cfg(test)]
use spares::SpareCounts;
use spares::Spares;
use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use worker::{chunk, occupancy_bit, worker_loop};

/// Identifier of a query submitted to a [`Runtime`], unique within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Runtime state of one operation of a submitted query.
struct OpRuntime {
    node: NodeId,
    name: String,
    operator: BoundOperator,
    /// One queue per instance, held inline: nothing outside the query
    /// state ever holds a queue, so one allocation covers the whole set.
    queues: Vec<ActivationQueue>,
    /// Batch budget of one pop and flush threshold of the producer-side
    /// scatter buffers (the paper's `CacheSize`).
    cache_size: usize,
    consumer: Option<ConsumerLink>,
    /// The ring every worker walks and its inverse: `ring[p]` is the queue
    /// at position `p` in decreasing estimated-cost order, and `ring[n + q]`
    /// is the position of queue `q`, for `n` queues. Computed once at
    /// submit: the estimates are static.
    ring: Vec<u32>,
    /// Input-closed and finished bits, workers in flight and pending queue
    /// weight, changed one transition at a time; and the occupancy bits of
    /// the ring's chunks.
    state: OpWord,
}

impl OpRuntime {
    /// The queue at ring position `position`.
    fn queue_at(&self, position: usize) -> usize {
        self.ring[position] as usize
    }

    /// The occupancy bit of queue `queue`.
    fn bit_of(&self, queue: usize) -> usize {
        let n = self.queues.len();
        occupancy_bit(self.ring[n + queue] as usize, n)
    }

    /// Clears chunk `bit`'s occupancy bit, then sets it again if a queue
    /// of the chunk holds work (see the `worker` module docs).
    fn settle(&self, bit: usize) {
        let n = self.queues.len();
        self.state.settle(bit, || {
            chunk(bit, n).any(|position| !self.queues[self.queue_at(position)].is_empty())
        });
    }
}

/// Thread metrics slots of one query, one per operation and worker, in
/// one allocation: worker `w`'s slot for operation `op` is
/// `op * pool_threads + w`.
type MetricsSlots = Box<[Mutex<ThreadMetrics>]>;

/// Everything the pool needs to execute one submitted query.
struct QueryState {
    id: QueryId,
    /// Operations in topological (producer-before-consumer) order; their
    /// store operators hold the results.
    ops: Vec<OpRuntime>,
    started: Instant,
    // ordering(cancelled): SeqCst store on cancel so the flag is visible
    // before the queues close; the hot-path probes in `is_live` and the
    // worker loop load Relaxed — acting on a stale `false` only means one
    // more harmless batch, and the completion cell is mutex-sealed anyway.
    cancelled: AtomicBool,
    /// Operations not yet finished; the query completes when this hits 0.
    // ordering(ops_remaining): SeqCst on the finish-side decrement (it
    // decides query completion: the last operation to finish seals it);
    // `is_live` probes with Relaxed because staleness only costs a wasted
    // scan.
    ops_remaining: AtomicUsize,
    /// Monotone activation-progress counter: bumped every time a worker
    /// processes a batch for this query. The watchdog compares successive
    /// readings to detect wedged queries; nothing else reads it.
    // ordering(progress): Relaxed writes on the worker hot path — the
    // watchdog only compares successive snapshots seconds apart, so any
    // eventually-visible increment works; its reader uses SeqCst merely to
    // pair with the rest of the watchdog scan.
    progress: AtomicU64,
    metrics: MetricsSlots,
    cell: Arc<CompletionCell>,
    /// The outcome of a query whose operations have all finished, which
    /// the state's drop seals (see [`finalize_query`]).
    finished: Mutex<Option<ExecutionOutcome>>,
    /// The runtime's spare queue sets, which this query's sets join when
    /// it drops.
    spares: Arc<Mutex<Spares>>,
}

impl Drop for QueryState {
    /// Hands each operation's queue set to the runtime's spares, whichever
    /// thread drops the last reference, drops the bound operators, and then
    /// seals a finished query's outcome: a caller its handle wakes finds the
    /// sets there when it submits again, and no longer shares the relations
    /// the operators read. A set the bounds refuse is freed outside the
    /// lock.
    fn drop(&mut self) {
        for mut op in mem::take(&mut self.ops) {
            let set = mem::take(&mut op.queues);
            let refused = self
                .spares
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .give(set);
            drop(refused);
        }
        // An aborted query was sealed already, and the registry keeps every
        // other query alive until it finishes, so the fallback is never
        // taken.
        let finished = self
            .finished
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        self.cell.seal(finished.ok_or(EngineError::RuntimeShutdown));
    }
}

impl QueryState {
    /// Whether any work could remain for this query.
    fn is_live(&self) -> bool {
        !self.cancelled.load(Ordering::Relaxed) && self.ops_remaining.load(Ordering::Relaxed) > 0
    }
}

/// Pool state shared by the [`Runtime`] handle, its workers and every
/// [`QueryHandle`].
struct RuntimeInner {
    pool_threads: usize,
    /// The live queries, in submit order, and where the last walk for
    /// work stopped: workers find their next operation here (see the
    /// `worker` module docs), and `live_queries`, shutdown, abort and the
    /// watchdog read it.
    queries: Mutex<Registry>,
    // ordering(next_query): SeqCst — id allocation; uniqueness is all that
    // matters and the fetch_add is nowhere near a hot path.
    next_query: AtomicU64,
    // ordering(shutdown): SeqCst store + SeqCst loads at the decision
    // points (submit gate, worker exit, drain loop) so no worker can see
    // work queued after it observed the flag; the per-batch probe in the
    // worker loop loads Relaxed since a stale `false` just processes one
    // more batch before exit.
    shutdown: AtomicBool,
    idle: IdleParking,
    /// What the runtime keeps for later queries: the queue sets of dropped
    /// queries, shared with every query so its drop can return them.
    spares: Arc<Mutex<Spares>>,
}

/// The live queries and the walk's cursor.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<QueryState>>,
    /// The (query, operation) after the one the last walk returned: the
    /// next walk starts there, so the walks rotate over every operation
    /// with work of every live query.
    next: (usize, usize),
}

impl RuntimeInner {
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.queries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn remove_query(&self, id: QueryId) {
        self.registry().live.retain(|q| q.id != id);
    }

    /// The next operation with work: one pass over every live query's
    /// operations from the cursor on, wrapping once, for the first whose
    /// state word has `pending > 0`. The cursor moves past it, so no query
    /// can starve another however much work its own operations hold.
    fn next_ready(&self) -> Option<(Arc<QueryState>, usize)> {
        let mut registry = self.registry();
        let Registry { live, next } = &mut *registry;
        let n = live.len();
        if n == 0 {
            return None;
        }
        let (start, first_op) = if next.0 < n { *next } else { (0, 0) };
        for step in 0..=n {
            let index = (start + step) % n;
            let query = &live[index];
            if !query.is_live() {
                continue;
            }
            // The start query from the cursor on first, and its operations
            // before the cursor last.
            let ops = match step {
                0 => first_op..query.ops.len(),
                _ if step == n => 0..first_op.min(query.ops.len()),
                _ => 0..query.ops.len(),
            };
            for op_index in ops {
                if query.ops[op_index].state.load().pending > 0 {
                    *next = (index, op_index + 1);
                    return Some((Arc::clone(query), op_index));
                }
            }
        }
        None
    }
}

/// A long-lived shared worker pool executing concurrently submitted
/// queries. See the [module docs](self) for the execution model.
///
/// [`Runtime::shutdown`] (or dropping the runtime) signals shutdown, joins
/// the workers and fails any query still in flight with
/// [`EngineError::RuntimeShutdown`].
///
/// # Memory a warm runtime keeps
///
/// So that a warm query allocates no queue buffer, a runtime keeps the
/// emptied queue sets of dropped queries: at most 2 458 112 bytes
/// (2.34 MiB). The runtime's `spares` module states the constants this
/// bound comes from.
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    /// Worker join handles, behind a mutex so `shutdown(&self)` can retire
    /// the pool through a shared reference (servers hold `Arc<Runtime>`).
    /// Emptied exactly once — by the first shutdown.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("pool_threads", &self.inner.pool_threads)
            .field("live_queries", &self.live_queries())
            .finish()
    }
}

impl Runtime {
    /// Spawns a runtime with `pool_threads` worker threads. The threads are
    /// created once, park while no query is live, and are joined when the
    /// runtime is dropped.
    pub fn new(pool_threads: usize) -> Result<Self> {
        Runtime::build(pool_threads, None)
    }

    /// Like [`Runtime::new`], plus a watchdog thread that aborts any query
    /// making no activation progress for `stall_after` with a typed
    /// [`EngineError::QueryStuck`].
    ///
    /// The watchdog is a liveness heuristic, not an oracle: on a pool
    /// saturated by *other* queries for longer than `stall_after`, a starved
    /// but healthy query is indistinguishable from a wedged one and will be
    /// aborted too. Pick `stall_after` well above the expected worst-case
    /// scheduling delay (servers typically use seconds).
    pub fn with_watchdog(pool_threads: usize, stall_after: Duration) -> Result<Self> {
        if stall_after.is_zero() {
            return Err(EngineError::InvalidOptions(
                "watchdog stall interval must be positive".to_string(),
            ));
        }
        Runtime::build(pool_threads, Some(stall_after))
    }

    fn build(pool_threads: usize, stall_after: Option<Duration>) -> Result<Self> {
        if pool_threads == 0 {
            return Err(EngineError::InvalidOptions(
                "runtime pool must have at least 1 thread".to_string(),
            ));
        }
        if pool_threads > MAX_INFLIGHT {
            return Err(EngineError::InvalidOptions(format!(
                "runtime pool must have at most {MAX_INFLIGHT} threads"
            )));
        }
        let inner = Arc::new(RuntimeInner {
            pool_threads,
            queries: Mutex::default(),
            next_query: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            idle: IdleParking::new(),
            spares: Arc::default(),
        });
        #[expect(
            clippy::expect_used,
            reason = "thread spawn fails only on resource exhaustion at startup; no query is \
                      in flight yet"
        )]
        let mut workers: Vec<JoinHandle<()>> = (0..pool_threads)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dbs3-runtime-{worker}"))
                    .spawn(move || worker_loop(&inner, worker))
                    .expect("spawning a runtime worker thread")
            })
            .collect();
        if let Some(stall_after) = stall_after {
            let inner = Arc::clone(&inner);
            #[expect(
                clippy::expect_used,
                reason = "the same startup-only spawn as the workers"
            )]
            workers.push(
                std::thread::Builder::new()
                    .name("dbs3-watchdog".to_string())
                    .spawn(move || watchdog_loop(&inner, stall_after))
                    .expect("spawning the runtime watchdog thread"),
            );
        }
        Ok(Runtime {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// Number of worker threads in the pool.
    pub fn pool_threads(&self) -> usize {
        self.inner.pool_threads
    }

    /// What the runtime keeps for later queries.
    #[cfg(test)]
    fn spare_counts(&self) -> SpareCounts {
        self.inner
            .spares
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counts()
    }

    /// Number of queries currently registered (submitted, not yet completed
    /// or cancelled).
    pub fn live_queries(&self) -> usize {
        self.inner.registry().live.len()
    }

    /// Submits `plan` for execution under an explicitly built `schedule`
    /// and returns immediately with a [`QueryHandle`]. The plan is expanded
    /// here, uncached, with default [`CostParameters`] — this is the door
    /// for callers that hand-build schedules (stress and fault tests);
    /// production callers go through [`crate::cache::prepare`] and
    /// [`Runtime::submit_prepared`].
    ///
    /// Binding happens on the calling thread: relation names resolve to
    /// `Arc` fragments, triggers are injected, and the query's queue set is
    /// registered with the pool. Workers start consuming as soon as the
    /// registry is updated — often before this method returns.
    pub fn submit(
        &self,
        catalog: &Catalog,
        plan: &Plan,
        schedule: &ExecutionSchedule,
    ) -> Result<QueryHandle> {
        let extended = ExtendedPlan::from_plan(plan, catalog, &CostParameters::default())?;
        self.submit_inner(catalog, plan, &extended, schedule)
    }

    /// Submits a plan prepared by [`crate::cache::prepare`]: no expansion,
    /// no scheduling — straight to binding. Returns a plan error if the
    /// catalog mutated since preparation (callers re-prepare; the cache
    /// already evicted the stale entry on that lookup).
    pub fn submit_prepared(
        &self,
        catalog: &Catalog,
        prepared: &PreparedPlan,
    ) -> Result<QueryHandle> {
        if !prepared.is_current(catalog) {
            return Err(EngineError::Plan(
                "prepared plan is stale: a referenced relation changed generation since \
                 preparation (re-prepare against the current catalog)"
                    .to_string(),
            ));
        }
        self.submit_inner(
            catalog,
            prepared.plan(),
            prepared.extended(),
            prepared.schedule(),
        )
    }

    /// What every submission does once it holds an expanded plan and a
    /// schedule: the shutdown check and the `runtime.submit` fault point,
    /// validation, operator binding, queue-set construction and
    /// registration with the pool.
    fn submit_inner(
        &self,
        catalog: &Catalog,
        plan: &Plan,
        extended: &ExtendedPlan,
        schedule: &ExecutionSchedule,
    ) -> Result<QueryHandle> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(EngineError::RuntimeShutdown);
        }
        honor_submit_fault()?;
        schedule.validate(plan)?;
        if !plan
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OperatorKind::Store { .. }))
        {
            return Err(EngineError::NoStoreOperator);
        }

        let order = plan.topological_order()?;
        let mut ops: Vec<OpRuntime> = Vec::with_capacity(plan.len());

        // Bind operators and create the query's private queue set,
        // producers before consumers.
        for id in &order {
            let node = plan.node(*id)?;
            #[expect(
                clippy::expect_used,
                reason = "ExtendedPlan::from_plan above covered every node of the same plan \
                          this order came from"
            )]
            let ext_op = extended
                .operation(*id)
                .expect("extended plan covers every node");
            let op_schedule = schedule.operation(*id)?;

            let operator = bind_operator(
                catalog,
                plan,
                node,
                ext_op.instance_count(),
                schedule.discard_results(),
            )?;

            // A spare set is re-armed in place, its buffers already grown;
            // only the instances it lacks get new queues.
            let instances = ext_op.instances();
            let mut queues = self
                .inner
                .spares
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take(instances.len());
            queues.truncate(instances.len());
            for (queue, info) in queues.iter_mut().zip(instances) {
                queue.rearm(
                    info.instance,
                    op_schedule.queue_capacity,
                    info.estimated_cost,
                );
            }
            let reused = queues.len();
            queues.extend(instances[reused..].iter().map(|info| {
                ActivationQueue::new(
                    info.instance,
                    op_schedule.queue_capacity,
                    info.estimated_cost,
                )
            }));
            let n = queues.len();
            let count = u32::try_from(n).map_err(|_| {
                EngineError::Plan(format!("{} has {n} instances, above u32", node.name))
            })?;
            let mut ring: Vec<u32> = Vec::with_capacity(2 * n);
            ring.extend(0..count);
            ring.sort_by(|a, b| {
                queues[*b as usize]
                    .estimated_cost()
                    .partial_cmp(&queues[*a as usize].estimated_cost())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            ring.resize(2 * n, 0);
            for position in 0..count {
                let queue = ring[position as usize] as usize;
                ring[n + queue] = position;
            }

            ops.push(OpRuntime {
                node: *id,
                name: node.name.clone(),
                operator,
                queues,
                cache_size: op_schedule.cache_size.max(1),
                consumer: None,
                ring,
                state: OpWord::new(OpState::default()),
            });
        }

        // Wire consumer links. `ops` follows `order`, so an operation's
        // index is its position there.
        for (producer_index, id) in order.iter().enumerate() {
            if let Some(consumer_id) = plan.consumer(*id) {
                #[expect(
                    clippy::expect_used,
                    reason = "topological_order lists every node of the plan, consumers included"
                )]
                let consumer_index = order
                    .iter()
                    .position(|&node| node == consumer_id)
                    .expect("the order covers every node");
                let consumer_node = plan.node(consumer_id)?;
                let router = match consumer_node.kind.routing_column() {
                    Some(col) => {
                        let producer_schema = plan.output_schema(*id, catalog)?;
                        let column = producer_schema.column_index(col).map_err(|_| {
                            EngineError::Plan(format!(
                                "routing column `{col}` not found in the output of {}",
                                id
                            ))
                        })?;
                        Router::HashColumn {
                            column,
                            degree: ops[consumer_index].queues.len(),
                        }
                    }
                    None => Router::SameInstance,
                };
                ops[producer_index].consumer = Some(ConsumerLink {
                    consumer_index,
                    router,
                });
            }
        }

        // Inject control activations into triggered operations and close
        // their queues (no more activations will ever arrive there). A
        // fragment larger than the schedule's morsel size is split into
        // morsels — contiguous row ranges claimed one per pop — so several
        // workers can scan it concurrently; only the lead morsel counts as
        // a logical activation, keeping per-op activation counts identical
        // to the single-trigger model. Workers cannot see the query yet, so
        // the state words are set outright, and only then are the queues
        // marked occupied: a fresh word starts with every bit clear.
        let morsel_rows = schedule.morsel_rows().max(1);
        for op in &mut ops {
            let node = plan.node(op.node)?;
            if node.producer().is_none() {
                let mut pending = 0u64;
                for q in &op.queues {
                    let rows = op.operator.triggered_rows(q.instance());
                    match rows {
                        Some(card) if card > morsel_rows => {
                            // Never split past the capacity, so a fresh
                            // queue is within its bound from the first pop.
                            let step = morsel_rows.max(card.div_ceil(q.capacity()));
                            let mut start = 0;
                            while start < card {
                                let end = (start + step).min(card);
                                q.push(Activation::Morsel {
                                    start,
                                    end,
                                    lead: start == 0,
                                });
                                pending += 1;
                                start = end;
                            }
                        }
                        _ => {
                            // Small, empty or unsized fragments keep the
                            // paper's one whole-fragment trigger.
                            q.push(Activation::Trigger);
                            pending += 1;
                        }
                    }
                    q.close();
                }
                op.state = OpWord::new(OpState::triggered(pending));
                for queue in 0..op.queues.len() {
                    if !op.queues[queue].is_empty() {
                        op.state.mark(op.bit_of(queue));
                    }
                }
            }
        }

        let id = QueryId(self.inner.next_query.fetch_add(1, Ordering::SeqCst));
        let metrics: MetricsSlots = (0..ops.len() * self.inner.pool_threads)
            .map(|_| Mutex::new(ThreadMetrics::default()))
            .collect();
        let ops_remaining = AtomicUsize::new(ops.len());
        let query = Arc::new(QueryState {
            id,
            ops,
            started: Instant::now(),
            cancelled: AtomicBool::new(false),
            ops_remaining,
            progress: AtomicU64::new(0),
            metrics,
            cell: Arc::new(CompletionCell {
                outcome: Mutex::new(None),
                done: Condvar::new(),
            }),
            finished: Mutex::new(None),
            spares: Arc::clone(&self.inner.spares),
        });

        self.inner.registry().live.push(Arc::clone(&query));
        // Re-check the shutdown flag now that the query is visible: a
        // concurrent `shutdown()` that drained the registry between the
        // check at the top of this method and the push above would leave
        // this query registered with no workers to run it — abort it
        // (idempotent against the race where shutdown DID see it) so the
        // caller gets the typed error either way instead of a hang.
        if self.inner.shutdown.load(Ordering::SeqCst) {
            abort_query(&self.inner, &query, EngineError::RuntimeShutdown);
            return Err(EngineError::RuntimeShutdown);
        }
        // Wake one parked worker per triggered leaf (the only operations
        // with work at submit time); the workers wake the rest.
        for op in &query.ops {
            if op.state.load().pending > 0 {
                self.inner.idle.wake_one();
            }
        }
        Ok(QueryHandle {
            id,
            query: Arc::downgrade(&query),
            cell: Arc::clone(&query.cell),
            inner: Arc::clone(&self.inner),
        })
    }

    /// Retires the pool: rejects further submissions, wakes and joins every
    /// worker, and fails any query still registered with
    /// [`EngineError::RuntimeShutdown`] so no waiter ever hangs.
    ///
    /// In-flight queries are *not* drained to completion — callers that want
    /// a graceful drain (e.g. a server handling SIGTERM) stop submitting,
    /// wait for [`Runtime::live_queries`] to reach zero, then call this.
    /// Idempotent: the first call joins the workers, later calls (and the
    /// implicit one in `Drop`) are no-ops.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.idle.wake_all();
        let workers: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            workers.drain(..).collect()
        };
        for handle in workers {
            let _ = handle.join();
        }
        // Fail whatever is still registered so no waiter ever hangs.
        let leftover: Vec<Arc<QueryState>> = self.inner.registry().live.clone();
        for query in leftover {
            abort_query(&self.inner, &query, EngineError::RuntimeShutdown);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Tears a query down exceptionally: marks it cancelled so workers drop its
/// remaining work, closes and drains every queue (releasing buffered
/// memory immediately), removes it from the registry and seals `error` into
/// the completion cell — unless an outcome was already sealed, which wins,
/// or the query has finished, whose outcome is sealed instead.
fn abort_query(inner: &RuntimeInner, query: &QueryState, error: EngineError) {
    query.cancelled.store(true, Ordering::SeqCst);
    for op in &query.ops {
        for q in &op.queues {
            q.close();
        }
    }
    // A pop stops after one control activation, so a triggered queue of
    // morsels takes one pop per morsel.
    let mut drained = Vec::new();
    for op in &query.ops {
        for q in &op.queues {
            while q.try_pop_into(usize::MAX, &mut drained) > 0 {
                drained.clear();
            }
        }
    }
    inner.remove_query(query.id);
    let finished = query
        .finished
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    query.cell.seal(finished.ok_or(error));
}

/// Honors an installed fault rule at `engine.runtime.submit`, shared by
/// every submission path.
fn honor_submit_fault() -> Result<()> {
    match faults::hit(FaultPoint::RuntimeSubmit) {
        Some(FaultAction::Error) | Some(FaultAction::Drop) => Err(EngineError::FaultInjected {
            point: FaultPoint::RuntimeSubmit,
        }),
        Some(FaultAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        #[expect(
            clippy::panic,
            reason = "FaultAction::Panic is the injected-crash contract of the fault registry"
        )]
        Some(FaultAction::Panic) => panic!("injected fault at {}", FaultPoint::RuntimeSubmit),
        None => Ok(()),
    }
}

/// Binds a plan node to a physical operator over catalog fragments.
/// `discard_results` selects counting stores (cardinalities without
/// materialisation) — and, for a filter or join whose consumer is that
/// store, counting its matches instead of building rows nobody will read
/// (the one place this is decided; see [`crate::activation`] for the
/// invariant). The consumer of a transmit is bound with the transmitted
/// relation, since it receives row positions in that relation's fragments
/// (the one other form a batch may take), and a pipelined join also with
/// the column and degree its router hashes by, whose route tables its
/// batches slice. A hash or temporary-index join
/// builds each inner fragment's index on the worker whose activation first
/// needs it.
fn bind_operator(
    catalog: &Catalog,
    plan: &Plan,
    node: &dbs3_lera::OperatorNode,
    instance_count: usize,
    discard_results: bool,
) -> Result<BoundOperator> {
    // A store is always co-located (`Router::SameInstance`: it has no
    // routing column), so "feeds a counting store" is all there is to check.
    let count_only = discard_results
        && match plan.consumer(node.id) {
            Some(consumer) => matches!(plan.node(consumer)?.kind, OperatorKind::Store { .. }),
            None => false,
        };
    let transmitted = match node.producer() {
        Some(producer) => match &plan.node(producer)?.kind {
            OperatorKind::Transmit { relation, .. } => Some(catalog.get(relation)?),
            _ => None,
        },
        None => None,
    };
    match &node.kind {
        OperatorKind::Filter {
            relation,
            predicate,
        } => {
            let rel = catalog.get(relation)?;
            let bound = predicate.bind(relation, rel.schema())?;
            Ok(BoundOperator::Filter(
                FilterOperator::new(rel, bound).counting_matches(count_only),
            ))
        }
        OperatorKind::Transmit { relation, .. } => {
            let rel = catalog.get(relation)?;
            if rel
                .fragments()
                .iter()
                .any(|f| u32::try_from(f.cardinality()).is_err())
            {
                return Err(EngineError::Plan(format!(
                    "{}: a fragment of `{relation}` has more rows than a u32 position holds",
                    node.name
                )));
            }
            Ok(BoundOperator::Transmit(TransmitOperator::new(rel)))
        }
        OperatorKind::Join {
            outer,
            inner_relation,
            condition,
            algorithm,
        } => {
            let inner = catalog.get(inner_relation)?;
            let inner_column = inner.schema().column_index(&condition.inner_column)?;
            match outer {
                OuterInput::Fragment { relation } => {
                    let outer_rel = catalog.get(relation)?;
                    let outer_column = outer_rel.schema().column_index(&condition.outer_column)?;
                    Ok(BoundOperator::TriggeredJoin(
                        TriggeredJoinOperator::new(
                            outer_rel,
                            inner,
                            outer_column,
                            inner_column,
                            *algorithm,
                        )
                        .counting_matches(count_only),
                    ))
                }
                OuterInput::Pipeline => {
                    #[expect(
                        clippy::expect_used,
                        reason = "Plan::validate rejected pipeline joins without a producer \
                                  edge before binding started"
                    )]
                    let producer = node.producer().expect("validated");
                    let incoming_schema = plan.output_schema(producer, catalog)?;
                    let outer_column = incoming_schema.column_index(&condition.outer_column)?;
                    // The router the consumer wiring gives this join.
                    let router = Router::HashColumn {
                        column: outer_column,
                        degree: instance_count,
                    };
                    let transmitted = transmitted.map(|relation| Transmitted { relation, router });
                    Ok(BoundOperator::PipelinedJoin(
                        PipelinedJoinOperator::new(inner, outer_column, inner_column, *algorithm)
                            .counting_matches(count_only)
                            .transmitted(transmitted),
                    ))
                }
            }
        }
        OperatorKind::Store { result_name } => Ok(BoundOperator::Store(if discard_results {
            StoreOperator::counting(result_name.clone(), instance_count)
        } else {
            let router = Router::SameInstance;
            let transmitted = transmitted.map(|relation| Transmitted { relation, router });
            StoreOperator::new(result_name.clone(), instance_count).transmitted(transmitted)
        })),
    }
}

/// Runs once per operation, by the worker whose transition finished it:
/// closes the consumer's queues and input, which may finish the consumer
/// in turn (e.g. nothing matched), so the cascade runs down the pipeline.
/// The query completes when its last operation finishes.
fn finish_op(inner: &Arc<RuntimeInner>, query: &Arc<QueryState>, op_index: usize) {
    let remaining = query.ops_remaining.fetch_sub(1, Ordering::SeqCst) - 1;
    if let Some(link) = &query.ops[op_index].consumer {
        let consumer = &query.ops[link.consumer_index];
        for q in &consumer.queues {
            q.close();
        }
        if consumer.state.apply(Event::InputClosed).1 == Effect::Finished {
            finish_op(inner, query, link.consumer_index);
        }
    }
    if remaining == 0 {
        finalize_query(inner, query);
    }
}

/// Seals a completed query: collects per-operation metrics and results,
/// removes the query from the registry and fills the completion cell.
///
/// # What the seal reads, and the edge that publishes it
///
/// The seal is this function, then the state's drop, then the completion
/// cell. Other workers wrote most of what it reads, and each datum reaches
/// the sealing thread along one happens-before edge:
///
/// * **Metrics slots**: each slot's mutex. A worker merges its batch into
///   its slot under the lock, and this function takes the same lock.
/// * **Counting-store tallies**, added to with `Relaxed`: the `OpWord`
///   chain, then `ops_remaining`. A worker adds to a tally inside its
///   claim on the store, and drops the claim with an `AcqRel`
///   read-modify-write of the store's word. Every later change to that
///   word is a read-modify-write too, so the transition that finishes the
///   store acquires every earlier claim's end. The worker that made it
///   then decrements `ops_remaining` (`SeqCst`), and the decrement that
///   reaches 0, this worker's, acquires every earlier one.
/// * **Materialised rows**: each result fragment's mutex, which
///   `StoreOperator::take_all` takes.
/// * **The outcome**, `QueryState::finished`: its mutex, taken here and by
///   `abort_query`. The state's drop reads it through `get_mut`: the last
///   `Arc` reference's release and acquire give the dropping thread every
///   other holder's writes, this function's among them.
/// * **Returned queue sets**: each queue's own mutex for what was pushed
///   and popped, and the same last-reference edge for the set as a whole.
///   The spares' mutex then hands the set to the next submit.
/// * **The sealed outcome** reaches the waiter under the cell's mutex.
///
/// Names, nodes, queue counts and the start time were written before
/// submit shared the state; the registry's mutex publishes them with it.
fn finalize_query(inner: &Arc<RuntimeInner>, query: &Arc<QueryState>) {
    let elapsed = query.started.elapsed();
    let operations: Vec<OperationMetrics> = query
        .ops
        .iter()
        .zip(query.metrics.chunks(inner.pool_threads))
        .map(|(op, slots)| {
            // A slot counts if it recorded any work at all: a thread that
            // only processed non-lead morsels has zero logical activations
            // but real busy time and output tuples.
            let mut threads: Vec<ThreadMetrics> = slots
                .iter()
                .map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
                .filter(|tm| tm.activations > 0 || tm.tuples_out > 0 || tm.busy > Duration::ZERO)
                .collect();
            if threads.is_empty() {
                // No worker ever touched the operation (an empty pipeline);
                // keep the metrics shape non-degenerate.
                threads.push(ThreadMetrics::default());
            }
            OperationMetrics {
                node: op.node,
                name: op.name.clone(),
                queues: op.queues.len(),
                threads,
            }
        })
        .collect();
    let metrics = ExecutionMetrics {
        elapsed,
        total_threads: inner.pool_threads,
        operations,
    };

    let mut results = BTreeMap::new();
    let mut cardinalities = BTreeMap::new();
    for op in &query.ops {
        if let BoundOperator::Store(store) = &op.operator {
            let name = store.result_name();
            cardinalities.insert(name.to_string(), store.stored_count());
            results.insert(name.to_string(), store.take_all());
        }
    }

    inner.remove_query(query.id);
    // Sealed as the state drops, right after its queue sets go back to the
    // runtime (a cancel or deadline meanwhile seals it at once).
    *query
        .finished
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(ExecutionOutcome {
        results,
        cardinalities,
        metrics,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{OperationSchedule, Scheduler, SchedulerOptions};
    use dbs3_lera::{plans, JoinAlgorithm};
    use dbs3_storage::{
        PartitionSpec, PartitionedRelation, Relation, WisconsinConfig, WisconsinGenerator,
    };

    pub(super) fn build_catalog(
        a_card: usize,
        b_card: usize,
        degree: usize,
    ) -> (Catalog, Relation, Relation) {
        let gen = WisconsinGenerator::new();
        let a = gen.generate(&WisconsinConfig::narrow("A", a_card)).unwrap();
        let b = gen
            .generate(&WisconsinConfig::narrow("Bprime", b_card))
            .unwrap();
        let spec = PartitionSpec::on("unique1", degree, 4);
        let a_part = PartitionedRelation::from_relation(&a, spec.clone()).unwrap();
        let a_ref = a_part.reassemble();
        let b_part = PartitionedRelation::from_relation(&b, spec).unwrap();
        let b_ref = b_part.reassemble();
        let mut cat = Catalog::new();
        cat.register(a_part).unwrap();
        cat.register(b_part).unwrap();
        (cat, a_ref, b_ref)
    }

    pub(super) fn schedule_for(plan: &Plan, cat: &Catalog, threads: usize) -> ExecutionSchedule {
        let ext = ExtendedPlan::from_plan(plan, cat, &CostParameters::default()).unwrap();
        Scheduler::build(
            plan,
            &ext,
            &SchedulerOptions::default().with_total_threads(threads),
        )
        .unwrap()
    }

    #[test]
    fn single_query_matches_reference_join() {
        let (cat, a_ref, b_ref) = build_catalog(800, 80, 10);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let schedule = schedule_for(&plan, &cat, 4);
        let runtime = Runtime::new(4).unwrap();
        let outcome = runtime
            .submit(&cat, &plan, &schedule)
            .unwrap()
            .wait()
            .unwrap();
        let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
        assert_eq!(outcome.results["Result"].len(), expected.len());
        assert_eq!(outcome.cardinalities["Result"], expected.len());
        assert!(outcome.metrics.total_activations() > 0);
        assert_eq!(runtime.live_queries(), 0);
    }

    #[test]
    fn sixteen_concurrent_queries_share_one_pool() {
        let (cat, a_ref, b_ref) = build_catalog(1_000, 100, 8);
        let expected = a_ref
            .reference_join(&b_ref, "unique1", "unique1")
            .unwrap()
            .len();
        let plans: Vec<Plan> = vec![
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop),
        ];
        let runtime = Runtime::new(4).unwrap();
        let handles: Vec<QueryHandle> = (0..16)
            .map(|i| {
                let plan = &plans[i % plans.len()];
                let schedule = schedule_for(plan, &cat, 4);
                runtime.submit(&cat, plan, &schedule).unwrap()
            })
            .collect();
        // All sixteen are registered (or already completing) concurrently.
        for handle in handles {
            let outcome = handle.wait().unwrap();
            assert_eq!(outcome.cardinalities["Result"], expected);
        }
        assert_eq!(runtime.live_queries(), 0);
    }

    #[test]
    fn a_short_query_is_not_queued_behind_a_long_one() {
        // One worker, a nested-loop join of a dozen long morsels, then a
        // ten-row hash join: the walk's cursor moves past every pick, so
        // the short query's operations get their turns between the long
        // query's morsels instead of after all of them.
        let (long_cat, _, _) = build_catalog(40_000, 4_000, 4);
        let long = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let long_schedule = schedule_for(&long, &long_cat, 1);
        let (short_cat, _, _) = build_catalog(100, 10, 1);
        let short = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let short_schedule = schedule_for(&short, &short_cat, 1);
        let runtime = Runtime::new(1).unwrap();
        let long_handle = runtime.submit(&long_cat, &long, &long_schedule).unwrap();
        let outcome = runtime
            .submit(&short_cat, &short, &short_schedule)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.results["Result"].len(), 10);
        assert_eq!(
            runtime.live_queries(),
            1,
            "the short query finished only after the long one"
        );
        long_handle.cancel();
    }

    #[test]
    fn tiny_queue_capacity_does_not_deadlock_the_shared_pool() {
        let (cat, _, b_ref) = build_catalog(4_000, 400, 16);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let mut per_node = BTreeMap::new();
        for node in plan.nodes() {
            per_node.insert(
                node.id,
                OperationSchedule {
                    queue_capacity: 2,
                    cache_size: 1,
                },
            );
        }
        let schedule = ExecutionSchedule::from_parts(per_node, 2);
        let runtime = Runtime::new(2).unwrap();
        let outcome = runtime
            .submit(&cat, &plan, &schedule)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.results["Result"].len(), b_ref.cardinality());
    }

    #[test]
    fn cancel_returns_typed_error_and_pool_stays_reusable() {
        let (cat, a_ref, b_ref) = build_catalog(20_000, 2_000, 10);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::new(2).unwrap();
        let handle = runtime.submit(&cat, &plan, &schedule).unwrap();
        let id = handle.id();
        handle.cancel();
        match handle.wait() {
            Err(EngineError::QueryCancelled { query }) => assert_eq!(query, id.0),
            other => panic!("expected QueryCancelled, got {other:?}"),
        }
        // The pool is immediately reusable for a fresh query.
        let quick = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let schedule = schedule_for(&quick, &cat, 2);
        let outcome = runtime
            .submit(&cat, &quick, &schedule)
            .unwrap()
            .wait()
            .unwrap();
        let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
        assert_eq!(outcome.results["Result"].len(), expected.len());
    }

    #[test]
    fn dropping_the_runtime_fails_inflight_queries_without_hanging() {
        let (cat, _, _) = build_catalog(20_000, 2_000, 10);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::new(2).unwrap();
        let handles: Vec<QueryHandle> = (0..4)
            .map(|_| runtime.submit(&cat, &plan, &schedule).unwrap())
            .collect();
        drop(runtime);
        for handle in handles {
            match handle.wait() {
                Ok(outcome) => assert!(outcome.cardinalities.contains_key("Result")),
                Err(EngineError::RuntimeShutdown) => {}
                Err(other) => panic!("unexpected error after shutdown: {other:?}"),
            }
        }
    }

    #[test]
    fn discarding_results_keeps_cardinalities_exact() {
        let (cat, a_ref, b_ref) = build_catalog(1_000, 100, 8);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let schedule = schedule_for(&plan, &cat, 3).with_discard_results(true);
        let runtime = Runtime::new(3).unwrap();
        let outcome = runtime
            .submit(&cat, &plan, &schedule)
            .unwrap()
            .wait()
            .unwrap();
        let expected = b_ref.reference_join(&a_ref, "unique1", "unique1").unwrap();
        assert_eq!(outcome.cardinalities["Result"], expected.len());
        assert!(outcome.results["Result"].is_empty());
    }

    #[test]
    fn empty_pipeline_terminates_on_the_runtime() {
        let gen = WisconsinGenerator::new();
        let a = gen.generate(&WisconsinConfig::narrow("A", 1_000)).unwrap();
        let b = Relation::new("Bprime", a.schema().clone(), Vec::new()).unwrap();
        let spec = PartitionSpec::on("unique1", 8, 2);
        let mut cat = Catalog::new();
        cat.register(PartitionedRelation::from_relation(&a, spec.clone()).unwrap())
            .unwrap();
        cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
            .unwrap();
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let schedule = schedule_for(&plan, &cat, 4);
        let runtime = Runtime::new(4).unwrap();
        let outcome = runtime
            .submit(&cat, &plan, &schedule)
            .unwrap()
            .wait()
            .unwrap();
        assert!(outcome.results["Result"].is_empty());
        // Every operation still reports a (possibly empty) metrics entry.
        assert_eq!(outcome.metrics.operations.len(), 3);
    }

    // Panic containment (worker survives, typed `WorkerPanicked`) is pinned
    // in `tests/faults.rs` on the fault registry: installing a process-wide
    // fault plan inside this parallel unit-test binary would poison
    // unrelated tests, so every fault-injecting test lives in dedicated
    // integration-test binaries.

    #[test]
    fn zero_thread_pool_is_rejected() {
        // Nor a pool wider than an operation's 16-bit in-flight count.
        for threads in [0, MAX_INFLIGHT + 1] {
            assert!(
                matches!(Runtime::new(threads), Err(EngineError::InvalidOptions(_))),
                "{threads} threads"
            );
            assert!(
                matches!(
                    Runtime::with_watchdog(threads, Duration::from_secs(1)),
                    Err(EngineError::InvalidOptions(_))
                ),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn submitting_a_storeless_plan_is_an_error() {
        let (cat, _, _) = build_catalog(200, 20, 4);
        let join =
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash).nodes()[0].clone();
        let plan = Plan::from_nodes("join-only", vec![join]).unwrap();
        let schedule = schedule_for(&plan, &cat, 1);
        let runtime = Runtime::new(1).unwrap();
        assert!(matches!(
            runtime.submit(&cat, &plan, &schedule),
            Err(EngineError::NoStoreOperator)
        ));

        let options = SchedulerOptions::default().with_total_threads(1);
        let prepared = crate::prepare(&cat, &plan, &options, &CostParameters::default()).unwrap();
        assert!(matches!(
            runtime.submit_prepared(&cat, &prepared),
            Err(EngineError::NoStoreOperator)
        ));
    }

    #[test]
    fn runtime_debug_shows_pool_shape() {
        let runtime = Runtime::new(2).unwrap();
        let rendered = format!("{runtime:?}");
        assert!(rendered.contains("pool_threads"));
        assert!(rendered.contains('2'));
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_later_submissions() {
        let (cat, _, _) = build_catalog(400, 40, 4);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::new(2).unwrap();
        // A completed query before shutdown works normally.
        runtime
            .submit(&cat, &plan, &schedule)
            .unwrap()
            .wait()
            .unwrap();
        runtime.shutdown();
        // Second (and third) shutdown is a no-op, not a panic or a hang.
        runtime.shutdown();
        runtime.shutdown();
        match runtime.submit(&cat, &plan, &schedule) {
            Err(EngineError::RuntimeShutdown) => {}
            other => panic!("expected RuntimeShutdown, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_fails_inflight_queries_typed() {
        // A deliberately slow query: nested-loop join so the workers are
        // still busy when shutdown lands.
        let (cat, _, _) = build_catalog(20_000, 2_000, 4);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::new(2).unwrap();
        let handle = runtime.submit(&cat, &plan, &schedule).unwrap();
        runtime.shutdown();
        match handle.wait() {
            // Workers may have finished the query before the flag landed.
            Ok(_) | Err(EngineError::RuntimeShutdown) => {}
            other => panic!("expected Ok or RuntimeShutdown, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_tears_a_running_query_down_like_an_abort() {
        // A nested-loop join far longer than the gap between submit and
        // shutdown, so it is still registered when the workers are joined.
        let (cat, _, _) = build_catalog(40_000, 4_000, 4);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::new(2).unwrap();
        let handle = runtime.submit(&cat, &plan, &schedule).unwrap();
        // A strong reference keeps the state to look at after the workers
        // are joined; a query that finishes is sealed only once it drops.
        let query = handle.query.upgrade().unwrap();
        runtime.shutdown();
        for op in &query.ops {
            for q in &op.queues {
                assert!(
                    q.is_closed() && q.is_empty(),
                    "{}: a queue left open or full",
                    op.name
                );
            }
        }
        let cancelled = query.cancelled.load(Ordering::SeqCst);
        drop(query);
        match handle.wait() {
            Err(EngineError::RuntimeShutdown) => assert!(cancelled),
            // Only if the submitting thread stalled for the whole join; a
            // query that finished has closed and emptied its queues too.
            Ok(_) => {}
            Err(other) => panic!("expected RuntimeShutdown, got {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_or_cancel_frees_the_admission_slot() {
        let (cat, _, _) = build_catalog(20_000, 2_000, 4);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::new(2).unwrap();
        let handle = runtime.submit(&cat, &plan, &schedule).unwrap();
        match handle.wait_timeout_or_cancel(Duration::ZERO) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // The query is gone, not merely abandoned: the registry slot is
        // released the moment the outcome is sealed, even though a worker
        // may still be mid-batch on the cancelled work.
        assert_eq!(runtime.live_queries(), 0);
    }

    #[test]
    fn wait_timeout_or_cancel_returns_the_outcome_when_in_time() {
        let (cat, _, _) = build_catalog(400, 40, 4);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::new(2).unwrap();
        let handle = runtime.submit(&cat, &plan, &schedule).unwrap();
        let outcome = handle
            .wait_timeout_or_cancel(Duration::from_secs(60))
            .unwrap();
        assert!(!outcome.cardinalities.is_empty());
    }

    #[test]
    fn watchdog_leaves_healthy_queries_alone() {
        let (cat, a_ref, b_ref) = build_catalog(800, 80, 8);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let schedule = schedule_for(&plan, &cat, 2);
        let runtime = Runtime::with_watchdog(2, Duration::from_secs(30)).unwrap();
        let outcome = runtime
            .submit(&cat, &plan, &schedule)
            .unwrap()
            .wait()
            .unwrap();
        let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
        assert_eq!(outcome.results["Result"].len(), expected.len());
        // Shutdown joins the watchdog thread along with the workers.
        runtime.shutdown();
    }

    #[test]
    fn zero_watchdog_interval_is_rejected() {
        assert!(matches!(
            Runtime::with_watchdog(2, Duration::ZERO),
            Err(EngineError::InvalidOptions(_))
        ));
    }
}
