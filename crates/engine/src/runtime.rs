//! The persistent multi-query runtime: one shared worker pool, many
//! concurrent queries.
//!
//! The paper's DBS3 engine keeps a fixed pool of threads alive and makes
//! *activations* — not threads — the unit of scheduled work. This module is
//! that model taken to its conclusion at the API boundary: a [`Runtime`]
//! spawns its worker threads **once**, parks them on a condvar while no
//! query is live, and accepts any number of concurrently submitted queries.
//! Each [`Runtime::submit`] call builds a private *queue set* for the query
//! — one [`ActivationQueue`] per operation instance, exactly the structure
//! of Figure 4 — tags it with a [`QueryId`], and registers it with the pool.
//! Workers then pick activations **across all live queries**, still under
//! the paper's main/secondary queue split, so the intra-query scheduling of
//! Section 3 extends to inter-query scheduling without new mechanism.
//!
//! # Work finding: the global ready-op deque
//!
//! Workers do not scan the registry for work. A single FIFO deque of
//! *ready operations* (one `(query, op)` entry per operation that has
//! buffered activations) is the only structure a worker consults: pop the
//! front entry, put it straight back at the tail, process one batch. The
//! re-push-before-processing move does three jobs at once:
//!
//! * **O(1) work finding** — idle-probe cost is independent of how many
//!   queries or operations are live. The idle path allocates nothing, and
//!   the busy path allocates only the transport batches it ships: pops land
//!   in a buffer the worker owns, and a scatter buffer is allocated once,
//!   exactly one batch wide, and leaves as that batch;
//! * **cross-query fairness** — entries rotate through the deque, so no
//!   query can starve another however long its own queues are (the
//!   pathology the old sticky-cursor registry scan produced at 4
//!   concurrent queries);
//! * **intra-operator parallelism** — the entry is back in the deque while
//!   the batch is processed, so sibling workers converge on the same
//!   operation when it is the only one with work (this is what makes
//!   fragment morsels actually run in parallel).
//!
//! The invariant is *at most one deque entry per operation*, maintained by
//! the per-op `announced` flag: producers announce an operation on every
//! successful push (the CAS makes duplicates impossible), and a worker that
//! pops an entry whose operation has no buffered work left clears the flag,
//! then re-checks and re-announces if a push raced the clear — the classic
//! lost-wakeup two-step. Within an operation, *which queue* to pop follows
//! one fixed consumption order (see below).
//!
//! # Queue scan: one cost-ordered ring
//!
//! At submit, each operation sorts its queues once by decreasing estimated
//! cost into `order`. Slice `w` of `P` equal contiguous slices of `order`
//! holds worker `w`'s *main* queues (each queue is the main queue of only
//! one worker, as in the paper). A worker walks `order` as a ring from the
//! first entry of its slice: its main queues first, costliest first, then
//! the others as *secondary* queues, so idle workers start from different
//! points instead of converging on one queue. There is no per-operation
//! `Random`/`LPT` choice (scheduling step 4): a per-poll shuffle cost CPU
//! and bought nothing measurable with morsels, while the cost order keeps
//! what LPT's visit order is worth on wider pools. The simulator keeps
//! both strategies.
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
//! # Differences from the per-query scoped-thread executor
//!
//! * **Thread ownership is inverted.** Threads belong to the runtime, not
//!   to an operation of one query, and the pool width bounds actual
//!   parallelism. Per-operation thread counts (scheduling steps 2–3) exist
//!   only in the simulator.
//! * **Termination is by accounting, not by thread exit.** The old executor
//!   closed a consumer's queues when the last producer *thread* exited.
//!   Here an operation is *finished* when all its queues are exhausted
//!   (closed + drained) and no worker holds one of its activations
//!   (`inflight == 0`); finishing closes the consumer's queues, and the
//!   check cascades down the pipeline. When every operation of a query has
//!   finished, its results and metrics are sealed into a completion cell
//!   and the query's [`QueryHandle::wait`] returns.
//! * **Backpressure is cooperative.** A dedicated-pool engine can block on
//!   a full consumer queue because the consumer owns other threads. A
//!   shared pool cannot — if every worker blocked producing, nobody would
//!   be left to consume and the pool would deadlock. Workers therefore
//!   never block on a push: when a destination queue is full they *help
//!   drain it* (pop a batch from that very queue and process it, exactly as
//!   the consumer would), then retry. Helping recurses at most to the
//!   pipeline depth and each step makes real progress, so tiny queue
//!   capacities stay deadlock-free.
//! * **Idle costs nothing.** Workers that find no poppable activation
//!   anywhere park on a condvar (epoch-checked so a wakeup between the scan
//!   and the park is never lost). An idle runtime burns no CPU. Wake-ups
//!   *cascade*: an announcement wakes one sleeper, and a worker that pops a
//!   batch and leaves more buffered behind it wakes the next. Besides
//!   sparing a herd of wake-ups per flush, this decides where the kernel
//!   puts the workers: woken together by a submitting thread that is about
//!   to block in `wait`, two workers are placed while the submitter's CPU
//!   still looks busy and can end up sharing the other one for the whole of
//!   a millisecond-scale query (measured: a 2-worker pool on 2 vCPUs ran
//!   streaks of hundreds of queries at half speed); woken by a *working*
//!   sibling a moment later, the next worker finds the submitter's CPU idle.
//!
//! Cancellation ([`QueryHandle::cancel`]) closes and drains the query's
//! queues and completes the cell with
//! [`EngineError::QueryCancelled`]; in-flight workers notice the closed
//! queues (their flushes are dropped) and move on, leaving the pool
//! reusable. Dropping the [`Runtime`] signals shutdown, joins the workers,
//! and fails any still-pending query with [`EngineError::RuntimeShutdown`]
//! so no waiter ever hangs.

use crate::activation::{Activation, TupleBatch};
use crate::cache::PreparedPlan;
use crate::error::EngineError;
use crate::faults::{self, FaultAction, FaultPoint};
use crate::metrics::{ExecutionMetrics, OperationMetrics, ThreadMetrics};
use crate::operators::{
    BoundOperator, FilterOperator, PipelinedJoinOperator, StoreOperator, TransmitOperator,
    TriggeredJoinOperator,
};
use crate::queue::{ActivationQueue, TryPushError};
use crate::schedule::ExecutionSchedule;
use crate::sync::CachePadded;
use crate::Result;
use dbs3_lera::{CostParameters, ExtendedPlan, NodeId, OperatorKind, OuterInput, Plan};
use dbs3_storage::{Catalog, Tuple};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifier of a query submitted to a [`Runtime`], unique within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// How data activations produced by one operation find the consumer
/// instance's queue (identical to the static executor's routing).
#[derive(Debug, Clone)]
enum Router {
    /// Hash the given column over the consumer's degree — the dynamic
    /// redistribution of `Transmit`/pipelined joins, matching the static
    /// partitioning function exactly.
    HashColumn { column: usize, degree: usize },
    /// Keep the producing instance (result fragments are co-located with
    /// the producing join instances).
    SameInstance,
}

/// A link from a producer operation to its consumer within one query.
#[derive(Debug, Clone)]
struct ConsumerLink {
    consumer_index: usize,
    router: Router,
}

/// Runtime state of one operation of a submitted query.
struct OpRuntime {
    node: NodeId,
    name: String,
    operator: Arc<BoundOperator>,
    /// One queue per instance, held inline: nothing outside the query
    /// state ever holds a queue, so one allocation covers the whole set.
    queues: Vec<ActivationQueue>,
    /// Batch budget of one pop and flush threshold of the producer-side
    /// scatter buffers (the paper's `CacheSize`).
    cache_size: usize,
    consumer: Option<ConsumerLink>,
    /// Queue indexes in decreasing estimated-cost order: the ring every
    /// worker walks. Computed once at submit: the estimates are static.
    order: Vec<usize>,
    /// Workers currently holding popped activations of this operation (or
    /// probing its queues). The operation cannot finish while non-zero.
    /// Cache-padded: bumped by every worker touching the operation, and a
    /// line shared with `pending` (or a neighbouring op's counters) would
    /// ping-pong between cores on every poll.
    // ordering(inflight): SeqCst — the termination check reads inflight
    // against queue exhaustion; a weaker pair could observe "no inflight"
    // before a racing worker's increment and finish an op that still has a
    // popped batch in hand.
    inflight: CachePadded<AtomicUsize>,
    /// Set exactly once, when the operation's queues are exhausted and no
    /// activation is in flight.
    // ordering(finished): SeqCst — the once-only CAS and its readers form
    // the op-termination protocol with `inflight` and the queue mirrors;
    // one total order keeps "finished" from outrunning the exhaustion it
    // summarizes.
    finished: AtomicBool,
    /// Whether the operation currently holds its (single) entry in the
    /// runtime's ready deque. Producers CAS this `false → true` on every
    /// successful push, so an operation is announced at most once however
    /// many flushes race; a worker that finds the operation drained clears
    /// it and re-checks `pending` (see [`retire_ready_entry`]).
    // ordering(announced): SeqCst — the announce CAS must be ordered
    // against the `pending` bump it gates: retire clears announced, then
    // re-reads pending; a producer bumps pending, then CASes announced.
    // SeqCst on both sides closes the lost-announcement window.
    announced: AtomicBool,
    /// Advisory count of *queue weight* (control activations count one,
    /// data activations count their tuples) buffered across the operation's
    /// queues, maintained by the runtime's own pushes and pops. Gates the
    /// ready-deque announcements and lets workers skip drained operations
    /// with one atomic load instead of probing every queue. Termination
    /// never reads this (it re-checks the queues themselves), so staleness
    /// costs a wasted probe at most.
    /// Cache-padded so producer-side `fetch_add`s don't invalidate the line
    /// the consumers' read-mostly fields live on (false sharing): workers
    /// read `pending` on every poll of the op, while flushes write it.
    // ordering(pending): SeqCst — one half of the announce/retire protocol
    // (see `announced`); advisory for work-skipping but load-bearing for
    // the at-most-one-deque-entry invariant.
    pending: CachePadded<AtomicU64>,
}

/// Per-operation, per-worker thread metrics slots of one query.
type MetricsSlots = Vec<Vec<Mutex<ThreadMetrics>>>;

/// The completion cell a [`QueryHandle`] waits on.
struct CompletionCell {
    outcome: Mutex<Option<Result<ExecutionOutcome>>>,
    done: Condvar,
}

/// Everything the pool needs to execute one submitted query.
struct QueryState {
    id: QueryId,
    /// Operations in topological (producer-before-consumer) order.
    ops: Vec<OpRuntime>,
    /// Store operators keyed by result name, for result collection.
    stores: Vec<(String, Arc<BoundOperator>)>,
    started: Instant,
    // ordering(cancelled): SeqCst store on cancel so the flag is visible
    // before the queues close; the hot-path probes in `is_live` and the
    // worker loop load Relaxed — acting on a stale `false` only means one
    // more harmless batch, and the completion cell is mutex-sealed anyway.
    cancelled: AtomicBool,
    /// Operations not yet finished; the query completes when this hits 0.
    // ordering(ops_remaining): SeqCst on the finish-side decrement (it
    // decides query completion, ordered against op `finished` flags);
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
    cell: CompletionCell,
}

impl QueryState {
    /// Seals the outcome exactly once (first writer wins — a cancel racing
    /// a natural completion keeps the cancel) and wakes every waiter.
    fn complete(&self, result: Result<ExecutionOutcome>) {
        let mut slot = self.cell.outcome.lock();
        if slot.is_none() {
            *slot = Some(result);
            self.cell.done.notify_all();
        }
    }

    /// Whether any work could remain for this query.
    fn is_live(&self) -> bool {
        !self.cancelled.load(Ordering::Relaxed) && self.ops_remaining.load(Ordering::Relaxed) > 0
    }
}

/// Epoch-checked condvar parking: workers that find no work anywhere sleep
/// here; every producer-side event (submit, queue flush, shutdown) bumps the
/// epoch and wakes a sleeper (all of them on shutdown). The parker re-checks
/// the epoch *after* announcing itself, so a wakeup between its last scan
/// and the wait can never be lost.
struct IdleParking {
    // ordering(epoch): SeqCst — the snapshot/announce/re-check dance only
    // excludes lost wakeups if the epoch bump, the sleeper count and the
    // parker's re-read sit in one total order (this is the textbook
    // flag-and-check where weaker orders allow both sides to miss).
    epoch: AtomicU64,
    // ordering(sleepers): SeqCst — read by `wake_one` to decide whether to
    // take the mutex at all; must not be reorderable against the epoch
    // bump or a parker could announce itself and still sleep unwoken.
    sleepers: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl IdleParking {
    fn new() -> Self {
        IdleParking {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The epoch to snapshot before a work scan.
    fn current(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Signals that one more worker could find work (see "Idle costs
    /// nothing" in the module docs for why one and not all). Cheap when
    /// nobody sleeps: one atomic increment and one atomic load.
    fn wake_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.mutex.lock();
            self.cv.notify_one();
        }
    }

    /// Wakes every sleeper (shutdown).
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _guard = self.mutex.lock();
        self.cv.notify_all();
    }

    /// Parks the calling worker unless the epoch moved past `seen` (i.e.
    /// work may have arrived since the scan started). The timeout is a
    /// belt-and-braces liveness net, not a polling loop: a parked worker
    /// re-scans a few times per second at most.
    fn park(&self, seen: u64) {
        let mut guard = self.mutex.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) == seen {
            self.cv.wait_for(&mut guard, Duration::from_millis(200));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Pool state shared by the [`Runtime`] handle, its workers and every
/// [`QueryHandle`].
struct RuntimeInner {
    pool_threads: usize,
    /// Bookkeeping registry of live queries (for `live_queries`, shutdown
    /// and abort). Workers never scan it for work — they pop the ready
    /// deque instead.
    queries: Mutex<Vec<Arc<QueryState>>>,
    /// The global ready-op deque: at most one `(query, op)` entry per
    /// operation that has buffered activations (see the module docs).
    /// Workers pop the front; producers announce at the back.
    ready: Mutex<VecDeque<(Arc<QueryState>, usize)>>,
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
}

impl RuntimeInner {
    fn remove_query(&self, id: QueryId) {
        self.queries.lock().retain(|q| q.id != id);
    }

    fn pop_ready(&self) -> Option<(Arc<QueryState>, usize)> {
        self.ready.lock().pop_front()
    }

    fn push_ready(&self, query: Arc<QueryState>, op_index: usize) {
        self.ready.lock().push_back((query, op_index));
    }
}

/// Puts `op_index` of `query` into the ready deque unless it is already
/// there (the `announced` CAS enforces the one-entry-per-op invariant) and
/// wakes one parked worker; [`try_process_op`] carries the wake-up on to the
/// next sleeper while work remains. Called by every producer-side push.
fn announce_op(inner: &RuntimeInner, query: &Arc<QueryState>, op_index: usize) {
    let op = &query.ops[op_index];
    if op.finished.load(Ordering::SeqCst) {
        return;
    }
    if op
        .announced
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        inner.push_ready(Arc::clone(query), op_index);
        inner.idle.wake_one();
    }
}

/// Drops an op's claim on its ready-deque entry after a worker popped the
/// entry and found the operation drained (or its query dead). Clearing the
/// flag opens the classic lost-wakeup window — a producer may have pushed
/// between the drain check and the clear, with its CAS failing against the
/// still-set flag — so the op is re-checked and re-announced afterwards.
fn retire_ready_entry(inner: &RuntimeInner, query: &Arc<QueryState>, op_index: usize) {
    let op = &query.ops[op_index];
    op.announced.store(false, Ordering::SeqCst);
    if query.is_live()
        && !op.finished.load(Ordering::SeqCst)
        && op.pending.load(Ordering::SeqCst) > 0
    {
        announce_op(inner, query, op_index);
    }
}

/// A long-lived shared worker pool executing concurrently submitted
/// queries. See the [module docs](self) for the execution model.
///
/// [`Runtime::shutdown`] (or dropping the runtime) signals shutdown, joins
/// the workers and fails any query still in flight with
/// [`EngineError::RuntimeShutdown`].
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
        let inner = Arc::new(RuntimeInner {
            pool_threads,
            queries: Mutex::new(Vec::new()),
            ready: Mutex::new(VecDeque::new()),
            next_query: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            idle: IdleParking::new(),
        });
        let mut workers: Vec<JoinHandle<()>> = (0..pool_threads)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dbs3-runtime-{worker}"))
                    .spawn(move || worker_loop(&inner, worker))
                    // allow-panic: thread spawn fails only on resource
                    // exhaustion at startup; no query is in flight yet.
                    .expect("spawning a runtime worker thread")
            })
            .collect();
        if let Some(stall_after) = stall_after {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("dbs3-watchdog".to_string())
                    .spawn(move || watchdog_loop(&inner, stall_after))
                    // allow-panic: same startup-only spawn as the workers.
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

    /// Number of queries currently registered (submitted, not yet completed
    /// or cancelled).
    pub fn live_queries(&self) -> usize {
        self.inner.queries.lock().len()
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
        let mut index_of: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut stores: Vec<(String, Arc<BoundOperator>)> = Vec::new();

        // Bind operators and create the query's private queue set,
        // producers before consumers.
        for id in &order {
            let node = plan.node(*id)?;
            let ext_op = extended
                .operation(*id)
                // allow-panic: ExtendedPlan::from_plan above covered every
                // node of the same plan this order came from.
                .expect("extended plan covers every node");
            let op_schedule = schedule.operation(*id)?;

            let operator = Arc::new(bind_operator(
                catalog,
                plan,
                node,
                ext_op.instance_count(),
                schedule.discard_results(),
            )?);
            if let OperatorKind::Store { result_name } = &node.kind {
                stores.push((result_name.clone(), Arc::clone(&operator)));
            }

            let queues: Vec<ActivationQueue> = ext_op
                .instances()
                .iter()
                .map(|info| {
                    ActivationQueue::new(
                        info.instance,
                        op_schedule.queue_capacity,
                        info.estimated_cost,
                    )
                })
                .collect();
            let mut order: Vec<usize> = (0..queues.len()).collect();
            order.sort_by(|a, b| {
                queues[*b]
                    .estimated_cost()
                    .partial_cmp(&queues[*a].estimated_cost())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });

            index_of.insert(*id, ops.len());
            ops.push(OpRuntime {
                node: *id,
                name: node.name.clone(),
                operator,
                queues,
                cache_size: op_schedule.cache_size.max(1),
                consumer: None,
                order,
                inflight: CachePadded::new(AtomicUsize::new(0)),
                finished: AtomicBool::new(false),
                announced: AtomicBool::new(false),
                pending: CachePadded::new(AtomicU64::new(0)),
            });
        }

        // Wire consumer links.
        for id in &order {
            let producer_index = index_of[id];
            if let Some(consumer_id) = plan.consumers(*id).first() {
                let consumer_index = index_of[consumer_id];
                let consumer_node = plan.node(*consumer_id)?;
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
        // the pending counts need no ordering care.
        let morsel_rows = schedule.morsel_rows().max(1);
        for op in &ops {
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
                op.pending.store(pending, Ordering::SeqCst);
            }
        }

        let id = QueryId(self.inner.next_query.fetch_add(1, Ordering::SeqCst));
        let metrics: MetricsSlots = ops
            .iter()
            .map(|_| {
                (0..self.inner.pool_threads)
                    .map(|_| Mutex::new(ThreadMetrics::default()))
                    .collect()
            })
            .collect();
        let ops_remaining = AtomicUsize::new(ops.len());
        let query = Arc::new(QueryState {
            id,
            ops,
            stores,
            started: Instant::now(),
            cancelled: AtomicBool::new(false),
            ops_remaining,
            progress: AtomicU64::new(0),
            metrics,
            cell: CompletionCell {
                outcome: Mutex::new(None),
                done: Condvar::new(),
            },
        });

        self.inner.queries.lock().push(Arc::clone(&query));
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
        // Announce the triggered leaves (the only ops with queued work at
        // submit time); announce_op wakes one parked worker per leaf and
        // the workers wake the rest.
        for op_index in 0..query.ops.len() {
            if query.ops[op_index].pending.load(Ordering::SeqCst) > 0 {
                announce_op(&self.inner, &query, op_index);
            }
        }
        Ok(QueryHandle {
            query,
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
            let mut workers = self.workers.lock();
            workers.drain(..).collect()
        };
        for handle in workers {
            let _ = handle.join();
        }
        // Fail whatever is still registered so no waiter ever hangs.
        let leftover: Vec<Arc<QueryState>> = {
            let mut queries = self.inner.queries.lock();
            queries.drain(..).collect()
        };
        self.inner.ready.lock().clear();
        for query in leftover {
            query.complete(Err(EngineError::RuntimeShutdown));
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The result of a query execution.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// Materialised results, keyed by the store operator's result name.
    /// Empty per store when the schedule discards results
    /// ([`ExecutionSchedule::discard_results`]).
    pub results: BTreeMap<String, Vec<Tuple>>,
    /// Exact result cardinality per store name, filled in every mode —
    /// counting stores tally tuples they never materialise.
    pub cardinalities: BTreeMap<String, usize>,
    /// Execution metrics.
    pub metrics: ExecutionMetrics,
}

/// A handle to a query submitted to a [`Runtime`].
///
/// The handle is detachable: dropping it does **not** cancel the query
/// (use [`QueryHandle::cancel`] for that); the runtime finishes the work
/// and discards the unobserved outcome.
pub struct QueryHandle {
    query: Arc<QueryState>,
    inner: Arc<RuntimeInner>,
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryHandle")
            .field("id", &self.query.id)
            .finish()
    }
}

impl QueryHandle {
    /// The runtime-unique id of the submitted query.
    pub fn id(&self) -> QueryId {
        self.query.id
    }

    /// Blocks until the query completes and returns its outcome. Returns
    /// [`EngineError::QueryCancelled`] if it was cancelled and
    /// [`EngineError::RuntimeShutdown`] if the runtime was dropped first.
    pub fn wait(self) -> Result<ExecutionOutcome> {
        let mut slot = self.query.cell.outcome.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.query.cell.done.wait(&mut slot);
        }
    }

    /// Like [`QueryHandle::wait`] with a deadline: blocks for at most
    /// `timeout`, and a timeout **cancels the query** — its queues are
    /// closed and drained, the admission slot ([`Runtime::live_queries`])
    /// is released immediately, and the typed
    /// [`EngineError::DeadlineExceeded`] is returned. This is the deadline
    /// primitive a server wants: a wait that merely gave up would leave the
    /// timed-out query burning workers and holding its slot until it
    /// finished naturally.
    ///
    /// If the query completes in the race window between the timeout and
    /// the cancellation, the completed outcome wins and is returned.
    pub fn wait_timeout_or_cancel(self, timeout: Duration) -> Result<ExecutionOutcome> {
        let deadline = Instant::now() + timeout;
        {
            let mut slot = self.query.cell.outcome.lock();
            loop {
                if let Some(result) = slot.take() {
                    return result;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                self.query.cell.done.wait_for(&mut slot, deadline - now);
            }
        }
        let error = EngineError::DeadlineExceeded {
            query: self.query.id.0,
        };
        abort_query(&self.inner, &self.query, error.clone());
        // abort_query seals an outcome unless a natural completion won the
        // race — either way one is there to take.
        self.query.cell.outcome.lock().take().unwrap_or(Err(error))
    }

    /// Cancels the query: its queues are closed and drained, in-flight
    /// output is discarded, and `wait()` reports
    /// [`EngineError::QueryCancelled`]. Idempotent; a query that already
    /// completed keeps its outcome. The pool stays fully reusable.
    pub fn cancel(&self) {
        if self
            .query
            .cancelled
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        abort_query(
            &self.inner,
            &self.query,
            EngineError::QueryCancelled {
                query: self.query.id.0,
            },
        );
    }
}

/// Tears a query down exceptionally: marks it cancelled so workers drop its
/// remaining work, closes and drains every queue (releasing buffered
/// memory immediately), removes it from the registry and seals `error` into
/// the completion cell — unless an outcome was already sealed, which wins.
fn abort_query(inner: &RuntimeInner, query: &QueryState, error: EngineError) {
    query.cancelled.store(true, Ordering::SeqCst);
    for op in &query.ops {
        for q in &op.queues {
            q.close();
        }
    }
    let mut drained = Vec::new();
    for op in &query.ops {
        for q in &op.queues {
            q.try_pop_into(usize::MAX, &mut drained);
            drained.clear();
        }
    }
    inner.remove_query(query.id);
    query.complete(Err(error));
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
        Some(FaultAction::Panic) => {
            // allow-panic: FaultAction::Panic is the injected-crash
            // contract of the fault registry.
            panic!("injected fault at {}", FaultPoint::RuntimeSubmit)
        }
        None => Ok(()),
    }
}

/// Binds a plan node to a physical operator over catalog fragments.
/// `discard_results` selects counting stores (cardinalities without
/// materialisation) — and, for a filter or join whose consumer is that
/// store, counting its matches instead of building rows nobody will read
/// (the one place this is decided; see [`crate::activation`] for the
/// invariant). A hash or temporary-index join builds each inner fragment's
/// index on the worker whose activation first needs it.
pub(crate) fn bind_operator(
    catalog: &Catalog,
    plan: &Plan,
    node: &dbs3_lera::OperatorNode,
    instance_count: usize,
    discard_results: bool,
) -> Result<BoundOperator> {
    // A store is always co-located (`Router::SameInstance`: it has no
    // routing column), so "feeds a counting store" is all there is to check.
    let count_only = discard_results
        && match plan.consumers(node.id).first() {
            Some(consumer) => matches!(plan.node(*consumer)?.kind, OperatorKind::Store { .. }),
            None => false,
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
            // The inner relation's generation keys the engine-wide shared
            // build-index cache: every query binding this (relation,
            // generation) pair shares one build per fragment.
            let generation = catalog
                .generation(inner_relation)
                // allow-panic: the catalog registers, replaces and removes
                // a relation and its generation together, and `get` just
                // found this one.
                .expect("a registered relation has a generation");
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
                            generation,
                        )
                        .counting_matches(count_only),
                    ))
                }
                OuterInput::Pipeline => {
                    // allow-panic: Plan::validate rejected pipeline joins
                    // without a producer edge before binding started.
                    let producer = node.producer().expect("validated");
                    let incoming_schema = plan.output_schema(producer, catalog)?;
                    let outer_column = incoming_schema.column_index(&condition.outer_column)?;
                    Ok(BoundOperator::PipelinedJoin(
                        PipelinedJoinOperator::new(
                            inner,
                            outer_column,
                            inner_column,
                            *algorithm,
                            generation,
                        )
                        .counting_matches(count_only),
                    ))
                }
            }
        }
        OperatorKind::Store { result_name } => Ok(BoundOperator::Store(if discard_results {
            StoreOperator::counting(result_name.clone(), instance_count)
        } else {
            StoreOperator::new(result_name.clone(), instance_count)
        })),
    }
}

/// Per-worker scan state: the worker's index, which fixes its slice of
/// every operation's queue ring, and the buffer every pop lands in.
///
/// The pop buffer lives here and not in a thread-local pool on purpose: a
/// thread-local taken and returned around every queue probe made a scan
/// over hundreds of mostly-empty queues pay two TLS round trips per probe
/// instead of one atomic load, and cost 10–17 % more CPU per query at
/// identical allocation counts (measured on `local_assoc_pipeline` and
/// `local_ideal_skew`). Owned by the worker, the buffer is touched only by
/// a pop that found work.
struct WorkerCtx {
    id: usize,
    /// What [`select_and_pop`] popped; [`process_batch`] drains it, so it is
    /// empty between batches and only its capacity carries over.
    popped: Vec<Activation>,
}

/// The body of one pool worker: pop the front ready-deque entry, re-push
/// it at the tail, process one batch. Work finding is O(1) in live
/// queries and operations, and the idle path allocates nothing. The
/// re-push *before* processing keeps the op discoverable while this batch
/// runs, so sibling workers converge on the same operation (morsel
/// parallelism) and entries rotate FIFO across every ready op of every
/// query (cross-query fairness).
fn worker_loop(inner: &Arc<RuntimeInner>, worker: usize) {
    let mut ctx = WorkerCtx {
        id: worker,
        popped: Vec::new(),
    };
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Epoch before the pop: an announcement landing after this read
        // makes park() return immediately, so no wakeup between the empty
        // pop and the park is lost.
        let epoch = inner.idle.current();
        let Some((query, op_index)) = inner.pop_ready() else {
            inner.idle.park(epoch);
            continue;
        };
        let op = &query.ops[op_index];
        if !query.is_live()
            || op.finished.load(Ordering::SeqCst)
            || op.pending.load(Ordering::SeqCst) == 0
        {
            retire_ready_entry(inner, &query, op_index);
            continue;
        }
        inner.push_ready(Arc::clone(&query), op_index);
        try_process_op(inner, &query, op_index, &mut ctx);
    }
}

/// The body of the optional watchdog thread (see [`Runtime::with_watchdog`]):
/// samples every live query's progress counter a few times per stall
/// interval and aborts queries whose counter has not moved for `stall_after`
/// with [`EngineError::QueryStuck`]. Aborting seals the outcome and frees
/// the admission slot, so a waiter blocked on the handle gets the typed
/// error instead of hanging forever behind a wedged worker.
fn watchdog_loop(inner: &Arc<RuntimeInner>, stall_after: Duration) {
    let poll = (stall_after / 4)
        .max(Duration::from_millis(10))
        .min(Duration::from_millis(250));
    // Last observed (progress, time-of-change) per query id.
    let mut seen: BTreeMap<u64, (u64, Instant)> = BTreeMap::new();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(poll);
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let live: Vec<Arc<QueryState>> = inner.queries.lock().clone();
        let now = Instant::now();
        let mut alive: Vec<u64> = Vec::with_capacity(live.len());
        for query in &live {
            let id = query.id.0;
            alive.push(id);
            let progress = query.progress.load(Ordering::SeqCst);
            let entry = seen.entry(id).or_insert((progress, now));
            if entry.0 != progress {
                *entry = (progress, now);
                continue;
            }
            let stalled = now.duration_since(entry.1);
            if stalled >= stall_after {
                abort_query(
                    inner,
                    query,
                    EngineError::QueryStuck {
                        query: id,
                        stalled_for_ms: stalled.as_millis() as u64,
                    },
                );
            }
        }
        seen.retain(|id, _| alive.contains(id));
    }
}

/// What the guarded section of [`try_process_op`] produced: real work (or
/// an empty probe), or an injected `error`/`drop` fault asking for a typed
/// failure.
enum Processed {
    Worked(bool),
    Fault,
}

/// Attempts to pop and process one batch of `op`'s activations. Returns
/// whether any work was done.
///
/// Processing runs under `catch_unwind`: a panicking operator must neither
/// kill the pool worker nor leave the in-flight guard elevated forever
/// (which would hang every waiter) — instead the query is aborted with the
/// typed [`EngineError::WorkerPanicked`] the scoped-thread executor used to
/// produce, and the pool keeps serving other queries. The
/// `engine.worker.process` fault point sits inside the guarded section, so
/// injected panics exercise exactly this containment path.
fn try_process_op(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    op_index: usize,
    ctx: &mut WorkerCtx,
) -> bool {
    let op = &query.ops[op_index];
    if op.finished.load(Ordering::SeqCst) || op.pending.load(Ordering::SeqCst) == 0 {
        return false;
    }
    // The in-flight guard goes up before the pop: once a queue looks empty
    // to another worker, this worker's claim on the batch it popped is
    // already visible, so the operation can never be declared finished
    // while tuples are still being processed.
    op.inflight.fetch_add(1, Ordering::SeqCst);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match faults::hit(FaultPoint::WorkerProcess) {
            // allow-panic: FaultAction::Panic is the injected-crash contract;
            // catch_unwind right above contains it into WorkerPanicked.
            Some(FaultAction::Panic) => panic!(
                "injected fault at {} in `{}`",
                FaultPoint::WorkerProcess,
                op.name
            ),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Error) | Some(FaultAction::Drop) => return Processed::Fault,
            None => {}
        }
        match select_and_pop(op, inner.pool_threads, ctx) {
            Some((queue_index, main)) => {
                // More is buffered behind this batch: pass the wake-up on
                // before starting to work, so a parked pool comes up as a
                // doubling cascade instead of all at once from `submit`.
                if op.pending.load(Ordering::SeqCst) > 0 {
                    inner.idle.wake_one();
                }
                process_batch(
                    inner,
                    query,
                    op_index,
                    queue_index,
                    main,
                    &mut ctx.popped,
                    ctx.id,
                );
                Processed::Worked(true)
            }
            None => {
                // The pending hint said there was work but every queue
                // probe came up empty (another worker got there first).
                let mut slot = query.metrics[op_index][ctx.id].lock();
                slot.thread = ctx.id;
                slot.idle_polls += 1;
                Processed::Worked(false)
            }
        }
    }));
    // Seal the typed failure BEFORE dropping the in-flight guard: a batch
    // lost to the unwind mid-processing must never be papered over by a
    // sibling worker's termination accounting cascading to finalize_query
    // and sealing a *partial* Ok. Aborting first wins the first-writer race
    // on the completion cell, so the later Ok (if any) is discarded.
    match &outcome {
        Ok(Processed::Worked(_)) => {}
        Ok(Processed::Fault) => {
            // An installed fault rule asked for a typed failure at this
            // point; the batch was never popped, so aborting loses nothing.
            abort_query(
                inner,
                query,
                EngineError::FaultInjected {
                    point: FaultPoint::WorkerProcess,
                },
            );
        }
        Err(_) => {
            // Nested help_drain guards may have been skipped by the unwind,
            // leaving other operations' inflight counts elevated — harmless,
            // because aborting seals the outcome and the query is never
            // finalized through the counting path.
            abort_query(
                inner,
                query,
                EngineError::WorkerPanicked {
                    operation: op.name.clone(),
                },
            );
        }
    }
    if op.inflight.fetch_sub(1, Ordering::SeqCst) == 1 {
        try_finish_op(inner, query, op_index);
    }
    match outcome {
        Ok(Processed::Worked(did_work)) => {
            if did_work {
                query.progress.fetch_add(1, Ordering::Relaxed);
            }
            did_work
        }
        Ok(Processed::Fault) | Err(_) => true,
    }
}

/// Selects the next queue of `op` for this worker in [`ring_scan`] order,
/// pops up to `cache_size` logical activations from it into `ctx.popped`
/// and returns the queue's index and whether it is one of the worker's main
/// queues. Probing an empty queue is one atomic load.
fn select_and_pop(
    op: &OpRuntime,
    pool_threads: usize,
    ctx: &mut WorkerCtx,
) -> Option<(usize, bool)> {
    for (position, main) in ring_scan(ctx.id, pool_threads, op.order.len()) {
        let queue_index = op.order[position];
        let weight = op.queues[queue_index].try_pop_into(op.cache_size, &mut ctx.popped);
        if weight > 0 {
            op.pending.fetch_sub(weight as u64, Ordering::SeqCst);
            return Some((queue_index, main));
        }
    }
    None
}

/// Positions in an `n`-queue `order` of `worker`'s main queues: slice
/// `worker` of `pool_threads` equal contiguous slices, which differ in size
/// by at most one (some are empty when `n < pool_threads`).
fn main_slice(worker: usize, pool_threads: usize, n: usize) -> Range<usize> {
    worker * n / pool_threads..(worker + 1) * n / pool_threads
}

/// The positions of an `n`-queue `order` that `worker` probes, in order,
/// each with whether it is a main queue: the ring from the first entry of
/// the worker's [`main_slice`] (see the module docs).
fn ring_scan(worker: usize, pool_threads: usize, n: usize) -> impl Iterator<Item = (usize, bool)> {
    let main = main_slice(worker, pool_threads, n);
    (main.start..n)
        .chain(0..main.start)
        .map(move |position| (position, main.contains(&position)))
}

thread_local! {
    /// Reusable scatter-buffer sets, one entry per nested [`help_drain`]
    /// depth, so [`process_batch`] does not allocate a consumer-degree-sized
    /// `Vec<Vec<Tuple>>` on every popped batch. Only that outer vector is
    /// kept warm: every filled inner buffer leaves with its flush (it
    /// *becomes* the transport batch, taken with no capacity left behind),
    /// so the inner ones come back empty and unallocated, and the first push
    /// into one reserves exactly one batch — the transport batch is the
    /// only allocation a scattered tuple's hop makes.
    static SCATTER_SCRATCH: std::cell::RefCell<Vec<Vec<Vec<Tuple>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Takes a recycled scatter-buffer set resized to `degree` (all buffers
/// empty), or builds a fresh one.
fn take_scatter_buffers(degree: usize) -> Vec<Vec<Tuple>> {
    let mut buffers = SCATTER_SCRATCH
        .with(|scratch| scratch.borrow_mut().pop())
        .unwrap_or_default();
    buffers.resize_with(degree, Vec::new);
    buffers
}

/// Returns a scatter-buffer set to the thread-local pool. Buffers are
/// cleared so no tuple outlives its batch, and the pool is bounded by the
/// plausible help-recursion depth.
fn recycle_scatter_buffers(mut buffers: Vec<Vec<Tuple>>) {
    buffers.iter_mut().for_each(Vec::clear);
    SCATTER_SCRATCH.with(|scratch| {
        let mut pool = scratch.borrow_mut();
        if pool.len() < 8 {
            pool.push(buffers);
        }
    });
}

/// Processes one popped batch of activations of `op`, scattering the
/// produced tuples to the consumer's queues and recording metrics. `main`
/// says whether the batch came from one of `worker`'s main queues.
///
/// Routing is the producer-side activation cache of the paper, specialised
/// per [`Router`]:
///
/// * [`Router::SameInstance`] (co-located stores): the operator's whole
///   output vector ships to the one destination queue **as-is** — one
///   transport activation per processed activation, no per-tuple re-collect
///   through an intermediate buffer.
/// * [`Router::HashColumn`] (dynamic redistribution): tuples scatter into
///   per-destination buffers flushed at `CacheSize` tuples, so `CacheSize`
///   stays the transport-batch granularity of every redistributing hop.
///
/// The caller holds the operation's in-flight guard, so the producer-side
/// scatter buffers live entirely within this call — nothing can be stranded
/// when the operation is later declared finished. `batch` is drained (also
/// on an early exit), so no activation outlives its batch; only the
/// caller's buffer capacity does.
fn process_batch(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    op_index: usize,
    queue_index: usize,
    main: bool,
    batch: &mut Vec<Activation>,
    worker: usize,
) {
    let op = &query.ops[op_index];
    let started = Instant::now();
    let consumer_degree = op
        .consumer
        .as_ref()
        .map(|link| query.ops[link.consumer_index].queues.len())
        .unwrap_or(0);
    // Scatter buffers exist only for hash redistribution; a co-located
    // consumer receives output batches directly. Ops that need no buffers
    // must not touch the thread-local scratch at all — popping the warm set
    // just to truncate it to zero would throw away the outer vector the
    // cache exists to preserve.
    let needs_buffers = matches!(
        op.consumer.as_ref().map(|link| &link.router),
        Some(Router::HashColumn { .. })
    );
    let mut buffers = if needs_buffers {
        take_scatter_buffers(consumer_degree)
    } else {
        Vec::new()
    };
    let mut flushes = 0u64;
    let mut logical = 0u64;
    let mut tuples_out = 0u64;
    // Wall time spent helping congested downstream operations; that time is
    // recorded against *their* metrics slots by the nested process_batch,
    // so it is subtracted from this operation's busy time below.
    let mut helped = Duration::ZERO;

    for activation in batch.drain(..) {
        // A cancelled query's remaining work is dropped; on shutdown the
        // query will be failed by the runtime's Drop anyway.
        if query.cancelled.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Metrics stay in the paper's per-tuple model: a data activation
        // counts one logical activation per batched tuple.
        logical += activation.logical_len() as u64;
        let out = op.operator.process(queue_index, activation);
        tuples_out += out.len() as u64;
        let Some(link) = &op.consumer else { continue };
        match &link.router {
            Router::SameInstance => {
                // Direct ship: the whole output batch has exactly one
                // destination, so it becomes one transport activation
                // without being re-collected tuple by tuple — the only hop
                // a batch of counted-but-unbuilt rows ever takes.
                if !out.is_empty() {
                    let dest = queue_index % consumer_degree.max(1);
                    flush_to(
                        inner,
                        query,
                        link.consumer_index,
                        dest,
                        out,
                        worker,
                        &mut helped,
                    );
                    flushes += 1;
                }
            }
            Router::HashColumn { column, degree } => {
                for tuple in out {
                    let dest = (tuple.hash_key(&[*column]) % *degree as u64) as usize;
                    let buffer = &mut buffers[dest];
                    if buffer.capacity() == 0 {
                        buffer.reserve_exact(op.cache_size.min(1024));
                    }
                    buffer.push(tuple);
                    if buffer.len() >= op.cache_size {
                        flush_to(
                            inner,
                            query,
                            link.consumer_index,
                            dest,
                            TupleBatch::new(std::mem::take(buffer)),
                            worker,
                            &mut helped,
                        );
                        flushes += 1;
                    }
                }
            }
        }
    }
    if let Some(link) = &op.consumer {
        for (dest, buffer) in buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                flush_to(
                    inner,
                    query,
                    link.consumer_index,
                    dest,
                    TupleBatch::new(std::mem::take(buffer)),
                    worker,
                    &mut helped,
                );
                flushes += 1;
            }
        }
    }
    if needs_buffers {
        recycle_scatter_buffers(buffers);
    }

    // Merge this batch's contribution into the worker's metrics slot. Time
    // spent helping a congested downstream operation is charged to that
    // operation (by its own nested process_batch) and subtracted here, so
    // summed busy time never exceeds wall-clock × workers.
    let mut slot = query.metrics[op_index][worker].lock();
    slot.thread = worker;
    slot.activations += logical;
    slot.tuples_out += tuples_out;
    slot.busy += started.elapsed().saturating_sub(helped);
    slot.cache_flushes += flushes;
    if main {
        slot.main_queue_hits += logical;
    } else {
        slot.secondary_queue_hits += logical;
    }
}

/// Delivers one transport batch to a consumer queue without ever blocking
/// the pool: on a full queue the worker *helps drain that very queue* (pops
/// a batch and processes it exactly as the consumer would) and retries; on
/// a closed queue (cancelled query) the batch is dropped. Help time is
/// accumulated into `helped` so the caller can keep its own busy metric
/// honest.
#[allow(clippy::too_many_arguments)]
fn flush_to(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    consumer_index: usize,
    dest: usize,
    batch: TupleBatch,
    worker: usize,
    helped: &mut Duration,
) {
    let consumer = &query.ops[consumer_index];
    let mut activation = Activation::Data(batch);
    let weight = activation.queue_weight() as u64;
    loop {
        if query.cancelled.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // The pending count goes up before the push so a concurrent popper
        // can never decrement it below zero; a refused push takes it back.
        consumer.pending.fetch_add(weight, Ordering::SeqCst);
        match consumer.queues[dest].try_push(activation) {
            Ok(()) => {
                announce_op(inner, query, consumer_index);
                return;
            }
            Err(TryPushError::Closed(_)) => {
                consumer.pending.fetch_sub(weight, Ordering::SeqCst);
                return;
            }
            Err(TryPushError::Full(back)) => {
                consumer.pending.fetch_sub(weight, Ordering::SeqCst);
                activation = back;
                let help_started = Instant::now();
                help_drain(inner, query, consumer_index, dest, worker);
                *helped += help_started.elapsed();
            }
        }
    }
}

/// Pops one batch from the congested consumer queue and processes it on
/// behalf of the consumer operation (cooperative backpressure). Recursion
/// through [`process_batch`] is bounded by the pipeline depth. The batch
/// counts as secondary consumption: the worker did not pick the queue. The
/// pop buffer is local: this path is rare, and an empty `Vec` allocates
/// only if the pop finds work.
fn help_drain(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    consumer_index: usize,
    dest: usize,
    worker: usize,
) {
    let consumer = &query.ops[consumer_index];
    consumer.inflight.fetch_add(1, Ordering::SeqCst);
    let mut popped = Vec::new();
    let weight = consumer.queues[dest].try_pop_into(consumer.cache_size, &mut popped);
    if weight == 0 {
        // Another worker drained it first; capacity will free up shortly.
        std::thread::yield_now();
    } else {
        consumer.pending.fetch_sub(weight as u64, Ordering::SeqCst);
        process_batch(
            inner,
            query,
            consumer_index,
            dest,
            false,
            &mut popped,
            worker,
        );
    }
    if consumer.inflight.fetch_sub(1, Ordering::SeqCst) == 1 {
        try_finish_op(inner, query, consumer_index);
    }
}

/// Declares `op` finished if its queues are exhausted and nothing is in
/// flight; closing the consumer's queues then cascades the check down the
/// pipeline. The query completes when its last operation finishes.
fn try_finish_op(inner: &Arc<RuntimeInner>, query: &Arc<QueryState>, op_index: usize) {
    let op = &query.ops[op_index];
    // Order matters: exhaustion is read *before* the in-flight count. A
    // worker claiming a batch raises `inflight` before popping, so once a
    // queue is observed empty here, any claim on its last batch is already
    // visible in `inflight`. Reading inflight first would open a window
    // where another worker pops the final batch between the two reads and
    // this thread declares the operation finished while those tuples are
    // still being processed (their output would flush into closed queues
    // and vanish).
    if op.finished.load(Ordering::SeqCst)
        || !op.queues.iter().all(|q| q.is_exhausted())
        || op.inflight.load(Ordering::SeqCst) != 0
    {
        return;
    }
    if op
        .finished
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return;
    }
    if let Some(link) = &op.consumer {
        for q in &query.ops[link.consumer_index].queues {
            q.close();
        }
    }
    let remaining = query.ops_remaining.fetch_sub(1, Ordering::SeqCst) - 1;
    if let Some(link) = &op.consumer {
        // The consumer may already be drained (e.g. nothing matched):
        // re-check it now that its queues are closed.
        try_finish_op(inner, query, link.consumer_index);
    }
    if remaining == 0 {
        finalize_query(inner, query);
    }
}

/// Seals a completed query: collects per-operation metrics and results,
/// removes the query from the registry and fills the completion cell.
fn finalize_query(inner: &Arc<RuntimeInner>, query: &Arc<QueryState>) {
    let elapsed = query.started.elapsed();
    let operations: Vec<OperationMetrics> = query
        .ops
        .iter()
        .enumerate()
        .map(|(op_index, op)| {
            // A slot counts if it recorded any work at all: a thread that
            // only processed non-lead morsels has zero logical activations
            // but real busy time and output tuples.
            let mut threads: Vec<ThreadMetrics> = query.metrics[op_index]
                .iter()
                .map(|slot| slot.lock().clone())
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
    for (name, operator) in &query.stores {
        if let BoundOperator::Store(store) = operator.as_ref() {
            cardinalities.insert(name.clone(), store.stored_count());
            results.insert(name.clone(), store.take_all());
        }
    }

    inner.remove_query(query.id);
    query.complete(Ok(ExecutionOutcome {
        results,
        cardinalities,
        metrics,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{OperationSchedule, Scheduler, SchedulerOptions};
    use dbs3_lera::{plans, JoinAlgorithm};
    use dbs3_storage::{
        PartitionSpec, PartitionedRelation, Relation, WisconsinConfig, WisconsinGenerator,
    };

    fn build_catalog(a_card: usize, b_card: usize, degree: usize) -> (Catalog, Relation, Relation) {
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

    fn schedule_for(plan: &Plan, cat: &Catalog, threads: usize) -> ExecutionSchedule {
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
    fn main_slices_partition_the_ring_and_each_scan_starts_at_its_own() {
        for pool in [1usize, 2, 3, 4, 7] {
            // Fewer queues than workers, as many, and more.
            for n in [0, pool / 2, pool, pool + 1, 3 * pool + 2, 200] {
                let slices: Vec<Range<usize>> = (0..pool).map(|w| main_slice(w, pool, n)).collect();
                // Contiguous, in worker order, covering 0..n: a partition.
                assert_eq!(slices[0].start, 0);
                assert_eq!(slices[pool - 1].end, n);
                for pair in slices.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "pool {pool}, n {n}");
                }
                let sizes: Vec<usize> = slices.iter().map(|s| s.len()).collect();
                let (min, max) = (sizes.iter().min(), sizes.iter().max());
                assert!(
                    max.unwrap() - min.unwrap() <= 1,
                    "pool {pool}, n {n}: {sizes:?}"
                );

                for (w, slice) in slices.iter().enumerate() {
                    let scan: Vec<(usize, bool)> = ring_scan(w, pool, n).collect();
                    assert_eq!(scan.len(), n);
                    if n == 0 {
                        continue;
                    }
                    // The first probe is the first entry of the worker's
                    // slice, and every later one is the next ring position.
                    assert_eq!(scan[0].0, w * n / pool);
                    for pair in scan.windows(2) {
                        assert_eq!(pair[1].0, (pair[0].0 + 1) % n, "pool {pool}, n {n}, w {w}");
                    }
                    // The slice comes first and is all main; the rest is not.
                    let main: Vec<usize> = scan.iter().filter(|p| p.1).map(|p| p.0).collect();
                    assert_eq!(main, slice.clone().collect::<Vec<_>>());
                    assert!(scan[..slice.len()].iter().all(|p| p.1));
                }
            }
        }
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
        assert!(matches!(
            Runtime::new(0),
            Err(EngineError::InvalidOptions(_))
        ));
    }

    #[test]
    fn submitting_a_storeless_plan_is_an_error() {
        let (cat, _, _) = build_catalog(200, 20, 4);
        // Build a plan whose store was... every helper plan stores; use the
        // executor's validation path instead: a schedule missing a node.
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let schedule = ExecutionSchedule::from_parts(BTreeMap::new(), 1);
        let runtime = Runtime::new(1).unwrap();
        assert!(runtime.submit(&cat, &plan, &schedule).is_err());
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
