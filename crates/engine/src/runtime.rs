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
//! (see [`Runtime`] for what a warm runtime keeps).
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
//!   the busy path allocates only the batches of tuples it ships: pops land
//!   in a buffer the worker owns, a buffer of tuples is allocated once,
//!   exactly one batch wide, and leaves as that batch, and a buffer of
//!   positions comes from the worker's stash and returns to the stash of
//!   the worker that consumes it;
//! * **cross-query fairness** — entries rotate through the deque, so no
//!   query can starve another however long its own queues are;
//! * **intra-operator parallelism** — the entry is back in the deque while
//!   the batch is processed, so sibling workers converge on the same
//!   operation when it is the only one with work (this is what makes
//!   fragment morsels actually run in parallel).
//!
//! The invariant is *at most one deque entry per operation*, kept by the
//! `announced` bit of the operation's state word (`op_state.rs`):
//! producers announce an operation after every successful push, and only
//! the announcement that sets the bit enqueues; a worker that pops an
//! entry retires it in one transition that drops the entry (clearing the
//! bit) exactly when nothing is pending or the query is dead, so a racing
//! push either keeps the entry or announces afresh. Within an operation,
//! *which queue* to pop follows one fixed consumption order (see below).
//!
//! # Queue walk: the occupied positions of one cost-ordered ring
//!
//! At submit, each operation sorts its queues once by decreasing estimated
//! cost into a ring (`OpRuntime::ring`, which also maps each queue back to
//! its position). Slice `w` of `P` equal contiguous slices of the ring
//! holds worker `w`'s *main* queues (each queue is the main queue of only
//! one worker, as in the paper). A worker consumes the ring from the first
//! entry of its slice, wrapping once: its main queues first, costliest
//! first, then the others as *secondary* queues, so idle workers start from
//! different points instead of converging on one queue. There is no
//! per-operation `Random`/`LPT` choice (scheduling step 4): a per-poll
//! shuffle cost CPU and bought nothing measurable with morsels, while the
//! cost order keeps what LPT's visit order is worth on wider pools. The
//! simulator keeps both strategies.
//!
//! The worker does not probe every queue on that ring. The operation's
//! state word carries a 512-bit occupancy summary (`op_state.rs`): bit `b`
//! is ring position `b` when the operation has at most 512 queues, and
//! above that the contiguous chunk of positions `p` with
//! `p * 512 / n == b`. `select_and_pop` walks the set bits in the ring
//! order above (`OccupiedChunks`, `trailing_zeros` over eight words)
//! and probes only the queues behind them, so it pops exactly what a probe
//! of every queue in that order would, from the queues that hold work.
//!
//! The bits follow one protocol, every access `SeqCst` like the queues'
//! `atomic_len` mirrors:
//!
//! * a producer marks a queue's bit after every successful push and before
//!   it announces the operation (a load, and a `fetch_or` only if the bit
//!   is clear); submit marks a triggered operation's queues after it has
//!   written the operation's fresh word, which starts with every bit clear;
//! * a worker that pops a queue to empty, or finds a set bit's chunk empty
//!   (in `select_and_pop` or `help_drain`), *settles* the bit: it
//!   clears it, re-reads the chunk's queue lengths, and sets it again if
//!   any queue holds work.
//!
//! No bit is lost. In the one total order of those accesses, a push lands
//! before its producer loads the bit. If the load finds the bit clear, the
//! producer sets it. If it finds it set, any clear that follows is also
//! after the push, and the re-read after that clear sees the push's weight
//! (or the queue has been popped since, by a worker that settles in turn).
//! A bit may be left set over an empty queue; the next walk that finds it
//! settles it. A lost bit would fail no assertion: the operation's ready
//! entry would rotate with `pending > 0` and no worker would ever find the
//! work, so the pool livelocks and the threaded suites cannot see the lost
//! bit itself. An explorer in `op_state.rs` checks every interleaving of a
//! *model* of the protocol (push → mark, pop → clear → re-read) for two
//! producers and two consumers over one chunk; it does not run the code
//! above.
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
//! # Threads, termination, backpressure and idling
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
//! * **Backpressure is cooperative.** The pool is shared, so if every
//!   worker blocked producing, nobody would be left to consume and the
//!   pool would deadlock. Workers therefore never block on a push: when a
//!   destination queue is full they *help drain it* (pop a batch from that
//!   very queue and process it, exactly as the consumer would), then
//!   retry. Helping recurses at most to the
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
use crate::op_state::{Effect, Event, OpState, OpWord, MAX_INFLIGHT, OCCUPANCY_BITS};
use crate::operators::{
    BoundOperator, FilterOperator, PipelinedJoinOperator, StoreOperator, TransmitOperator,
    TriggeredJoinOperator,
};
use crate::queue::{ActivationQueue, TryPushError};
use crate::schedule::ExecutionSchedule;
use crate::Result;
use dbs3_lera::{CostParameters, ExtendedPlan, NodeId, OperatorKind, OuterInput, Plan};
use dbs3_storage::{Catalog, Tuple};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
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
/// instance's queue.
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
    /// Announced, input-closed and finished bits, workers in flight and
    /// pending queue weight, changed one transition at a time; and the
    /// occupancy bits of the ring's chunks.
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
    /// of the chunk holds work (see the module docs).
    fn settle(&self, bit: usize) {
        let n = self.queues.len();
        self.state.settle(bit, || {
            chunk(bit, n).any(|position| !self.queues[self.queue_at(position)].is_empty())
        });
    }
}

/// Per-operation, per-worker thread metrics slots of one query.
type MetricsSlots = Vec<Vec<Mutex<ThreadMetrics>>>;

/// The completion cell a [`QueryHandle`] waits on. It lives apart from
/// the query's state, which the handle does not keep alive.
struct CompletionCell {
    outcome: Mutex<Option<Result<ExecutionOutcome>>>,
    done: Condvar,
}

impl CompletionCell {
    /// Seals the outcome exactly once (first writer wins — a cancel racing
    /// a natural completion keeps the cancel) and wakes every waiter.
    fn seal(&self, result: Result<ExecutionOutcome>) {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }
}

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
    spares: Arc<Mutex<SpareSets>>,
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

/// Emptied queue sets of dropped queries, which later submissions re-arm
/// ([`ActivationQueue::rearm`]) instead of building queues whose buffers
/// every warm query would grow again. Bounded by [`SPARE_SETS`] sets,
/// room for [`SPARE_QUEUES`] queues and [`SPARE_SLOTS`] buffered-activation
/// slots in all; see [`Runtime`] for the memory that makes.
#[derive(Default)]
struct SpareSets {
    sets: Vec<SpareSet>,
    /// Room for queues over all of `sets`: their vectors' capacity, which
    /// a set truncated for a narrower operation, or extended for a wider
    /// one, keeps.
    queues: usize,
    /// Room for activations over all their buffers.
    slots: usize,
}

/// One operation's emptied queue set.
struct SpareSet {
    queues: Vec<ActivationQueue>,
    /// Room for activations its buffers keep.
    slots: usize,
}

impl SpareSets {
    /// Takes the set that best fits an operation with `n` instances: the
    /// shortest set at least `n` long, of those the one with the most
    /// room, else the longest; an empty one when there is none.
    fn take(&mut self, n: usize) -> Vec<ActivationQueue> {
        let fits = (0..self.sets.len())
            .filter(|&i| self.sets[i].queues.len() >= n)
            .min_by_key(|&i| {
                let set = &self.sets[i];
                (set.queues.len(), std::cmp::Reverse(set.slots))
            });
        let longest = || (0..self.sets.len()).max_by_key(|&i| self.sets[i].queues.len());
        let Some(index) = fits.or_else(longest) else {
            return Vec::new();
        };
        let set = self.sets.swap_remove(index);
        self.queues -= set.queues.capacity();
        self.slots -= set.slots;
        set.queues
    }

    /// Keeps an operation's set, each buffer trimmed to
    /// [`SPARE_QUEUE_SLOTS`], if the bounds allow; otherwise hands it back
    /// for the caller to free.
    fn give(&mut self, mut queues: Vec<ActivationQueue>) -> Option<Vec<ActivationQueue>> {
        if queues.is_empty()
            || self.sets.len() >= SPARE_SETS
            || self.queues + queues.capacity() > SPARE_QUEUES
        {
            return Some(queues);
        }
        let slots: usize = queues
            .iter_mut()
            .map(|q| q.trim_buffer(SPARE_QUEUE_SLOTS))
            .sum();
        if self.slots + slots > SPARE_SLOTS {
            return Some(queues);
        }
        self.queues += queues.capacity();
        self.slots += slots;
        self.sets.push(SpareSet { queues, slots });
        None
    }
}

/// What [`Runtime::spare_counts`] reports, each counted from what is held
/// rather than taken from the bookkeeping that enforces the bounds.
#[cfg(test)]
#[derive(Debug)]
struct SpareCounts {
    /// Spare queue sets.
    sets: usize,
    /// Room for queues in their vectors.
    queues: usize,
    /// Their buffers' room, in activations.
    slots: usize,
    /// Queue weight they hold, which a dropped query leaves at 0.
    weight: usize,
    /// Buffers of positions in the depot.
    depot: usize,
    /// Room for positions over the depot's buffers.
    depot_positions: usize,
}

/// Most emptied queue sets a runtime keeps for later queries.
const SPARE_SETS: usize = 16;
/// Most room for queues a runtime keeps over all its spare sets' vectors.
const SPARE_QUEUES: usize = 4096;
/// Most activations a spare queue's buffer keeps room for; a queue whose
/// buffer grew larger goes to the spares without it.
const SPARE_QUEUE_SLOTS: usize = 1024;
/// Most activations the buffers of all spare queues keep room for.
const SPARE_SLOTS: usize = 65_536;
/// Most buffers of positions in one worker's stash.
const STASH_BUFFERS: usize = 64;
/// Most buffers of positions in a runtime's depot.
const DEPOT_BUFFERS: usize = 1024;
/// Most items a scatter buffer reserves room for ahead of its pushes; a
/// buffer of positions with more room is freed rather than kept.
const MAX_RESERVED_BATCH: usize = 1024;

impl QueryState {
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
            let _guard = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_one();
        }
    }

    /// Wakes every sleeper (shutdown).
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _guard = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Parks the calling worker unless the epoch moved past `seen` (i.e.
    /// work may have arrived since the scan started). The timeout is a
    /// belt-and-braces liveness net, not a polling loop: a parked worker
    /// re-scans a few times per second at most.
    fn park(&self, seen: u64) {
        let guard = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let _guard = if self.epoch.load(Ordering::SeqCst) == seen {
            self.cv
                .wait_timeout(guard, Duration::from_millis(200))
                .unwrap_or_else(PoisonError::into_inner)
                .0
        } else {
            guard
        };
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
    /// Queue sets of dropped queries, shared with every query so its drop
    /// can return them.
    spares: Arc<Mutex<SpareSets>>,
    /// Buffers of positions the workers' stashes spill to and refill from
    /// (see [`WorkerCtx::stash_position_buffer`]).
    depot: Mutex<Vec<Vec<u32>>>,
}

impl RuntimeInner {
    fn remove_query(&self, id: QueryId) {
        self.queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|q| q.id != id);
    }

    fn pop_ready(&self) -> Option<(Arc<QueryState>, usize)> {
        self.ready
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }

    /// Puts an entry back unless its query is over. Checked under the
    /// deque's lock, which [`finalize_query`] takes after the last
    /// operation finished, so no entry of a finished query stays behind to
    /// keep its state, and so its sealing, waiting.
    fn push_ready(&self, query: Arc<QueryState>, op_index: usize) {
        let mut ready = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
        if query.is_live() {
            ready.push_back((query, op_index));
        }
    }
}

/// Puts `op_index` of `query` into the ready deque unless it is already
/// there or finished (the `Announce` transition decides) and wakes one
/// parked worker; [`try_process_op`] carries the wake-up on to the next
/// sleeper while work remains. Called after every successful push.
fn announce_op(inner: &RuntimeInner, query: &Arc<QueryState>, op_index: usize) {
    if query.ops[op_index].state.apply(Event::Announce).1 == Effect::Enqueue {
        inner.push_ready(Arc::clone(query), op_index);
        inner.idle.wake_one();
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
/// So that a warm query allocates no queue buffer and no batch of
/// positions, a runtime keeps two kinds of spares, each bounded by
/// constants:
///
/// * **Queue sets.** A dropped query's sets, emptied, wait for a later
///   submit to re-arm them: at most 16 sets, whose vectors have room for
///   at most 4 096 queues in all (their capacity counts, not their
///   length), and whose buffers keep room for at most 65 536 activations
///   (a queue's buffer grown past 1 024 is freed first). At 88 bytes a
///   queue, 32 an activation and 32 a set's record, that is at most
///   2 458 112 bytes (2.34 MiB).
/// * **Buffers of positions.** A consumed batch's buffer stays in the
///   consuming worker's stash of at most 64 buffers; stashes exchange half
///   their buffers with a depot of at most 1 024. A kept buffer holds at
///   most 1 024 positions (4 KiB), so the depot keeps at most 4 MiB and
///   each worker's stash 256 KiB.
///
/// A buffer dropped off the worker path (a cancelled query's queues, a
/// shutdown) is freed, not kept.
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
            queries: Mutex::new(Vec::new()),
            ready: Mutex::new(VecDeque::new()),
            next_query: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            idle: IdleParking::new(),
            spares: Arc::default(),
            depot: Mutex::new(Vec::new()),
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
        let spares = self
            .inner
            .spares
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let depot = self
            .inner
            .depot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let queues = || spares.sets.iter().flat_map(|set| &set.queues);
        SpareCounts {
            sets: spares.sets.len(),
            queues: spares.sets.iter().map(|set| set.queues.capacity()).sum(),
            slots: queues().map(ActivationQueue::buffer_capacity).sum(),
            weight: queues().map(ActivationQueue::len).sum(),
            depot: depot.len(),
            depot_positions: depot.iter().map(Vec::capacity).sum(),
        }
    }

    /// Number of queries currently registered (submitted, not yet completed
    /// or cancelled).
    pub fn live_queries(&self) -> usize {
        self.inner
            .queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
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

            index_of.insert(*id, ops.len());
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

        // Wire consumer links.
        for id in &order {
            let producer_index = index_of[id];
            if let Some(consumer_id) = plan.consumer(*id) {
                let consumer_index = index_of[&consumer_id];
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

        self.inner
            .queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&query));
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
            if query.ops[op_index].state.load().pending > 0 {
                announce_op(&self.inner, &query, op_index);
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
        let leftover: Vec<Arc<QueryState>> = self
            .inner
            .queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        self.inner
            .ready
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
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
///
/// The handle does not keep the query's state alive: a query that
/// finishes is sealed when the last worker lets go of it, after its queue
/// sets have gone back to the runtime, so the next query submitted after
/// [`QueryHandle::wait`] re-arms them.
pub struct QueryHandle {
    id: QueryId,
    /// For [`QueryHandle::cancel`] and deadlines, while the query runs.
    query: Weak<QueryState>,
    cell: Arc<CompletionCell>,
    inner: Arc<RuntimeInner>,
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
/// (the one other form a batch may take). A hash or temporary-index join
/// builds each inner fragment's index on the worker whose activation first
/// needs it.
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
            StoreOperator::new(result_name.clone(), instance_count).transmitted(transmitted)
        })),
    }
}

/// What one pool worker owns: its index, which fixes its slice of every
/// operation's queue ring, one [`Frame`] per help-nesting depth, and its
/// stash of buffers of positions.
///
/// All of it lives here and not in thread-local pools on purpose: a
/// thread-local taken and returned around every queue probe made a scan
/// over hundreds of mostly-empty queues pay two TLS round trips per probe
/// instead of one atomic load, and cost 10–17 % more CPU per query at
/// identical allocation counts (measured on `local_assoc_pipeline` and
/// `local_ideal_skew`). Owned by the worker and passed down its call path,
/// a buffer is touched only by the batch that uses it.
#[derive(Default)]
struct WorkerCtx {
    id: usize,
    /// Frames not in use. A caller pops the top one for its depth (a fresh
    /// one when there is none) and pushes it back when done; calls nest, so
    /// the top is always the frame its depth had last time, and the stack
    /// is as deep as the deepest help.
    frames: Vec<Frame>,
    /// This worker's magazine of consumed buffers of positions (Bonwick &
    /// Adams, USENIX 2001): at most [`STASH_BUFFERS`], exchanged with the
    /// runtime's depot half a stash at a time, one lock per exchange.
    stash: Vec<Vec<u32>>,
}

/// The buffers one batch works in: the activations popped for it and the
/// producer-side scatter sets, one buffer per destination. All are empty
/// between batches and only their capacity carries over. A filled scatter
/// buffer leaves with its flush (it *becomes* the transport batch, taken
/// with no capacity left behind), so only a set's outer vector stays warm:
/// the first push into a buffer of tuples reserves exactly one batch, the
/// one allocation a scattered tuple's hop makes, and a buffer of positions
/// is filled from the stash instead.
#[derive(Default)]
struct Frame {
    /// What a pop landed in; [`process_batch`] drains it.
    popped: Vec<Activation>,
    /// A hash-routed producer's buffers of tuples.
    tuples: Vec<Vec<Tuple>>,
    /// A transmit's buffers of row positions.
    positions: Vec<Vec<u32>>,
}

impl WorkerCtx {
    /// A buffer of positions with room for a `cache_size` batch: one from
    /// the stash, which an empty stash first refills with half a stash from
    /// `inner`'s depot, or a new one when both are empty.
    fn take_position_buffer(&mut self, inner: &RuntimeInner, cache_size: usize) -> Vec<u32> {
        if self.stash.is_empty() {
            let mut depot = inner.depot.lock().unwrap_or_else(PoisonError::into_inner);
            let from = depot.len().saturating_sub(STASH_BUFFERS / 2);
            self.stash.extend(depot.drain(from..));
        }
        let mut buffer = self.stash.pop().unwrap_or_default();
        buffer.reserve_exact(cache_size.min(MAX_RESERVED_BATCH));
        buffer
    }

    /// Keeps a consumed batch's buffer of positions in the stash. A full
    /// stash first spills half of itself to `inner`'s depot; what the depot
    /// has no room for is freed, and so is a buffer too large to keep.
    fn stash_position_buffer(&mut self, inner: &RuntimeInner, mut buffer: Vec<u32>) {
        if buffer.capacity() == 0 || buffer.capacity() > MAX_RESERVED_BATCH {
            return;
        }
        buffer.clear();
        if self.stash.len() >= STASH_BUFFERS {
            let mut spill = self.stash.drain(STASH_BUFFERS / 2..);
            {
                let mut depot = inner.depot.lock().unwrap_or_else(PoisonError::into_inner);
                let room = DEPOT_BUFFERS.saturating_sub(depot.len());
                depot.extend(spill.by_ref().take(room));
            }
            drop(spill);
        }
        self.stash.push(buffer);
    }
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
        ..WorkerCtx::default()
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
        let retire = Event::Retire {
            live: query.is_live(),
        };
        if query.ops[op_index].state.apply(retire).1 == Effect::Drop {
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
        let live: Vec<Arc<QueryState>> = inner
            .queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
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
/// kill the pool worker nor leave its claim on the operation up forever
/// (which would hang every waiter) — instead the query is aborted with the
/// typed [`EngineError::WorkerPanicked`], and the pool keeps serving other
/// queries. The
/// `engine.worker.process` fault point sits inside the guarded section, so
/// injected panics exercise exactly this containment path.
fn try_process_op(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    op_index: usize,
    ctx: &mut WorkerCtx,
) -> bool {
    let op = &query.ops[op_index];
    // The claim goes up before the pop and `pending` comes down only after
    // it, so the operation can never be declared finished while tuples are
    // still being processed.
    if op.state.apply(Event::Begin).1 != Effect::Claimed {
        return false;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match faults::hit(FaultPoint::WorkerProcess) {
            #[expect(
                clippy::panic,
                reason = "FaultAction::Panic is the injected-crash contract; the catch_unwind \
                          right above contains it into WorkerPanicked"
            )]
            Some(FaultAction::Panic) => panic!(
                "injected fault at {} in `{}`",
                FaultPoint::WorkerProcess,
                op.name
            ),
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Error) | Some(FaultAction::Drop) => return Processed::Fault,
            None => {}
        }
        // Depth 0's frame; a panic drops it, and the next batch starts
        // a fresh one.
        let mut frame = ctx.frames.pop().unwrap_or_default();
        let main = main_slice(ctx.id, inner.pool_threads, op.queues.len());
        let worked = match select_and_pop(op, main, &mut frame.popped) {
            Some((queue_index, main, weight)) => {
                // More is buffered behind this batch: pass the wake-up on
                // before starting to work, so a parked pool comes up as a
                // doubling cascade instead of all at once from `submit`.
                if op.state.apply(Event::Popped(weight)).0.pending > 0 {
                    inner.idle.wake_one();
                }
                process_batch(inner, query, op_index, queue_index, main, &mut frame, ctx);
                true
            }
            None => {
                // The pending hint said there was work but every queue
                // probe came up empty (another worker got there first).
                let mut slot = query.metrics[op_index][ctx.id]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                slot.thread = ctx.id;
                slot.idle_polls += 1;
                false
            }
        };
        ctx.frames.push(frame);
        Processed::Worked(worked)
    }));
    // Seal the typed failure BEFORE dropping the claim: a batch
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
            // Nested help_drain claims may have been skipped by the unwind,
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
    if op.state.apply(Event::End).1 == Effect::Finished {
        finish_op(inner, query, op_index);
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

/// Selects the next queue of `op` for the worker whose main queues sit at
/// ring positions `main`, pops up to `cache_size` logical activations from
/// it into `popped` and returns the queue's index, whether it is one of
/// the worker's main queues and the queue weight popped. Only queues whose
/// occupancy bit is set are probed, in [`OccupiedChunks`] order; a chunk
/// found empty, or a queue popped to empty, has its bit settled.
fn select_and_pop(
    op: &OpRuntime,
    main: Range<usize>,
    popped: &mut Vec<Activation>,
) -> Option<(usize, bool, u64)> {
    let n = op.queues.len();
    for (bit, positions) in OccupiedChunks::new(|i| op.state.occupancy(i), n, main.start) {
        for position in positions {
            let queue_index = op.queue_at(position);
            let queue = &op.queues[queue_index];
            let weight = queue.try_pop_into(op.cache_size, popped);
            if weight > 0 {
                if queue.is_empty() {
                    op.settle(bit);
                }
                return Some((queue_index, main.contains(&position), weight as u64));
            }
        }
        op.settle(bit);
    }
    None
}

/// Positions in an `n`-queue ring of `worker`'s main queues: slice
/// `worker` of `pool_threads` equal contiguous slices, which differ in size
/// by at most one (some are empty when `n < pool_threads`).
fn main_slice(worker: usize, pool_threads: usize, n: usize) -> Range<usize> {
    worker * n / pool_threads..(worker + 1) * n / pool_threads
}

/// The occupancy bit of ring position `position` of an `n`-queue ring:
/// the position itself up to [`OCCUPANCY_BITS`] queues, and above that
/// the `b` with `position * OCCUPANCY_BITS / n == b`.
fn occupancy_bit(position: usize, n: usize) -> usize {
    position * OCCUPANCY_BITS / n.max(OCCUPANCY_BITS)
}

/// The ring positions whose [`occupancy_bit`] is `bit`: contiguous, one
/// position up to [`OCCUPANCY_BITS`] queues and at least one above.
fn chunk(bit: usize, n: usize) -> Range<usize> {
    let m = n.max(OCCUPANCY_BITS);
    (bit * m).div_ceil(OCCUPANCY_BITS).min(n)..((bit + 1) * m).div_ceil(OCCUPANCY_BITS).min(n)
}

/// The occupied chunks of an `n`-queue ring, in the order a worker whose
/// main slice starts at position `start` consumes them: the ring from
/// `start`, wrapping once (see the module docs). Each item is a chunk's
/// bit and the positions of it to probe; the chunk holding `start` comes
/// first from `start` on and, when it holds positions before `start`,
/// again last with those. `word(i)` reads occupancy bits `64 * i ..`; a
/// word is read again for every set bit found in it, so bits set or
/// cleared during the walk count from then on.
struct OccupiedChunks<F> {
    word: F,
    n: usize,
    start: usize,
    start_bit: usize,
    /// Next bit to look at, and the end of the current sweep: first
    /// `start_bit` up to the bits in use, then, once `wrapped`,
    /// `0..start_bit`.
    next: usize,
    end: usize,
    wrapped: bool,
    /// The start chunk's positions before `start` have been offered.
    done: bool,
}

impl<F: Fn(usize) -> u64> OccupiedChunks<F> {
    fn new(word: F, n: usize, start: usize) -> Self {
        let start_bit = occupancy_bit(start, n);
        OccupiedChunks {
            word,
            n,
            start,
            start_bit,
            next: start_bit,
            end: n.min(OCCUPANCY_BITS),
            wrapped: false,
            done: false,
        }
    }

    /// The first set bit in `self.next..self.end`.
    fn next_set(&mut self) -> Option<usize> {
        while self.next < self.end {
            let index = self.next / 64;
            let bits = (self.word)(index) & (!0u64 << (self.next % 64));
            if bits == 0 {
                self.next = (index + 1) * 64;
                continue;
            }
            let bit = index * 64 + bits.trailing_zeros() as usize;
            if bit >= self.end {
                break;
            }
            self.next = bit + 1;
            return Some(bit);
        }
        self.next = self.end;
        None
    }
}

impl<F: Fn(usize) -> u64> Iterator for OccupiedChunks<F> {
    type Item = (usize, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(bit) = self.next_set() {
            let mut positions = chunk(bit, self.n);
            if bit == self.start_bit {
                positions.start = self.start;
            }
            return Some((bit, positions));
        }
        if !self.wrapped {
            self.wrapped = true;
            (self.next, self.end) = (0, self.start_bit);
            return self.next();
        }
        if self.done {
            return None;
        }
        self.done = true;
        // The start chunk's positions before `start`, last.
        let before = chunk(self.start_bit, self.n).start..self.start;
        let set = (self.word)(self.start_bit / 64) & (1 << (self.start_bit % 64)) != 0;
        (set && !before.is_empty()).then_some((self.start_bit, before))
    }
}

/// Buffer `dest` of a scatter set, which an emptied set grows back to the
/// `degree` destinations of the batch filling it.
fn scatter_buffer<T>(set: &mut Vec<Vec<T>>, dest: usize, degree: usize) -> &mut Vec<T> {
    if set.len() <= dest {
        set.resize_with(degree, Vec::new);
    }
    &mut set[dest]
}

/// Appends `item` to a scatter buffer, reserving one batch on its first
/// push, and says whether the buffer reached `cache_size` and must flush.
#[inline]
fn buffer_push<T>(buffer: &mut Vec<T>, item: T, cache_size: usize) -> bool {
    if buffer.capacity() == 0 {
        buffer.reserve_exact(cache_size.min(MAX_RESERVED_BATCH));
    }
    buffer.push(item);
    buffer.len() >= cache_size
}

/// Processes the batch of activations of `op` popped into `frame`,
/// scattering the produced rows to the consumer's queues through `frame`'s
/// scatter sets and recording metrics. `main` says whether the batch came
/// from one of the worker's main queues.
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
/// A transmit builds no output batch at all: it scatters the *position* of
/// each row it covers straight from its fragment into per-destination
/// buffers of positions, flushed at `CacheSize` as batches tagged with the
/// fragment, whichever the router (see [`crate::activation`]). An empty
/// buffer of positions is filled from the worker's stash before a push
/// would reserve one, and a consumed batch of positions goes back to this
/// worker's stash once its operator has read it.
///
/// The caller holds a claim on the operation, so the producer-side
/// scatter buffers live entirely within this call — nothing can be stranded
/// when the operation is later declared finished. The frame is emptied
/// (also on an early exit), so no activation or row outlives its batch;
/// only the frame's capacity does.
fn process_batch(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    op_index: usize,
    queue_index: usize,
    main: bool,
    frame: &mut Frame,
    ctx: &mut WorkerCtx,
) {
    let op = &query.ops[op_index];
    let started = Instant::now();
    let consumer_degree = op
        .consumer
        .as_ref()
        .map(|link| query.ops[link.consumer_index].queues.len())
        .unwrap_or(0);
    let transmit = match &op.operator {
        BoundOperator::Transmit(transmit) => Some(transmit),
        _ => None,
    };
    let Frame {
        popped,
        tuples,
        positions,
    } = frame;
    // A transmit's destination for a row, and the fragment its batches of
    // positions name: the transmit instance's own.
    let route = |tuple: &Tuple| match op.consumer.as_ref().map(|link| &link.router) {
        Some(Router::HashColumn { column, degree }) => {
            (tuple.hash_key(&[*column]) % *degree as u64) as usize
        }
        _ => queue_index % consumer_degree.max(1),
    };
    let source = queue_index as u32;
    let mut flushes = 0u64;
    let mut logical = 0u64;
    let mut tuples_out = 0u64;
    // Wall time spent helping congested downstream operations; that time is
    // recorded against *their* metrics slots by the nested process_batch,
    // so it is subtracted from this operation's busy time below.
    let mut helped = Duration::ZERO;

    for activation in popped.drain(..) {
        // A cancelled query's remaining work is dropped; on shutdown the
        // query will be failed by the runtime's Drop anyway.
        if query.cancelled.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Metrics stay in the paper's per-tuple model: a data activation
        // counts one logical activation per batched tuple.
        logical += activation.logical_len() as u64;
        if let Some(transmit) = transmit {
            let rows = transmit.scatter(queue_index, &activation, route, |dest, position| {
                let Some(link) = &op.consumer else { return };
                let buffer = scatter_buffer(positions, dest, consumer_degree);
                if buffer.capacity() == 0 {
                    *buffer = ctx.take_position_buffer(inner, op.cache_size);
                }
                if buffer_push(buffer, position, op.cache_size) {
                    let batch = TupleBatch::from_positions(source, mem::take(buffer));
                    flush_to(
                        inner,
                        query,
                        link.consumer_index,
                        dest,
                        batch,
                        ctx,
                        &mut helped,
                    );
                    flushes += 1;
                }
            });
            tuples_out += rows as u64;
            continue;
        }
        let out = op.operator.process(queue_index, &activation);
        // Positions are only read, so their buffer stays on this worker for
        // the next batch a transmit fills here.
        if let Some(rows) = activation.into_batch().and_then(TupleBatch::into_positions) {
            ctx.stash_position_buffer(inner, rows);
        }
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
                        ctx,
                        &mut helped,
                    );
                    flushes += 1;
                }
            }
            Router::HashColumn { column, degree } => {
                for tuple in out {
                    let dest = (tuple.hash_key(&[*column]) % *degree as u64) as usize;
                    let buffer = scatter_buffer(tuples, dest, *degree);
                    if buffer_push(buffer, tuple, op.cache_size) {
                        let batch = TupleBatch::new(mem::take(buffer));
                        flush_to(
                            inner,
                            query,
                            link.consumer_index,
                            dest,
                            batch,
                            ctx,
                            &mut helped,
                        );
                        flushes += 1;
                    }
                }
            }
        }
    }
    if let Some(link) = &op.consumer {
        // At most one of the two sets holds buffers; both are left empty.
        let rows = tuples.drain(..).map(TupleBatch::new);
        let at = positions
            .drain(..)
            .map(|rows| TupleBatch::from_positions(source, rows));
        for (dest, batch) in rows.enumerate().chain(at.enumerate()) {
            if !batch.is_empty() {
                flush_to(
                    inner,
                    query,
                    link.consumer_index,
                    dest,
                    batch,
                    ctx,
                    &mut helped,
                );
                flushes += 1;
            }
        }
    }

    // Merge this batch's contribution into the worker's metrics slot. Time
    // spent helping a congested downstream operation is charged to that
    // operation (by its own nested process_batch) and subtracted here, so
    // summed busy time never exceeds wall-clock × workers.
    let mut slot = query.metrics[op_index][ctx.id]
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    slot.thread = ctx.id;
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
fn flush_to(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    consumer_index: usize,
    dest: usize,
    batch: TupleBatch,
    ctx: &mut WorkerCtx,
    helped: &mut Duration,
) {
    let consumer = &query.ops[consumer_index];
    let mut activation = Activation::Data(batch);
    let weight = activation.queue_weight() as u64;
    loop {
        if query.cancelled.load(Ordering::Relaxed) || inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // The pending weight goes up before the push, so it never falls
        // below what the queues hold; a refused push gives it back. The
        // queue's occupancy bit is marked after the push and before the
        // announcement that sends a worker looking for it.
        consumer.state.apply(Event::Reserve(weight));
        let refused = match consumer.queues[dest].try_push(activation) {
            Ok(()) => {
                consumer.state.mark(consumer.bit_of(dest));
                announce_op(inner, query, consumer_index);
                return;
            }
            Err(refused) => refused,
        };
        if consumer.state.apply(Event::Unreserve(weight)).1 == Effect::Finished {
            finish_op(inner, query, consumer_index);
        }
        match refused {
            TryPushError::Closed(_) => return,
            TryPushError::Full(back) => {
                activation = back;
                let help_started = Instant::now();
                help_drain(inner, query, consumer_index, dest, ctx);
                *helped += help_started.elapsed();
            }
        }
    }
}

/// Pops one batch from the congested consumer queue and processes it on
/// behalf of the consumer operation (cooperative backpressure). Recursion
/// through [`process_batch`] is bounded by the pipeline depth. The batch
/// counts as secondary consumption: the worker did not pick the queue. The
/// batch is popped into the worker's frame for the next depth, so a warm
/// worker's help allocates nothing: a fresh buffer per help made the
/// allocation count of a query depend on how often its producers found a
/// queue full.
fn help_drain(
    inner: &Arc<RuntimeInner>,
    query: &Arc<QueryState>,
    consumer_index: usize,
    dest: usize,
    ctx: &mut WorkerCtx,
) {
    let consumer = &query.ops[consumer_index];
    if consumer.state.apply(Event::Begin).1 != Effect::Claimed {
        // Another worker drained it first; capacity will free up shortly.
        std::thread::yield_now();
        return;
    }
    let mut frame = ctx.frames.pop().unwrap_or_default();
    let queue = &consumer.queues[dest];
    let weight = queue.try_pop_into(consumer.cache_size, &mut frame.popped);
    if queue.is_empty() {
        consumer.settle(consumer.bit_of(dest));
    }
    if weight == 0 {
        std::thread::yield_now();
    } else {
        consumer.state.apply(Event::Popped(weight as u64));
        process_batch(inner, query, consumer_index, dest, false, &mut frame, ctx);
    }
    ctx.frames.push(frame);
    if consumer.state.apply(Event::End).1 == Effect::Finished {
        finish_op(inner, query, consumer_index);
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
    // The query's ready entries would only be retired: dropping them now
    // leaves the workers' own references the last ones to go, and no
    // worker puts one back (see `RuntimeInner::push_ready`).
    inner
        .ready
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|(entry, _)| !Arc::ptr_eq(entry, query));
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

    /// The consumption order of the ring: every position from the first
    /// entry of `worker`'s [`main_slice`], wrapping once, each with whether
    /// it is a main queue. The oracle of [`OccupiedChunks`].
    fn ring_scan(
        worker: usize,
        pool_threads: usize,
        n: usize,
    ) -> impl Iterator<Item = (usize, bool)> {
        let main = main_slice(worker, pool_threads, n);
        (main.start..n)
            .chain(0..main.start)
            .map(move |position| (position, main.contains(&position)))
    }

    #[test]
    fn main_slices_partition_the_ring_and_each_scan_starts_at_its_own() {
        // splitmix64: a seeded occupancy per case.
        let mut seed = 1u64;
        let mut random = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for pool in [1usize, 2, 3, 4, 7] {
            // Fewer queues than workers, as many, and more; and fewer
            // queues than occupancy bits, as many, and more.
            for n in [
                0,
                1,
                pool / 2,
                pool,
                pool + 1,
                3 * pool + 2,
                200,
                511,
                512,
                513,
                1500,
            ] {
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

                // The chunks partition the ring in bit order, each position
                // in the chunk of its own bit, one position per bit up to
                // OCCUPANCY_BITS queues.
                let bits = n.min(OCCUPANCY_BITS);
                let chunks: Vec<Range<usize>> = (0..bits).map(|b| chunk(b, n)).collect();
                assert_eq!(chunks.first().map_or(0, |c| c.start), 0);
                assert_eq!(chunks.last().map_or(0, |c| c.end), n);
                for pair in chunks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "n {n}");
                }
                for (b, c) in chunks.iter().enumerate() {
                    assert!(!c.is_empty(), "n {n}, bit {b}");
                    assert!(n > OCCUPANCY_BITS || c.len() == 1, "n {n}, bit {b}");
                    assert!(
                        c.clone().all(|p| occupancy_bit(p, n) == b),
                        "n {n}, bit {b}"
                    );
                }

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

                // The walk over the set bits visits exactly the scan's
                // positions whose chunk is occupied, in the scan's order,
                // from empty through sparse to full occupancy.
                for density in [0, 1, 8, 64] {
                    let mut words = [0u64; OCCUPANCY_BITS / 64];
                    for position in 0..n {
                        if random() % 64 < density {
                            let bit = occupancy_bit(position, n);
                            words[bit / 64] |= 1 << (bit % 64);
                        }
                    }
                    let occupied = |p: usize| {
                        words[occupancy_bit(p, n) / 64] >> (occupancy_bit(p, n) % 64) & 1 == 1
                    };
                    for (w, slice) in slices.iter().enumerate() {
                        let walk: Vec<(usize, bool)> =
                            OccupiedChunks::new(|i| words[i], n, slice.start)
                                .flat_map(|(bit, positions)| {
                                    assert!(positions.clone().all(|p| occupancy_bit(p, n) == bit));
                                    positions.map(|p| (p, slice.contains(&p)))
                                })
                                .collect();
                        let expected: Vec<(usize, bool)> = ring_scan(w, pool, n)
                            .filter(|(p, _)| occupied(*p))
                            .collect();
                        assert_eq!(
                            walk, expected,
                            "pool {pool}, n {n}, w {w}, density {density}"
                        );
                    }
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

    /// Submits `plan` with a `threads`-wide schedule and waits for it.
    fn cardinality(runtime: &Runtime, cat: &Catalog, plan: &Plan, threads: usize) -> usize {
        let schedule = schedule_for(plan, cat, threads);
        let outcome = runtime.submit(cat, plan, &schedule).unwrap().wait();
        outcome.unwrap().cardinalities["Result"]
    }

    /// One runtime re-arms the queue sets and re-fills the buffers of
    /// positions that earlier queries left, whatever their shape and however
    /// they ended, and every query still counts what a fresh runtime counts.
    /// (A query whose worker panics is the same case in
    /// `tests/faults.rs`, where fault plans may be installed.)
    #[test]
    fn recycled_queue_sets_and_position_buffers_answer_like_fresh_ones() {
        let (wide, _, _) = build_catalog(4_000, 1_000, 20);
        let (narrow, _, _) = build_catalog(2_000, 400, 7);
        let (slow, _, _) = build_catalog(20_000, 2_000, 10);
        let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let filter_join = plans::filter_join(
            "A",
            dbs3_lera::Predicate::range("unique1", 0, 1_000),
            "Bprime",
            "unique1",
            JoinAlgorithm::Hash,
        );
        let nested = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let fresh =
            |cat: &Catalog, plan: &Plan| cardinality(&Runtime::new(3).unwrap(), cat, plan, 3);
        let expected = [
            fresh(&wide, &assoc),
            fresh(&narrow, &ideal),
            fresh(&wide, &filter_join),
        ];
        assert!(expected.iter().all(|&c| c > 0), "{expected:?}");

        let runtime = Runtime::new(3).unwrap();
        assert_eq!(cardinality(&runtime, &wide, &assoc, 3), expected[0]);
        assert_eq!(cardinality(&runtime, &narrow, &ideal, 3), expected[1]);
        assert_eq!(cardinality(&runtime, &wide, &filter_join, 3), expected[2]);

        // Cancelled once a worker has taken up a batch.
        let schedule = schedule_for(&nested, &slow, 3);
        let handle = runtime.submit(&slow, &nested, &schedule).unwrap();
        while handle.query.upgrade().is_some_and(|query| {
            query.progress.load(Ordering::SeqCst) == 0
                && query.ops_remaining.load(Ordering::SeqCst) > 0
        }) {
            std::thread::yield_now();
        }
        handle.cancel();
        assert!(matches!(
            handle.wait(),
            Err(EngineError::QueryCancelled { .. }) | Ok(_)
        ));

        // Every set those queries left is re-armed by the next ones, and
        // a re-armed queue starts, and so ends, holding nothing.
        for _ in 0..3 {
            assert_eq!(cardinality(&runtime, &wide, &assoc, 3), expected[0]);
            assert_eq!(cardinality(&runtime, &narrow, &ideal, 3), expected[1]);
            let spares = runtime.spare_counts();
            assert!(spares.sets > 0 && spares.queues > 0, "{spares:?}");
            assert_eq!(spares.weight, 0, "{spares:?}");
        }
    }

    /// Queries far wider than the bounds, then narrower ones that re-arm
    /// their sets, leave the runtime holding no more than its constants
    /// allow, and the memory they allow is what the [`Runtime`] docs state.
    /// A set re-armed for a narrower operation keeps its vector's room, so
    /// that room is what counts: a set of 2 000 queues truncated to 10 and
    /// taken back counted as 10 would let the later queries at degree
    /// 1 000 leave room for 5 000 queues.
    #[test]
    fn spare_memory_stays_within_its_constant_bounds() {
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let runtime = Runtime::new(2).unwrap();
        let held_bytes = |spares: &SpareCounts| {
            spares.queues * mem::size_of::<ActivationQueue>()
                + spares.slots * mem::size_of::<Activation>()
                + spares.sets * mem::size_of::<SpareSet>()
        };
        for (degree, queries) in [(2_000, 2), (10, 1), (1_000, 2), (10, 2)] {
            let (cat, _, b_ref) = build_catalog(8_000, 8_000, degree);
            for _ in 0..queries {
                assert_eq!(cardinality(&runtime, &cat, &plan, 2), b_ref.cardinality());
            }
            let spares = runtime.spare_counts();
            assert!(spares.sets >= 1, "degree {degree}: a set fits the bounds");
            assert!(spares.sets <= SPARE_SETS, "degree {degree}: {spares:?}");
            assert!(spares.queues <= SPARE_QUEUES, "degree {degree}: {spares:?}");
            assert!(spares.slots <= SPARE_SLOTS, "degree {degree}: {spares:?}");
            assert!(spares.depot <= DEPOT_BUFFERS, "degree {degree}: {spares:?}");
            assert!(
                spares.depot_positions <= DEPOT_BUFFERS * MAX_RESERVED_BATCH,
                "degree {degree}: {spares:?}"
            );
            assert!(
                held_bytes(&spares) <= 2_458_112,
                "degree {degree}: {spares:?} hold {} bytes",
                held_bytes(&spares)
            );
        }

        let queue_bytes = SPARE_QUEUES * mem::size_of::<ActivationQueue>()
            + SPARE_SLOTS * mem::size_of::<Activation>()
            + SPARE_SETS * mem::size_of::<SpareSet>();
        let position_bytes = DEPOT_BUFFERS * MAX_RESERVED_BATCH * mem::size_of::<u32>();
        let stash_bytes = STASH_BUFFERS * MAX_RESERVED_BATCH * mem::size_of::<u32>();
        assert_eq!(
            (queue_bytes, position_bytes, stash_bytes),
            (2_458_112, 4 << 20, 256 << 10),
            "the bounds the Runtime docs state"
        );
    }

    #[test]
    fn zero_watchdog_interval_is_rejected() {
        assert!(matches!(
            Runtime::with_watchdog(2, Duration::ZERO),
            Err(EngineError::InvalidOptions(_))
        ));
    }
}
