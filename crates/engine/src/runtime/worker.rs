//! One pool worker: what it owns, how it finds work, and which queue of
//! an operation it pops.
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
//!   in a buffer the worker owns, and a buffer of tuples is allocated once,
//!   exactly one batch wide, and leaves as that batch. A batch of positions
//!   has no buffer: it is a slice of its fragment's route table;
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

use super::route::process_batch;
use super::{abort_query, finish_op, OpRuntime, QueryState, RuntimeInner};
use crate::activation::Activation;
use crate::error::EngineError;
use crate::faults::{self, FaultAction, FaultPoint};
use crate::op_state::{Effect, Event, OCCUPANCY_BITS};
use dbs3_storage::Tuple;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// What one pool worker owns: its index, which fixes its slice of every
/// operation's queue ring, and one [`Frame`] per help-nesting depth.
///
/// All of it lives here and not in thread-local pools on purpose: a
/// thread-local taken and returned around every queue probe made a scan
/// over hundreds of mostly-empty queues pay two TLS round trips per probe
/// instead of one atomic load, and cost 10–17 % more CPU per query at
/// identical allocation counts (measured on `local_assoc_pipeline` and
/// `local_ideal_skew`). Owned by the worker and passed down its call path,
/// a buffer is touched only by the batch that uses it.
#[derive(Default)]
pub(super) struct WorkerCtx {
    pub(super) id: usize,
    /// Frames not in use. A caller pops the top one for its depth (a fresh
    /// one when there is none) and pushes it back when done; calls nest, so
    /// the top is always the frame its depth had last time, and the stack
    /// is as deep as the deepest help.
    pub(super) frames: Vec<Frame>,
}

/// The buffers one batch works in: the activations popped for it and the
/// producer-side scatter set, one buffer of tuples per destination. All
/// are empty between batches and only their capacity carries over. A
/// filled scatter buffer leaves with its flush (it *becomes* the transport
/// batch, taken with no capacity left behind), so only the set's outer
/// vector stays warm: the first push into a buffer reserves exactly one
/// batch, the one allocation a scattered tuple's hop makes.
#[derive(Default)]
pub(super) struct Frame {
    /// What a pop landed in; [`process_batch`] drains it.
    pub(super) popped: Vec<Activation>,
    /// A hash-routed producer's buffers of tuples.
    pub(super) tuples: Vec<Vec<Tuple>>,
}

/// The body of one pool worker: pop the front ready-deque entry, re-push
/// it at the tail, process one batch. Work finding is O(1) in live
/// queries and operations, and the idle path allocates nothing. The
/// re-push *before* processing keeps the op discoverable while this batch
/// runs, so sibling workers converge on the same operation (morsel
/// parallelism) and entries rotate FIFO across every ready op of every
/// query (cross-query fairness).
pub(super) fn worker_loop(inner: &Arc<RuntimeInner>, worker: usize) {
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
                let mut slot = query.metrics[op_index * inner.pool_threads + ctx.id]
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
pub(super) fn occupancy_bit(position: usize, n: usize) -> usize {
    position * OCCUPANCY_BITS / n.max(OCCUPANCY_BITS)
}

/// The ring positions whose [`occupancy_bit`] is `bit`: contiguous, one
/// position up to [`OCCUPANCY_BITS`] queues and at least one above.
pub(super) fn chunk(bit: usize, n: usize) -> Range<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op_state::{OpState, OpWord};
    use crate::operators::{BoundOperator, StoreOperator};
    use crate::queue::ActivationQueue;
    use dbs3_lera::NodeId;

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

    /// Two queues behind one occupancy bit each hold an activation. The pop
    /// that empties the first settles the bit, and the settle must leave it
    /// set for the second: at 1 024 queues a bit covers two ring positions,
    /// so a settle that clears the bit without re-reading the chunk, or
    /// never sets it again, hides the second queue from every later walk.
    #[test]
    fn a_settled_chunk_keeps_its_bit_while_another_of_its_queues_holds_work() {
        let n = 1024;
        let mut ring: Vec<u32> = (0..n as u32).collect();
        ring.extend(0..n as u32);
        let op = OpRuntime {
            node: NodeId(0),
            name: "store".to_string(),
            operator: BoundOperator::Store(StoreOperator::counting("R", n)),
            queues: (0..n).map(|i| ActivationQueue::new(i, 4, 1.0)).collect(),
            cache_size: 1,
            consumer: None,
            ring,
            state: OpWord::new(OpState::default()),
        };
        assert_eq!(chunk(0, n), 0..2);
        for queue in chunk(0, n) {
            op.queues[queue].push(Activation::Trigger);
            op.state.mark(op.bit_of(queue));
        }
        let main = main_slice(0, 1, n);
        let mut popped = Vec::new();
        let mut pop = || select_and_pop(&op, main.clone(), &mut popped).map(|(queue, ..)| queue);
        assert_eq!(pop(), Some(0));
        assert_eq!(
            pop(),
            Some(1),
            "the chunk's bit was lost with work behind it"
        );
        assert_eq!(pop(), None);
    }
}
