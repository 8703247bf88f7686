//! Activation queues.
//!
//! "To manage activations, a FIFO queue is associated to each operation
//! instance." (Section 2). Figure 4's queue is a bounded buffer with a
//! `NotEmpty` and a `NotFull` condition, because DBS3 threads block on
//! their own queues. Here no thread ever does: a worker that finds no work
//! parks on the pool's one `IdleParking` condvar, and a worker facing a full
//! queue helps drain it (see [`crate::runtime`]). So the queue is a
//! non-blocking bounded buffer behind a mutex, with no condition at all.
//!
//! Two kinds of queues exist:
//! * a **triggered** queue receives exactly one control activation;
//! * a **pipelined** queue receives data activations, each carrying a batch
//!   of pipelined tuples (see [`crate::activation`] for the transport-batch
//!   vs logical-activation distinction).
//!
//! All accounting — the capacity bound and `len` — is in **queue weight**
//! ([`Activation::queue_weight`]: one unit per tuple, one per control
//! activation — morsels included, even the logically weightless non-lead
//! ones), so the backpressure a query feels is independent of the batch
//! granularity while split fragments stay visible to the scheduler morsel by
//! morsel.
//! Pushes admit a batch whenever the buffered weight is *below* the
//! capacity, and the whole batch then lands (the overfill rule that keeps
//! oversized batches deadlock-free) — so `queue_capacity` bounds when
//! producers are refused, while the instantaneous buffered length can
//! exceed it by up to one batch. For hash-redistributing hops batches are
//! at most `CacheSize` tuples; co-located hops ship an operator's whole
//! output vector as one batch, so their overshoot is bounded by the largest
//! single output instead. One push/pop of a batch costs one lock
//! acquisition, which is where batching removes the paper's queue
//! interference.
//!
//! The queue also records whether it is *closed* (its producers have
//! terminated): a consumer popping from an empty closed queue knows the
//! operation instance has no further work.
//!
//! # Lock-free observation fast path
//!
//! The shared-pool runtime looks at queues far more often than it moves
//! data through them. Its workers probe only the queues their operation's
//! occupancy bits point at, but a bit can be stale: a pop may find the
//! queue empty. And whoever clears a bit re-reads the lengths of the queues
//! behind it before leaving it clear. Taking the buffer mutex just to
//! *look* would make those reads contend with the producers and consumers
//! actually moving tuples. The queue therefore mirrors its buffered weight
//! in an atomic, updated inside the critical section of every mutation:
//! `len()` and `is_empty()` are single atomic loads, and an empty-queue pop
//! ([`ActivationQueue::try_pop_into`] or its allocating wrapper
//! [`ActivationQueue::try_pop_batch`]) returns without touching the mutex
//! at all. The mirror is `SeqCst`, like the occupancy bits, so a re-read
//! that follows a clear sees every push that came before it. The mutex
//! remains the sole guard of buffer *mutation*; the mirror is
//! observational. Termination does not read the queues: it
//! counts their weight in the operation's state word
//! ([`crate::runtime`]), so `is_closed()` and `is_exhausted()`, which only
//! tests call, read the closed flag under the mutex.

use crate::activation::Activation;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Why [`ActivationQueue::try_push`] refused an activation. The activation is
/// handed back so the caller can retry (after making room) or drop it.
#[derive(Debug)]
pub enum TryPushError {
    /// The queue is at capacity. The queue cannot wait for room: the
    /// shared-pool runtime reacts by *helping to drain* the full queue,
    /// which is what keeps one pool deadlock-free.
    Full(Activation),
    /// The queue is closed (its query was cancelled or its consumers are
    /// done); the activation has nowhere to go.
    Closed(Activation),
}

#[derive(Debug)]
struct QueueState {
    buffer: VecDeque<Activation>,
    /// Queue weight currently buffered (sum of `queue_weight`).
    weight: usize,
    closed: bool,
}

/// A bounded FIFO activation queue (one per operation instance).
#[derive(Debug)]
pub struct ActivationQueue {
    /// Instance this queue belongs to (fragment id).
    instance: usize,
    /// Buffered queue weight at which pushes are refused. A single batch
    /// larger than the capacity is still accepted while the queue is below
    /// the bound (the queue briefly overfills rather than deadlocking).
    capacity: usize,
    /// Static cost estimate of the work behind this queue; it orders the
    /// workers' ring of queues.
    estimated_cost: f64,
    state: Mutex<QueueState>,
    // ordering(atomic_len): SeqCst — every write happens inside the buffer
    // mutex, the loads are lock-free observers; it shares one total order
    // with the runtime's occupancy bits, so the re-read after a bit's clear
    // sees every push made before it.
    /// Atomic mirror of `QueueState::weight`, written inside the critical
    /// section of every mutation so observers never lock.
    atomic_len: AtomicUsize,
}

impl ActivationQueue {
    /// Creates a queue for `instance` with the given capacity and static
    /// cost estimate.
    pub fn new(instance: usize, capacity: usize, estimated_cost: f64) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        ActivationQueue {
            instance,
            capacity,
            estimated_cost,
            state: Mutex::new(QueueState {
                // Grown on demand: a triggered queue holds a few control
                // activations and a store queue a handful of batches, and a
                // query builds hundreds of queues.
                buffer: VecDeque::new(),
                weight: 0,
                closed: false,
            }),
            atomic_len: AtomicUsize::new(0),
        }
    }

    /// The instance (fragment) this queue belongs to.
    pub fn instance(&self) -> usize {
        self.instance
    }

    /// The static cost estimate that orders the workers' ring of queues.
    pub fn estimated_cost(&self) -> f64 {
        self.estimated_cost
    }

    /// Queue capacity in queue weight (see [`Activation::queue_weight`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one activation (a control activation or a whole tuple batch)
    /// for a producer that knows the queue has room, such as submit filling
    /// a fresh queue that no worker can see yet.
    ///
    /// Pushing to a closed queue is a logic error in the engine (producers
    /// close queues only after they have all finished producing) and panics;
    /// pushing into a queue already at capacity is a caller bug too (checked
    /// in debug builds). Empty data batches are ignored: they carry no work.
    pub fn push(&self, activation: Activation) {
        self.push_batch([activation]);
    }

    /// Attempts to push one activation, the way every worker pushes.
    ///
    /// The overfill rule: the activation is accepted whenever the buffered
    /// weight is below the capacity, even if the batch itself overshoots the
    /// bound. On refusal the activation is handed back in the
    /// [`TryPushError`] so no tuple is ever lost. Empty data batches are
    /// accepted and dropped (no work).
    pub fn try_push(&self, activation: Activation) -> std::result::Result<(), TryPushError> {
        match crate::faults::hit(crate::faults::FaultPoint::QueuePush) {
            Some(crate::faults::FaultAction::Delay(d)) => std::thread::sleep(d),
            #[expect(
                clippy::panic,
                reason = "error and drop escalate to a panic on purpose: silently losing an \
                          activation would corrupt results, while the worker's catch_unwind \
                          contains the panic into a typed WorkerPanicked"
            )]
            Some(_) => panic!("injected fault at {}", crate::faults::FaultPoint::QueuePush),
            None => {}
        }
        let weight = activation.queue_weight();
        if weight == 0 {
            return Ok(());
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err(TryPushError::Closed(activation));
        }
        if state.weight >= self.capacity {
            return Err(TryPushError::Full(activation));
        }
        state.buffer.push_back(activation);
        state.weight += weight;
        self.atomic_len.store(state.weight, Ordering::SeqCst);
        Ok(())
    }

    /// Appends several activations under one lock acquisition, all of them
    /// even past the capacity. Same contract as [`ActivationQueue::push`].
    pub fn push_batch(&self, batch: impl IntoIterator<Item = Activation>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!state.closed, "push into a closed activation queue");
        debug_assert!(
            state.weight < self.capacity,
            "push into a full activation queue"
        );
        for a in batch {
            let weight = a.queue_weight();
            if weight > 0 {
                state.buffer.push_back(a);
                state.weight += weight;
            }
        }
        self.atomic_len.store(state.weight, Ordering::SeqCst);
    }

    /// Attempts to pop activations worth up to `max_weight` queue weight
    /// without blocking. At least one activation is returned when the queue
    /// is non-empty, even if its batch alone exceeds the budget; popping
    /// whole activations keeps batches intact.
    ///
    /// A popped *control* activation (trigger or morsel) ends the pop: a
    /// control activation stands for a fragment-sized (or morsel-sized)
    /// scan, so claiming several under one pop would serialise work the
    /// morsel split exists to spread across workers.
    ///
    /// Returns an empty vector when the queue is currently empty (whether or
    /// not it is closed); use [`ActivationQueue::is_exhausted`] to tell the
    /// difference. Allocates the returned vector on every successful pop;
    /// hot loops use [`ActivationQueue::try_pop_into`] instead.
    pub fn try_pop_batch(&self, max_weight: usize) -> Vec<Activation> {
        let mut out = Vec::new();
        self.try_pop_into(max_weight, &mut out);
        out
    }

    /// [`ActivationQueue::try_pop_batch`] into a buffer the caller owns:
    /// popped activations are *appended* to `out` (whatever it already
    /// holds stays in front), and the queue weight popped is returned —
    /// `0` exactly when nothing was popped. Same budget, control-stop and
    /// at-least-one rules; the budget counts only this pop's activations.
    ///
    /// A worker that keeps one `out` for its lifetime pays no allocation
    /// per pop once the buffer has grown to its largest batch. The
    /// empty-queue fast path is still a single atomic load and leaves `out`
    /// untouched.
    pub fn try_pop_into(&self, max_weight: usize, out: &mut Vec<Activation>) -> usize {
        // Lock-free fast path: a queue that currently looks empty yields
        // nothing — identical to arriving at the mutex a moment earlier.
        // This keeps the runtime's speculative probes off the mutex
        // entirely.
        if self.atomic_len.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut popped = 0usize;
        while let Some(front) = state.buffer.front() {
            let weight = front.queue_weight();
            if popped > 0 && popped + weight > max_weight {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "the `while let Some(front)` above proved non-emptiness under the same \
                          lock"
            )]
            let a = state.buffer.pop_front().expect("front exists");
            state.weight -= weight;
            popped += weight;
            let control = a.is_control();
            out.push(a);
            if control || popped >= max_weight {
                break;
            }
        }
        self.atomic_len.store(state.weight, Ordering::SeqCst);
        popped
    }

    /// Marks the queue closed: no further activations will be pushed.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
    }

    /// Whether the queue is closed (producers finished).
    pub fn is_closed(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed
    }

    /// Whether the queue currently holds no activations. Lock-free.
    pub fn is_empty(&self) -> bool {
        self.atomic_len.load(Ordering::SeqCst) == 0
    }

    /// Buffered queue weight (tuples + control activations). Lock-free.
    pub fn len(&self) -> usize {
        self.atomic_len.load(Ordering::SeqCst)
    }

    /// Whether the queue is closed *and* drained: no work will ever come out
    /// of it again.
    pub fn is_exhausted(&self) -> bool {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed && state.weight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::TupleBatch;
    use dbs3_storage::tuple::int_tuple;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order() {
        let q = ActivationQueue::new(0, 16, 0.0);
        q.push(Activation::single(int_tuple(&[1])));
        q.push(Activation::single(int_tuple(&[2])));
        q.push(Activation::single(int_tuple(&[3])));
        let batch = q.try_pop_batch(10);
        let vals: Vec<i64> = batch
            .iter()
            .flat_map(|a| a.batch().unwrap().iter())
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn try_pop_respects_logical_budget() {
        let q = ActivationQueue::new(0, 16, 0.0);
        for i in 0..10 {
            q.push(Activation::single(int_tuple(&[i])));
        }
        assert_eq!(q.try_pop_batch(3).len(), 3);
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn batched_activations_count_logically() {
        let q = ActivationQueue::new(0, 64, 0.0);
        q.push(Activation::Data(TupleBatch::from(vec![
            int_tuple(&[1]),
            int_tuple(&[2]),
            int_tuple(&[3]),
        ])));
        q.push(Activation::single(int_tuple(&[4])));
        assert_eq!(q.len(), 4, "logical length counts batched tuples");
        // A budget of 1 still pops the whole first batch (batches stay
        // intact), but stops before the second activation.
        let popped = q.try_pop_batch(1);
        assert_eq!(popped.len(), 1);
        assert_eq!(popped[0].logical_len(), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn control_activations_end_a_pop() {
        let q = ActivationQueue::new(0, 64, 0.0);
        q.push(Activation::Trigger);
        q.push(Activation::Morsel {
            start: 0,
            end: 10,
            lead: false,
        });
        q.push(Activation::Data(TupleBatch::from(vec![
            int_tuple(&[1]),
            int_tuple(&[2]),
        ])));
        q.push(Activation::Morsel {
            start: 10,
            end: 20,
            lead: true,
        });
        assert_eq!(q.len(), 5, "every control activation weighs one unit");
        // A huge budget still claims control activations one at a time, so
        // sibling workers can pick up the remaining morsels concurrently.
        let popped = q.try_pop_batch(usize::MAX);
        assert_eq!(popped.len(), 1);
        assert!(popped[0].is_trigger());
        let popped = q.try_pop_batch(usize::MAX);
        assert_eq!(popped.len(), 1);
        assert!(popped[0].is_control());
        // Data batches still coalesce, stopping at the next control.
        let popped = q.try_pop_batch(usize::MAX);
        assert_eq!(popped.len(), 2);
        assert!(!popped[0].is_control());
        assert!(popped[1].is_control());
    }

    #[test]
    fn try_pop_into_appends_and_returns_the_weight() {
        let q = ActivationQueue::new(0, 64, 0.0);
        q.push(Activation::Data(TupleBatch::from(vec![
            int_tuple(&[1]),
            int_tuple(&[2]),
        ])));
        q.push(Activation::single(int_tuple(&[3])));
        let mut out = vec![Activation::Trigger];
        assert_eq!(q.try_pop_into(usize::MAX, &mut out), 3);
        assert_eq!(out.len(), 3, "appended behind what the buffer held");
        assert!(out[0].is_trigger());
        assert_eq!(out[1].logical_len(), 2);
        assert_eq!(out[2].logical_len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn try_pop_into_stops_after_a_control_activation() {
        let q = ActivationQueue::new(0, 64, 0.0);
        q.push(Activation::single(int_tuple(&[1])));
        q.push(Activation::Morsel {
            start: 0,
            end: 4,
            lead: true,
        });
        q.push(Activation::single(int_tuple(&[2])));
        let mut out = Vec::new();
        assert_eq!(q.try_pop_into(usize::MAX, &mut out), 2);
        assert_eq!(out.len(), 2);
        assert!(out[1].is_control());
        assert_eq!(q.len(), 1, "the data behind the morsel stays queued");
    }

    #[test]
    fn try_pop_into_takes_one_activation_over_budget() {
        let q = ActivationQueue::new(0, 64, 0.0);
        q.push(Activation::Data(TupleBatch::from(
            (0..5).map(|i| int_tuple(&[i])).collect::<Vec<_>>(),
        )));
        q.push(Activation::single(int_tuple(&[9])));
        // The budget counts this pop only, not what `out` already holds.
        let mut out = vec![Activation::single(int_tuple(&[0]))];
        assert_eq!(q.try_pop_into(2, &mut out), 5);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].logical_len(), 5);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn try_pop_into_an_empty_queue_leaves_the_buffer_untouched() {
        let q = ActivationQueue::new(0, 4, 0.0);
        let mut out = Vec::with_capacity(3);
        out.push(Activation::Trigger);
        assert_eq!(q.try_pop_into(usize::MAX, &mut out), 0);
        q.close();
        assert_eq!(q.try_pop_into(usize::MAX, &mut out), 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out.capacity(), 3);
        assert!(out[0].is_trigger());
    }

    #[test]
    fn empty_data_batches_are_dropped() {
        let q = ActivationQueue::new(0, 4, 0.0);
        q.push(Activation::Data(TupleBatch::default()));
        q.push_batch(vec![Activation::Data(TupleBatch::default())]);
        assert!(q.is_empty());
    }

    /// `push_batch` appends everything under one lock, past the capacity.
    #[test]
    fn push_batch_larger_than_capacity() {
        let q = ActivationQueue::new(0, 8, 0.0);
        q.push_batch((0..100).map(|i| Activation::single(int_tuple(&[i]))));
        assert_eq!(q.len(), 100, "the whole batch lands past the capacity");
        let popped = q.try_pop_batch(usize::MAX);
        let vals: Vec<i64> = popped
            .iter()
            .flat_map(|a| a.batch().unwrap().iter())
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, (0..100).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "closed")]
    fn push_into_a_closed_queue_panics() {
        let q = ActivationQueue::new(0, 4, 0.0);
        q.close();
        q.push(Activation::Trigger);
    }

    #[test]
    #[should_panic(expected = "closed")]
    fn push_batch_into_a_closed_queue_panics() {
        let q = ActivationQueue::new(0, 4, 0.0);
        q.close();
        q.push_batch(vec![Activation::single(int_tuple(&[1]))]);
    }

    /// The closed-queue assert fires while the state lock is held, which
    /// poisons a std mutex; the queue ignores poisoning, so every later call
    /// still answers.
    #[test]
    fn a_panic_under_the_lock_does_not_poison_the_queue() {
        let q = ActivationQueue::new(0, 4, 0.0);
        q.push(Activation::single(int_tuple(&[1])));
        q.close();
        let pushed =
            std::panic::catch_unwind(|| q.push_batch([Activation::single(int_tuple(&[2]))]));
        assert!(pushed.is_err(), "push_batch into a closed queue panics");
        assert_eq!(q.len(), 1);
        assert!(q.is_closed());
        assert!(matches!(
            q.try_push(Activation::single(int_tuple(&[3]))),
            Err(TryPushError::Closed(_))
        ));
        let mut out = Vec::new();
        assert_eq!(q.try_pop_into(4, &mut out), 1);
        assert_eq!(out.len(), 1);
        assert!(q.is_exhausted());
    }

    /// The pool's own protocol: producers retry `try_push` with a yield,
    /// consumers pop until the queue is exhausted.
    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(ActivationQueue::new(0, 32, 0.0));
        // A lock-free observer sampling the length mirror concurrently with
        // the data movement: it never exceeds the capacity plus one batch.
        let stop_sampling = Arc::new(AtomicBool::new(false));
        let sampler = {
            let q = Arc::clone(&q);
            let stop = Arc::clone(&stop_sampling);
            thread::spawn(move || {
                let mut samples = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    assert!(
                        q.len() <= q.capacity() + 2,
                        "len exceeds capacity + overfill"
                    );
                    samples += 1;
                }
                samples
            })
        };
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..250i64 {
                        // Two-tuple batches, retried until there is room.
                        let mut a = Activation::Data(TupleBatch::from(vec![
                            int_tuple(&[p * 1000 + 2 * i]),
                            int_tuple(&[p * 1000 + 2 * i + 1]),
                        ]));
                        while let Err(TryPushError::Full(back)) = q.try_push(a) {
                            a = back;
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut consumed = 0usize;
                    let mut out = Vec::new();
                    while !q.is_exhausted() {
                        out.clear();
                        if q.try_pop_into(4, &mut out) == 0 {
                            thread::yield_now();
                        }
                        consumed += out.iter().map(Activation::logical_len).sum::<usize>();
                    }
                    consumed
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        stop_sampling.store(true, Ordering::Relaxed);
        assert!(
            sampler.join().unwrap() > 0,
            "sampler never observed the queue"
        );
        assert_eq!(consumed, 2000);
        assert!(q.is_exhausted());
    }

    #[test]
    fn try_push_full_and_closed_hand_the_activation_back() {
        let q = ActivationQueue::new(0, 2, 0.0);
        // Below capacity: accepted, even when the batch overshoots the bound.
        assert!(q
            .try_push(Activation::Data(TupleBatch::from(vec![
                int_tuple(&[1]),
                int_tuple(&[2]),
                int_tuple(&[3]),
            ])))
            .is_ok());
        assert_eq!(q.len(), 3);
        // At (over) capacity: refused with the activation handed back.
        match q.try_push(Activation::single(int_tuple(&[4]))) {
            Err(TryPushError::Full(a)) => assert_eq!(a.logical_len(), 1),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 3, "a refused push must not enqueue anything");
        // Empty data batches are silently dropped.
        assert!(q.try_push(Activation::Data(TupleBatch::default())).is_ok());
        q.close();
        let _ = q.try_pop_batch(usize::MAX);
        match q.try_push(Activation::single(int_tuple(&[5]))) {
            Err(TryPushError::Closed(a)) => assert_eq!(a.logical_len(), 1),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ActivationQueue::new(0, 0, 0.0);
    }

    #[test]
    fn accessors() {
        let q = ActivationQueue::new(7, 16, 42.0);
        assert_eq!(q.instance(), 7);
        assert_eq!(q.capacity(), 16);
        assert!((q.estimated_cost() - 42.0).abs() < 1e-12);
        assert!(q.is_empty());
        assert!(!q.is_closed());
    }
}
