//! Where a processed batch's output goes: the producer-side activation
//! cache, which scatters rows into one buffer per destination and flushes
//! each at `CacheSize`, and the push that delivers a flush.
//!
//! # Backpressure is cooperative
//!
//! The pool is shared, so if every worker blocked producing, nobody would
//! be left to consume and the pool would deadlock. Workers therefore never
//! block on a push: when a destination queue is full they *help drain it*
//! (pop a batch from that very queue and process it, exactly as the
//! consumer would), then retry. Helping recurses at most to the pipeline
//! depth and each step makes real progress, so tiny queue capacities stay
//! deadlock-free.

use super::worker::{Frame, WorkerCtx};
use super::{announce_op, finish_op, QueryState, RuntimeInner};
use crate::activation::{Activation, TupleBatch};
use crate::op_state::{Effect, Event};
use crate::operators::{BoundOperator, Router};
use crate::queue::TryPushError;
use std::mem;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// A link from a producer operation to its consumer within one query.
#[derive(Debug, Clone)]
pub(super) struct ConsumerLink {
    pub(super) consumer_index: usize,
    pub(super) router: Router,
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

/// Most items a scatter buffer reserves room for ahead of its pushes.
const MAX_RESERVED_BATCH: usize = 1024;

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
/// A transmit builds no output batch and reads no row: it cuts the
/// positions of the rows a control activation covers, per destination,
/// into `CacheSize` batches of positions, slices of its fragment's route
/// table (see [`crate::activation`]). A pop of a triggered operation
/// holds one control activation (the queue stops a pop after one), so the
/// cuts fall where a per-destination buffer filled over the pop and
/// flushed at `CacheSize` and at its end would flush.
///
/// The caller holds a claim on the operation, so the producer-side
/// scatter buffers live entirely within this call — nothing can be stranded
/// when the operation is later declared finished. The frame is emptied
/// (also on an early exit), so no activation or row outlives its batch;
/// only the frame's capacity does.
pub(super) fn process_batch(
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
    let Frame { popped, tuples } = frame;
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
        if let BoundOperator::Transmit(transmit) = &op.operator {
            let router = op
                .consumer
                .as_ref()
                .map_or(Router::SameInstance, |l| l.router);
            let dest = queue_index % consumer_degree.max(1);
            let emit = |dest, batch| {
                let Some(link) = &op.consumer else { return };
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
            };
            let rows = transmit.cut(queue_index, &activation, router, dest, op.cache_size, emit);
            tuples_out += rows as u64;
            continue;
        }
        let out = op.operator.process(queue_index, &activation);
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
        for (dest, buffer) in tuples.drain(..).enumerate() {
            if !buffer.is_empty() {
                flush_to(
                    inner,
                    query,
                    link.consumer_index,
                    dest,
                    TupleBatch::new(buffer),
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
    let mut slot = query.metrics[op_index * inner.pool_threads + ctx.id]
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
