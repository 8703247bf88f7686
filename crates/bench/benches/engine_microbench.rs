//! Micro-benchmarks of the real execution engine: activation queue
//! throughput (per-tuple vs batched transport), the lock-free queue-scan
//! fast path, parallel vs sequential temporary hash-index builds, a small
//! end-to-end IdealJoin, and the pipelined-join hot path at 8 threads.
//! These are per-component timings for local profiling; no committed record
//! tracks them.

use criterion::{criterion_group, criterion_main, Criterion};
use dbs3_bench::JoinDatabase;
use dbs3_engine::{Activation, ActivationQueue, TupleBatch};
use dbs3_lera::{plans, JoinAlgorithm};
use dbs3_storage::tuple::int_tuple;
use dbs3_storage::{HashIndex, Tuple};
use std::hint::black_box;

fn queue_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_queue");
    group.sample_size(20);
    // One push per tuple: the paper's per-tuple transport (CacheSize = 1).
    group.bench_function("push_pop_1k_singles", |b| {
        b.iter(|| {
            let q = ActivationQueue::new(0, 2048, 0.0);
            for i in 0..1000 {
                q.push(Activation::single(int_tuple(&[i])));
            }
            let mut popped = 0usize;
            while popped < 1000 {
                popped += q
                    .try_pop_batch(64)
                    .iter()
                    .map(Activation::logical_len)
                    .sum::<usize>();
            }
            black_box(popped)
        })
    });
    // One push per 64-tuple batch: the batched transport (CacheSize = 64).
    group.bench_function("push_pop_1k_batch64", |b| {
        b.iter(|| {
            let q = ActivationQueue::new(0, 2048, 0.0);
            for chunk in 0..1000 / 64 + 1 {
                let tuples: Vec<_> = (chunk * 64..((chunk + 1) * 64).min(1000))
                    .map(|i| int_tuple(&[i as i64]))
                    .collect();
                if !tuples.is_empty() {
                    q.push(Activation::Data(TupleBatch::from(tuples)));
                }
            }
            let mut popped = 0usize;
            while popped < 1000 {
                popped += q
                    .try_pop_batch(64)
                    .iter()
                    .map(Activation::logical_len)
                    .sum::<usize>();
            }
            black_box(popped)
        })
    });
    group.finish();
}

/// The scheduler-scan shape: most queues a worker polls are empty most of
/// the time, so the cost that matters is observing an empty/exhausted queue.
/// Since the atomic mirrors, every observation here is a lock-free load
/// (previously each took the buffer mutex).
fn queue_scan_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_queue_scan");
    group.sample_size(20);
    // 64 queues, one holding work — the worst realistic scan:hit ratio.
    let queues: Vec<ActivationQueue> = (0..64)
        .map(|i| ActivationQueue::new(i, 1024, 0.0))
        .collect();
    queues[63].push(Activation::single(int_tuple(&[1])));
    group.bench_function("observe_64_queues", |b| {
        b.iter(|| {
            let mut live = 0usize;
            let mut buffered = 0usize;
            for q in &queues {
                if !q.is_exhausted() && !q.is_empty() {
                    live += 1;
                    buffered += q.len();
                }
            }
            black_box((live, buffered))
        })
    });
    // Speculative pops against empty queues (the per-poll op scan): the
    // atomic fast path returns before ever touching the mutex.
    let empty = ActivationQueue::new(0, 1024, 0.0);
    group.bench_function("try_pop_empty", |b| {
        b.iter(|| black_box(empty.try_pop_batch(64).len()))
    });
    group.finish();
}

/// Sequential vs partitioned temporary index build over a fragment-sized
/// tuple run (the build cost every Hash/TempIndex join instance pays once).
fn hash_index_build(c: &mut Criterion) {
    let tuples: Vec<Tuple> = (0..200_000).map(|i| int_tuple(&[i % 50_021, i])).collect();
    let mut group = c.benchmark_group("hash_index_build_200k");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(HashIndex::build(&tuples, 0).len()))
    });
    for shards in [2usize, 8] {
        let name = format!("parallel_{shards}");
        group.bench_function(&name, |b| {
            b.iter(|| black_box(HashIndex::build_parallel(&tuples, 0, shards).len()))
        });
    }
    group.finish();
}

fn end_to_end_join(c: &mut Criterion) {
    let db = JoinDatabase::generate(4_000, 400);
    let session = db.session(20, 0.0);

    let mut group = c.benchmark_group("engine_end_to_end");
    group.sample_size(10);

    // Triggered co-partitioned join (fig15 shape, 4 threads).
    let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    // Prepare once; time only the prepared run so the measurement isolates
    // the engine (expansion and scheduling are plan-sized, not data-sized).
    let ideal_prepared = session.query(&ideal).threads(4).prepare().unwrap();
    group.bench_function("ideal_join_4k_threads4", |b| {
        b.iter(|| {
            let outcome = ideal_prepared.run(&session).unwrap();
            black_box(outcome.results["Result"].len())
        })
    });

    // Pipelined join (fig14 AssocJoin shape) at 8 threads: the hottest data
    // path — transmit scatters B' over the join instances, every tuple
    // crosses a shared queue. This is the acceptance metric of perf PRs.
    let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let assoc_prepared = session.query(&assoc).threads(8).prepare().unwrap();
    group.bench_function("pipelined_join_4k_threads8", |b| {
        b.iter(|| {
            let outcome = assoc_prepared.run(&session).unwrap();
            black_box(outcome.results["Result"].len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    queue_throughput,
    queue_scan_fast_path,
    hash_index_build,
    end_to_end_join
);
criterion_main!(benches);
