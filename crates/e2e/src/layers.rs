//! Layer probes: small measurements of one crate's public entry points,
//! taken by the traced child after its window on the workload's own data.
//! Each probe is a span, so it shows in the trace file next to the queries.
//!
//! `sim`, `model` and `analyze` are off the execution path and have no
//! probe. The numbers are diagnostics for "which layer moved", never the
//! basis of a gain claim.

use crate::stats::median;
use crate::target::query_options;
use crate::trace::Tracer;
use crate::workload::JOIN_COLUMN;
use crate::BenchResult;
use dbs3::{Runtime, Session};
use dbs3_engine::{Activation, ActivationQueue, Scheduler, TupleBatch};
use dbs3_lera::{CostParameters, ExtendedPlan, Plan};
use dbs3_serve::QueryRequest;
use dbs3_storage::{HashIndex, Tuple};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median over `reps` runs of `f`'s wall time, in µs.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Runs every probe, adding one entry per layer metric to `out`.
pub fn probe_layers(
    session: &Session,
    plan: &Plan,
    probe_relation: &str,
    build_relation: &str,
    runtime: &Runtime,
    tr: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) -> BenchResult<()> {
    let mut set = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    let catalog = session.catalog();
    let options = query_options();
    let cost = CostParameters::default();
    let build = catalog.get(build_relation)?;
    let probe = catalog.get(probe_relation)?;
    let build_key = build.schema().column_index(JOIN_COLUMN)?;

    // storage: catalog write, index build, index probe, tuple construction.
    let span = tr.begin("dbs3_storage.catalog_replace.probe", 0);
    let mut scratch = catalog.clone();
    let mut spare = (*build).clone();
    scratch.replace((*build).clone());
    let mut times = Vec::new();
    for _ in 0..200 {
        let started = Instant::now();
        let previous = scratch.replace(spare);
        times.push(started.elapsed().as_secs_f64() * 1e6);
        spare = match previous.map(Arc::try_unwrap) {
            Some(Ok(owned)) => owned,
            _ => (*build).clone(),
        };
    }
    set("dbs3_storage.catalog_replace_us", median(&times));
    tr.end(span);

    let span = tr.begin("dbs3_storage.index_build.probe", 0);
    set(
        "dbs3_storage.index_build_ms",
        median_us(3, || {
            for fragment in build.fragments() {
                black_box(HashIndex::build_for_fragment(fragment, build_key));
            }
        }) / 1e3,
    );
    tr.end(span);

    let span = tr.begin("dbs3_storage.index_probe.probe", 0);
    let largest = build
        .fragments()
        .iter()
        .max_by_key(|f| f.cardinality())
        .ok_or("the build relation has no fragments")?;
    let index = HashIndex::build_for_fragment(largest, build_key);
    let keys: Vec<&Tuple> = largest.tuples().iter().take(20_000).collect();
    if !keys.is_empty() {
        let rounds = 100_000usize.div_ceil(keys.len());
        let started = Instant::now();
        let mut matches = 0usize;
        for _ in 0..rounds {
            for key in &keys {
                matches += index.probe(largest.tuples(), key.value(build_key)).count();
            }
        }
        black_box(matches);
        let probes = (rounds * keys.len()) as f64;
        set(
            "dbs3_storage.index_probe_ns_per_key",
            started.elapsed().as_secs_f64() * 1e9 / probes,
        );
    }
    tr.end(span);

    let span = tr.begin("dbs3_storage.tuple_concat.probe", 0);
    let left: Vec<&Tuple> = probe
        .fragments()
        .iter()
        .flat_map(|f| f.tuples())
        .take(1_000)
        .collect();
    let right: Vec<&Tuple> = build
        .fragments()
        .iter()
        .flat_map(|f| f.tuples())
        .take(1_000)
        .collect();
    if !left.is_empty() && !right.is_empty() {
        const CONCATS: usize = 100_000;
        let mut built = Vec::with_capacity(CONCATS);
        let started = Instant::now();
        for i in 0..CONCATS {
            built.push(left[i % left.len()].concat(right[i % right.len()]));
        }
        let elapsed = started.elapsed();
        black_box(&built);
        set(
            "dbs3_storage.tuple_concat_ns",
            elapsed.as_secs_f64() * 1e9 / CONCATS as f64,
        );
    }
    tr.end(span);

    // lera: expansion and content fingerprint.
    let span = tr.begin("dbs3_lera.expand.probe", 0);
    let mut failed = false;
    set(
        "dbs3_lera.expand_us",
        median_us(20, || {
            failed |= black_box(ExtendedPlan::from_plan(plan, catalog, &cost)).is_err();
        }),
    );
    tr.end(span);
    if failed {
        return Err("plan expansion failed in the lera probe".into());
    }
    let span = tr.begin("dbs3_lera.fingerprint.probe", 0);
    set(
        "dbs3_lera.fingerprint_us",
        median_us(50, || {
            for _ in 0..100 {
                black_box(black_box(plan).content_hash());
            }
        }) / 100.0,
    );
    tr.end(span);

    // engine::schedule.
    let extended = ExtendedPlan::from_plan(plan, catalog, &cost)?;
    let span = tr.begin("dbs3_engine.schedule.probe", 0);
    set(
        "dbs3_engine.schedule_us",
        median_us(20, || {
            failed |= black_box(Scheduler::build(plan, &extended, &options)).is_err();
        }),
    );
    tr.end(span);
    if failed {
        return Err("scheduling failed in the engine probe".into());
    }

    // engine::queue at the scheduled CacheSize, single thread.
    let schedule = Scheduler::build(plan, &extended, &options)?;
    let cache_size = schedule
        .per_node()
        .values()
        .map(|op| op.cache_size)
        .max()
        .unwrap_or(1)
        .max(1);
    let span = tr.begin("dbs3_engine.queue.probe", 0);
    let batch: Vec<Tuple> = left.iter().take(cache_size).map(|t| (*t).clone()).collect();
    if batch.len() == cache_size {
        const ROUNDS: usize = 20_000;
        let queue = ActivationQueue::new(0, options.queue_capacity, 0.0);
        let mut pending: Vec<Vec<Activation>> = (0..ROUNDS)
            .map(|_| vec![Activation::Data(TupleBatch::new(batch.clone()))])
            .collect();
        let started = Instant::now();
        let mut popped = 0usize;
        while let Some(activations) = pending.pop() {
            queue.push_batch(activations);
            popped += queue.try_pop_batch(cache_size).len();
        }
        let elapsed = started.elapsed();
        black_box(popped);
        set(
            "dbs3_engine.queue.ns_per_tuple",
            elapsed.as_secs_f64() * 1e9 / (ROUNDS * cache_size) as f64,
        );
    }
    tr.end(span);

    // dbs3 facade: what an unprepared submit costs over a prepared one,
    // with every cache warm. Only the submit call is timed.
    let span = tr.begin("dbs3_facade.unprepared.probe", 0);
    let prepared = session.query(plan).scheduler_options(options).prepare()?;
    let (mut unprepared_us, mut prepared_us) = (Vec::new(), Vec::new());
    for _ in 0..30 {
        let started = Instant::now();
        let handle = session
            .query(plan)
            .scheduler_options(options)
            .submit(runtime)?;
        unprepared_us.push(started.elapsed().as_secs_f64() * 1e6);
        handle.wait()?;
        let started = Instant::now();
        let handle = prepared.submit(session, runtime)?;
        prepared_us.push(started.elapsed().as_secs_f64() * 1e6);
        handle.wait()?;
    }
    set(
        "dbs3_facade.unprepared_extra_us",
        median(&unprepared_us) - median(&prepared_us),
    );
    tr.end(span);

    // engine::cache: a prepare that misses everything, then one that hits.
    // Clears the process-wide caches, so it runs after the warm probes.
    let span = tr.begin("dbs3_engine.prepare.probe", 0);
    let (mut cold_us, mut warm_us) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        dbs3_engine::clear_caches();
        let started = Instant::now();
        let cold = dbs3_engine::prepare(catalog, plan, &options, &cost);
        cold_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let warm = dbs3_engine::prepare(catalog, plan, &options, &cost);
        warm_us.push(started.elapsed().as_secs_f64() * 1e6);
        cold?;
        warm?;
    }
    set("dbs3_engine.prepare_cold_us", median(&cold_us));
    set("dbs3_engine.prepare_warm_us", median(&warm_us));
    tr.end(span);

    // serve::wire: request codec (needs no server).
    let span = tr.begin("dbs3_serve.wire.probe", 0);
    let request = QueryRequest {
        plan: plan.clone(),
        options,
        deadline_ms: 0,
        request_id: 0,
    };
    let payload = request.encode();
    set(
        "dbs3_serve.wire.encode_us",
        median_us(200, || {
            black_box(black_box(&request).encode());
        }),
    );
    set(
        "dbs3_serve.wire.decode_us",
        median_us(200, || {
            failed |= black_box(QueryRequest::decode(black_box(&payload))).is_err();
        }),
    );
    // Length prefix (4) + frame type (1) + payload.
    set(
        "dbs3_serve.wire.query_frame_bytes",
        (payload.len() + 5) as f64,
    );
    tr.end(span);
    if failed {
        return Err("the request codec failed to round-trip in the wire probe".into());
    }
    Ok(())
}
