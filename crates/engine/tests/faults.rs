//! Fault-registry integration tests: injected panics, errors, delays and
//! the watchdog, exercised against real runtimes.
//!
//! The registry is process-wide, so every test here installs its plan via
//! [`FaultPlan::install`] — the returned guard serializes installers, which
//! keeps these tests correct under cargo's parallel test threads — and
//! keeps all engine work inside the guard's scope. Fault-injecting tests
//! must NOT move into the `dbs3-engine` unit-test binary: an installed plan
//! would fire in unrelated tests running concurrently in that process.

use dbs3_engine::faults::{FaultAction, FaultPlan, FaultPoint, FaultTrigger};
use dbs3_engine::{
    faults, EngineError, ExecutionSchedule, QueryHandle, Runtime, Scheduler, SchedulerOptions,
};
use dbs3_lera::{plans, CostParameters, ExtendedPlan, JoinAlgorithm, Plan};
use dbs3_storage::{
    Catalog, ColumnDef, PartitionSpec, PartitionedRelation, Relation, Schema, Tuple, Value,
};
use std::num::NonZeroU64;
use std::time::Duration;

fn catalog(a_card: usize, b_card: usize, degree: usize) -> Catalog {
    let schema = || Schema::new(vec![ColumnDef::int("unique1"), ColumnDef::int("payload")]);
    let tuples = |card: usize| {
        (0..card as i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)]))
            .collect()
    };
    let a = Relation::new("A", schema(), tuples(a_card)).unwrap();
    let b = Relation::new("Bprime", schema(), tuples(b_card)).unwrap();
    let spec = PartitionSpec::on("unique1", degree, 4);
    let mut cat = Catalog::new();
    cat.register(PartitionedRelation::from_relation(&a, spec.clone()).unwrap())
        .unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    cat
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

fn submit(runtime: &Runtime, cat: &Catalog, threads: usize) -> QueryHandle {
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, cat, threads);
    runtime.submit(cat, &plan, &schedule).unwrap()
}

/// Re-pin of the old `panic_injection` containment test, now on the fault
/// registry: an injected operator panic fails the query with a typed
/// `WorkerPanicked` carrying the operation name, and the pool survives.
#[test]
fn injected_panic_fails_the_query_typed_and_keeps_the_pool() {
    let guard = FaultPlan::new(1)
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Panic,
        )
        .install();
    let cat = catalog(2_000, 200, 8);
    // One worker: the first processing attempt is deterministically the
    // faulted one, so the query cannot race to completion on a sibling.
    let runtime = Runtime::new(1).unwrap();
    match submit(&runtime, &cat, 1).wait() {
        Err(EngineError::WorkerPanicked { operation }) => {
            assert!(!operation.is_empty(), "the failing operation is named");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(
        runtime.live_queries(),
        0,
        "the aborted query freed its slot"
    );
    // Nth(1) fired exactly once: a healthy query on the same pool, under
    // the same guard, completes normally.
    let outcome = submit(&runtime, &cat, 1).wait().unwrap();
    assert_eq!(outcome.cardinalities["Result"], 200);
    let counts = guard.counts();
    assert_eq!(counts[0].2, 1, "the panic rule fired exactly once");
    runtime.shutdown();
}

/// A runtime re-arms the queue sets a query whose worker panicked left
/// behind, and every later query on it still counts what a fresh runtime
/// counts. The panicking query itself re-arms sets that healthy queries
/// left.
#[test]
fn queue_sets_a_panicked_query_leaves_answer_like_fresh_ones() {
    let wide = catalog(4_000, 1_000, 20);
    let narrow = catalog(2_000, 400, 7);
    let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let count = |runtime: &Runtime, cat: &Catalog, plan: &Plan| {
        let schedule = schedule_for(plan, cat, 3);
        let outcome = runtime.submit(cat, plan, &schedule).unwrap().wait();
        outcome.unwrap().cardinalities["Result"]
    };
    let runtime = Runtime::new(3).unwrap();
    let expected = {
        // No rule: the guard only keeps other tests' faults out.
        let _guard = FaultPlan::new(9).install();
        let fresh = |cat: &Catalog, plan: &Plan| count(&Runtime::new(3).unwrap(), cat, plan);
        let expected = [fresh(&wide, &assoc), fresh(&narrow, &ideal)];
        assert_eq!(count(&runtime, &wide, &assoc), expected[0]);
        assert_eq!(count(&runtime, &narrow, &ideal), expected[1]);
        expected
    };

    let guard = FaultPlan::new(10)
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Panic,
        )
        .install();
    let schedule = schedule_for(&assoc, &wide, 3);
    match runtime.submit(&wide, &assoc, &schedule).unwrap().wait() {
        Err(EngineError::WorkerPanicked { .. }) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    for _ in 0..3 {
        assert_eq!(count(&runtime, &wide, &assoc), expected[0]);
        assert_eq!(count(&runtime, &narrow, &ideal), expected[1]);
    }
    assert_eq!(guard.counts()[0].2, 1, "the panic rule fired exactly once");
    runtime.shutdown();
}

/// An `error` action at the worker fault point surfaces as the typed
/// `FaultInjected` instead of a panic.
#[test]
fn injected_error_fails_the_query_typed() {
    let _guard = FaultPlan::new(2)
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Error,
        )
        .install();
    let cat = catalog(1_000, 100, 8);
    let runtime = Runtime::new(1).unwrap();
    match submit(&runtime, &cat, 1).wait() {
        Err(EngineError::FaultInjected { point }) => assert_eq!(point, FaultPoint::WorkerProcess),
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    assert_eq!(runtime.live_queries(), 0);
    runtime.shutdown();
}

/// A fault at submit time is returned synchronously from `submit`.
#[test]
fn submit_fault_returns_a_typed_error_synchronously() {
    let _guard = FaultPlan::new(3)
        .rule(
            FaultPoint::RuntimeSubmit,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Error,
        )
        .install();
    let cat = catalog(500, 50, 4);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, &cat, 2);
    let runtime = Runtime::new(2).unwrap();
    match runtime.submit(&cat, &plan, &schedule) {
        Err(EngineError::FaultInjected { point }) => assert_eq!(point, FaultPoint::RuntimeSubmit),
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    // The second submit (hit 2, Nth(1) spent) goes through.
    let outcome = runtime
        .submit(&cat, &plan, &schedule)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.cardinalities["Result"], 50);
    runtime.shutdown();
}

/// Faults at `engine.queue.push` escalate to a panic (a dropped activation
/// would silently lose tuples) and are contained as `WorkerPanicked`.
#[test]
fn queue_push_fault_is_contained_as_a_worker_panic() {
    let _guard = FaultPlan::new(4)
        .rule(
            FaultPoint::QueuePush,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Drop,
        )
        .install();
    let cat = catalog(2_000, 200, 8);
    let runtime = Runtime::new(1).unwrap();
    match submit(&runtime, &cat, 1).wait() {
        Err(EngineError::WorkerPanicked { .. }) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(runtime.live_queries(), 0);
    let outcome = submit(&runtime, &cat, 1).wait().unwrap();
    assert_eq!(outcome.cardinalities["Result"], 200);
    runtime.shutdown();
}

/// A worker wedged by an injected delay trips the watchdog: the query is
/// aborted with the typed `QueryStuck` and its admission slot is freed.
#[test]
fn watchdog_aborts_a_wedged_query() {
    let _guard = FaultPlan::new(5)
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::EveryK(NonZeroU64::MIN),
            FaultAction::Delay(Duration::from_millis(1_200)),
        )
        .install();
    let cat = catalog(1_000, 100, 8);
    let runtime = Runtime::with_watchdog(1, Duration::from_millis(200)).unwrap();
    match submit(&runtime, &cat, 1).wait() {
        Err(EngineError::QueryStuck { stalled_for_ms, .. }) => assert!(stalled_for_ms >= 200),
        other => panic!("expected QueryStuck, got {other:?}"),
    }
    assert_eq!(runtime.live_queries(), 0, "the watchdog freed the slot");
    // Joins the still-sleeping worker (bounded by the injected delay).
    runtime.shutdown();
}

/// An `error` at `engine.cache.lookup` means "pretend the caches are not
/// there": every prepare and every build-side index request computes
/// privately. That may only cost time — repeated identical submits still
/// return the right answer, and neither the plan cache nor the index
/// counters record a single hit or miss while the fault is live (the
/// install guard serializes this binary's tests, so the process-global
/// counters are exactly ours).
#[test]
fn cache_lookup_fault_bypasses_the_caches_without_falsifying_results() {
    let _guard = FaultPlan::new(6)
        .rule(
            FaultPoint::CacheLookup,
            FaultTrigger::EveryK(NonZeroU64::MIN),
            FaultAction::Error,
        )
        .install();
    let cat = catalog(2_000, 200, 8);
    let runtime = Runtime::new(2).unwrap();
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let options = SchedulerOptions::default().with_total_threads(2);
    let before = dbs3_engine::cache_stats();
    for _ in 0..3 {
        let prepared =
            dbs3_engine::prepare(&cat, &plan, &options, &CostParameters::default()).unwrap();
        let outcome = runtime
            .submit_prepared(&cat, &prepared)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(outcome.cardinalities["Result"], 200);
    }
    let delta = dbs3_engine::cache_stats().since(&before);
    assert_eq!(
        delta.plan.hits + delta.plan.misses,
        0,
        "a bypassed plan cache must not be touched: {delta:?}"
    );
    assert_eq!(
        delta.index.hits + delta.index.misses,
        0,
        "a bypassed fragment cell must not be touched: {delta:?}"
    );
    runtime.shutdown();
}

/// A non-delay fault at `engine.cache.build` escalates to a panic inside
/// the fragment's index build, which the worker contains as a typed
/// `WorkerPanicked`; the failed build leaves the fragment's cell empty, so
/// the next submit rebuilds into it and succeeds.
#[test]
fn cache_build_fault_is_contained_and_the_next_submit_rebuilds() {
    let _guard = FaultPlan::new(7)
        .rule(
            FaultPoint::CacheBuild,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Error,
        )
        .install();
    let cat = catalog(2_000, 200, 8);
    let runtime = Runtime::new(1).unwrap();
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let options = SchedulerOptions::default().with_total_threads(1);
    let prepared = dbs3_engine::prepare(&cat, &plan, &options, &CostParameters::default()).unwrap();
    match runtime.submit_prepared(&cat, &prepared).unwrap().wait() {
        Err(EngineError::WorkerPanicked { .. }) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(runtime.live_queries(), 0);
    // Nth(1) is spent and the failed build left its cell empty, not
    // poisoned: the same prepared plan now builds its index into it and
    // answers correctly.
    let outcome = runtime
        .submit_prepared(&cat, &prepared)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.cardinalities["Result"], 200);
    runtime.shutdown();
}

/// Cancelling a query whose only worker is inside a slow index build
/// frees its admission slot at once and wakes `wait()` with
/// `QueryCancelled` without waiting for the build; the pool stays usable,
/// and the next query on it answers correctly.
#[test]
fn cancelling_during_a_build_frees_the_admission_slot() {
    let delay = Duration::from_millis(500);
    let guard = FaultPlan::new(8)
        .rule(
            FaultPoint::CacheBuild,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Delay(delay),
        )
        .install();
    // A fresh catalog has fresh fragments: its first build really runs,
    // so the delay fires inside it.
    let cat = catalog(2_000, 200, 8);
    let runtime = Runtime::new(1).unwrap();
    let handle = submit(&runtime, &cat, 1);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        guard.counts()[0].2,
        1,
        "the worker is inside the build delay"
    );
    let cancelled_at = std::time::Instant::now();
    handle.cancel();
    assert_eq!(runtime.live_queries(), 0, "cancel freed the slot at once");
    match handle.wait() {
        Err(EngineError::QueryCancelled { .. }) => {}
        other => panic!("expected QueryCancelled, got {other:?}"),
    }
    assert!(
        cancelled_at.elapsed() < delay / 2,
        "wait() returned {:?} after cancel, not well inside the build delay",
        cancelled_at.elapsed()
    );
    let outcome = submit(&runtime, &cat, 1).wait().unwrap();
    assert_eq!(outcome.cardinalities["Result"], 200);
    runtime.shutdown();
}

/// The whole point of seeding: the same plan and seed produce the same
/// per-hit decision sequence at a probabilistic fault point, end to end
/// through the public `hit` API. `serve.accept` is the probe because nothing
/// in this process serves connections, so only this test hits it.
#[test]
fn same_seed_reproduces_the_same_fault_sequence() {
    let sequence = |seed: u64| -> Vec<bool> {
        let _guard = FaultPlan::new(seed)
            .rule(
                FaultPoint::ServeAccept,
                FaultTrigger::Probability(0.4),
                FaultAction::Error,
            )
            .install();
        (0..500)
            .map(|_| faults::hit(FaultPoint::ServeAccept).is_some())
            .collect()
    };
    let a = sequence(42);
    let b = sequence(42);
    assert_eq!(a, b, "same seed, same sequence");
    let c = sequence(43);
    assert_ne!(a, c, "different seed, different sequence");
    let fired = a.iter().filter(|&&f| f).count();
    assert!((120..280).contains(&fired), "p=0.4 fired {fired}/500");
}
