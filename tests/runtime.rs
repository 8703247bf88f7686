//! The multi-query [`Runtime`]: one worker pool, many concurrent queries.
//!
//! These tests pin the contract of the `submit()`/[`QueryHandle`] API:
//!
//! * N queries submitted concurrently produce exactly the per-query
//!   cardinalities (and per-operation logical activation counts) that
//!   sequential `run()` produces — inter-query scheduling changes *when*
//!   work happens, never *what* work happens;
//! * `cancel()` mid-query surfaces a typed cancelled error and leaves the
//!   pool reusable;
//! * dropping the runtime with queries in flight shuts down cleanly — no
//!   hang, every waiter gets an outcome or a typed shutdown error;
//! * a query submitted to a caller-owned pool is equivalent to the same
//!   query's blocking `run()` and to the simulator on everything that is
//!   not a clock;
//! * `discard_results()` keeps cardinalities and metrics exact while
//!   materialising nothing.

use dbs3::prelude::*;
use dbs3_engine::EngineError;
use dbs3_lera::OperatorKind;
use std::sync::mpsc;
use std::time::Duration;

fn session(a_card: usize, b_card: usize, degree: usize) -> Session {
    let mut session = Session::new();
    let spec = PartitionSpec::on("unique1", degree, 4);
    session
        .load_wisconsin(&WisconsinConfig::narrow("A", a_card), spec.clone())
        .unwrap();
    session
        .load_wisconsin(&WisconsinConfig::narrow("Bprime", b_card), spec)
        .unwrap();
    session
}

/// The workload mix used by the concurrency tests: four distinct plan
/// shapes over the same database.
fn plan_mix() -> Vec<Plan> {
    vec![
        plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop),
    ]
}

/// The multi-query contract: a single `Runtime` executes ≥ 16 concurrently
/// submitted queries with per-query cardinalities (and logical activation
/// counts) identical to sequential `run()`. The handles are waited on a
/// helper thread under a hard timeout, so a deadlocked or livelocked pool
/// fails the test instead of hanging `cargo test`.
#[test]
fn sixteen_concurrent_queries_match_sequential_run() {
    let session = session(2_000, 200, 16);
    let mix = plan_mix();

    // Sequential reference: cardinalities and per-op activation counts of
    // each plan shape under the blocking executor.
    let reference: Vec<(usize, Vec<Option<u64>>)> = mix
        .iter()
        .map(|plan| {
            let outcome = session.query(plan).threads(4).run().unwrap();
            let counts = plan
                .nodes()
                .iter()
                .map(|n| outcome.metrics.activations(n.id))
                .collect();
            (outcome.result_cardinality("Result").unwrap(), counts)
        })
        .collect();

    let runtime = Runtime::new(4).unwrap();
    let handles: Vec<(usize, dbs3::QueryHandle)> = (0..16)
        .map(|i| {
            let shape = i % mix.len();
            let handle = session
                .query(&mix[shape])
                .threads(4)
                .submit(&runtime)
                .unwrap();
            (shape, handle)
        })
        .collect();
    let ids: std::collections::BTreeSet<_> = handles.iter().map(|(_, h)| h.id()).collect();
    assert_eq!(ids.len(), 16, "query ids are runtime-unique");

    let (done, outcomes) = mpsc::channel();
    std::thread::spawn(move || {
        for (shape, handle) in handles {
            if done.send((shape, handle.wait())).is_err() {
                return;
            }
        }
    });
    for _ in 0..16 {
        let (shape, outcome) = outcomes
            .recv_timeout(Duration::from_secs(60))
            .expect("the pool wedged: no outcome within 60 s");
        let outcome = outcome.unwrap();
        let (expected_cardinality, expected_counts) = &reference[shape];
        assert_eq!(
            outcome.result_cardinality("Result"),
            Some(*expected_cardinality),
            "concurrent cardinality diverges from sequential run() on {}",
            mix[shape].name()
        );
        let counts: Vec<Option<u64>> = mix[shape]
            .nodes()
            .iter()
            .map(|n| outcome.metrics.activations(n.id))
            .collect();
        assert_eq!(
            &counts,
            expected_counts,
            "logical activation counts diverge under concurrency on {}",
            mix[shape].name()
        );
    }
    assert_eq!(runtime.live_queries(), 0);
}

/// `cancel()` mid-query returns a typed cancelled error, and the pool keeps
/// serving fresh queries afterwards.
#[test]
fn cancel_mid_query_is_typed_and_leaves_the_pool_reusable() {
    // A deliberately slow query: nested-loop join on a pool of one worker.
    let session = session(20_000, 2_000, 10);
    let slow = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let runtime = Runtime::new(1).unwrap();
    let handle = session.query(&slow).threads(1).submit(&runtime).unwrap();
    handle.cancel();
    match handle.wait() {
        Err(dbs3::Error::Engine(EngineError::QueryCancelled { .. })) => {}
        other => panic!("expected a typed cancelled error, got {other:?}"),
    }

    // The same runtime immediately executes a fresh query to completion.
    let quick = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let outcome = session
        .query(&quick)
        .threads(1)
        .submit(&runtime)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(outcome.result_cardinality("Result"), Some(2_000));
}

/// Dropping the runtime with queries in flight neither hangs nor leaks:
/// workers are joined and every pending waiter gets a typed shutdown error
/// (or the real outcome, if its query beat the shutdown).
#[test]
fn dropping_the_runtime_with_inflight_queries_shuts_down_cleanly() {
    let session = session(20_000, 2_000, 10);
    let slow = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let runtime = Runtime::new(2).unwrap();
    let handles: Vec<dbs3::QueryHandle> = (0..4)
        .map(|_| session.query(&slow).threads(2).submit(&runtime).unwrap())
        .collect();
    drop(runtime);
    for handle in handles {
        match handle.wait() {
            Ok(outcome) => {
                assert_eq!(outcome.result_cardinality("Result"), Some(2_000));
            }
            Err(dbs3::Error::Engine(EngineError::RuntimeShutdown)) => {}
            Err(other) => panic!("unexpected error after runtime drop: {other:?}"),
        }
    }
}

/// A query submitted to a caller-owned pool agrees with the same query's
/// blocking `run()` and with the simulator on cardinalities and
/// per-operation logical activation counts — the same contract
/// `tests/backend_equivalence.rs` pins for the other two. (As in
/// that suite, the activation comparison with the simulator uses the
/// nested-loop shapes: the simulator additionally models per-instance
/// hash-table *build* activations for hash joins.) "Pooled" here is the
/// caller-owned pool reached through `submit`, and "threaded" is
/// `Backend::Threaded`.
#[test]
fn submit_to_an_owned_pool_matches_blocking_run_and_simulator() {
    let session = session(2_000, 200, 16);
    let runtime = Runtime::new(4).unwrap();
    for plan in plan_mix() {
        let is_nested_loop = plan.nodes().iter().any(|n| {
            matches!(
                n.kind,
                dbs3_lera::OperatorKind::Join {
                    algorithm: JoinAlgorithm::NestedLoop,
                    ..
                }
            )
        });
        let threaded = session.query(&plan).threads(4).run().unwrap();
        let pooled = session
            .query(&plan)
            .threads(4)
            .submit(&runtime)
            .unwrap()
            .wait()
            .unwrap();
        let simulated = session
            .query(&plan)
            .threads(4)
            .on(Backend::Simulated(SimConfig::ksr1()))
            .run()
            .unwrap();
        assert_eq!(threaded.cardinalities, pooled.cardinalities);
        assert_eq!(pooled.cardinalities, simulated.cardinalities);
        for node in plan.nodes() {
            if matches!(node.kind, OperatorKind::Store { .. }) {
                continue;
            }
            assert_eq!(
                threaded.metrics.activations(node.id),
                pooled.metrics.activations(node.id),
                "pooled activation counts diverge at {} of {}",
                node.name,
                plan.name()
            );
            if is_nested_loop {
                assert_eq!(
                    pooled.metrics.activations(node.id),
                    simulated.metrics.activations(node.id),
                    "simulated activation counts diverge at {} of {}",
                    node.name,
                    plan.name()
                );
            }
        }
    }
}

/// `discard_results()` materialises nothing while keeping cardinalities and
/// activation metrics exact, on both the blocking and submitted paths.
#[test]
fn discard_results_keeps_cardinalities_and_metrics() {
    let session = session(2_000, 200, 16);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let materialised = session.query(&plan).threads(4).run().unwrap();

    let discarded = session
        .query(&plan)
        .threads(4)
        .discard_results()
        .run()
        .unwrap();
    assert_eq!(discarded.cardinalities, materialised.cardinalities);
    assert!(discarded.results["Result"].is_empty());
    assert_eq!(
        discarded.metrics.total_activations(),
        materialised.metrics.total_activations()
    );

    let runtime = Runtime::new(4).unwrap();
    let submitted = session
        .query(&plan)
        .threads(4)
        .discard_results()
        .submit(&runtime)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(submitted.cardinalities, materialised.cardinalities);
    assert!(submitted.results["Result"].is_empty());
}
