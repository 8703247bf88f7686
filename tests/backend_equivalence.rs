//! Cross-backend equivalence: the same query run on the threaded engine and
//! on the virtual-time simulator must agree on everything that is not a
//! clock — result cardinalities and per-operation *logical* activation
//! counts.
//!
//! This is the contract that makes the simulator a valid stand-in for the
//! KSR1: both backends replay the same extended plans with the same logical
//! activation granularity, so swapping `Backend::Threaded` for
//! `Backend::Simulated(..)` changes *when* work happens, never *what* work
//! happens. The threaded engine physically moves tuples in `CacheSize`-sized
//! transport batches, but counts one logical activation per batched tuple —
//! so the equivalence must also hold across cache sizes and the
//! simulator's consumption strategies, which
//! `batching_never_changes_logical_work` pins down.

use dbs3::prelude::*;
use dbs3_lera::OperatorKind;

fn session(a_card: usize, b_card: usize, degree: usize, theta: f64) -> Session {
    let mut session = Session::new();
    let spec = PartitionSpec::on("unique1", degree, 4);
    session
        .load_wisconsin_skewed(&WisconsinConfig::narrow("A", a_card), spec.clone(), theta)
        .unwrap();
    session
        .load_wisconsin(&WisconsinConfig::narrow("Bprime", b_card), spec)
        .unwrap();
    session
}

/// Runs `plan` on both backends and checks cardinalities and per-operation
/// activation counts match. Store operations are skipped: the simulator
/// folds them into their producers.
fn assert_backends_agree(session: &Session, plan: &Plan, threads: usize) {
    let threaded = session.query(plan).threads(threads).run().unwrap();
    // The backend swap is this single `.on(...)` line.
    let simulated = session
        .query(plan)
        .threads(threads)
        .on(Backend::Simulated(SimConfig::ksr1()))
        .run()
        .unwrap();

    assert_eq!(
        threaded.cardinalities,
        simulated.cardinalities,
        "result cardinalities diverge on {}",
        plan.name()
    );
    for node in plan.nodes() {
        if matches!(node.kind, OperatorKind::Store { .. }) {
            continue;
        }
        assert_eq!(
            threaded.metrics.activations(node.id),
            simulated.metrics.activations(node.id),
            "activation counts diverge at {} of {}",
            node.name,
            plan.name()
        );
    }
}

#[test]
fn ideal_join_is_backend_equivalent() {
    let session = session(2_000, 200, 16, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    assert_backends_agree(&session, &plan, 4);
}

#[test]
fn assoc_join_is_backend_equivalent() {
    let session = session(2_000, 200, 16, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    assert_backends_agree(&session, &plan, 4);
}

#[test]
fn skewed_joins_are_backend_equivalent() {
    let session = session(3_000, 300, 20, 1.0);
    for plan in [
        plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop),
    ] {
        assert_backends_agree(&session, &plan, 6);
    }
}

/// The tentpole invariant of activation batching: run the same plans at
/// cache sizes 1 (per-tuple transport, the paper's model) and 64 (batched
/// transport) on the engine, and on the simulator under every
/// consumption-strategy regime it models (step-4-picked, forced Random,
/// forced LPT). Cardinalities and per-operation logical activation counts
/// must never move.
#[test]
fn batching_never_changes_logical_work() {
    let session = session(2_000, 200, 16, 0.0);
    let machines = [
        SimConfig::ksr1(),
        SimConfig::ksr1().with_strategy(ConsumptionStrategy::Random),
        SimConfig::ksr1().with_strategy(ConsumptionStrategy::Lpt),
    ];
    for plan in [
        plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop),
    ] {
        let counts = |outcome: &QueryOutcome| -> Vec<Option<u64>> {
            plan.nodes()
                .iter()
                .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                .map(|n| outcome.metrics.activations(n.id))
                .collect()
        };
        let mut reference: Option<(Vec<Option<u64>>, usize)> = None;
        for cache_size in [1usize, 64] {
            let query = || session.query(&plan).threads(4).cache_size(cache_size);
            let threaded = query().run().unwrap();
            for machine in &machines {
                let simulated = query()
                    .on(Backend::Simulated(machine.clone()))
                    .run()
                    .unwrap();
                let regime = format!("strategy {:?}, cache {cache_size}", machine.strategy);
                assert_eq!(
                    threaded.cardinalities,
                    simulated.cardinalities,
                    "cardinalities diverge on {} ({regime})",
                    plan.name()
                );
                assert_eq!(
                    counts(&threaded),
                    counts(&simulated),
                    "logical activation counts diverge between backends on {} ({regime})",
                    plan.name()
                );
            }
            // And they are identical across cache sizes: batch granularity
            // is invisible to logical work.
            let cardinality = threaded.result_cardinality("Result").unwrap();
            let pinned = reference.get_or_insert_with(|| (counts(&threaded), cardinality));
            assert_eq!(
                (&pinned.0, pinned.1),
                (&counts(&threaded), cardinality),
                "logical work depends on the cache size on {} (cache {cache_size})",
                plan.name()
            );
        }
    }
}

/// Hash joins at pool widths 4, 8 and 32 over 4 join instances, on a
/// blocking run's own pool, a caller-owned 4-worker pool and the simulator:
/// at 8 and 32 workers several threads contend for each instance's one
/// index build.
/// Cardinalities must be identical everywhere, and the engine runs must
/// also agree on per-operation logical activation counts — the pool width
/// changes *who* builds an index and when, never what a probe returns. (The
/// simulator is excluded from the per-op comparison for hash joins only
/// because it deliberately models index builds as one extra activation per
/// instance; its *result* must still match.)
#[test]
fn hash_joins_agree_across_pool_widths_and_backends() {
    /// Pinned reference: (cardinalities per store, per-op activation counts).
    type Pinned = (std::collections::BTreeMap<String, usize>, Vec<Option<u64>>);
    let session = session(40_000, 4_000, 4, 0.0);
    let runtime = Runtime::new(4).unwrap();
    for plan in [
        plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
    ] {
        let mut reference: Option<Pinned> = None;
        for threads in [4usize, 8, 32] {
            let query = || session.query(&plan).threads(threads);
            for outcome in [
                query().run().unwrap(),
                query().submit(&runtime).unwrap().wait().unwrap(),
                query()
                    .on(Backend::Simulated(SimConfig::ksr1()))
                    .run()
                    .unwrap(),
            ] {
                let is_engine = outcome.metrics.backend_name() != "simulated";
                let counts: Vec<Option<u64>> = plan
                    .nodes()
                    .iter()
                    .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                    .map(|n| outcome.metrics.activations(n.id))
                    .collect();
                match &reference {
                    None => reference = Some((outcome.cardinalities.clone(), counts)),
                    Some((ref_cards, ref_counts)) => {
                        assert_eq!(
                            ref_cards,
                            &outcome.cardinalities,
                            "cardinalities diverge on {} ({} threads, {})",
                            plan.name(),
                            threads,
                            outcome.metrics.backend_name()
                        );
                        if is_engine {
                            assert_eq!(
                                ref_counts,
                                &counts,
                                "activation counts diverge on {} ({} threads, {})",
                                plan.name(),
                                threads,
                                outcome.metrics.backend_name()
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runtime.live_queries(), 0);
}

/// Morsel-granularity invisibility: splitting triggered fragments into
/// cache-sized morsels changes which worker scans which rows *when*, never
/// what the query computes or how much logical work it reports. Every
/// morsel size — splitting a fragment into dozens of pieces, an uneven
/// divisor, the default, and "never split" — set on the schedule and
/// submitted to both a pool of the schedule's width and a caller-owned one
/// must produce the cardinalities and per-operation logical activation
/// counts of the simulated run (only the lead morsel of a fragment carries
/// logical weight, so counts stay pinned to the simulator's
/// one-activation-per-fragment model).
///
/// Sizing is load-bearing: A partitions into 6_000-row fragments and
/// Bprime into 600-row fragments, so morsel sizes 512 and 1_999 genuinely
/// split the triggered scans of every plan below, while 1_000_000 pins the
/// no-split fallback. The hash-join plans are excluded from the simulator
/// per-op comparison for the same reason as the parallel-build test (the
/// simulator models index builds as one extra activation per instance);
/// their engine runs are compared with each other instead. The nested-loop
/// plan is compared exactly with the simulator.
#[test]
fn morsel_granularity_is_invisible_across_all_backends() {
    let session = session(24_000, 2_400, 4, 0.0);
    let runtime = std::sync::Arc::new(Runtime::new(4).unwrap());
    let activation_counts = |plan: &Plan, outcome: &QueryOutcome| -> Vec<Option<u64>> {
        plan.nodes()
            .iter()
            .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
            .map(|n| outcome.metrics.activations(n.id))
            .collect()
    };
    for (plan, sim_counts_exact) in [
        (
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
            true,
        ),
        (
            plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            false,
        ),
        (
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            false,
        ),
    ] {
        let query = || session.query(&plan).threads(4);
        let simulated = query()
            .on(Backend::Simulated(SimConfig::ksr1()))
            .run()
            .unwrap();
        let sim_counts = activation_counts(&plan, &simulated);
        let mut engine_counts: Option<Vec<Option<u64>>> = None;
        for morsel_rows in [512usize, 1_999, 4_096, 1_000_000] {
            let schedule = query().schedule().unwrap().with_morsel_rows(morsel_rows);
            let own = Runtime::new(schedule.query_threads()).unwrap();
            for pool in [&own, &runtime] {
                let outcome = QueryOutcome::from_execution(
                    pool.submit(session.catalog(), &plan, &schedule)
                        .unwrap()
                        .wait()
                        .unwrap(),
                );
                assert_eq!(
                    simulated.cardinalities,
                    outcome.cardinalities,
                    "cardinalities diverge on {} (morsel_rows {})",
                    plan.name(),
                    morsel_rows
                );
                let counts = activation_counts(&plan, &outcome);
                if sim_counts_exact {
                    assert_eq!(
                        sim_counts,
                        counts,
                        "logical activation counts diverge from the simulator on {} \
                         (morsel_rows {})",
                        plan.name(),
                        morsel_rows
                    );
                }
                let reference = engine_counts.get_or_insert_with(|| counts.clone());
                assert_eq!(
                    reference,
                    &counts,
                    "logical activation counts diverge on {} (morsel_rows {})",
                    plan.name(),
                    morsel_rows
                );
            }
        }
    }
    assert_eq!(runtime.live_queries(), 0);
}

/// A query without `.threads(n)` runs with the thread count scheduling
/// step 1 derives from its complexity on the simulated backend too, not
/// with a machine default.
#[test]
fn simulated_backend_uses_the_derived_thread_count() {
    for (a_card, b_card, degree, algorithm, derived) in [
        (1_000, 100, 8, JoinAlgorithm::Hash, 1),
        (20_000, 2_000, 20, JoinAlgorithm::NestedLoop, 9),
    ] {
        let session = session(a_card, b_card, degree, 0.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", algorithm);
        let query_threads = session.query(&plan).schedule().unwrap().query_threads();
        assert_eq!(query_threads, derived, "{algorithm:?} join");
        let simulated = session
            .query(&plan)
            .on(Backend::Simulated(SimConfig::ksr1()))
            .run()
            .unwrap();
        assert_eq!(
            simulated.metrics.total_threads(),
            query_threads,
            "{algorithm:?} join"
        );
    }
}

#[test]
fn selection_is_backend_equivalent_on_cardinality() {
    let session = session(2_000, 200, 10, 0.0);
    let plan = plans::selection("A", Predicate::one_in("ten", 10), "Selected");
    let threaded = session.query(&plan).threads(3).run().unwrap();
    let simulated = session
        .query(&plan)
        .threads(3)
        .on(Backend::Simulated(SimConfig::ksr1()))
        .run()
        .unwrap();
    assert_eq!(threaded.cardinalities, simulated.cardinalities);
    assert_eq!(threaded.result_cardinality("Selected"), Some(200));
}

#[test]
fn shared_metric_accessors_are_populated_on_both_backends() {
    let session = session(2_000, 200, 16, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    for backend in [Backend::Threaded, Backend::Simulated(SimConfig::ksr1())] {
        let outcome = session.query(&plan).threads(4).on(backend).run().unwrap();
        assert!(outcome.elapsed() > std::time::Duration::ZERO);
        assert!(outcome.metrics.total_activations() > 0);
        assert!(outcome.metrics.worst_imbalance() >= 1.0);
        assert_eq!(outcome.metrics.total_threads(), 4);
    }
}

/// Threads mean threads: the default threaded backend runs a query on a
/// pool exactly as wide as the query's thread count — `.threads(1)` is one
/// worker, however many operations the plan has — and without `.threads()`
/// on the width scheduling step 1 derives.
#[test]
fn threaded_backend_is_as_wide_as_the_query() {
    let session = session(10_000, 1_000, 20, 0.0);
    for plan in [
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
    ] {
        let one = session.query(&plan).threads(1).run().unwrap();
        assert_eq!(one.metrics.total_threads(), 1, "{}", plan.name());
        let derived = session.query(&plan).schedule().unwrap().query_threads();
        let outcome = session.query(&plan).run().unwrap();
        assert_eq!(outcome.metrics.total_threads(), derived, "{}", plan.name());
    }
}
