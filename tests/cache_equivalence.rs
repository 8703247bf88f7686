//! Cache-counter equivalence: the tests that assert on the engine's
//! process-wide cache counters, in a test binary of their own.
//!
//! Prepared plans are cached process-wide, and build-side indexes live in
//! the fragments they index; the plan cache and the index hit/miss counters
//! are one process-wide static (`crates/engine/src/cache.rs`). The counters
//! being process-wide is why these tests keep a binary of their own and run
//! one at a time (the file-local [`SERIAL`] mutex): any query running beside
//! one of them would add to its counter deltas, which are exact here. They
//! can move back once the counters are owned by the `Runtime`/`Session`
//! instead of the process (ROADMAP item 4(a)/(b)).

use dbs3::prelude::*;
use dbs3_lera::OperatorKind;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// One test at a time; a test that failed while holding the lock must not
/// fail the others through poisoning.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `run`, returning its outcome and the cache activity it caused
/// (exactly its own: [`SERIAL`] keeps every other test of this binary out).
fn metered(run: impl FnOnce() -> QueryOutcome) -> (QueryOutcome, CacheStats) {
    let before = dbs3::cache_stats();
    let outcome = run();
    (outcome, dbs3::cache_stats().since(&before))
}

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

/// Prepared-plan caching and fragment-owned indexes must be *invisible* to
/// results: the first (cold) execution prepares the plan and builds the
/// indexes, every later (warm) execution of the same plan is served by them — and cardinalities plus
/// per-operation logical activation counts must be bit-identical between
/// the cold run and warm runs on a blocking run's own pool, a caller-owned
/// pool and the simulator. The cache-stats delta metered around each warm
/// engine run proves the warm path actually found built indexes rather
/// than accidentally rebuilding.
#[test]
fn cached_setup_is_identical_to_cold_setup_across_all_backends() {
    let _serial = serial();
    /// Pinned reference: (cardinalities per store, per-op activation counts).
    type Pinned = (std::collections::BTreeMap<String, usize>, Vec<Option<u64>>);
    let session = session(8_000, 800, 8, 0.0);
    let runtime = Runtime::new(4).unwrap();
    for plan in [
        plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
    ] {
        let mut reference: Option<Pinned> = None;
        // Round 0 is cold for this (fresh) session's relations; rounds 1..3
        // repeat the identical query and must be served by what it built.
        for round in 0..3 {
            let query = || session.query(&plan).threads(4);
            let (run, run_stats) = metered(|| query().run().unwrap());
            let (submitted, submit_stats) =
                metered(|| query().submit(&runtime).unwrap().wait().unwrap());
            let simulated = query()
                .on(Backend::Simulated(SimConfig::ksr1()))
                .run()
                .unwrap();
            for (outcome, stats) in [
                (run, Some(run_stats)),
                (submitted, Some(submit_stats)),
                (simulated, None),
            ] {
                // The cache signal of a warm engine run is the build-side
                // index, which the join resolves from its inner fragment
                // during execution.
                if round > 0 {
                    if let Some(stats) = stats {
                        assert!(
                            stats.index.hits >= 1,
                            "warm round {round} of {} rebuilt a fragment's index: {stats:?}",
                            plan.name()
                        );
                    }
                }
                let counts: Vec<Option<u64>> = plan
                    .nodes()
                    .iter()
                    .filter(|n| !matches!(n.kind, OperatorKind::Store { .. }))
                    .map(|n| outcome.metrics.activations(n.id))
                    .collect();
                let is_engine = outcome.metrics.backend_name() != "simulated";
                match &reference {
                    None => reference = Some((outcome.cardinalities.clone(), counts)),
                    Some((ref_cards, ref_counts)) => {
                        assert_eq!(
                            ref_cards,
                            &outcome.cardinalities,
                            "cached round {round} changed cardinalities on {} ({})",
                            plan.name(),
                            outcome.metrics.backend_name()
                        );
                        if is_engine {
                            assert_eq!(
                                ref_counts,
                                &counts,
                                "cached round {round} changed activation counts on {} ({})",
                                plan.name(),
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

/// Invalidation end-to-end: replacing a relation in the catalog must route
/// the next execution of a cached plan to a *fresh* preparation and fresh
/// index builds over the new data — correct new results, never a stale
/// index — and the stale plan must leave the plan cache as an eviction,
/// observable in the process-wide counters.
#[test]
fn catalog_mutation_invalidates_cached_plans_and_indexes() {
    let _serial = serial();
    let mut session = session(2_000, 200, 16, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    // Warm the caches on the original catalog (A is the build side).
    let before = session.query(&plan).threads(4).run().unwrap();
    assert_eq!(before.result_cardinality("Result"), Some(200));
    let _ = session.query(&plan).threads(4).run().unwrap();

    // Replace the *probe* side with twice the tuples: the correct result
    // doubles. A stale prepared plan would be rejected; a stale shared
    // index of A would still be correct here, so also replace A — a stale
    // A-index would now probe against vanished data and change the result.
    let baseline = dbs3::cache_stats();
    let spec = PartitionSpec::on("unique1", 16, 4);
    let regenerate = |name: &str, card: usize| {
        let relation = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow(name, card))
            .unwrap();
        PartitionedRelation::from_relation(&relation, spec.clone()).unwrap()
    };
    session.catalog_mut().replace(regenerate("Bprime", 400));
    session.catalog_mut().replace(regenerate("A", 4_000));

    let after = session.query(&plan).threads(4).run().unwrap();
    assert_eq!(
        after.result_cardinality("Result"),
        Some(400),
        "mutated catalog must be served by fresh builds, not stale caches"
    );
    let delta = dbs3::cache_stats().since(&baseline);
    assert!(
        delta.plan.evictions >= 1,
        "the stale prepared plan must be evicted: {delta:?}"
    );
    assert!(
        delta.plan.misses >= 1 && delta.index.misses >= 1,
        "the first post-mutation run must rebuild: {delta:?}"
    );

    // And the re-warmed state is served again: a second run hits.
    let (rewarmed, stats) = metered(|| session.query(&plan).threads(4).run().unwrap());
    assert_eq!(rewarmed.result_cardinality("Result"), Some(400));
    assert!(stats.index.hits >= 1, "re-warmed run must hit: {stats:?}");
}

/// `A` without its row keyed 0, which joins one Bprime row; every other
/// tuple is shared with `full`, and only one fragment differs.
fn without_key_zero(full: &PartitionedRelation) -> PartitionedRelation {
    let key = full.schema().column_index("unique1").unwrap();
    let kept: Vec<Tuple> = full
        .reassemble()
        .tuples()
        .iter()
        .filter(|t| t.value(key) != &Value::Int(0))
        .cloned()
        .collect();
    let shorter = Relation::new("A", full.schema().clone(), kept).unwrap();
    PartitionedRelation::from_relation(&shorter, full.spec().clone()).unwrap()
}

/// Submits `plan` on `runtime`, metering the cache activity it causes.
fn metered_submit(session: &Session, plan: &Plan, runtime: &Runtime) -> (QueryOutcome, CacheStats) {
    metered(|| {
        let handle = session.query(plan).threads(4).submit(runtime);
        handle.unwrap().wait().unwrap()
    })
}

/// A freshly built edit rebuilds only the fragments it changed. Two
/// versions of the build side `A` that differ by one row, each installed as
/// a fresh copy with no index built, alternated on one runtime: after the
/// cold first query, each query meters exactly one index miss (the edited
/// fragment's build) and `degree - 1` hits (the indexes `replace` handed
/// over from the equal fragments), while the cardinalities alternate. Index
/// evictions stay 0: an index goes with its fragment. The control, a
/// regenerated `A` in which every fragment changed, meters exactly `degree`
/// misses.
#[test]
fn a_replace_rebuilds_only_the_fragments_it_changed() {
    let _serial = serial();
    let degree = 8;
    let mut session = session(4_000, 400, degree, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let runtime = Runtime::new(4).unwrap();

    let full = session.catalog().get("A").unwrap();
    let versions = [((*full).clone(), 400), (without_key_zero(&full), 399)];
    drop(full);
    for round in 0..6 {
        let (version, expected) = &versions[round % 2];
        session.catalog_mut().replace(version.clone());
        let (outcome, stats) = metered_submit(&session, &plan, &runtime);
        assert_eq!(
            outcome.result_cardinality("Result"),
            Some(*expected),
            "round {round}"
        );
        if round > 0 {
            let index = stats.index;
            assert_eq!(
                (index.misses, index.hits, index.evictions),
                (1, degree as u64 - 1, 0),
                "round {round} must rebuild only the edited fragment: {stats:?}"
            );
        }
    }

    // The control: a regenerated A with twice the rows changes every
    // fragment, so every index is rebuilt.
    let doubled = WisconsinGenerator::new()
        .generate(&WisconsinConfig::narrow("A", 8_000))
        .unwrap();
    session.catalog_mut().replace(
        PartitionedRelation::from_relation(&doubled, PartitionSpec::on("unique1", degree, 4))
            .unwrap(),
    );
    let (outcome, stats) = metered_submit(&session, &plan, &runtime);
    assert_eq!(outcome.result_cardinality("Result"), Some(400));
    assert_eq!(
        stats.index.misses, degree as u64,
        "every fragment changed: {stats:?}"
    );
    assert_eq!(runtime.live_queries(), 0);
}

/// A reinstalled version rebuilds nothing. The two versions of `A` above
/// alternate the way a write-heavy client reinstalls them: each `replace`
/// returns the version it displaced, which is taken back whole
/// (`Arc::try_unwrap`, or a clone while a pool worker still holds it) and
/// installed again two queries later, its fragments still owning the
/// indexes they built. From round 2 on, when both versions have been
/// queried, every query meters index `(misses, hits) == (0, degree)`.
#[test]
fn a_reinstalled_version_rebuilds_no_index() {
    let _serial = serial();
    let degree = 8;
    let mut session = session(4_000, 400, degree, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let runtime = Runtime::new(4).unwrap();

    let mut spare = without_key_zero(&session.catalog().get("A").unwrap());
    for round in 0..6 {
        let previous = session.catalog_mut().replace(spare).unwrap();
        spare = Arc::try_unwrap(previous).unwrap_or_else(|shared| (*shared).clone());
        let (outcome, stats) = metered_submit(&session, &plan, &runtime);
        let expected = if round % 2 == 0 { 399 } else { 400 };
        assert_eq!(
            outcome.result_cardinality("Result"),
            Some(expected),
            "round {round}"
        );
        if round >= 2 {
            assert_eq!(
                (stats.index.misses, stats.index.hits),
                (0, degree as u64),
                "round {round} reinstalled a version whose indexes are built: {stats:?}"
            );
        }
    }
    assert_eq!(runtime.live_queries(), 0);
}

/// One plan-cache entry per preparation, not two: after `clear_caches()` a
/// cold `prepare` is exactly one miss, a warm repeat exactly one hit, and a
/// `prepare` after a catalog `replace` exactly one miss and one eviction
/// (the stale prepared plan). Before the bare-expansion entry was removed
/// each cold preparation cost two lookups, two inserts and — after a
/// replace — two evictions.
#[test]
fn one_preparation_is_one_plan_cache_entry() {
    let _serial = serial();
    let mut session = session(800, 80, 8, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let plan_delta = |session: &Session| {
        let before = dbs3::cache_stats();
        session.query(&plan).threads(2).prepare().unwrap();
        dbs3::cache_stats().since(&before).plan
    };

    dbs3::clear_caches();
    let cold = plan_delta(&session);
    assert_eq!((cold.hits, cold.misses, cold.evictions), (0, 1, 0), "cold");
    let warm = plan_delta(&session);
    assert_eq!((warm.hits, warm.misses, warm.evictions), (1, 0, 0), "warm");

    let a = WisconsinGenerator::new()
        .generate(&WisconsinConfig::narrow("A", 800))
        .unwrap();
    session.catalog_mut().replace(
        PartitionedRelation::from_relation(&a, PartitionSpec::on("unique1", 8, 4)).unwrap(),
    );
    let replaced = plan_delta(&session);
    assert_eq!(
        (replaced.hits, replaced.misses, replaced.evictions),
        (0, 1, 1),
        "after replace"
    );
}
