//! Cache-counter equivalence: the tests that assert on the engine's
//! process-wide cache counters, in a test binary of their own.
//!
//! The plan and index caches — and their hit/miss/eviction counters — are
//! one process-wide static (`crates/engine/src/cache.rs`). Inside
//! `backend_equivalence` these tests shared a process with degree-200
//! sessions whose index entries pushed this file's eight entries out of the
//! 1024-entry LRU between rounds, so "warm round missed the cache" failed
//! most runs on a 2-vCPU host. Here they have no neighbours (own process)
//! and run one at a time (the file-local [`SERIAL`] mutex), so counter
//! deltas are exact.
//!
//! This is the stop-gap. The root-cause fix is ROADMAP item 6(a): caches
//! owned by the `Runtime`/`Session` instead of the process, after which a
//! neighbour cannot evict what it cannot reach and these tests can move
//! back.

use dbs3::prelude::*;
use dbs3_lera::OperatorKind;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// One test at a time; a test that failed while holding the lock must not
/// fail the others through poisoning.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
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

/// Prepared-query and shared-index caching must be *invisible* to results:
/// the first (cold) execution populates the caches, every later (warm)
/// execution of the same plan is served by them — and cardinalities plus
/// per-operation logical activation counts must be bit-identical between
/// the cold run and warm runs on a blocking run's own pool, a caller-owned
/// pool and the simulator. The cache-stats delta metered around each warm engine run
/// proves the warm path actually hit the caches rather than accidentally
/// rebuilding.
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
        // Round 0 is cold for this (fresh) session's generations; rounds
        // 1..3 repeat the identical query and must be served by the caches.
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
                // The cache signal of a warm engine run is the shared
                // build-side index, which operator binding consults during
                // execution.
                if round > 0 {
                    if let Some(stats) = stats {
                        assert!(
                            stats.index.hits >= 1,
                            "warm round {round} of {} missed the shared-index cache: {stats:?}",
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

/// Generation-based invalidation end-to-end: replacing a relation in the
/// catalog must route the next execution of a cached plan to a *fresh*
/// build over the new data — correct new results, never the stale index —
/// and the stale entries must leave the caches as evictions, observable in
/// the process-wide counters.
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
