//! Cross-crate integration tests: storage → plans → scheduler → engine →
//! simulator, checked against reference implementations and against the
//! analytical model. Everything runs through the `Session`/`Query` facade —
//! the same API the examples and the experiment harness use.

use dbs3::prelude::*;
use dbs3_lera::NodeId;

/// Builds a session with relation `A` (optionally Zipf-skewed on its
/// fragment cardinalities) and `Bprime`, both partitioned on `unique1`.
fn build_session(a_card: usize, b_card: usize, degree: usize, theta: f64) -> Session {
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

fn reference_join_size(session: &Session) -> usize {
    let a = session.catalog().get("A").unwrap().reassemble();
    let b = session.catalog().get("Bprime").unwrap().reassemble();
    a.reference_join(&b, "unique1", "unique1").unwrap().len()
}

fn run_threaded(session: &Session, plan: &Plan, threads: usize) -> usize {
    session
        .query(plan)
        .threads(threads)
        .run()
        .unwrap()
        .result_cardinality("Result")
        .unwrap()
}

#[test]
fn ideal_and_assoc_join_agree_with_each_other_and_the_reference() {
    let session = build_session(2_000, 200, 16, 0.0);
    let expected = reference_join_size(&session);
    for algorithm in [
        JoinAlgorithm::NestedLoop,
        JoinAlgorithm::Hash,
        JoinAlgorithm::TempIndex,
    ] {
        let ideal = plans::ideal_join("A", "Bprime", "unique1", algorithm);
        let assoc = plans::assoc_join("Bprime", "A", "unique1", algorithm);
        assert_eq!(
            run_threaded(&session, &ideal, 4),
            expected,
            "IdealJoin {algorithm:?}"
        );
        assert_eq!(
            run_threaded(&session, &assoc, 4),
            expected,
            "AssocJoin {algorithm:?}"
        );
    }
}

#[test]
fn skewed_execution_still_produces_correct_results() {
    let session = build_session(3_000, 300, 25, 1.0);
    let expected = reference_join_size(&session);
    let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    for threads in [1usize, 3, 8] {
        assert_eq!(run_threaded(&session, &ideal, threads), expected);
        assert_eq!(run_threaded(&session, &assoc, threads), expected);
    }
}

#[test]
fn filter_join_pipeline_matches_reference_selection_plus_join() {
    let session = build_session(2_000, 2_000, 10, 0.0);
    let a = session.catalog().get("A").unwrap().reassemble();
    let b = session.catalog().get("Bprime").unwrap().reassemble();
    let plan = plans::filter_join(
        "A",
        Predicate::range("unique1", 0, 500),
        "Bprime",
        "unique1",
        JoinAlgorithm::Hash,
    );
    let outcome = session.query(&plan).threads(4).run().unwrap();

    let selected = a.reference_select(|t| {
        let v = t.value(0).as_int().unwrap();
        (0..500).contains(&v)
    });
    let filtered = Relation::new("Af", a.schema().clone(), selected).unwrap();
    let expected = filtered
        .reference_join(&b, "unique1", "unique1")
        .unwrap()
        .len();
    assert_eq!(outcome.result_cardinality("Result"), Some(expected));
}

#[test]
fn engine_and_simulator_agree_on_activation_counts() {
    let session = build_session(2_000, 200, 20, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);

    let threaded = session.query(&plan).threads(4).run().unwrap();
    let simulated = session
        .query(&plan)
        .threads(4)
        .on(Backend::Simulated(SimConfig::ksr1()))
        .run()
        .unwrap();

    // One data activation per transmitted B' tuple in both systems (the
    // nested-loop pipelined join has no extra build activations).
    assert_eq!(threaded.metrics.activations(NodeId(1)), Some(200));
    assert_eq!(simulated.metrics.activations(NodeId(1)), Some(200));
}

#[test]
fn pipelined_join_is_insensitive_to_skew_end_to_end() {
    // Run the real engine on a skewed and an unskewed AssocJoin: every data
    // activation must be consumed exactly once and the result must match the
    // reference join regardless of skew — the engine-level counterpart of
    // Figure 12. (Per-thread balance is not asserted here: on a single-CPU
    // host one worker can legitimately drain most of a tiny queue before the
    // others are even scheduled.)
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    for theta in [0.0, 1.0] {
        let session = build_session(4_000, 400, 20, theta);
        let expected = reference_join_size(&session);
        let outcome = session.query(&plan).threads(4).run().unwrap();
        // One data activation per transmitted B' tuple, none lost or
        // duplicated, and a correct join result.
        assert_eq!(
            outcome.metrics.activations(NodeId(1)),
            Some(400),
            "theta={theta}"
        );
        assert_eq!(
            outcome.result_cardinality("Result"),
            Some(expected),
            "theta={theta}"
        );
    }
}

#[test]
fn simulator_speedup_ceiling_matches_analytic_nmax() {
    // Figure 15's ceilings: the simulated speed-up of a skewed triggered
    // join saturates near n_max = a / (Pmax/P).
    let degree = 100usize;
    let session = build_session(20_000, 2_000, degree, 1.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let speedup = |threads: usize| {
        session
            .query(&plan)
            .threads(threads)
            .on(Backend::Simulated(
                SimConfig::ksr1().with_strategy(ConsumptionStrategy::Lpt),
            ))
            .run()
            .unwrap()
            .sim_report()
            .unwrap()
            .execution_speedup()
    };
    let s40 = speedup(40);
    let s70 = speedup(70);
    let nmax = n_max(degree as u64, zipf_max_to_avg(1.0, degree));
    assert!(
        s40 <= nmax * 1.6,
        "speed-up {s40} far above the analytic ceiling {nmax}"
    );
    assert!(
        (s70 - s40).abs() < nmax * 0.5,
        "speed-up should plateau: {s40} vs {s70}"
    );
}
