//! Single-query execution against reference results: every plan shape the
//! engine binds (triggered and pipelined joins, filters, selections), under
//! scheduler-built schedules, must produce exactly what the sequential
//! reference evaluator produces — plus the shape of the reported metrics,
//! prepared execution and result discarding (including that a discarding run counts exactly the rows a
//! materialising run builds).

use dbs3_engine::{
    ExecutionOutcome, ExecutionSchedule, PreparedPlan, Runtime, Scheduler, SchedulerOptions,
};
use dbs3_lera::{
    plans, CostParameters, ExtendedPlan, JoinAlgorithm, JoinCondition, Plan, PlanBuilder, Predicate,
};
use dbs3_storage::{
    Catalog, PartitionSpec, PartitionedRelation, Relation, WisconsinConfig, WisconsinGenerator,
};
use std::time::Duration;

/// Runs `plan` under `schedule` on a pool of the schedule's width and
/// blocks for the outcome.
fn execute(
    catalog: &Catalog,
    plan: &Plan,
    schedule: &ExecutionSchedule,
) -> dbs3_engine::Result<ExecutionOutcome> {
    Runtime::new(schedule.query_threads())?
        .submit(catalog, plan, schedule)?
        .wait()
}

/// Same, for a plan prepared by [`dbs3_engine::prepare`].
fn execute_prepared(
    catalog: &Catalog,
    prepared: &PreparedPlan,
) -> dbs3_engine::Result<ExecutionOutcome> {
    Runtime::new(prepared.schedule().query_threads())?
        .submit_prepared(catalog, prepared)?
        .wait()
}

fn build_catalog(
    a_card: usize,
    b_card: usize,
    degree: usize,
    skew: f64,
) -> (Catalog, Relation, Relation) {
    let gen = WisconsinGenerator::new();
    let a = gen.generate(&WisconsinConfig::narrow("A", a_card)).unwrap();
    let b = gen
        .generate(&WisconsinConfig::narrow("Bprime", b_card))
        .unwrap();
    let spec = PartitionSpec::on("unique1", degree, 4);
    let a_part = if skew > 0.0 {
        PartitionedRelation::from_relation_with_skew(&a, spec.clone(), skew).unwrap()
    } else {
        PartitionedRelation::from_relation(&a, spec.clone()).unwrap()
    };
    // Reference relations must reflect what is actually stored (skewed
    // partitioning re-keys tuples), so reassemble from the partitions.
    let a_ref = a_part.reassemble();
    let b_part = PartitionedRelation::from_relation(&b, spec).unwrap();
    let b_ref = b_part.reassemble();
    let mut cat = Catalog::new();
    cat.register(a_part).unwrap();
    cat.register(b_part).unwrap();
    (cat, a_ref, b_ref)
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

#[test]
fn ideal_join_produces_reference_result() {
    let (cat, a_ref, b_ref) = build_catalog(800, 80, 10, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, &cat, 4);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
    assert_eq!(outcome.results["Result"].len(), expected.len());
    assert_eq!(outcome.cardinalities["Result"], expected.len());
    assert!(outcome.metrics.total_activations() > 0);
}

#[test]
fn assoc_join_produces_reference_result() {
    let (cat, a_ref, b_ref) = build_catalog(600, 60, 8, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, &cat, 6);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let expected = b_ref.reference_join(&a_ref, "unique1", "unique1").unwrap();
    assert_eq!(outcome.results["Result"].len(), expected.len());
    // The pipelined join received one data activation per B' tuple.
    let join_metrics = outcome.metrics.operation(dbs3_lera::NodeId(1)).unwrap();
    assert_eq!(join_metrics.total_activations(), 60);
}

#[test]
fn filter_join_respects_predicate() {
    let (cat, a_ref, b_ref) = build_catalog(500, 500, 6, 0.0);
    let plan = plans::filter_join(
        "A",
        Predicate::range("unique1", 0, 100),
        "Bprime",
        "unique1",
        JoinAlgorithm::NestedLoop,
    );
    let schedule = schedule_for(&plan, &cat, 3);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let filtered = a_ref.reference_select(|t| {
        let v = t.value(0).as_int().unwrap();
        (0..100).contains(&v)
    });
    let filtered_rel = Relation::new("Af", a_ref.schema().clone(), filtered).unwrap();
    let expected = filtered_rel
        .reference_join(&b_ref, "unique1", "unique1")
        .unwrap();
    assert_eq!(outcome.results["Result"].len(), expected.len());
}

#[test]
fn selection_stores_matching_tuples() {
    let (cat, a_ref, _) = build_catalog(1000, 10, 10, 0.0);
    let plan = plans::selection("A", Predicate::one_in("ten", 10), "Selected");
    let schedule = schedule_for(&plan, &cat, 4);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let expected = a_ref.reference_select(|t| t.value(4).as_int().unwrap() == 0);
    assert_eq!(outcome.results["Selected"].len(), expected.len());
    assert_eq!(outcome.results.len(), 1);
}

/// Skewed triggered and pipelined joins match the reference, and the queue
/// scan accounts for every activation: on one worker every queue is a main
/// queue, and on two workers with a queue capacity of 2, which forces
/// help-draining, each logical activation is still counted exactly once as
/// main or secondary.
#[test]
fn skewed_joins_match_reference_and_count_every_activation_as_main_or_secondary() {
    let (cat, a_ref, b_ref) = build_catalog(1000, 100, 20, 1.0);
    let cases = [
        (
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop),
            a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap(),
        ),
        (
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            b_ref.reference_join(&a_ref, "unique1", "unique1").unwrap(),
        ),
    ];
    for (plan, expected) in &cases {
        let ext = ExtendedPlan::from_plan(plan, &cat, &CostParameters::default()).unwrap();
        for (workers, queue_capacity) in [(1, 1024), (2, 2)] {
            let options = SchedulerOptions {
                queue_capacity,
                ..SchedulerOptions::default().with_total_threads(workers)
            };
            let schedule = Scheduler::build(plan, &ext, &options).unwrap();
            let outcome = Runtime::new(workers)
                .unwrap()
                .submit(&cat, plan, &schedule)
                .unwrap()
                .wait()
                .unwrap();
            let case = format!("{} on {workers} worker(s)", plan.name());
            assert_eq!(outcome.results["Result"].len(), expected.len(), "{case}");
            for op in &outcome.metrics.operations {
                let hits = |f: fn(&dbs3_engine::metrics::ThreadMetrics) -> u64| -> u64 {
                    op.threads.iter().map(f).sum()
                };
                assert_eq!(
                    hits(|t| t.main_queue_hits) + hits(|t| t.secondary_queue_hits),
                    op.total_activations(),
                    "{case}, {}",
                    op.name
                );
                if workers == 1 {
                    assert_eq!(op.secondary_consumption_ratio(), 0.0, "{case}, {}", op.name);
                }
            }
        }
    }
}

#[test]
fn single_thread_execution_works() {
    let (cat, a_ref, b_ref) = build_catalog(300, 30, 5, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, &cat, 1);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
    assert_eq!(outcome.results["Result"].len(), expected.len());
}

#[test]
fn more_threads_than_instances_still_correct() {
    let (cat, a_ref, b_ref) = build_catalog(200, 20, 3, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, &cat, 12);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
    assert_eq!(outcome.results["Result"].len(), expected.len());
}

#[test]
fn metrics_report_queue_and_thread_structure() {
    let (cat, _, _) = build_catalog(400, 40, 8, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, &cat, 4);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let m = &outcome.metrics;
    assert_eq!(m.operations.len(), 3);
    for op in &m.operations {
        assert_eq!(op.queues, 8);
        assert!(!op.threads.is_empty());
    }
    assert!(m.elapsed > Duration::ZERO);
    assert!(m.worst_imbalance() >= 1.0);
}

#[test]
fn prepared_execution_matches_cold_execution() {
    let (cat, a_ref, b_ref) = build_catalog(500, 50, 6, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let options = SchedulerOptions::default().with_total_threads(3);
    let prepared = dbs3_engine::prepare(&cat, &plan, &options, &CostParameters::default()).unwrap();
    let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
    for _ in 0..2 {
        let outcome = execute_prepared(&cat, &prepared).unwrap();
        assert_eq!(outcome.results["Result"].len(), expected.len());
    }
    // A catalog mutation makes the preparation stale: typed error, and
    // a fresh preparation works again.
    let mut mutated = cat.clone();
    mutated.replace(
        PartitionedRelation::from_relation(&a_ref, PartitionSpec::on("unique1", 6, 4)).unwrap(),
    );
    assert!(execute_prepared(&mutated, &prepared).is_err());
    let fresh =
        dbs3_engine::prepare(&mutated, &plan, &options, &CostParameters::default()).unwrap();
    let outcome = execute_prepared(&mutated, &fresh).unwrap();
    assert_eq!(outcome.results["Result"].len(), expected.len());
}

#[test]
fn discarded_results_report_cardinalities_only() {
    let (cat, a_ref, b_ref) = build_catalog(600, 60, 8, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let schedule = schedule_for(&plan, &cat, 4).with_discard_results(true);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
    assert_eq!(outcome.cardinalities["Result"], expected.len());
    assert!(outcome.results["Result"].is_empty());
    assert!(outcome.metrics.total_activations() > 0);
}

/// A, B′ and C on `unique1` at degree 6; with `empty_fragment`, A loses every
/// row of its fragment 0 (an instance whose trigger scans — and whose inner
/// side holds — nothing). Returns the relations as stored.
fn equivalence_catalog(empty_fragment: bool) -> (Catalog, [Relation; 3]) {
    let spec = PartitionSpec::on("unique1", 6, 2);
    let mut cat = Catalog::new();
    let relations = [("A", 600), ("Bprime", 120), ("C", 300)].map(|(name, rows)| {
        let mut rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow(name, rows))
            .unwrap();
        if empty_fragment && name == "A" {
            let u1 = rel.column_index("unique1").unwrap();
            let kept = rel.reference_select(|t| spec.fragment_of_hash(t.hash_key(&[u1])) != 0);
            rel = Relation::new(name, rel.schema().clone(), kept).unwrap();
        }
        let part = PartitionedRelation::from_relation(&rel, spec.clone()).unwrap();
        assert_eq!(
            part.fragment(0).unwrap().cardinality() == 0,
            empty_fragment && name == "A"
        );
        cat.register(part).unwrap();
        rel
    });
    (cat, relations)
}

fn bag(tuples: &[dbs3_storage::Tuple]) -> std::collections::HashMap<&dbs3_storage::Tuple, usize> {
    let mut bag = std::collections::HashMap::new();
    for t in tuples {
        *bag.entry(t).or_insert(0) += 1;
    }
    bag
}

/// A discarding run counts rows where a materialising run builds them (the
/// filter or join feeding the counting store never constructs a tuple), so
/// the two must agree on everything but the rows themselves: cardinalities
/// and, per operation, logical activations and tuples out — while the
/// materialised bag is the sequential reference's.
#[test]
fn discarding_counts_exactly_what_materialising_builds() {
    let runtime = Runtime::new(2).unwrap();
    let low = |t: &dbs3_storage::Tuple| (0..200).contains(&t.value(0).as_int().unwrap());
    for empty_fragment in [false, true] {
        let (cat, [a, b, c]) = equivalence_catalog(empty_fragment);
        let a_low = Relation::new("Alow", a.schema().clone(), a.reference_select(low)).unwrap();
        let b_a = b.reference_join(&a, "unique1", "unique1").unwrap();
        let b_a_c = Relation::new("BA", b.schema().join(a.schema(), "A"), b_a.clone())
            .unwrap()
            .reference_join(&c, "unique1", "unique1")
            .unwrap();
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            // transmit(B′) → join(A) → join(C) → store: only the last join
            // feeds the store, so only it may count; the first must keep
            // building the rows the second probes with. (The first join's
            // output schema prefixes A's colliding columns, so `unique1`
            // still names B′'s key and the chain validates.)
            let chain = {
                let mut p = PlanBuilder::new("JoinChain");
                let transmit = p.transmit("Bprime", "unique1");
                let natural = || JoinCondition::natural("unique1");
                let first = p.pipelined_join(transmit, "A", natural(), algorithm);
                let second = p.pipelined_join(first, "C", natural(), algorithm);
                p.store(second, "Result");
                p.build()
            };
            chain.validate(&cat).unwrap();
            // transmit(B′) → store: the store receives row positions, which
            // a materialising store turns back into B′'s rows.
            let redistribute = {
                let mut p = PlanBuilder::new("TransmitStore");
                let transmit = p.transmit("Bprime", "unique1");
                p.store(transmit, "Result");
                p.build()
            };
            redistribute.validate(&cat).unwrap();
            let range = || Predicate::range("unique1", 0, 200);
            let cases = [
                (
                    plans::ideal_join("A", "Bprime", "unique1", algorithm),
                    a.reference_join(&b, "unique1", "unique1").unwrap(),
                ),
                (
                    plans::assoc_join("Bprime", "A", "unique1", algorithm),
                    b_a.clone(),
                ),
                (
                    plans::filter_join("A", range(), "Bprime", "unique1", algorithm),
                    a_low.reference_join(&b, "unique1", "unique1").unwrap(),
                ),
                (
                    plans::selection("A", range(), "Result"),
                    a.reference_select(low),
                ),
                (chain, b_a_c.clone()),
                (redistribute, b.tuples().to_vec()),
            ];
            for (plan, expected) in &cases {
                // One trigger per fragment, then morsels of 7 rows.
                for morsel_rows in [usize::MAX, 7] {
                    let case = format!(
                        "{} {algorithm:?} morsel_rows={morsel_rows} empty_fragment={empty_fragment}",
                        plan.name()
                    );
                    let run = |discard: bool| {
                        let schedule = schedule_for(plan, &cat, 2)
                            .with_morsel_rows(morsel_rows)
                            .with_discard_results(discard);
                        runtime
                            .submit(&cat, plan, &schedule)
                            .unwrap()
                            .wait()
                            .unwrap()
                    };
                    let (built, counted) = (run(false), run(true));
                    assert!(
                        !expected.is_empty(),
                        "{case}: a vacuous case proves nothing"
                    );
                    assert_eq!(bag(&built.results["Result"]), bag(expected), "{case}");
                    assert!(counted.results["Result"].is_empty(), "{case}");
                    assert_eq!(counted.cardinalities, built.cardinalities, "{case}");
                    assert_eq!(counted.cardinalities["Result"], expected.len(), "{case}");
                    let per_op = |o: &ExecutionOutcome| -> Vec<_> {
                        let ops = o.metrics.operations.iter();
                        ops.map(|m| (m.node, m.total_activations(), m.total_tuples_out()))
                            .collect()
                    };
                    assert_eq!(per_op(&counted), per_op(&built), "{case}");
                }
            }
        }
    }
}

/// A transmit split into morsels, at a cache size that divides none of its
/// destinations' groups, flushes where buffers filled row by row and
/// flushed at the cache size did, and every operation counts the same
/// logical activations. One worker, so which morsels share a pop is fixed.
/// The pinned counts were measured on the engine whose transmit filled such
/// buffers.
#[test]
fn a_split_transmit_flushes_where_filled_buffers_did() {
    let gen = WisconsinGenerator::new();
    let a = gen.generate(&WisconsinConfig::narrow("A", 1_500)).unwrap();
    let b = gen
        .generate(&WisconsinConfig::narrow("Bprime", 900))
        .unwrap();
    // B′ partitioned on another column, at another degree than the join's
    // seven instances: every fragment sends rows to every instance.
    let on = |rel: &Relation, column: &str, degree: usize| {
        PartitionedRelation::from_relation(rel, PartitionSpec::on(column, degree, 4)).unwrap()
    };
    let mut cat = Catalog::new();
    cat.register(on(&a, "unique1", 7)).unwrap();
    cat.register(on(&b, "unique2", 5)).unwrap();
    let cache_size = 18;
    let u1 = b.schema().column_index("unique1").unwrap();
    for fragment in cat.get("Bprime").unwrap().fragments() {
        let mut groups = fragment.routes(u1, 7).groups();
        assert!(groups.all(|(_, group)| group.len() % cache_size != 0));
    }
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
    let options = SchedulerOptions {
        total_threads: Some(1),
        cache_size,
        ..SchedulerOptions::default()
    };
    let schedule = Scheduler::build(&plan, &ext, &options)
        .unwrap()
        .with_morsel_rows(4);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert_eq!(outcome.results["Result"].len(), 900);
    let counts: Vec<(String, u64, u64)> = outcome
        .metrics
        .operations
        .iter()
        .map(|op| {
            let flushes = op.threads.iter().map(|t| t.cache_flushes).sum();
            (op.name.clone(), op.total_activations(), flushes)
        })
        .collect();
    let expected = [
        ("transmit(Bprime)", 5, 727),
        ("join(pipe,A)", 900, 727),
        ("store(Result)", 900, 0),
    ];
    let expected: Vec<(String, u64, u64)> = expected
        .iter()
        .map(|&(name, logical, flushes)| (name.to_string(), logical, flushes))
        .collect();
    assert_eq!(counts, expected);
}

/// One relation transmitted at two degrees, to joins over relations of
/// seven and of five fragments: each query reads its batches through the
/// route tables of its own degree, in sequence and side by side on one
/// runtime, and each answers what the reference join answers.
#[test]
fn a_relation_transmitted_at_two_degrees_routes_both() {
    let gen = WisconsinGenerator::new();
    let narrow = |name: &str, rows: usize| gen.generate(&WisconsinConfig::narrow(name, rows));
    let (b, a, c) = (
        narrow("Bprime", 900).unwrap(),
        narrow("A", 1_500).unwrap(),
        narrow("C", 1_200).unwrap(),
    );
    let on = |rel: &Relation, column: &str, degree: usize| {
        PartitionedRelation::from_relation(rel, PartitionSpec::on(column, degree, 4)).unwrap()
    };
    let mut cat = Catalog::new();
    cat.register(on(&b, "unique2", 3)).unwrap();
    cat.register(on(&a, "unique1", 7)).unwrap();
    cat.register(on(&c, "unique1", 5)).unwrap();
    let queries = [("A", &a), ("C", &c)].map(|(inner, relation)| {
        let plan = plans::assoc_join("Bprime", inner, "unique1", JoinAlgorithm::Hash);
        let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
        let options = SchedulerOptions::default().with_total_threads(2);
        let schedule = Scheduler::build(&plan, &ext, &options)
            .unwrap()
            .with_morsel_rows(64);
        let expected = b.reference_join(relation, "unique1", "unique1").unwrap();
        (plan, schedule, expected)
    });
    let runtime = Runtime::new(2).unwrap();
    let check = |outcome: ExecutionOutcome, expected: &[dbs3_storage::Tuple]| {
        assert_eq!(expected.len(), 900, "every B′ row has one partner");
        assert_eq!(bag(&outcome.results["Result"]), bag(expected));
    };
    for (plan, schedule, expected) in &queries {
        check(
            runtime
                .submit(&cat, plan, schedule)
                .unwrap()
                .wait()
                .unwrap(),
            expected,
        );
    }
    let handles: Vec<_> = queries
        .iter()
        .map(|(plan, schedule, _)| runtime.submit(&cat, plan, schedule).unwrap())
        .collect();
    for (handle, (_, _, expected)) in handles.into_iter().zip(&queries) {
        check(handle.wait().unwrap(), expected);
    }
}
