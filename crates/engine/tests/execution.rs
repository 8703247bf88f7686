//! Single-query execution against reference results: every plan shape the
//! engine binds (triggered and pipelined joins, filters, selections), under
//! scheduler-built schedules, must produce exactly what the sequential
//! reference evaluator produces — plus the shape of the reported metrics,
//! pool reuse across blocking runs, prepared execution and result
//! discarding.

use dbs3_engine::{
    ConsumptionStrategy, ExecutionOutcome, ExecutionSchedule, PreparedPlan, Runtime, Scheduler,
    SchedulerOptions,
};
use dbs3_lera::{plans, CostParameters, ExtendedPlan, JoinAlgorithm, Plan, Predicate};
use dbs3_storage::{
    Catalog, PartitionSpec, PartitionedRelation, Relation, WisconsinConfig, WisconsinGenerator,
};
use std::sync::Arc;
use std::time::Duration;

/// Runs `plan` under `schedule` on the process-wide pool of the schedule's
/// width and blocks for the outcome.
fn execute(
    catalog: &Catalog,
    plan: &Plan,
    schedule: &ExecutionSchedule,
) -> dbs3_engine::Result<ExecutionOutcome> {
    Runtime::shared(schedule.total_threads().max(1))?
        .submit(catalog, plan, schedule)?
        .wait()
}

/// Same, for a plan prepared by [`dbs3_engine::prepare`].
fn execute_prepared(
    catalog: &Catalog,
    prepared: &PreparedPlan,
) -> dbs3_engine::Result<ExecutionOutcome> {
    Runtime::shared(prepared.schedule().total_threads().max(1))?
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
    assert!(outcome.result().is_some());
}

#[test]
fn skewed_ideal_join_with_lpt_matches_reference() {
    let (cat, a_ref, b_ref) = build_catalog(1000, 100, 20, 1.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let schedule = schedule_for(&plan, &cat, 5).with_strategy(ConsumptionStrategy::Lpt);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
    assert_eq!(outcome.results["Result"].len(), expected.len());
}

#[test]
fn single_thread_execution_works() {
    let (cat, a_ref, b_ref) = build_catalog(300, 30, 5, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::TempIndex);
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
fn repeated_executions_reuse_one_shared_pool() {
    let (cat, a_ref, b_ref) = build_catalog(400, 40, 6, 0.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    // Width 7 is used by no other test in this binary: the final
    // live_queries() == 0 assertion must not race a concurrently
    // running test whose execute() shares the same process-wide pool.
    let schedule = schedule_for(&plan, &cat, 7);
    let expected = a_ref.reference_join(&b_ref, "unique1", "unique1").unwrap();
    // The registry hands back the same runtime for the same width...
    let first = Runtime::shared(7).unwrap();
    let second = Runtime::shared(7).unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert_ne!(
        first.pool_threads(),
        Runtime::shared(2).unwrap().pool_threads()
    );
    // ...and back-to-back executions over it stay correct.
    for _ in 0..3 {
        let outcome = execute(&cat, &plan, &schedule).unwrap();
        assert_eq!(outcome.results["Result"].len(), expected.len());
    }
    assert_eq!(first.live_queries(), 0);
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
