//! Stress and edge-case tests of the parallel executor: backpressure with
//! tiny queue capacities, degenerate schedules, empty inputs and
//! more-threads-than-work configurations. These are the situations where a
//! queue-based pipeline engine typically deadlocks or loses activations.

use dbs3_engine::{
    EngineError, ExecutionOutcome, ExecutionSchedule, OperationSchedule, Runtime, Scheduler,
    SchedulerOptions,
};
use dbs3_lera::{
    plans, CostParameters, ExtendedPlan, JoinAlgorithm, NodeId, OperatorKind, Plan, PlanError,
    Predicate,
};
use dbs3_storage::{
    Catalog, ColumnDef, PartitionSpec, PartitionedRelation, Relation, Schema, Tuple, Value,
};
use std::collections::BTreeMap;

fn int_relation(name: &str, keys: impl Iterator<Item = i64>) -> Relation {
    let schema = Schema::new(vec![ColumnDef::int("unique1"), ColumnDef::int("payload")]);
    let tuples = keys
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int(k * 7)]))
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

fn catalog_with(a: Relation, b: Relation, degree: usize) -> Catalog {
    let spec = PartitionSpec::on("unique1", degree, 2);
    let mut cat = Catalog::new();
    cat.register(PartitionedRelation::from_relation(&a, spec.clone()).unwrap())
        .unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    cat
}

fn manual_schedule(
    plan: &Plan,
    threads: usize,
    queue_capacity: usize,
    cache_size: usize,
) -> ExecutionSchedule {
    let mut per_node = BTreeMap::new();
    for node in plan.nodes() {
        per_node.insert(
            node.id,
            OperationSchedule {
                queue_capacity,
                cache_size,
            },
        );
    }
    ExecutionSchedule::from_parts(per_node, threads)
}

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

/// Backpressure: a queue capacity of 2 with thousands of pipelined tuples
/// forces producers to block on full consumer queues constantly; the
/// execution must still terminate with the right result.
#[test]
fn tiny_queue_capacity_does_not_deadlock() {
    let a = int_relation("A", 0..4_000);
    let b = int_relation("Bprime", 0..400);
    let cat = catalog_with(a, b, 16);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let schedule = manual_schedule(&plan, 6, 2, 1);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert_eq!(outcome.results["Result"].len(), 400);
}

/// A cache size far larger than the queue capacity must still flush
/// correctly (push_batch splits batches across the bounded queue).
#[test]
fn cache_larger_than_queue_capacity() {
    let a = int_relation("A", 0..2_000);
    let b = int_relation("Bprime", 0..500);
    let cat = catalog_with(a, b, 8);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    let schedule = manual_schedule(&plan, 9, 4, 256);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert_eq!(outcome.results["Result"].len(), 500);
}

/// An empty probe relation: the pipeline carries zero data activations and
/// every pool must still terminate cleanly.
#[test]
fn empty_transmitted_relation_terminates() {
    let a = int_relation("A", 0..1_000);
    let b = int_relation("Bprime", std::iter::empty());
    let cat = catalog_with(a, b, 8);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let schedule = manual_schedule(&plan, 12, 16, 8);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert!(outcome.results["Result"].is_empty());
}

/// An empty inner relation: every probe misses.
#[test]
fn empty_inner_relation_produces_empty_result() {
    let a = int_relation("A", std::iter::empty());
    let b = int_relation("Bprime", 0..200);
    let cat = catalog_with(a, b, 4);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    let schedule = manual_schedule(&plan, 6, 8, 4);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert!(outcome.results["Result"].is_empty());
}

/// A selection whose predicate matches nothing still stores an empty result
/// and reports one trigger activation per fragment.
#[test]
fn fully_selective_filter() {
    let a = int_relation("A", 0..3_000);
    let b = int_relation("Bprime", 0..10);
    let cat = catalog_with(a, b, 32);
    let plan = plans::selection("A", Predicate::eq("unique1", -1), "Nothing");
    let schedule = manual_schedule(&plan, 8, 64, 8);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert!(outcome.results["Nothing"].is_empty());
    let filter = &outcome.metrics.operations[0];
    assert_eq!(filter.total_activations(), 32);
}

/// Far more threads than fragments and tuples: most threads find no work,
/// but the execution terminates and is correct.
#[test]
fn many_threads_little_work() {
    let a = int_relation("A", 0..50);
    let b = int_relation("Bprime", 0..50);
    let cat = catalog_with(a, b, 2);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::TempIndex);
    let schedule = manual_schedule(&plan, 32, 8, 4);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert_eq!(outcome.results["Result"].len(), 50);
    assert_eq!(outcome.metrics.total_threads, 32);
}

/// Degree of partitioning 1: a single fragment, a single queue per
/// operation, shared by every thread of the pool.
#[test]
fn single_fragment_execution() {
    let a = int_relation("A", 0..500);
    let b = int_relation("Bprime", 0..100);
    let cat = catalog_with(a, b, 1);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let schedule = manual_schedule(&plan, 8, 16, 4);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert_eq!(outcome.results["Result"].len(), 100);
}

/// Repeated executions over the same catalog are independent (no state leaks
/// between runs through the shared Arc'd fragments).
#[test]
fn repeated_executions_are_stable() {
    let a = int_relation("A", 0..1_000);
    let b = int_relation("Bprime", 0..250);
    let cat = catalog_with(a, b, 10);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let extended = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
    let schedule = Scheduler::build(
        &plan,
        &extended,
        &SchedulerOptions::default().with_total_threads(3),
    )
    .unwrap();
    for _ in 0..5 {
        let outcome = execute(&cat, &plan, &schedule).unwrap();
        assert_eq!(outcome.results["Result"].len(), 250);
    }
}

/// A heavily skewed, low-fragment-count database still terminates and
/// produces the reference result with a single thread per pool (worst case
/// for queue starvation logic).
#[test]
fn single_thread_skewed() {
    let gen = dbs3_storage::WisconsinGenerator::new();
    let a = gen
        .generate(&dbs3_storage::WisconsinConfig::narrow("A", 2_000))
        .unwrap();
    let b = gen
        .generate(&dbs3_storage::WisconsinConfig::narrow("Bprime", 200))
        .unwrap();
    let spec = PartitionSpec::on("unique1", 5, 1);
    let mut cat = Catalog::new();
    cat.register(PartitionedRelation::from_relation_with_skew(&a, spec.clone(), 1.0).unwrap())
        .unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    let a_ref = cat.get("A").unwrap().reassemble();
    let b_ref = cat.get("Bprime").unwrap().reassemble();
    let expected = a_ref
        .reference_join(&b_ref, "unique1", "unique1")
        .unwrap()
        .len();

    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let extended = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
    let options = SchedulerOptions {
        queue_capacity: 4,
        cache_size: 2,
        ..SchedulerOptions::default().with_total_threads(1)
    };
    let schedule = Scheduler::build(&plan, &extended, &options).unwrap();
    assert_eq!(schedule.query_threads(), 1);
    let outcome = execute(&cat, &plan, &schedule).unwrap();
    assert_eq!(outcome.results["Result"].len(), expected);
}

/// The runtime wires only an operation's first consumer, so a plan whose
/// join feeds two stores would silently lose a branch. `Plan::from_nodes`
/// (the wire-decode path) does not check consumers; `Plan::validate`, which
/// every engine entry runs while expanding the plan, must reject it.
#[test]
fn a_plan_with_two_consumers_is_rejected_before_execution() {
    let cat = catalog_with(int_relation("A", 0..100), int_relation("Bprime", 0..10), 2);
    let mut nodes = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash)
        .nodes()
        .to_vec();
    let mut second_store = nodes[1].clone();
    second_store.id = NodeId(2);
    second_store.kind = OperatorKind::Store {
        result_name: "Copy".to_string(),
    };
    nodes.push(second_store);
    let plan = Plan::from_nodes("two-stores", nodes).unwrap();
    let expected = EngineError::from(PlanError::MultipleConsumers(0));

    let options = SchedulerOptions::default().with_total_threads(2);
    let err = dbs3_engine::prepare(&cat, &plan, &options, &CostParameters::default()).unwrap_err();
    assert_eq!(err, expected);

    let schedule = manual_schedule(&plan, 2, 16, 4);
    let err = Runtime::new(1)
        .unwrap()
        .submit(&cat, &plan, &schedule)
        .unwrap_err();
    assert_eq!(err, expected);
}
