//! Property-based end-to-end tests: for arbitrary small relations, degrees
//! of partitioning and thread counts, the parallel engine must
//! produce exactly the tuples of the reference (sequential, unpartitioned)
//! implementation.

use dbs3::prelude::*;
use proptest::prelude::*;

fn relation_from_rows(name: &str, rows: &[(i64, i64)]) -> Relation {
    use dbs3::storage::ColumnDef;
    let schema = Schema::new(vec![ColumnDef::int("unique1"), ColumnDef::int("payload")]);
    let tuples = rows
        .iter()
        .map(|&(k, p)| Tuple::new(vec![Value::Int(k), Value::Int(p)]))
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

fn catalog_from_rows(
    a_rows: &[(i64, i64)],
    b_rows: &[(i64, i64)],
    degree: usize,
) -> (Catalog, Relation, Relation) {
    let a = relation_from_rows("A", a_rows);
    let b = relation_from_rows("Bprime", b_rows);
    let spec = PartitionSpec::on("unique1", degree, 2);
    let mut catalog = Catalog::new();
    catalog
        .register(PartitionedRelation::from_relation(&a, spec.clone()).unwrap())
        .unwrap();
    catalog
        .register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    (catalog, a, b)
}

/// Runs `plan` under `schedule` on a pool of the schedule's width and
/// blocks for the outcome.
fn execute(
    catalog: &Catalog,
    plan: &Plan,
    schedule: &ExecutionSchedule,
) -> dbs3::engine::Result<dbs3::engine::ExecutionOutcome> {
    Runtime::new(schedule.query_threads())?
        .submit(catalog, plan, schedule)?
        .wait()
}

fn run(catalog: &Catalog, plan: &Plan, threads: usize) -> Vec<(i64, i64, i64, i64)> {
    let extended = ExtendedPlan::from_plan(plan, catalog, &CostParameters::default()).unwrap();
    let schedule = Scheduler::build(
        plan,
        &extended,
        &SchedulerOptions::default().with_total_threads(threads),
    )
    .unwrap();
    let outcome = execute(catalog, plan, &schedule).unwrap();
    let mut rows: Vec<(i64, i64, i64, i64)> = outcome.results["Result"]
        .iter()
        .map(|t| {
            (
                t.value(0).as_int().unwrap(),
                t.value(1).as_int().unwrap(),
                t.value(2).as_int().unwrap(),
                t.value(3).as_int().unwrap(),
            )
        })
        .collect();
    rows.sort_unstable();
    rows
}

fn reference(a: &Relation, b: &Relation) -> Vec<(i64, i64, i64, i64)> {
    let mut rows: Vec<(i64, i64, i64, i64)> = a
        .reference_join(b, "unique1", "unique1")
        .unwrap()
        .iter()
        .map(|t| {
            (
                t.value(0).as_int().unwrap(),
                t.value(1).as_int().unwrap(),
                t.value(2).as_int().unwrap(),
                t.value(3).as_int().unwrap(),
            )
        })
        .collect();
    rows.sort_unstable();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel IdealJoin produces exactly the reference join result
    /// (as a sorted multiset), for any data, degree, thread count and
    /// algorithm.
    #[test]
    fn parallel_ideal_join_equals_reference(
        a_rows in proptest::collection::vec((-40i64..40, any::<i64>()), 0..120),
        b_rows in proptest::collection::vec((-40i64..40, any::<i64>()), 0..60),
        degree in 1usize..24,
        threads in 1usize..6,
        use_hash in any::<bool>(),
    ) {
        let (catalog, a, b) = catalog_from_rows(&a_rows, &b_rows, degree);
        let algorithm = if use_hash { JoinAlgorithm::Hash } else { JoinAlgorithm::NestedLoop };
        let plan = plans::ideal_join("A", "Bprime", "unique1", algorithm);
        prop_assert_eq!(run(&catalog, &plan, threads), reference(&a, &b));
    }

    /// The AssocJoin (dynamic redistribution + pipelined join) produces the
    /// same multiset as the reference join, with B' columns first.
    #[test]
    fn parallel_assoc_join_equals_reference(
        a_rows in proptest::collection::vec((-30i64..30, any::<i64>()), 0..100),
        b_rows in proptest::collection::vec((-30i64..30, any::<i64>()), 0..50),
        degree in 1usize..16,
        threads in 1usize..5,
    ) {
        let (catalog, a, b) = catalog_from_rows(&a_rows, &b_rows, degree);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        prop_assert_eq!(run(&catalog, &plan, threads), reference(&b, &a));
    }

    /// A parallel selection returns exactly the reference selection.
    #[test]
    fn parallel_selection_equals_reference(
        rows in proptest::collection::vec((-100i64..100, any::<i64>()), 0..200),
        degree in 1usize..20,
        threads in 1usize..5,
        lo in -50i64..0,
        hi in 0i64..50,
    ) {
        let a = relation_from_rows("A", &rows);
        let spec = PartitionSpec::on("unique1", degree, 2);
        let mut catalog = Catalog::new();
        catalog.register(PartitionedRelation::from_relation(&a, spec).unwrap()).unwrap();

        let plan = plans::selection("A", Predicate::range("unique1", lo, hi), "Result");
        let extended = ExtendedPlan::from_plan(&plan, &catalog, &CostParameters::default()).unwrap();
        let schedule = Scheduler::build(
            &plan,
            &extended,
            &SchedulerOptions::default().with_total_threads(threads),
        )
        .unwrap();
        let outcome = execute(&catalog, &plan, &schedule).unwrap();

        let mut got: Vec<i64> = outcome.results["Result"]
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        let mut expected: Vec<i64> = a
            .reference_select(|t| {
                let v = t.value(0).as_int().unwrap();
                v >= lo && v < hi
            })
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
