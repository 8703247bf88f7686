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

/// The fragment `key` lands in under `spec` (partitioned on column 0).
fn fragment_of(spec: &PartitionSpec, key: i64) -> usize {
    spec.fragment_of_hash(Tuple::new(vec![Value::Int(key)]).hash_key(&[0]))
}

/// The first key from `start` upwards that `accept`s its fragment.
fn key_from(start: i64, accept: impl Fn(i64) -> bool) -> i64 {
    (start..)
        .find(|&k| accept(k))
        .expect("some key lands in every fragment")
}

/// Applies one single-row edit, drawn as `(kind, row, key, payload)`, to
/// rows partitioned under `spec` (degree ≥ 2):
/// - 0 inserts `(key, payload)` (also every kind on no rows);
/// - 1 deletes a row;
/// - 2 sets a row's payload, a non-key column;
/// - 3 moves a row's key to another fragment;
/// - 4 re-keys a row inside its own fragment, the one edit that changes a
///   fragment's keys but not its length.
fn apply_edit(rows: &mut Vec<(i64, i64)>, edit: (u8, usize, i64, i64), spec: &PartitionSpec) {
    let (kind, row, key, payload) = edit;
    if kind == 0 || rows.is_empty() {
        rows.push((key, payload));
        return;
    }
    let row = row % rows.len();
    let home = fragment_of(spec, rows[row].0);
    match kind {
        1 => {
            rows.remove(row);
        }
        2 => rows[row].1 = payload,
        3 => rows[row].0 = key_from(key, |k| fragment_of(spec, k) != home),
        _ => {
            let old = rows[row].0;
            rows[row].0 = key_from(key, |k| k != old && fragment_of(spec, k) == home);
        }
    }
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

    /// A catalog replace keeps a fragment's cached index only while the
    /// fragment's tuples are unchanged: after every single-row edit of the
    /// build side `A`, replaced into the same catalog, the hash AssocJoin
    /// still returns exactly the reference join of the current version. An
    /// index surviving a replace that changed its fragment would probe
    /// stale positions and lose or invent matches.
    #[test]
    fn assoc_join_after_single_row_edits_equals_reference(
        a_rows in proptest::collection::vec((-30i64..30, any::<i64>()), 0..60),
        b_rows in proptest::collection::vec((-30i64..30, any::<i64>()), 0..40),
        edits in proptest::collection::vec((0u8..5, any::<usize>(), -30i64..30, any::<i64>()), 1..8),
        degree in 2usize..8,
        threads in 1usize..4,
    ) {
        let (mut catalog, a, b) = catalog_from_rows(&a_rows, &b_rows, degree);
        let spec = PartitionSpec::on("unique1", degree, 2);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        prop_assert_eq!(run(&catalog, &plan, threads), reference(&b, &a));
        let mut rows = a_rows;
        for edit in edits {
            apply_edit(&mut rows, edit, &spec);
            let a = relation_from_rows("A", &rows);
            catalog.replace(PartitionedRelation::from_relation(&a, spec.clone()).unwrap());
            prop_assert_eq!(run(&catalog, &plan, threads), reference(&b, &a));
        }
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
