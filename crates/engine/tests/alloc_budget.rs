//! Allocation ratchets. A query that discards its results must not pay one
//! allocation per result row: the filter or join feeding a counting store
//! counts its matches instead of building them (see
//! `dbs3_engine::activation`), so a discarding IdealJoin costs its set-up
//! and nothing that grows with the result. Nor must a warm query pay one
//! allocation per operator instance: a runtime re-arms the queue sets of
//! finished queries, their buffers already grown (see
//! `dbs3_engine::Runtime`), and a transmit's batches of positions are
//! slices of its fragments' route tables, built by the first query, with
//! no buffer behind them. No vector per pop, no key per index lookup. What remains is per query and per operation — the bound
//! operators, the ring and metrics slots, the outcome — so a warm
//! discarding query costs about the same at degree 200 as at degree 20.
//!
//! Own test binary: the counting `#[global_allocator]` sees every thread of
//! the process, so the tests take turns through `SERIAL`.

use dbs3_engine::{Runtime, Scheduler, SchedulerOptions};
use dbs3_lera::{plans, CostParameters, ExtendedPlan, JoinAlgorithm, Plan};
use dbs3_storage::{Catalog, PartitionSpec, PartitionedRelation};
use dbs3_storage::{WisconsinConfig, WisconsinGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

// ordering(COUNTING): Relaxed — gates a statistic and publishes no data; the
// pool workers observe it through the runtime's own submit/wake hand-off.
static COUNTING: AtomicBool = AtomicBool::new(false);
// ordering(ALLOCS): Relaxed — an independent tally, read after the query's
// `wait()` has synchronised with every worker that bumped it.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// One counted measurement at a time: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Forwards to [`System`], counting `alloc` and `realloc` calls while on.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DEGREE: usize = 20;

/// A (20 000 rows, Zipf `skew` re-keyed unless 0) and B′ (2 000 rows), both
/// hash-partitioned on `unique1` at [`DEGREE`].
fn catalog(skew: f64) -> Catalog {
    catalog_at(skew, DEGREE)
}

/// [`catalog`] partitioned at `degree`.
fn catalog_at(skew: f64, degree: usize) -> Catalog {
    let gen = WisconsinGenerator::new();
    let a = gen.generate(&WisconsinConfig::narrow("A", 20_000)).unwrap();
    let b = gen
        .generate(&WisconsinConfig::narrow("Bprime", 2_000))
        .unwrap();
    let spec = PartitionSpec::on("unique1", degree, 2);
    let a = if skew > 0.0 {
        PartitionedRelation::from_relation_with_skew(&a, spec.clone(), skew).unwrap()
    } else {
        PartitionedRelation::from_relation(&a, spec.clone()).unwrap()
    };
    let mut cat = Catalog::new();
    cat.register(a).unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    cat
}

/// Runs `plan` on a 2-worker pool and returns `(result rows, allocations)`
/// per call of the returned closure.
fn counted_runner<'a>(
    cat: &'a Catalog,
    plan: &'a Plan,
    runtime: &'a Runtime,
) -> impl Fn(bool) -> (u64, u64) + 'a {
    let ext = ExtendedPlan::from_plan(plan, cat, &CostParameters::default()).unwrap();
    let options = SchedulerOptions::default().with_total_threads(2);
    let schedule = Scheduler::build(plan, &ext, &options).unwrap();
    move |discard: bool| {
        let schedule = schedule.clone().with_discard_results(discard);
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let outcome = runtime.submit(cat, plan, &schedule).unwrap().wait();
        COUNTING.store(false, Ordering::Relaxed);
        let rows = outcome.unwrap().cardinalities["Result"] as u64;
        (rows, ALLOCS.load(Ordering::Relaxed))
    }
}

/// Builds the fragments' indexes and route tables and leaves the runtime
/// warm, its spare queue sets' buffers grown in every role, then counts
/// three discarding queries. Returns the result rows and the fewest and
/// the most allocations of the three: a queue or pop buffer reaching a new
/// high-water mark adds a few allocations to whichever query it happens in.
fn warm_count(counted_run: &impl Fn(bool) -> (u64, u64)) -> (u64, u64, u64) {
    for _ in 0..WARM_UP_QUERIES {
        counted_run(true);
    }
    let runs = [counted_run(true), counted_run(true), counted_run(true)];
    assert!(runs.iter().all(|run| run.0 == runs[0].0), "{runs:?}");
    let allocs = runs.map(|run| run.1);
    let fewest = allocs.iter().copied().min().unwrap_or(0);
    let most = allocs.iter().copied().max().unwrap_or(0);
    (runs[0].0, fewest, most)
}

const WARM_UP_QUERIES: usize = 16;

#[test]
fn discarding_queries_do_not_allocate_per_result_row() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // A re-keyed onto one key per fragment (Zipf 1.0), each present in B′:
    // every A row finds exactly one partner, so the join emits 20 000 rows.
    let cat = catalog(1.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let runtime = Runtime::new(2).unwrap();
    let counted_run = counted_runner(&cat, &plan, &runtime);
    // Build the fragments' indexes so both counted runs start alike.
    counted_run(true);
    let (rows, discarding) = counted_run(true);
    let (built_rows, materialising) = counted_run(false);
    assert_eq!((rows, built_rows), (20_000, 20_000));
    assert!(
        materialising >= rows,
        "the counter must see the {rows} rows a materialising run builds, saw {materialising}"
    );
    assert!(
        discarding < rows / 4,
        "a discarding run made {discarding} allocations for {rows} result rows: \
         its rows are being built again"
    );
}

#[test]
fn discarding_queries_allocate_a_few_times_per_operator_instance() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cat = catalog(0.0);
    let runtime = Runtime::new(2).unwrap();
    let degree = DEGREE as u64;
    // AssocJoin: transmit B′ → scatter → pipelined join → store, so pops,
    // queue sets, scatter batches and index lookups are all on the path.
    // IdealJoin: triggered join → store, no redistribution. Measured warm at
    // degree 20 on 2 workers in a release build, the most of three queries:
    // 47 and 43, so the budgets leave 33 and 17 allocations of margin. One
    // less per instance (60 and 40) would leave assoc 1.28 times its
    // reading and put ideal under its reading.
    for (name, plan, per_instance) in [
        (
            "assoc_join",
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            4,
        ),
        (
            "ideal_join",
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
            3,
        ),
    ] {
        let (rows, _, allocs) = warm_count(&counted_runner(&cat, &plan, &runtime));
        assert_eq!(rows, 2_000, "{name}: every B′ row has one partner in A");
        assert!(
            allocs < per_instance * degree,
            "a discarding {name} at degree {degree} made {allocs} allocations \
             (budget {per_instance} per instance)"
        );
    }
}

/// A warm query's allocations do not grow with its operator instances:
/// the fewest and the most of three queries read 47 at degree 20 and at
/// degree 200, where building fresh queues and a buffer for every batch of
/// positions of every query made 206 and 872. The most of three may add a
/// high-water mark's few allocations, never one per queue (180 more at
/// degree 200).
#[test]
fn a_warm_query_allocates_about_the_same_at_any_degree() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let count_at = |degree: usize| {
        let cat = catalog_at(0.0, degree);
        let runtime = Runtime::new(2).unwrap();
        let (rows, fewest, most) = warm_count(&counted_runner(&cat, &plan, &runtime));
        assert_eq!(
            rows, 2_000,
            "degree {degree}: every B′ row has one partner in A"
        );
        (fewest, most)
    };
    let (fewest_20, _) = count_at(20);
    let (fewest_200, most_200) = count_at(200);
    assert!(
        fewest_200 <= fewest_20 + 5 && most_200 <= fewest_20 + 40,
        "a warm discarding assoc_join made {fewest_200}–{most_200} allocations at degree 200 \
         and {fewest_20} at degree 20: something is allocated per queue or per batch"
    );
}
