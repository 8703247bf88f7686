//! Allocation ratchets. A query that discards its results must not pay one
//! allocation per result row: the filter or join feeding a counting store
//! counts its matches instead of building them (see
//! `dbs3_engine::activation`), so a discarding IdealJoin costs its set-up —
//! queues, metrics slots, the index builds — and nothing that grows with
//! the result. And the runtime around the operators allocates for transport
//! batches only: no vector per pop, no heap cell per queue, no key per
//! index lookup — so a discarding query's count stays a small multiple of
//! its operator instances.
//!
//! Own test binary: the counting `#[global_allocator]` sees every thread of
//! the process, so the tests take turns through `SERIAL`.

use dbs3_engine::{Runtime, Scheduler, SchedulerOptions};
use dbs3_lera::{plans, CostParameters, ExtendedPlan, JoinAlgorithm, Plan};
use dbs3_storage::{Catalog, PartitionSpec, PartitionedRelation};
use dbs3_storage::{WisconsinConfig, WisconsinGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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
    let gen = WisconsinGenerator::new();
    let a = gen.generate(&WisconsinConfig::narrow("A", 20_000)).unwrap();
    let b = gen
        .generate(&WisconsinConfig::narrow("Bprime", 2_000))
        .unwrap();
    let spec = PartitionSpec::on("unique1", DEGREE, 2);
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

#[test]
fn discarding_queries_do_not_allocate_per_result_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // A re-keyed onto one key per fragment (Zipf 1.0), each present in B′:
    // every A row finds exactly one partner, so the join emits 20 000 rows.
    let cat = catalog(1.0);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let runtime = Runtime::new(2).unwrap();
    let counted_run = counted_runner(&cat, &plan, &runtime);
    // Warm the shared index cache so both counted runs start alike.
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
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let cat = catalog(0.0);
    let runtime = Runtime::new(2).unwrap();
    let degree = DEGREE as u64;
    // AssocJoin: transmit B′ → scatter → pipelined join → store, so pops,
    // queue sets, scatter batches and index lookups are all on the path.
    // IdealJoin: triggered join → store, no redistribution.
    for (name, plan, per_instance) in [
        (
            "assoc_join",
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            15,
        ),
        (
            "ideal_join",
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
            6,
        ),
    ] {
        let counted_run = counted_runner(&cat, &plan, &runtime);
        // Warm the shared index cache (and the workers' buffers).
        counted_run(true);
        let (rows, allocs) = counted_run(true);
        assert_eq!(rows, 2_000, "{name}: every B′ row has one partner in A");
        assert!(
            allocs < per_instance * degree,
            "a discarding {name} at degree {degree} made {allocs} allocations \
             (budget {per_instance} per instance)"
        );
    }
}
