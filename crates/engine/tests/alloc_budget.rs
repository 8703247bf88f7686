//! Allocation ratchet: a query that discards its results must not pay one
//! allocation per result row. The filter or join feeding a counting store
//! counts its matches instead of building them (see `dbs3_engine::activation`),
//! so a discarding IdealJoin costs its set-up — queues, metrics slots, the
//! index builds — and nothing that grows with the result.
//!
//! Own test binary with a single test: the counting `#[global_allocator]`
//! sees every thread of the process.

use dbs3_engine::{Runtime, Scheduler, SchedulerOptions};
use dbs3_lera::{plans, CostParameters, ExtendedPlan, JoinAlgorithm};
use dbs3_storage::{Catalog, PartitionSpec, PartitionedRelation};
use dbs3_storage::{WisconsinConfig, WisconsinGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// ordering(COUNTING): Relaxed — gates a statistic and publishes no data; the
// pool workers observe it through the runtime's own submit/wake hand-off.
static COUNTING: AtomicBool = AtomicBool::new(false);
// ordering(ALLOCS): Relaxed — an independent tally, read after the query's
// `wait()` has synchronised with every worker that bumped it.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

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

#[test]
fn discarding_queries_do_not_allocate_per_result_row() {
    // A re-keyed onto one key per fragment (Zipf 1.0), each present in B′:
    // every A row finds exactly one partner, so the join emits 20 000 rows.
    let gen = WisconsinGenerator::new();
    let a = gen.generate(&WisconsinConfig::narrow("A", 20_000)).unwrap();
    let b = gen
        .generate(&WisconsinConfig::narrow("Bprime", 2_000))
        .unwrap();
    let spec = PartitionSpec::on("unique1", 20, 2);
    let mut cat = Catalog::new();
    cat.register(PartitionedRelation::from_relation_with_skew(&a, spec.clone(), 1.0).unwrap())
        .unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
    let options = SchedulerOptions::default().with_total_threads(2);
    let schedule = Scheduler::build(&plan, &ext, &options).unwrap();
    let runtime = Runtime::new(2).unwrap();

    let counted_run = |discard: bool| {
        let schedule = schedule.clone().with_discard_results(discard);
        ALLOCS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let outcome = runtime.submit(&cat, &plan, &schedule).unwrap().wait();
        COUNTING.store(false, Ordering::Relaxed);
        let rows = outcome.unwrap().cardinalities["Result"] as u64;
        (rows, ALLOCS.load(Ordering::Relaxed))
    };
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
