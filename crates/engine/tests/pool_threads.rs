//! A query's work runs on its pool and its submitter, and nowhere else:
//! a join's temporary index is built by the pool worker whose activation
//! first needs it, however many threads the query's schedule names.
//!
//! Own test binary: the `#[global_allocator]` below counts the distinct
//! threads that allocate while a flag is on, and sees every thread of the
//! process.

use dbs3_engine::{Runtime, Scheduler, SchedulerOptions};
use dbs3_lera::{plans, CostParameters, ExtendedPlan, JoinAlgorithm};
use dbs3_storage::{Catalog, PartitionSpec, PartitionedRelation};
use dbs3_storage::{WisconsinConfig, WisconsinGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// ordering(COUNTING): Relaxed — gates a statistic and publishes no data; the
// pool workers observe it through the runtime's own submit/wake hand-off.
static COUNTING: AtomicBool = AtomicBool::new(false);
// ordering(THREADS): Relaxed — an independent tally, read after the query's
// `wait()` has synchronised with every worker that bumped it.
static THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread has already been counted.
    static SEEN: Cell<bool> = const { Cell::new(false) };
}

/// Counts the calling thread if counting is on and it is not yet counted.
fn note_thread() {
    if COUNTING.load(Ordering::Relaxed) {
        SEEN.with(|seen| {
            if !seen.replace(true) {
                THREADS.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

/// Forwards to [`System`], counting each thread the first time it
/// allocates while counting is on.
struct ThreadCounting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_thread();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_thread();
        // SAFETY: `ptr`/`layout` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCounting = ThreadCounting;

#[test]
fn a_query_allocates_only_on_its_pool_and_its_submitter() {
    // B′ (4 000) ⋈ A (40 000) at degree 2: each inner index covers 20 000
    // rows, and the schedule names 32 threads for 2 join instances.
    let gen = WisconsinGenerator::new();
    let a = gen.generate(&WisconsinConfig::narrow("A", 40_000)).unwrap();
    let b = gen
        .generate(&WisconsinConfig::narrow("Bprime", 4_000))
        .unwrap();
    let spec = PartitionSpec::on("unique1", 2, 2);
    let mut cat = Catalog::new();
    cat.register(PartitionedRelation::from_relation(&a, spec.clone()).unwrap())
        .unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    let plan = plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
    let options = SchedulerOptions {
        discard_results: true,
        ..SchedulerOptions::default().with_total_threads(32)
    };
    let schedule = Scheduler::build(&plan, &ext, &options).unwrap();
    let runtime = Runtime::new(1).unwrap();

    COUNTING.store(true, Ordering::Relaxed);
    let outcome = runtime.submit(&cat, &plan, &schedule).unwrap().wait();
    COUNTING.store(false, Ordering::Relaxed);

    assert_eq!(outcome.unwrap().cardinalities["Result"], 4_000);
    let threads = THREADS.load(Ordering::Relaxed);
    assert!(
        threads <= 2,
        "{threads} threads allocated during a query on a 1-worker pool"
    );
}
