//! Allocation ratchet for the temporary hash index. A build allocates the
//! two arrays the index keeps — bucket starts and one 8-byte hash-and-position
//! word per row — and nothing else: no staged hashes, no cursor copy, no
//! parallel arrays. An index lives in its fragment and a replace hands it on to an
//! equal fragment of the new version, so every byte here is paid once per
//! fragment and column, and again only for a fragment a replace changed.
//!
//! Own test binary: it installs a counting `#[global_allocator]`.

use dbs3_storage::{HashIndex, WisconsinConfig, WisconsinGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Counts only on the thread that asked, so the test harness's own
    /// threads cannot leak into the tally. Const-initialised and without a
    /// destructor, so reading it inside the allocator never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

/// Forwards to [`System`], counting `alloc` and `realloc` calls and the
/// bytes they request while on.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn an_index_build_allocates_only_the_arrays_it_keeps() {
    const ROWS: usize = 10_000;
    let rel = WisconsinGenerator::new()
        .generate(&WisconsinConfig::narrow("A", ROWS))
        .unwrap();
    let key = rel.column_index("unique1").unwrap();

    ALLOCS.set(0);
    BYTES.set(0);
    COUNTING.set(true);
    let index = HashIndex::build(rel.tuples(), key);
    COUNTING.set(false);
    assert_eq!(index.len(), ROWS);

    // 16 384 buckets: (buckets + 1) u32 starts, then one 8-byte entry per row.
    let buckets = ROWS.next_power_of_two();
    let expected_bytes = ((buckets + 1) * 4 + ROWS * 8) as u64;
    assert_eq!(
        (ALLOCS.get(), BYTES.get()),
        (2, expected_bytes),
        "(allocations, bytes) of one {ROWS}-row index build"
    );
}
