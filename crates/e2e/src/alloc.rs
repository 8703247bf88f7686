//! The counting allocator behind `allocs_per_query` / `alloc_kib_per_query`.
//!
//! A thin wrapper around [`System`] that counts only while a flag is set:
//! timed rounds leave the flag off and pay one predictable branch per
//! allocation, the counted child turns it on around a fixed number of
//! queries. Counts are of *requests* (calls and requested bytes), so they
//! compare two versions of the program exactly and say nothing about time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// What was requested between [`CountingAlloc::start`] and
/// [`CountingAlloc::stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls (`realloc` counts its new size).
    pub bytes: u64,
    /// Highest net growth of live bytes since `start` (frees of memory that
    /// predates `start` count against it, so it is a lower bound on the
    /// working set the counted queries added).
    pub peak_live_bytes: u64,
}

// ordering(enabled): Relaxed — gates statistics only and publishes no data.
// `start` runs on the thread that then submits the counted queries; pool
// workers observe it through the runtime's own submit/wake synchronisation.
// ordering(allocs): Relaxed — an independent statistic, read after `stop`.
// ordering(bytes): Relaxed — see `allocs`.
// ordering(live): Relaxed — a running sum; only its own value is consumed.
// ordering(peak_live): Relaxed — `fetch_max` of a statistic.
/// A [`GlobalAlloc`] that forwards to [`System`] and counts while enabled.
pub struct CountingAlloc {
    enabled: AtomicBool,
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
    peak_live: AtomicI64,
}

impl CountingAlloc {
    /// A disabled allocator with zeroed counters.
    pub const fn new() -> Self {
        CountingAlloc {
            enabled: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
            peak_live: AtomicI64::new(0),
        }
    }

    /// Zeroes the counters and starts counting.
    pub fn start(&self) {
        self.allocs.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.live.store(0, Ordering::Relaxed);
        self.peak_live.store(0, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops counting and returns what was counted since [`Self::start`].
    pub fn stop(&self) -> AllocCounts {
        self.enabled.store(false, Ordering::Relaxed);
        AllocCounts {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            peak_live_bytes: self.peak_live.load(Ordering::Relaxed).max(0) as u64,
        }
    }

    #[inline]
    fn on_alloc(&self, size: usize) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        let live = self.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        self.peak_live.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(&self, size: usize) {
        if self.enabled.load(Ordering::Relaxed) {
            self.live.fetch_sub(size as i64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.on_alloc(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.on_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.on_dealloc(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // i.e. from `System` — with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.on_dealloc(layout.size());
        self.on_alloc(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // `System` block and that `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests drive a private instance through its `GlobalAlloc` methods,
    // so allocations made by other test threads through the process-wide
    // instance cannot disturb the exact counts.
    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn flag_off_counts_nothing() {
        let a = CountingAlloc::new();
        unsafe {
            let p = a.alloc(layout(64));
            assert!(!p.is_null());
            a.dealloc(p, layout(64));
        }
        assert_eq!(a.stop(), AllocCounts::default());
    }

    #[test]
    fn known_pattern_counts_exactly() {
        let a = CountingAlloc::new();
        a.start();
        unsafe {
            let p = a.alloc(layout(100));
            let q = a.alloc_zeroed(layout(50));
            let p = a.realloc(p, layout(100), 300);
            a.dealloc(q, layout(50));
            a.dealloc(p, layout(300));
        }
        let counts = a.stop();
        assert_eq!(counts.allocs, 3);
        assert_eq!(counts.bytes, 100 + 50 + 300);
        // 100 + 50 live, then the realloc swaps 100 for 300.
        assert_eq!(counts.peak_live_bytes, 350);
        // Stopped: further traffic is invisible.
        unsafe {
            let p = a.alloc(layout(8));
            a.dealloc(p, layout(8));
        }
        assert_eq!(a.stop(), counts);
    }

    #[test]
    fn start_resets_previous_counts() {
        let a = CountingAlloc::new();
        a.start();
        unsafe {
            let p = a.alloc(layout(16));
            a.dealloc(p, layout(16));
        }
        a.start();
        assert_eq!(a.stop(), AllocCounts::default());
    }
}
