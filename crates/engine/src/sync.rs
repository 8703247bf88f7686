//! Small concurrency primitives shared by the runtime's hot paths, and the
//! workspace's lock rule.
//!
//! Every lock in the workspace is a `std::sync` `Mutex` (with a `Condvar`
//! where a thread waits), taken with
//! `.lock().unwrap_or_else(PoisonError::into_inner)`: poisoning is ignored.
//! That is sound because no panic that can fire under one of these locks
//! leaves the guarded state half-changed. The panics that can, such as the
//! closed-queue assert in `ActivationQueue::push_batch` or an injected fault
//! while `PreparedQuery` re-prepares its plan, fire before the guarded state
//! is changed, so a poisoned lock still guards a consistent value. The
//! panic itself is reported where it fires (a worker's `catch_unwind` turns
//! it into a typed `WorkerPanicked`; a caller's thread unwinds); refusing
//! the lock afterwards would only turn that one failure into a cascade of
//! new ones in every later user of the lock.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes so two frequently-written values
/// never share a cache line (nor the adjacent line the spatial prefetcher
/// pairs it with on x86 — hence 128, not 64).
///
/// The runtime keeps one state word per operation, stored in a `Vec` per
/// query. Without padding, neighbouring operations' words land on the same
/// line, so every transition of one operation invalidates the line the
/// workers of the next one are reading — classic false sharing, measurable
/// as soon as more than a couple of workers poll. Padding trades a few
/// hundred bytes per query for words that share a line with nothing.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps a value in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_values_are_line_aligned_and_transparent() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 128);
        let counter = CachePadded::new(AtomicU64::new(41));
        counter.fetch_add(1, Ordering::Relaxed);
        assert_eq!(counter.load(Ordering::Relaxed), 42);
        assert_eq!(counter.into_inner().into_inner(), 42);
    }

    #[test]
    fn adjacent_padded_slots_do_not_share_lines() {
        let slots: Vec<CachePadded<AtomicU64>> = (0..4)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        for pair in slots.windows(2) {
            let a = &*pair[0] as *const AtomicU64 as usize;
            let b = &*pair[1] as *const AtomicU64 as usize;
            assert!(b.abs_diff(a) >= 128, "slots {a:#x}/{b:#x} share a line");
        }
    }
}
