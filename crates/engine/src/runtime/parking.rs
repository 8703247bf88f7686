//! How idle workers sleep and wake, and the watchdog that fails a query
//! which stops making progress.
//!
//! # Idle costs nothing
//!
//! Workers that find no poppable activation anywhere park on a condvar
//! (epoch-checked so a wakeup between the scan and the park is never
//! lost). An idle runtime burns no CPU. Wake-ups *cascade*: a push that
//! gives an operation work wakes one sleeper, and a worker that pops a
//! batch and leaves more buffered behind it wakes the next. Besides
//! sparing a herd of wake-ups per flush, this decides where the kernel
//! puts the workers: woken together by a submitting thread that is about
//! to block in `wait`, two workers are placed while the submitter's CPU
//! still looks busy and can end up sharing the other one for the whole of
//! a millisecond-scale query (measured: a 2-worker pool on 2 vCPUs ran
//! streaks of hundreds of queries at half speed); woken by a *working*
//! sibling a moment later, the next worker finds the submitter's CPU idle.

use super::{abort_query, QueryState, RuntimeInner};
use crate::error::EngineError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Epoch-checked condvar parking: workers that find no work anywhere sleep
/// here; every producer-side event (submit, a push that raises an
/// operation's `pending` from 0, shutdown) bumps the epoch and wakes a
/// sleeper (all of them on shutdown). The parker re-checks the epoch
/// *after* announcing itself, so a wakeup between its last scan and the
/// wait can never be lost.
pub(super) struct IdleParking {
    // ordering(epoch): SeqCst — the snapshot/announce/re-check dance only
    // excludes lost wakeups if the epoch bump, the sleeper count and the
    // parker's re-read sit in one total order (this is the textbook
    // flag-and-check where weaker orders allow both sides to miss).
    epoch: AtomicU64,
    // ordering(sleepers): SeqCst — read by `wake_one` to decide whether to
    // take the mutex at all; must not be reorderable against the epoch
    // bump or a parker could announce itself and still sleep unwoken.
    sleepers: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl IdleParking {
    pub(super) fn new() -> Self {
        IdleParking {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The epoch to snapshot before a work scan.
    pub(super) fn current(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Signals that one more worker could find work (see "Idle costs
    /// nothing" in the module docs for why one and not all). Cheap when
    /// nobody sleeps: one atomic increment and one atomic load.
    pub(super) fn wake_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_one();
        }
    }

    /// Wakes every sleeper (shutdown).
    pub(super) fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _guard = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Parks the calling worker unless the epoch moved past `seen` (i.e.
    /// work may have arrived since the scan started). The timeout is a
    /// belt-and-braces liveness net, not a polling loop: a parked worker
    /// re-scans a few times per second at most.
    pub(super) fn park(&self, seen: u64) {
        let guard = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let _guard = if self.epoch.load(Ordering::SeqCst) == seen {
            self.cv
                .wait_timeout(guard, Duration::from_millis(200))
                .unwrap_or_else(PoisonError::into_inner)
                .0
        } else {
            guard
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The body of the optional watchdog thread (see
/// [`Runtime::with_watchdog`](super::Runtime::with_watchdog)):
/// samples every live query's progress counter a few times per stall
/// interval and aborts queries whose counter has not moved for `stall_after`
/// with [`EngineError::QueryStuck`]. Aborting seals the outcome and frees
/// the admission slot, so a waiter blocked on the handle gets the typed
/// error instead of hanging forever behind a wedged worker.
pub(super) fn watchdog_loop(inner: &Arc<RuntimeInner>, stall_after: Duration) {
    let poll = (stall_after / 4)
        .max(Duration::from_millis(10))
        .min(Duration::from_millis(250));
    // Last observed (progress, time-of-change) per query id.
    let mut seen: BTreeMap<u64, (u64, Instant)> = BTreeMap::new();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(poll);
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let live: Vec<Arc<QueryState>> = inner.registry().live.clone();
        let now = Instant::now();
        let mut alive: Vec<u64> = Vec::with_capacity(live.len());
        for query in &live {
            let id = query.id.0;
            alive.push(id);
            let progress = query.progress.load(Ordering::SeqCst);
            let entry = seen.entry(id).or_insert((progress, now));
            if entry.0 != progress {
                *entry = (progress, now);
                continue;
            }
            let stalled = now.duration_since(entry.1);
            if stalled >= stall_after {
                abort_query(
                    inner,
                    query,
                    EngineError::QueryStuck {
                        query: id,
                        stalled_for_ms: stalled.as_millis() as u64,
                    },
                );
            }
        }
        seen.retain(|id, _| alive.contains(id));
    }
}
