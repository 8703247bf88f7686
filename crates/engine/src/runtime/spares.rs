//! What a warm runtime keeps for later queries.
//!
//! So that a warm query allocates no queue buffer, a runtime keeps the
//! emptied queue sets of dropped queries for a later submit to re-arm: at
//! most 16 sets, whose vectors have room for at most 4 096 queues in all
//! (their capacity counts, not their length), and whose buffers keep room
//! for at most 65 536 activations (a queue's buffer grown past 1 024 is
//! freed first). At 88 bytes a queue, 32 an activation and 32 a set's
//! record, that is at most 2 458 112 bytes (2.34 MiB).
//!
//! A set dropped off the worker path (a cancelled query's queues, a
//! shutdown) is freed, not kept.

use crate::queue::ActivationQueue;

/// What a runtime keeps for later queries, behind the one lock a dropped
/// query's state and a submit take: emptied queue sets of dropped queries,
/// which later submissions re-arm ([`ActivationQueue::rearm`]) instead of
/// building queues whose buffers every warm query would grow again.
/// Bounded by [`SPARE_SETS`] sets, room for [`SPARE_QUEUES`] queues and
/// [`SPARE_SLOTS`] buffered-activation slots in all; the module docs give
/// the memory that makes.
#[derive(Default)]
pub(super) struct Spares {
    sets: Vec<SpareSet>,
    /// Room for queues over all of `sets`: their vectors' capacity, which
    /// a set truncated for a narrower operation, or extended for a wider
    /// one, keeps.
    queues: usize,
    /// Room for activations over all their buffers.
    slots: usize,
}

/// One operation's emptied queue set.
struct SpareSet {
    queues: Vec<ActivationQueue>,
    /// Room for activations its buffers keep.
    slots: usize,
}

impl Spares {
    /// Takes the set that best fits an operation with `n` instances: the
    /// shortest set at least `n` long, of those the one with the most
    /// room, else the longest; an empty one when there is none.
    pub(super) fn take(&mut self, n: usize) -> Vec<ActivationQueue> {
        let fits = (0..self.sets.len())
            .filter(|&i| self.sets[i].queues.len() >= n)
            .min_by_key(|&i| {
                let set = &self.sets[i];
                (set.queues.len(), std::cmp::Reverse(set.slots))
            });
        let longest = || (0..self.sets.len()).max_by_key(|&i| self.sets[i].queues.len());
        let Some(index) = fits.or_else(longest) else {
            return Vec::new();
        };
        let set = self.sets.swap_remove(index);
        self.queues -= set.queues.capacity();
        self.slots -= set.slots;
        set.queues
    }

    /// Keeps an operation's set, each buffer trimmed to
    /// [`SPARE_QUEUE_SLOTS`], if the bounds allow; otherwise hands it back
    /// for the caller to free.
    pub(super) fn give(
        &mut self,
        mut queues: Vec<ActivationQueue>,
    ) -> Option<Vec<ActivationQueue>> {
        if queues.is_empty()
            || self.sets.len() >= SPARE_SETS
            || self.queues + queues.capacity() > SPARE_QUEUES
        {
            return Some(queues);
        }
        let slots: usize = queues
            .iter_mut()
            .map(|q| q.trim_buffer(SPARE_QUEUE_SLOTS))
            .sum();
        if self.slots + slots > SPARE_SLOTS {
            return Some(queues);
        }
        self.queues += queues.capacity();
        self.slots += slots;
        self.sets.push(SpareSet { queues, slots });
        None
    }

    /// What the spares hold, counted from the sets and buffers themselves
    /// rather than from the bookkeeping that enforces the bounds.
    #[cfg(test)]
    pub(super) fn counts(&self) -> SpareCounts {
        let queues = || self.sets.iter().flat_map(|set| &set.queues);
        SpareCounts {
            sets: self.sets.len(),
            queues: self.sets.iter().map(|set| set.queues.capacity()).sum(),
            slots: queues().map(ActivationQueue::buffer_capacity).sum(),
            weight: queues().map(ActivationQueue::len).sum(),
        }
    }
}

/// What [`Runtime::spare_counts`](super::Runtime::spare_counts) reports.
#[cfg(test)]
#[derive(Debug)]
pub(super) struct SpareCounts {
    /// Spare queue sets.
    sets: usize,
    /// Room for queues in their vectors.
    queues: usize,
    /// Their buffers' room, in activations.
    slots: usize,
    /// Queue weight they hold, which a dropped query leaves at 0.
    weight: usize,
}

/// Most emptied queue sets a runtime keeps for later queries.
const SPARE_SETS: usize = 16;
/// Most room for queues a runtime keeps over all its spare sets' vectors.
const SPARE_QUEUES: usize = 4096;
/// Most activations a spare queue's buffer keeps room for; a queue whose
/// buffer grew larger goes to the spares without it.
const SPARE_QUEUE_SLOTS: usize = 1024;
/// Most activations the buffers of all spare queues keep room for.
const SPARE_SLOTS: usize = 65_536;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::{build_catalog, schedule_for};
    use crate::runtime::*;
    use dbs3_lera::{plans, JoinAlgorithm};

    /// Submits `plan` with a `threads`-wide schedule and waits for it.
    fn cardinality(runtime: &Runtime, cat: &Catalog, plan: &Plan, threads: usize) -> usize {
        let schedule = schedule_for(plan, cat, threads);
        let outcome = runtime.submit(cat, plan, &schedule).unwrap().wait();
        outcome.unwrap().cardinalities["Result"]
    }

    /// One runtime re-arms the queue sets that earlier queries left,
    /// whatever their shape and however they ended, and every query still
    /// counts what a fresh runtime counts, its batches of positions among
    /// them.
    /// (A query whose worker panics is the same case in
    /// `tests/faults.rs`, where fault plans may be installed.)
    #[test]
    fn recycled_queue_sets_and_position_buffers_answer_like_fresh_ones() {
        let (wide, _, _) = build_catalog(4_000, 1_000, 20);
        let (narrow, _, _) = build_catalog(2_000, 400, 7);
        let (slow, _, _) = build_catalog(20_000, 2_000, 10);
        let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let filter_join = plans::filter_join(
            "A",
            dbs3_lera::Predicate::range("unique1", 0, 1_000),
            "Bprime",
            "unique1",
            JoinAlgorithm::Hash,
        );
        let nested = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let fresh =
            |cat: &Catalog, plan: &Plan| cardinality(&Runtime::new(3).unwrap(), cat, plan, 3);
        let expected = [
            fresh(&wide, &assoc),
            fresh(&narrow, &ideal),
            fresh(&wide, &filter_join),
        ];
        assert!(expected.iter().all(|&c| c > 0), "{expected:?}");

        let runtime = Runtime::new(3).unwrap();
        assert_eq!(cardinality(&runtime, &wide, &assoc, 3), expected[0]);
        assert_eq!(cardinality(&runtime, &narrow, &ideal, 3), expected[1]);
        assert_eq!(cardinality(&runtime, &wide, &filter_join, 3), expected[2]);

        // Cancelled once a worker has taken up a batch.
        let schedule = schedule_for(&nested, &slow, 3);
        let handle = runtime.submit(&slow, &nested, &schedule).unwrap();
        while handle.query.upgrade().is_some_and(|query| {
            query.progress.load(Ordering::SeqCst) == 0
                && query.ops_remaining.load(Ordering::SeqCst) > 0
        }) {
            std::thread::yield_now();
        }
        handle.cancel();
        assert!(matches!(
            handle.wait(),
            Err(EngineError::QueryCancelled { .. }) | Ok(_)
        ));

        // Every set those queries left is re-armed by the next ones, and
        // a re-armed queue starts, and so ends, holding nothing.
        for _ in 0..3 {
            assert_eq!(cardinality(&runtime, &wide, &assoc, 3), expected[0]);
            assert_eq!(cardinality(&runtime, &narrow, &ideal, 3), expected[1]);
            let spares = runtime.spare_counts();
            assert!(spares.sets > 0 && spares.queues > 0, "{spares:?}");
            assert_eq!(spares.weight, 0, "{spares:?}");
        }
    }

    /// Queries far wider than the bounds, then narrower ones that re-arm
    /// their sets, leave the runtime holding no more than its constants
    /// allow, and the memory they allow is what the [`Runtime`] docs state.
    /// A set re-armed for a narrower operation keeps its vector's room, so
    /// that room is what counts: a set of 2 000 queues truncated to 10 and
    /// taken back counted as 10 would let the later queries at degree
    /// 1 000 leave room for 5 000 queues.
    #[test]
    fn spare_memory_stays_within_its_constant_bounds() {
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let runtime = Runtime::new(2).unwrap();
        let held_bytes = |spares: &SpareCounts| {
            spares.queues * mem::size_of::<ActivationQueue>()
                + spares.slots * mem::size_of::<Activation>()
                + spares.sets * mem::size_of::<SpareSet>()
        };
        for (degree, queries) in [(2_000, 2), (10, 1), (1_000, 2), (10, 2)] {
            let (cat, _, b_ref) = build_catalog(8_000, 8_000, degree);
            for _ in 0..queries {
                assert_eq!(cardinality(&runtime, &cat, &plan, 2), b_ref.cardinality());
            }
            let spares = runtime.spare_counts();
            assert!(spares.sets >= 1, "degree {degree}: a set fits the bounds");
            assert!(spares.sets <= SPARE_SETS, "degree {degree}: {spares:?}");
            assert!(spares.queues <= SPARE_QUEUES, "degree {degree}: {spares:?}");
            assert!(spares.slots <= SPARE_SLOTS, "degree {degree}: {spares:?}");
            assert!(
                held_bytes(&spares) <= 2_458_112,
                "degree {degree}: {spares:?} hold {} bytes",
                held_bytes(&spares)
            );
        }

        let queue_bytes = SPARE_QUEUES * mem::size_of::<ActivationQueue>()
            + SPARE_SLOTS * mem::size_of::<Activation>()
            + SPARE_SETS * mem::size_of::<SpareSet>();
        assert_eq!(queue_bytes, 2_458_112, "the bound the Runtime docs state");
    }
}
