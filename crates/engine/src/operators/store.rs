//! The store operator.

use crate::activation::{Activation, TupleBatch};
use dbs3_storage::Tuple;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Materialises incoming tuples into per-instance result buffers — or, in
/// *counting* mode, only tallies them.
///
/// Result fragments are co-located with the producing join instances
/// (`Res_i` next to `Join_i` in Figures 2–3), so instance `i` of the store
/// appends to buffer `i`; a whole incoming batch is appended under one lock
/// acquisition, and no cross-instance locking happens on the hot path.
///
/// A store built with [`StoreOperator::counting`] never materialises tuples:
/// it bumps a per-fragment atomic counter instead, so workloads that only
/// need cardinalities and metrics (benches, the `baseline` bin,
/// `Query::discard_results()`) skip the result `Vec<Tuple>` entirely. It
/// reads nothing of a batch but its length, which is why the operator bound
/// in front of it counts its output rows instead of building them (see
/// [`crate::activation`]): the batches arriving here usually hold no tuples.
#[derive(Debug)]
pub struct StoreOperator {
    result_name: String,
    buffers: Arc<Vec<Mutex<Vec<Tuple>>>>,
    // ordering(counts): Relaxed — independent per-fragment tallies with no
    // cross-field invariants; totals are only read after the query drains.
    // ordering(c): the same counters bound as `c` in iterator closures —
    // same Relaxed protocol.
    /// Per-fragment tuple tallies, maintained only in counting mode.
    counts: Arc<Vec<AtomicUsize>>,
    /// Whether tuples are counted and dropped instead of materialised.
    discard: bool,
}

impl StoreOperator {
    /// Creates a store with `instances` result fragments.
    pub fn new(result_name: impl Into<String>, instances: usize) -> Self {
        Self::build(result_name, instances, false)
    }

    /// Creates a counting store: incoming tuples are tallied per fragment
    /// and dropped, never materialised.
    pub fn counting(result_name: impl Into<String>, instances: usize) -> Self {
        Self::build(result_name, instances, true)
    }

    fn build(result_name: impl Into<String>, instances: usize, discard: bool) -> Self {
        let instances = instances.max(1);
        StoreOperator {
            result_name: result_name.into(),
            buffers: Arc::new((0..instances).map(|_| Mutex::new(Vec::new())).collect()),
            counts: Arc::new((0..instances).map(|_| AtomicUsize::new(0)).collect()),
            discard,
        }
    }

    /// Name of the stored result.
    pub fn result_name(&self) -> &str {
        &self.result_name
    }

    /// Number of result fragments.
    pub fn instance_count(&self) -> usize {
        self.buffers.len()
    }

    /// Whether this store counts tuples instead of materialising them.
    pub fn is_counting(&self) -> bool {
        self.discard
    }

    /// Processes one activation for `instance`. A data batch is appended to
    /// the instance's result fragment (or tallied, in counting mode) in one
    /// pass; triggers are ignored.
    pub fn process(&self, instance: usize, activation: Activation) -> TupleBatch {
        if let Some(batch) = activation.into_batch() {
            let slot = instance % self.buffers.len();
            if self.discard {
                self.counts[slot].fetch_add(batch.len(), Ordering::Relaxed);
            } else {
                let mut buffer = self.buffers[slot].lock();
                buffer.extend(batch);
            }
        }
        TupleBatch::default()
    }

    /// Total number of stored (or, in counting mode, tallied) tuples across
    /// fragments.
    pub fn stored_count(&self) -> usize {
        if self.discard {
            self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        } else {
            self.buffers.iter().map(|b| b.lock().len()).sum()
        }
    }

    /// Per-fragment stored counts (used to observe redistribution skew, RS in
    /// the paper's taxonomy). Valid in both modes.
    pub fn fragment_counts(&self) -> Vec<usize> {
        if self.discard {
            self.counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect()
        } else {
            self.buffers.iter().map(|b| b.lock().len()).collect()
        }
    }

    /// Drains every fragment into a single result vector. A counting store
    /// has nothing to drain and returns an empty vector.
    pub fn take_all(&self) -> Vec<Tuple> {
        let mut out = Vec::new();
        for b in self.buffers.iter() {
            out.append(&mut b.lock());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_storage::tuple::int_tuple;

    #[test]
    fn stores_data_and_ignores_triggers() {
        let op = StoreOperator::new("Result", 4);
        assert_eq!(op.result_name(), "Result");
        assert_eq!(op.instance_count(), 4);
        op.process(0, Activation::Trigger);
        op.process(
            1,
            Activation::Data(TupleBatch::from(vec![int_tuple(&[1]), int_tuple(&[2])])),
        );
        op.process(3, Activation::single(int_tuple(&[3])));
        assert_eq!(op.stored_count(), 3);
        assert_eq!(op.fragment_counts(), vec![0, 2, 0, 1]);
    }

    #[test]
    fn take_all_collects_and_empties() {
        let op = StoreOperator::new("Result", 2);
        op.process(0, Activation::single(int_tuple(&[1])));
        op.process(1, Activation::single(int_tuple(&[2])));
        let all = op.take_all();
        assert_eq!(all.len(), 2);
        assert_eq!(op.stored_count(), 0);
    }

    #[test]
    fn zero_instances_clamped_to_one() {
        let op = StoreOperator::new("Result", 0);
        assert_eq!(op.instance_count(), 1);
        op.process(5, Activation::single(int_tuple(&[9])));
        assert_eq!(op.stored_count(), 1);
    }

    #[test]
    fn counting_store_tallies_without_materialising() {
        let op = StoreOperator::counting("Result", 4);
        assert!(op.is_counting());
        op.process(0, Activation::Trigger);
        op.process(
            1,
            Activation::Data(TupleBatch::from(vec![int_tuple(&[1]), int_tuple(&[2])])),
        );
        op.process(3, Activation::single(int_tuple(&[3])));
        assert_eq!(op.stored_count(), 3);
        assert_eq!(op.fragment_counts(), vec![0, 2, 0, 1]);
        assert!(
            op.take_all().is_empty(),
            "counting mode materialises nothing"
        );
        assert_eq!(op.stored_count(), 3, "take_all must not reset the tally");
    }

    #[test]
    fn concurrent_appends_from_many_threads() {
        use std::thread;
        let op = Arc::new(StoreOperator::new("Result", 8));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let op = Arc::clone(&op);
                thread::spawn(move || {
                    for i in 0..125 {
                        // Two tuples per batch: 250 stored per thread.
                        op.process(
                            (t + i) % 8,
                            Activation::Data(TupleBatch::from(vec![
                                int_tuple(&[i as i64]),
                                int_tuple(&[-(i as i64)]),
                            ])),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(op.stored_count(), 1000);
    }
}
