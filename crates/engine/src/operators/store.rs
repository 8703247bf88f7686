//! The store operator.

use super::Transmitted;
use crate::activation::{Activation, TupleBatch};
use dbs3_storage::Tuple;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
///
/// Fed by a transmit, a batch holds row positions in a fragment of the
/// transmitted relation: a counting store reads only their number, a
/// materialising one clones the rows out of that fragment.
#[derive(Debug)]
pub struct StoreOperator {
    result_name: String,
    fragments: Fragments,
}

/// A store's result fragments: tallies or rows, one per instance.
#[derive(Debug)]
enum Fragments {
    // ordering(Counting): Relaxed — independent per-fragment tallies with
    // no cross-field invariants; totals are only read after the query
    // drains.
    /// Tuples tallied and dropped, never materialised.
    Counting(Box<[AtomicUsize]>),
    /// Tuples kept as rows.
    Materialising {
        rows: Box<[Mutex<Vec<Tuple>>]>,
        /// What incoming positions point into, when the producer is a
        /// transmit.
        transmitted: Option<Transmitted>,
    },
}

impl StoreOperator {
    /// Creates a store with `instances` result fragments.
    pub fn new(result_name: impl Into<String>, instances: usize) -> Self {
        let rows = (0..instances.max(1))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        StoreOperator {
            result_name: result_name.into(),
            fragments: Fragments::Materialising {
                rows,
                transmitted: None,
            },
        }
    }

    /// Creates a counting store: incoming tuples are tallied per fragment
    /// and dropped, never materialised.
    pub fn counting(result_name: impl Into<String>, instances: usize) -> Self {
        let counts = (0..instances.max(1)).map(|_| AtomicUsize::new(0)).collect();
        StoreOperator {
            result_name: result_name.into(),
            fragments: Fragments::Counting(counts),
        }
    }

    /// Reads incoming positions in what the producing transmit ships; only
    /// for a store whose producer is that transmit. A counting store reads
    /// no rows and ignores it.
    pub(crate) fn transmitted(mut self, from: Option<Transmitted>) -> Self {
        if let Fragments::Materialising { transmitted, .. } = &mut self.fragments {
            *transmitted = from;
        }
        self
    }

    /// Name of the stored result.
    pub fn result_name(&self) -> &str {
        &self.result_name
    }

    /// Number of result fragments.
    pub fn instance_count(&self) -> usize {
        match &self.fragments {
            Fragments::Counting(counts) => counts.len(),
            Fragments::Materialising { rows, .. } => rows.len(),
        }
    }

    /// Whether this store counts tuples instead of materialising them.
    pub fn is_counting(&self) -> bool {
        matches!(self.fragments, Fragments::Counting(_))
    }

    /// Processes one activation for `instance`: tallies a data batch in
    /// counting mode, and otherwise appends clones of its rows to the
    /// instance's result fragment, read from the transmitted relation for a
    /// batch of positions. Triggers are ignored.
    pub fn process(&self, instance: usize, activation: &Activation) -> TupleBatch {
        let Some(batch) = activation.batch() else {
            return TupleBatch::default();
        };
        match &self.fragments {
            Fragments::Counting(counts) => {
                counts[instance % counts.len()].fetch_add(batch.len(), Ordering::Relaxed);
            }
            Fragments::Materialising { rows, transmitted } => {
                let mut buffer = lock(&rows[instance % rows.len()]);
                match transmitted.as_ref().and_then(|t| t.rows(batch)) {
                    Some((fragment, at)) => {
                        let tuples = fragment.tuples();
                        buffer.extend(at.map(|row| tuples[row].clone()));
                    }
                    None => buffer.extend(batch.iter().cloned()),
                }
            }
        }
        TupleBatch::default()
    }

    /// Total number of stored (or, in counting mode, tallied) tuples across
    /// fragments.
    pub fn stored_count(&self) -> usize {
        match &self.fragments {
            Fragments::Counting(counts) => counts.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
            Fragments::Materialising { rows, .. } => rows.iter().map(|r| lock(r).len()).sum(),
        }
    }

    /// Per-fragment stored counts (used to observe redistribution skew, RS in
    /// the paper's taxonomy). Valid in both modes.
    pub fn fragment_counts(&self) -> Vec<usize> {
        match &self.fragments {
            Fragments::Counting(counts) => {
                counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
            }
            Fragments::Materialising { rows, .. } => rows.iter().map(|r| lock(r).len()).collect(),
        }
    }

    /// Drains every fragment into a single result vector. A counting store
    /// has nothing to drain and returns an empty vector.
    pub fn take_all(&self) -> Vec<Tuple> {
        let mut out = Vec::new();
        if let Fragments::Materialising { rows, .. } = &self.fragments {
            for r in rows.iter() {
                out.append(&mut lock(r));
            }
        }
        out
    }
}

/// A result fragment, locked; a panic while it was held left whole rows.
fn lock(rows: &Mutex<Vec<Tuple>>) -> MutexGuard<'_, Vec<Tuple>> {
    rows.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_storage::tuple::int_tuple;
    use std::sync::Arc;

    #[test]
    fn stores_data_and_ignores_triggers() {
        let op = StoreOperator::new("Result", 4);
        assert_eq!(op.result_name(), "Result");
        assert_eq!(op.instance_count(), 4);
        op.process(0, &Activation::Trigger);
        op.process(
            1,
            &Activation::Data(TupleBatch::from(vec![int_tuple(&[1]), int_tuple(&[2])])),
        );
        op.process(3, &Activation::single(int_tuple(&[3])));
        assert_eq!(op.stored_count(), 3);
        assert_eq!(op.fragment_counts(), vec![0, 2, 0, 1]);
    }

    #[test]
    fn take_all_collects_and_empties() {
        let op = StoreOperator::new("Result", 2);
        op.process(0, &Activation::single(int_tuple(&[1])));
        op.process(1, &Activation::single(int_tuple(&[2])));
        let all = op.take_all();
        assert_eq!(all.len(), 2);
        assert_eq!(op.stored_count(), 0);
    }

    #[test]
    fn zero_instances_clamped_to_one() {
        let op = StoreOperator::new("Result", 0);
        assert_eq!(op.instance_count(), 1);
        op.process(5, &Activation::single(int_tuple(&[9])));
        assert_eq!(op.stored_count(), 1);
    }

    #[test]
    fn counting_store_tallies_without_materialising() {
        let op = StoreOperator::counting("Result", 4);
        assert!(op.is_counting());
        op.process(0, &Activation::Trigger);
        op.process(
            1,
            &Activation::Data(TupleBatch::from(vec![int_tuple(&[1]), int_tuple(&[2])])),
        );
        op.process(3, &Activation::single(int_tuple(&[3])));
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
                            &Activation::Data(TupleBatch::from(vec![
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
