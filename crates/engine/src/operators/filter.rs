//! The filter operator.

use crate::activation::{Activation, TupleBatch};
use dbs3_lera::predicate::BoundPredicate;
use dbs3_storage::PartitionedRelation;
use std::sync::Arc;

/// A triggered selection: when instance `i` receives its trigger activation
/// it scans fragment `i` of the relation and emits (as one output batch) the
/// tuples satisfying the predicate.
#[derive(Debug)]
pub struct FilterOperator {
    relation: Arc<PartitionedRelation>,
    predicate: BoundPredicate,
    /// Whether selected tuples are counted instead of cloned (the consumer
    /// is a counting store, which only ever reads `batch.len()`).
    count_only: bool,
}

impl FilterOperator {
    /// Creates a bound filter.
    pub fn new(relation: Arc<PartitionedRelation>, predicate: BoundPredicate) -> Self {
        FilterOperator {
            relation,
            predicate,
            count_only: false,
        }
    }

    /// Counts selected tuples instead of cloning them; only for an operator
    /// whose consumer is a counting store.
    pub(crate) fn counting_matches(mut self, count_only: bool) -> Self {
        self.count_only = count_only;
        self
    }

    /// Processes one activation for `instance`, returning the output batch.
    /// A trigger scans the whole fragment; a morsel scans its row range.
    ///
    /// Data activations are ignored (a filter is always triggered); the
    /// runtime never routes them here, but being lenient keeps the operator
    /// harmless under misuse.
    pub fn process(&self, instance: usize, activation: Activation) -> TupleBatch {
        #[expect(
            clippy::expect_used,
            reason = "plan binding sized the instance range; an out-of-range instance is a \
                      planner bug worth crashing on"
        )]
        let fragment = self
            .relation
            .fragment(instance)
            .expect("the runtime only routes activations to existing instances");
        let tuples = fragment.tuples();
        let Some((start, end)) = super::control_range(&activation, tuples.len()) else {
            return TupleBatch::default();
        };
        let selected = tuples[start..end].iter().filter(|t| self.predicate.eval(t));
        if self.count_only {
            TupleBatch::counted(selected.count())
        } else {
            TupleBatch::new(selected.cloned().collect())
        }
    }

    /// Rows instance `instance` scans when triggered (its fragment's
    /// cardinality).
    pub fn triggered_rows(&self, instance: usize) -> Option<usize> {
        self.relation
            .fragment(instance)
            .ok()
            .map(|f| f.cardinality())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_lera::Predicate;
    use dbs3_storage::{PartitionSpec, WisconsinConfig, WisconsinGenerator};

    fn relation() -> Arc<PartitionedRelation> {
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow("A", 1000))
            .unwrap();
        Arc::new(
            PartitionedRelation::from_relation(&rel, PartitionSpec::on("unique1", 8, 2)).unwrap(),
        )
    }

    #[test]
    fn trigger_selects_matching_tuples_of_the_fragment() {
        let rel = relation();
        let schema = rel.schema().clone();
        let pred = Predicate::range("unique1", 0, 100)
            .bind("A", &schema)
            .unwrap();
        let op = FilterOperator::new(Arc::clone(&rel), pred);

        let mut total = 0usize;
        for instance in 0..rel.degree() {
            let out = op.process(instance, Activation::Trigger);
            total += out.len();
            let u1 = schema.column_index("unique1").unwrap();
            for t in &out {
                let v = t.value(u1).as_int().unwrap();
                assert!((0..100).contains(&v));
            }
        }
        assert_eq!(
            total, 100,
            "exactly unique1 in [0,100) across all fragments"
        );
    }

    #[test]
    fn data_activation_is_ignored() {
        let rel = relation();
        let pred = Predicate::True.bind("A", rel.schema()).unwrap();
        let op = FilterOperator::new(Arc::clone(&rel), pred);
        let some_tuple = rel.fragments()[0].tuples()[0].clone();
        assert!(op.process(0, Activation::single(some_tuple)).is_empty());
    }

    #[test]
    fn morsels_cover_the_fragment_exactly_once() {
        let rel = relation();
        let pred = Predicate::True.bind("A", rel.schema()).unwrap();
        let op = FilterOperator::new(Arc::clone(&rel), pred);
        let whole = op.process(2, Activation::Trigger);
        let len = rel.fragment(2).unwrap().cardinality();
        // Split at an uneven boundary, with the last morsel overshooting the
        // fragment (clamped): the concatenation must equal the full scan.
        let mut pieces = Vec::new();
        for (start, end, lead) in [(0, 7, true), (7, len, false), (len, len + 50, false)] {
            pieces.extend(op.process(2, Activation::Morsel { start, end, lead }));
        }
        assert_eq!(TupleBatch::new(pieces), whole);
        assert_eq!(op.triggered_rows(2), Some(len));
    }

    #[test]
    fn counting_selects_the_same_rows_without_cloning_them() {
        let rel = relation();
        let pred = Predicate::range("unique1", 0, 100)
            .bind("A", rel.schema())
            .unwrap();
        let built = FilterOperator::new(Arc::clone(&rel), pred.clone());
        let counting = FilterOperator::new(Arc::clone(&rel), pred).counting_matches(true);
        for instance in 0..rel.degree() {
            let rows = built.process(instance, Activation::Trigger).len();
            let counted = counting.process(instance, Activation::Trigger);
            assert_eq!(counted, TupleBatch::counted(rows));
        }
    }

    #[test]
    fn true_predicate_returns_whole_fragment() {
        let rel = relation();
        let pred = Predicate::True.bind("A", rel.schema()).unwrap();
        let op = FilterOperator::new(Arc::clone(&rel), pred);
        let out = op.process(3, Activation::Trigger);
        assert_eq!(out.len(), rel.fragment(3).unwrap().cardinality());
    }
}
