//! The transmit (redistribution) operator.

use crate::activation::{Activation, TupleBatch};
use dbs3_storage::PartitionedRelation;
use std::sync::Arc;

/// A triggered scan that forwards every tuple of its fragment downstream as
/// one output batch.
///
/// The *redistribution* itself — deciding which consumer instance each tuple
/// goes to — is the runtime's routing step (hash of the key column), exactly
/// as in the paper's AssocJoin plan where the transmit operator's data
/// activations are spread over the join instances.
#[derive(Debug)]
pub struct TransmitOperator {
    relation: Arc<PartitionedRelation>,
}

impl TransmitOperator {
    /// Creates a bound transmit.
    pub fn new(relation: Arc<PartitionedRelation>) -> Self {
        TransmitOperator { relation }
    }

    /// Processes one activation for `instance`, returning the output batch.
    /// A trigger forwards the whole fragment; a morsel forwards its row
    /// range.
    pub fn process(&self, instance: usize, activation: Activation) -> TupleBatch {
        #[expect(
            clippy::expect_used,
            reason = "plan binding sized the instance range; an out-of-range instance is a \
                      planner bug worth crashing on"
        )]
        let tuples = self
            .relation
            .fragment(instance)
            .expect("the runtime only routes activations to existing instances")
            .tuples();
        let Some((start, end)) = super::control_range(&activation, tuples.len()) else {
            return TupleBatch::default();
        };
        TupleBatch::new(tuples[start..end].to_vec())
    }

    /// Rows instance `instance` forwards when triggered (its fragment's
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
    use dbs3_storage::{PartitionSpec, WisconsinConfig, WisconsinGenerator};

    #[test]
    fn emits_every_tuple_of_every_fragment_exactly_once() {
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow("Bprime", 500))
            .unwrap();
        let part = Arc::new(
            PartitionedRelation::from_relation(&rel, PartitionSpec::on("unique1", 7, 2)).unwrap(),
        );
        let op = TransmitOperator::new(Arc::clone(&part));
        let mut ids = Vec::new();
        for instance in 0..part.degree() {
            for t in op.process(instance, Activation::Trigger) {
                ids.push(t.value(0).as_int().unwrap());
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<i64>>());
    }

    #[test]
    fn data_activation_is_ignored() {
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow("Bprime", 10))
            .unwrap();
        let part = Arc::new(
            PartitionedRelation::from_relation(&rel, PartitionSpec::on("unique1", 2, 1)).unwrap(),
        );
        let op = TransmitOperator::new(Arc::clone(&part));
        let t = part.fragments()[0].tuples()[0].clone();
        assert!(op.process(0, Activation::single(t)).is_empty());
    }
}
