//! The transmit (redistribution) operator.

use crate::activation::Activation;
use dbs3_storage::{PartitionedRelation, Tuple};
use std::sync::Arc;

/// A triggered scan that redistributes the rows of its fragment without
/// building any: every row leaves as its position in the fragment.
///
/// The *redistribution* itself — deciding which consumer instance each row
/// goes to — is the runtime's routing step (hash of the key column), exactly
/// as in the paper's AssocJoin plan where the transmit operator's data
/// activations are spread over the join instances. The runtime buffers the
/// positions per destination and ships each buffer as one batch tagged with
/// the fragment; the consumer, bound with the same relation, reads the rows
/// or their keys there.
#[derive(Debug)]
pub struct TransmitOperator {
    relation: Arc<PartitionedRelation>,
}

impl TransmitOperator {
    /// Creates a bound transmit.
    pub fn new(relation: Arc<PartitionedRelation>) -> Self {
        TransmitOperator { relation }
    }

    /// Scatters the rows `activation` covers in fragment `instance` — the
    /// whole fragment for a trigger, the morsel's range for a morsel, none
    /// for a data activation: calls `emit(route(row), position)` for each
    /// row in fragment order, and returns how many rows it scattered.
    ///
    /// Positions are `u32`: binding rejects a transmitted relation with a
    /// fragment beyond `u32::MAX` rows.
    pub fn scatter(
        &self,
        instance: usize,
        activation: &Activation,
        route: impl Fn(&Tuple) -> usize,
        mut emit: impl FnMut(usize, u32),
    ) -> usize {
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
        let Some((start, end)) = super::control_range(activation, tuples.len()) else {
            return 0;
        };
        for (position, tuple) in (start..end).zip(&tuples[start..end]) {
            emit(route(tuple), position as u32);
        }
        end - start
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

    fn transmit(cardinality: usize, degree: usize) -> (Arc<PartitionedRelation>, TransmitOperator) {
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow("Bprime", cardinality))
            .unwrap();
        let part = Arc::new(
            PartitionedRelation::from_relation(&rel, PartitionSpec::on("unique1", degree, 2))
                .unwrap(),
        );
        let op = TransmitOperator::new(Arc::clone(&part));
        (part, op)
    }

    #[test]
    fn emits_every_tuple_of_every_fragment_exactly_once() {
        let (part, op) = transmit(500, 7);
        let degree = 3;
        let route = |t: &Tuple| (t.hash_key(&[0]) % degree as u64) as usize;
        // Triggers, and the same fragments again as morsels of 11 rows.
        for morsel in [None, Some(11)] {
            let mut ids = Vec::new();
            for instance in 0..part.degree() {
                let rows = op.triggered_rows(instance).unwrap();
                let activations: Vec<Activation> = match morsel {
                    None => vec![Activation::Trigger],
                    Some(step) => (0..rows)
                        .step_by(step)
                        .map(|start| Activation::Morsel {
                            start,
                            end: (start + step).min(rows),
                            lead: start == 0,
                        })
                        .collect(),
                };
                let tuples = part.fragments()[instance].tuples();
                let mut scattered = 0;
                for activation in &activations {
                    scattered += op.scatter(instance, activation, route, |dest, position| {
                        let tuple = &tuples[position as usize];
                        assert_eq!(dest, route(tuple), "each row goes where it routes");
                        ids.push(tuple.value(0).as_int().unwrap());
                    });
                }
                assert_eq!(scattered, rows, "instance {instance} {morsel:?}");
            }
            ids.sort_unstable();
            assert_eq!(ids, (0..500).collect::<Vec<i64>>(), "{morsel:?}");
        }
    }

    #[test]
    fn data_activation_is_ignored() {
        let (part, op) = transmit(10, 2);
        let t = part.fragments()[0].tuples()[0].clone();
        let scattered = op.scatter(
            0,
            &Activation::single(t),
            |_| 0,
            |_, _| panic!("a data activation emits no position"),
        );
        assert_eq!(scattered, 0);
    }
}
