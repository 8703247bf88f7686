//! The transmit (redistribution) operator.

use super::Router;
use crate::activation::{Activation, Positions, TupleBatch};
use dbs3_storage::PartitionedRelation;
use std::ops::Range;
use std::sync::Arc;

/// A triggered scan that redistributes the rows of its fragment without
/// building or reading any: every row leaves as its position in the
/// fragment.
///
/// The *redistribution* itself — which consumer instance each row goes to —
/// is the hash of the key column over the consumer's degree, exactly as in
/// the paper's AssocJoin plan where the transmit operator's data
/// activations are spread over the join instances. The fragment computes
/// it once per degree, as its route table ([`Fragment::routes`]): its row
/// positions grouped by destination. A transmit then only cuts each
/// destination's group into batches of `CacheSize` positions, each a slice
/// of the table; the consumer, bound with the same relation, column and
/// degree, reads the rows or their keys there. On a co-located hop a batch
/// is a run of the fragment's rows.
///
/// [`Fragment::routes`]: dbs3_storage::Fragment::routes
#[derive(Debug)]
pub struct TransmitOperator {
    relation: Arc<PartitionedRelation>,
}

impl TransmitOperator {
    /// Creates a bound transmit.
    pub fn new(relation: Arc<PartitionedRelation>) -> Self {
        TransmitOperator { relation }
    }

    /// Cuts the rows `activation` covers in fragment `instance` — the whole
    /// fragment for a trigger, the morsel's range for a morsel, none for a
    /// data activation — into batches of positions, and hands each to
    /// `emit` with its destination: by `router`'s hash, or `dest` on a
    /// co-located hop. Returns how many rows it cut. A destination's rows,
    /// in fragment order, are cut after every `cache_size`-th and at the
    /// end: where a buffer filled row by row and flushed at `cache_size`
    /// would flush.
    ///
    /// Positions are `u32`: binding rejects a transmitted relation with a
    /// fragment beyond `u32::MAX` rows.
    pub(crate) fn cut(
        &self,
        instance: usize,
        activation: &Activation,
        router: Router,
        dest: usize,
        cache_size: usize,
        mut emit: impl FnMut(usize, TupleBatch),
    ) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "plan binding sized the instance range; an out-of-range instance is a \
                      planner bug worth crashing on"
        )]
        let fragment = self
            .relation
            .fragment(instance)
            .expect("the runtime only routes activations to existing instances");
        let Some((start, end)) = super::control_range(activation, fragment.cardinality()) else {
            return 0;
        };
        let mut slices = |dest: usize, span: Range<usize>, routed: bool| {
            for start in span.clone().step_by(cache_size.max(1)) {
                let at = Positions {
                    source: instance as u32,
                    start: start as u32,
                    end: (start + cache_size).min(span.end) as u32,
                    routed,
                };
                emit(dest, TupleBatch::at(at));
            }
        };
        match router {
            Router::SameInstance => slices(dest, start..end, false),
            Router::HashColumn { column, degree } => {
                let table = fragment.routes(column, degree);
                for (dest, group) in table.groups() {
                    // A group ascends, so its rows in `start..end` are one
                    // slice of it.
                    let rows = &table.rows()[group.clone()];
                    let from = rows.partition_point(|&row| (row as usize) < start);
                    let to = rows.partition_point(|&row| (row as usize) < end);
                    slices(dest, group.start + from..group.start + to, true);
                }
            }
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
    use dbs3_storage::{Fragment, PartitionSpec, WisconsinConfig, WisconsinGenerator};

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

    /// The rows a batch of positions stands for in `fragment`, read the
    /// way a consumer behind `router` reads them.
    fn rows_at(fragment: &Fragment, batch: &TupleBatch, router: Router) -> Vec<usize> {
        let at = batch.positions().unwrap();
        let range = at.start as usize..at.end as usize;
        match router {
            Router::HashColumn { column, degree } => {
                assert!(at.routed);
                let table = fragment.routes(column, degree).rows();
                table[range].iter().map(|&r| r as usize).collect()
            }
            Router::SameInstance => {
                assert!(!at.routed);
                range.collect()
            }
        }
    }

    #[test]
    fn emits_every_tuple_of_every_fragment_exactly_once() {
        let (part, op) = transmit(500, 7);
        let degree = 3;
        let routers = [
            Router::HashColumn { column: 0, degree },
            Router::SameInstance,
        ];
        // Triggers, and the same fragments again as morsels of 11 rows.
        for morsel in [None, Some(11)] {
            for router in routers {
                let mut ids = Vec::new();
                for instance in 0..part.degree() {
                    let fragment = &part.fragments()[instance];
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
                    let mut cut = 0;
                    for activation in &activations {
                        cut += op.cut(instance, activation, router, 2, 4, |dest, batch| {
                            assert!((1..=4).contains(&batch.len()), "a cache-sized cut");
                            assert_eq!(batch.positions().unwrap().source as usize, instance);
                            for row in rows_at(fragment, &batch, router) {
                                let tuple = &fragment.tuples()[row];
                                let routed = (tuple.hash_key(&[0]) % degree as u64) as usize;
                                match router {
                                    Router::HashColumn { .. } => assert_eq!(dest, routed),
                                    Router::SameInstance => assert_eq!(dest, 2),
                                }
                                ids.push(tuple.value(0).as_int().unwrap());
                            }
                        });
                    }
                    assert_eq!(cut, rows, "instance {instance} {morsel:?}");
                }
                ids.sort_unstable();
                assert_eq!(ids, (0..500).collect::<Vec<i64>>(), "{morsel:?} {router:?}");
            }
        }
    }

    /// A morsel's batches for a destination are that destination's group
    /// filtered to the morsel's rows, in order, cut every `cache_size`.
    #[test]
    fn a_morsels_slices_are_its_groups_within_its_range() {
        let (part, op) = transmit(2_000, 2);
        let router = Router::HashColumn {
            column: 0,
            degree: 9,
        };
        for instance in 0..2 {
            let fragment = &part.fragments()[instance];
            let table = fragment.routes(0, 9);
            let n = fragment.cardinality();
            for (start, end) in [(0, 1), (3, 250), (250, n), (17, 17)] {
                let morsel = Activation::Morsel {
                    start,
                    end,
                    lead: start == 0,
                };
                let mut cuts: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); 9];
                op.cut(instance, &morsel, router, 0, 7, |dest, batch| {
                    cuts[dest].push((batch.len(), rows_at(fragment, &batch, router)));
                });
                for (dest, group) in table.groups() {
                    let expected: Vec<usize> = table.rows()[group]
                        .iter()
                        .map(|&r| r as usize)
                        .filter(|r| (start..end).contains(r))
                        .collect();
                    let got: Vec<usize> = cuts[dest].iter().flat_map(|(_, r)| r.clone()).collect();
                    assert_eq!(got, expected, "{start}..{end} dest {dest}");
                    let sizes: Vec<usize> = cuts[dest].iter().map(|(n, _)| *n).collect();
                    let full = expected.len() / 7;
                    assert!(sizes[..full].iter().all(|&n| n == 7), "{sizes:?}");
                    assert_eq!(sizes.len(), expected.len().div_ceil(7), "{sizes:?}");
                }
            }
        }
    }

    #[test]
    fn data_activation_is_ignored() {
        let (part, op) = transmit(10, 2);
        let t = part.fragments()[0].tuples()[0].clone();
        let cut = op.cut(
            0,
            &Activation::single(t),
            Router::SameInstance,
            0,
            4,
            |_, _| panic!("a data activation emits no position"),
        );
        assert_eq!(cut, 0);
    }
}
