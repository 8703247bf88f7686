//! Join operators: triggered (co-partitioned) and pipelined.

use super::Transmitted;
use crate::activation::{Activation, TupleBatch};
use dbs3_lera::JoinAlgorithm;
use dbs3_storage::{HashIndex, PartitionedRelation, Tuple, Value};
use std::borrow::Borrow;
use std::sync::Arc;
use std::sync::OnceLock;

/// What both join operators share: the inner relation, the key columns, the
/// algorithm, the lazily resolved per-instance indexes, and what a match
/// becomes — a built row, or one more in a count.
///
/// An indexed count reads keys, not rows: it sums [`HashIndex::count`] over
/// the outer keys, which for integer keys in an all-integer index matches
/// full hashes and reads no inner row. A triggered join takes its outer
/// keys from the outer fragment's dense integer column
/// ([`Fragment::int_column`](dbs3_storage::Fragment::int_column)), so it
/// reads no outer row either; so does a pipelined join fed the positions of
/// a transmitted fragment. A pipelined join fed built rows reads the keys
/// from them.
#[derive(Debug)]
struct Probe {
    inner: Arc<PartitionedRelation>,
    /// Column of the outer (scanned or incoming) tuples holding the join key.
    outer_column: usize,
    /// Column of the inner relation holding the join key.
    inner_column: usize,
    algorithm: JoinAlgorithm,
    /// Lazily resolved per-instance indexes over the inner fragments (the
    /// indexed join, [`JoinAlgorithm::Hash`]). Resolved once on the first
    /// activation of an instance and shared by every later morsel or data
    /// batch — splitting the outer scan must not multiply the build work,
    /// nor the index counters. The resolution goes through
    /// [`crate::cache::fragment_index`] to the index the inner fragment
    /// owns, so concurrent and repeated queries over one relation share one
    /// build across operators. A boxed slice, since the instance count is
    /// fixed at bind.
    indexes: Box<[OnceLock<Arc<HashIndex>>]>,
    /// Whether matches are counted instead of built (the consumer is a
    /// counting store, which only ever reads `batch.len()`).
    count_only: bool,
}

impl Probe {
    fn new(
        inner: Arc<PartitionedRelation>,
        outer_column: usize,
        inner_column: usize,
        algorithm: JoinAlgorithm,
    ) -> Self {
        let indexes = (0..inner.degree()).map(|_| OnceLock::new()).collect();
        Probe {
            inner,
            outer_column,
            inner_column,
            algorithm,
            indexes,
            count_only: false,
        }
    }

    /// Whether matches are counted through an index, the path that can take
    /// the outer keys alone ([`join`](Self::join)'s `int_keys`).
    fn counts_by_index(&self) -> bool {
        self.count_only && self.algorithm != JoinAlgorithm::NestedLoop
    }

    /// Joins `outers` against inner fragment `instance`. `int_keys`, when
    /// given, yields the outer join keys of `outers`, in order, and an
    /// indexed count reads them instead of the rows. Built output is
    /// presized to one row per outer tuple — exact when every outer key has
    /// one partner (the key joins of the paper's plans), a first guess
    /// otherwise — instead of regrowing from empty on every activation.
    fn join<'a>(
        &self,
        instance: usize,
        outers: impl ExactSizeIterator<Item = &'a Tuple>,
        int_keys: Option<impl Iterator<Item = i64>>,
    ) -> TupleBatch {
        #[expect(
            clippy::expect_used,
            reason = "plan binding verified co-partitioning and hash routing is modulo the \
                      instance count, so the fragment exists; a miss is a planner bug worth \
                      crashing on"
        )]
        let fragment = self
            .inner
            .fragment(instance)
            .expect("every join instance has an inner fragment");
        let inner = fragment.tuples();
        // The paper's "index built on the fly": resolved once per instance,
        // owned by the fragment. The probe is an allocation-free iterator
        // over the matching bucket.
        let index = (self.algorithm != JoinAlgorithm::NestedLoop).then(|| {
            self.indexes[instance]
                .get_or_init(|| crate::cache::fragment_index(fragment, self.inner_column))
        });
        if self.count_only {
            let rows = match (index, int_keys) {
                (Some(index), Some(keys)) => count_matches(index, inner, keys.map(Value::Int)),
                (Some(index), None) => {
                    count_matches(index, inner, outers.map(|o| o.value(self.outer_column)))
                }
                (None, _) => {
                    let mut rows = 0usize;
                    self.each_match(outers, inner, None, |_, _| rows += 1);
                    rows
                }
            };
            TupleBatch::counted(rows)
        } else {
            let mut out = Vec::with_capacity(outers.len());
            self.each_match(outers, inner, index, |o, i| out.push(o.concat(i)));
            TupleBatch::new(out)
        }
    }

    /// The one match loop: calls `on_match(outer, inner)` for every pair
    /// with equal keys, in outer order then inner-fragment order.
    fn each_match<'a>(
        &self,
        outers: impl Iterator<Item = &'a Tuple>,
        inner: &[Tuple],
        index: Option<&Arc<HashIndex>>,
        mut on_match: impl FnMut(&'a Tuple, &Tuple),
    ) {
        for o in outers {
            let key = o.value(self.outer_column);
            match index {
                Some(index) => index.probe(inner, key).for_each(|i| on_match(o, i)),
                None => inner
                    .iter()
                    .filter(|i| i.value(self.inner_column) == key)
                    .for_each(|i| on_match(o, i)),
            }
        }
    }
}

/// The one count loop: the matches of every outer key in `index` over
/// `inner`.
fn count_matches<K: Borrow<Value>>(
    index: &HashIndex,
    inner: &[Tuple],
    keys: impl Iterator<Item = K>,
) -> usize {
    keys.map(|key| index.count(inner, key.borrow())).sum()
}

/// A triggered co-partitioned join (the IdealJoin operation): when instance
/// `i` receives its trigger it joins fragment `i` of the outer relation with
/// fragment `i` of the inner relation.
#[derive(Debug)]
pub struct TriggeredJoinOperator {
    outer: Arc<PartitionedRelation>,
    probe: Probe,
}

impl TriggeredJoinOperator {
    /// Creates a bound triggered join.
    pub fn new(
        outer: Arc<PartitionedRelation>,
        inner: Arc<PartitionedRelation>,
        outer_column: usize,
        inner_column: usize,
        algorithm: JoinAlgorithm,
    ) -> Self {
        TriggeredJoinOperator {
            outer,
            probe: Probe::new(inner, outer_column, inner_column, algorithm),
        }
    }

    /// Counts matches instead of building rows; only for an operator whose
    /// consumer is a counting store.
    pub(crate) fn counting_matches(mut self, count_only: bool) -> Self {
        self.probe.count_only = count_only;
        self
    }

    /// Processes one activation for `instance`, returning the output batch.
    /// A trigger joins the whole outer fragment against the co-partitioned
    /// inner fragment; a morsel joins only its outer row range. An indexed
    /// count reads the range's keys from the outer fragment's dense integer
    /// column, which the first such join over the fragment builds.
    pub fn process(&self, instance: usize, activation: &Activation) -> TupleBatch {
        #[expect(
            clippy::expect_used,
            reason = "plan binding verified co-partitioning; a missing fragment is a planner \
                      bug worth crashing on"
        )]
        let fragment = self
            .outer
            .fragment(instance)
            .expect("co-partitioned operands share the degree of partitioning");
        let outer = fragment.tuples();
        match super::control_range(activation, outer.len()) {
            Some((start, end)) => {
                let int_keys = self
                    .probe
                    .counts_by_index()
                    .then(|| fragment.int_column(self.probe.outer_column))
                    .flatten()
                    .map(|keys| keys[start..end].iter().copied());
                self.probe
                    .join(instance, outer[start..end].iter(), int_keys)
            }
            None => TupleBatch::default(),
        }
    }

    /// Rows instance `instance` scans when triggered (its outer fragment's
    /// cardinality).
    pub fn triggered_rows(&self, instance: usize) -> Option<usize> {
        self.outer.fragment(instance).ok().map(|f| f.cardinality())
    }
}

/// A pipelined join: each data activation carries a batch of outer tuples,
/// which are joined against the co-partitioned inner fragment of the
/// receiving instance (the join of AssocJoin and of the filter–join
/// pipeline). Probing the whole batch against one inner fragment under a
/// single activation dispatch is where transport batching pays off.
///
/// Fed by a transmit, the batch holds row positions in a fragment of the
/// transmitted relation instead of rows, a slice of the fragment's route
/// table for this join's key and instance count: a counting indexed join
/// reads their keys from that fragment's dense integer column, any other
/// join borrows the rows there.
#[derive(Debug)]
pub struct PipelinedJoinOperator {
    probe: Probe,
    /// What incoming positions point into, when the producer is a
    /// transmit.
    transmitted: Option<Transmitted>,
}

impl PipelinedJoinOperator {
    /// Creates a bound pipelined join. `outer_column` is the key column of
    /// the *incoming* tuples.
    pub fn new(
        inner: Arc<PartitionedRelation>,
        outer_column: usize,
        inner_column: usize,
        algorithm: JoinAlgorithm,
    ) -> Self {
        PipelinedJoinOperator {
            probe: Probe::new(inner, outer_column, inner_column, algorithm),
            transmitted: None,
        }
    }

    /// Counts matches instead of building rows (see
    /// [`TriggeredJoinOperator::counting_matches`]).
    pub(crate) fn counting_matches(mut self, count_only: bool) -> Self {
        self.probe.count_only = count_only;
        self
    }

    /// Reads incoming positions in what the producing transmit ships;
    /// only for an operator whose producer is that transmit.
    pub(crate) fn transmitted(mut self, transmitted: Option<Transmitted>) -> Self {
        self.transmitted = transmitted;
        self
    }

    /// Processes one activation for `instance`, returning the output batch:
    /// probes the outer rows of a data batch, built or given by position.
    /// Pipelined joins ignore stray triggers.
    pub fn process(&self, instance: usize, activation: &Activation) -> TupleBatch {
        let Some(batch) = activation.batch() else {
            return TupleBatch::default();
        };
        let Some((fragment, rows)) = self.transmitted.as_ref().and_then(|t| t.rows(batch)) else {
            return self
                .probe
                .join(instance, batch.tuples().iter(), None::<std::iter::Empty<_>>);
        };
        let tuples = fragment.tuples();
        let int_keys = self
            .probe
            .counts_by_index()
            .then(|| fragment.int_column(self.probe.outer_column))
            .flatten()
            .map(|keys| rows.clone().map(|row| keys[row]));
        let outers = rows.map(|row| &tuples[row]);
        self.probe.join(instance, outers, int_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Positions;
    use crate::operators::Router;
    use dbs3_storage::{PartitionSpec, Relation, WisconsinConfig, WisconsinGenerator};

    /// Generates `name` and partitions it afresh: its fragments, and so the
    /// indexes they own, are this test's alone.
    fn partitioned(
        name: &str,
        cardinality: usize,
        degree: usize,
    ) -> (Relation, Arc<PartitionedRelation>) {
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow(name, cardinality))
            .unwrap();
        let spec = PartitionSpec::on("unique1", degree, 2);
        let part = PartitionedRelation::from_relation(&rel, spec).unwrap();
        (rel, Arc::new(part))
    }

    /// A triggered join of `outer` with `inner` on `unique1`.
    fn triggered(
        outer: &Arc<PartitionedRelation>,
        inner: &Arc<PartitionedRelation>,
        algorithm: JoinAlgorithm,
    ) -> TriggeredJoinOperator {
        let u1 = outer.schema().column_index("unique1").unwrap();
        let (outer, inner) = (Arc::clone(outer), Arc::clone(inner));
        TriggeredJoinOperator::new(outer, inner, u1, u1, algorithm)
    }

    /// A pipelined join of incoming tuples with `inner` on `unique1`.
    fn pipelined(
        inner: &Arc<PartitionedRelation>,
        algorithm: JoinAlgorithm,
    ) -> PipelinedJoinOperator {
        let u1 = inner.schema().column_index("unique1").unwrap();
        PipelinedJoinOperator::new(Arc::clone(inner), u1, u1, algorithm)
    }

    fn run_triggered(op: &TriggeredJoinOperator, degree: usize) -> usize {
        (0..degree)
            .map(|i| op.process(i, &Activation::Trigger).len())
            .sum()
    }

    #[test]
    fn triggered_join_matches_reference_for_all_algorithms() {
        let (a_rel, a) = partitioned("A", 400, 10);
        let (b_rel, b) = partitioned("Bprime", 40, 10);
        let expected = a_rel
            .reference_join(&b_rel, "unique1", "unique1")
            .unwrap()
            .len();
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let op = triggered(&a, &b, algorithm);
            assert_eq!(run_triggered(&op, 10), expected, "algorithm {algorithm:?}");
        }
    }

    #[test]
    fn triggered_join_result_tuples_are_concatenations() {
        let (_, a) = partitioned("A", 100, 5);
        let (_, b) = partitioned("Bprime", 100, 5);
        let u1 = a.schema().column_index("unique1").unwrap();
        let op = triggered(&a, &b, JoinAlgorithm::Hash);
        let out = op.process(2, &Activation::Trigger);
        assert!(!out.is_empty());
        let width = a.schema().width() + b.schema().width();
        for t in &out {
            assert_eq!(t.arity(), width);
            assert_eq!(t.value(u1), t.value(a.schema().width() + u1));
        }
    }

    #[test]
    fn pipelined_join_matches_reference() {
        let (a_rel, a) = partitioned("A", 300, 8);
        let (b_rel, _) = partitioned("Bprime", 30, 8);
        let u1 = a.schema().column_index("unique1").unwrap();
        let expected = b_rel
            .reference_join(&a_rel, "unique1", "unique1")
            .unwrap()
            .len();

        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let op = pipelined(&a, algorithm);
            // Route every B' tuple to the instance its key hashes to, exactly
            // like the runtime does.
            let mut total = 0usize;
            for t in b_rel.tuples() {
                let h = t.hash_key(&[u1]);
                let instance = a.spec().fragment_of_hash(h);
                total += op.process(instance, &Activation::single(t.clone())).len();
            }
            assert_eq!(total, expected, "algorithm {algorithm:?}");
        }
    }

    #[test]
    fn batched_probes_match_per_tuple_probes() {
        let (_, a) = partitioned("A", 200, 4);
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let op = pipelined(&a, algorithm);
            // All tuples of fragment 1 probed against themselves, once as
            // one batch and once tuple by tuple.
            let probes: Vec<Tuple> = a.fragments()[1].tuples().to_vec();
            let batched = op.process(1, &Activation::Data(TupleBatch::from(probes.clone())));
            let singles: Vec<Tuple> = probes
                .iter()
                .flat_map(|t| op.process(1, &Activation::single(t.clone())))
                .collect();
            assert_eq!(batched, TupleBatch::new(singles), "algorithm {algorithm:?}");
            assert_eq!(batched.len(), probes.len(), "unique1 self-join");
        }
    }

    #[test]
    fn pipelined_join_reuses_per_instance_index() {
        let (_, a) = partitioned("A", 100, 4);
        let op = pipelined(&a, JoinAlgorithm::Hash);
        // Probing twice must not rebuild (OnceLock gives the same instance).
        let probe = a.fragments()[1].tuples()[0].clone();
        let _ = op.process(1, &Activation::single(probe.clone()));
        let ptr1 = Arc::as_ptr(op.probe.indexes[1].get().unwrap());
        let _ = op.process(1, &Activation::single(probe));
        let ptr2 = Arc::as_ptr(op.probe.indexes[1].get().unwrap());
        assert_eq!(ptr1, ptr2);
    }

    #[test]
    fn operators_over_one_relation_share_its_fragments_builds() {
        let (_, a) = partitioned("A", 200, 4);
        let probe = a.fragments()[2].tuples()[0].clone();
        let first = pipelined(&a, JoinAlgorithm::Hash);
        let second = pipelined(&a, JoinAlgorithm::Hash);
        let out1 = first.process(2, &Activation::single(probe.clone()));
        let out2 = second.process(2, &Activation::single(probe.clone()));
        assert_eq!(out1, out2);
        assert_eq!(
            Arc::as_ptr(first.probe.indexes[2].get().unwrap()),
            Arc::as_ptr(second.probe.indexes[2].get().unwrap()),
            "two operators over one relation share its fragment's build"
        );
        // The same rows partitioned afresh are new fragments, which build
        // their own.
        let (_, again) = partitioned("A", 200, 4);
        let fresh = pipelined(&again, JoinAlgorithm::Hash);
        assert_eq!(fresh.process(2, &Activation::single(probe)), out1);
        assert_ne!(
            Arc::as_ptr(first.probe.indexes[2].get().unwrap()),
            Arc::as_ptr(fresh.probe.indexes[2].get().unwrap())
        );
    }

    #[test]
    fn triggered_join_morsels_union_to_the_whole_trigger() {
        let (_, a) = partitioned("A", 400, 4);
        let (_, b) = partitioned("Bprime", 40, 4);
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let whole = {
                let op = triggered(&a, &b, algorithm);
                op.process(1, &Activation::Trigger)
            };
            let op = triggered(&a, &b, algorithm);
            let rows = op.triggered_rows(1).unwrap();
            let mut pieces = Vec::new();
            let mut start = 0usize;
            while start < rows {
                let end = (start + 13).min(rows);
                pieces.extend(op.process(
                    1,
                    &Activation::Morsel {
                        start,
                        end,
                        lead: start == 0,
                    },
                ));
                start = end;
            }
            assert_eq!(TupleBatch::new(pieces), whole, "algorithm {algorithm:?}");
        }
    }

    #[test]
    fn counted_morsels_sum_to_the_built_trigger() {
        let (_, a) = partitioned("A", 400, 4);
        let (_, b) = partitioned("Bprime", 40, 4);
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let built = triggered(&a, &b, algorithm).process(1, &Activation::Trigger);
            let op = triggered(&a, &b, algorithm).counting_matches(true);
            let whole = op.process(1, &Activation::Trigger);
            assert_eq!(whole, TupleBatch::counted(built.len()));
            assert!(!whole.is_empty(), "fragment 1 has matches to count");
            let rows = op.triggered_rows(1).unwrap();
            let mut counted = 0usize;
            for start in (0..rows).step_by(13) {
                let end = (start + 13).min(rows);
                let lead = start == 0;
                let piece = op.process(1, &Activation::Morsel { start, end, lead });
                assert_eq!(piece, TupleBatch::counted(piece.len()), "nothing built");
                counted += piece.len();
            }
            assert_eq!(counted, built.len(), "algorithm {algorithm:?}");
            // The pipelined twin: the outer fragment arriving as one batch.
            let probes = TupleBatch::from(a.fragments()[1].tuples().to_vec());
            let pipelined = pipelined(&b, algorithm)
                .counting_matches(true)
                .process(1, &Activation::Data(probes));
            assert_eq!(pipelined, whole, "algorithm {algorithm:?}");
        }
    }

    #[test]
    fn positions_join_like_the_rows_they_point_at() {
        // A partitioned on unique2: every fragment's route table on unique1
        // sends rows to every join instance, out of row order, so a
        // position read as the wrong row changes the result.
        let a_rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow("A", 400))
            .unwrap();
        let spec = PartitionSpec::on("unique2", 4, 2);
        let a = Arc::new(PartitionedRelation::from_relation(&a_rel, spec).unwrap());
        let (_, b) = partitioned("Bprime", 40, 4);
        let u1 = a.schema().column_index("unique1").unwrap();
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let join = |count_only: bool| {
                pipelined(&b, algorithm)
                    .counting_matches(count_only)
                    .transmitted(Some(Transmitted {
                        relation: Arc::clone(&a),
                        router: Router::HashColumn {
                            column: u1,
                            degree: 4,
                        },
                    }))
            };
            let (built, counted) = (join(false), join(true));
            for i in 0..4 {
                let (mut matched, mut probed) = (0, 0);
                for (j, fragment) in a.fragments().iter().enumerate() {
                    let tuples = fragment.tuples();
                    let table = fragment.routes(u1, 4);
                    let group = table
                        .groups()
                        .find(|(dest, _)| *dest == i)
                        .map_or(0..0, |(_, group)| group);
                    // The group cut every 5 rows, as a transmit at
                    // CacheSize 5 would, and the fragment's rows as a run.
                    let mut batches: Vec<(Positions, Vec<u32>)> = group
                        .clone()
                        .step_by(5)
                        .map(|start| {
                            let end = (start + 5).min(group.end);
                            let at = Positions {
                                source: j as u32,
                                start: start as u32,
                                end: end as u32,
                                routed: true,
                            };
                            (at, table.rows()[start..end].to_vec())
                        })
                        .collect();
                    let run = Positions {
                        source: j as u32,
                        start: 0,
                        end: tuples.len() as u32,
                        routed: false,
                    };
                    batches.push((run, (0..tuples.len() as u32).collect()));
                    for (at, rows) in batches {
                        let outers: Vec<Tuple> =
                            rows.iter().map(|&r| tuples[r as usize].clone()).collect();
                        let as_rows = || Activation::Data(TupleBatch::new(outers.clone()));
                        let as_positions = || Activation::Data(TupleBatch::at(at));
                        let expected = built.process(i, &as_rows());
                        assert_eq!(
                            built.process(i, &as_positions()),
                            expected,
                            "{algorithm:?} {i} {at:?}"
                        );
                        let count = TupleBatch::counted(expected.len());
                        assert_eq!(
                            counted.process(i, &as_positions()),
                            count,
                            "{algorithm:?} {i} {at:?}"
                        );
                        assert_eq!(counted.process(i, &as_rows()), count, "{algorithm:?} {i}");
                        matched += expected.len();
                        probed += rows.len();
                    }
                }
                assert!(matched > 0, "instance {i} has partners in B′");
                assert!(matched < probed, "instance {i} probes rows without");
            }
        }
    }

    #[test]
    fn counted_string_key_joins_equal_built_ones() {
        // Full relations partitioned on a string column: no dense integer
        // column, no all-integer index, so every count re-checks rows.
        let on_stringu1 = |name: &str, cardinality: usize| {
            let rel = WisconsinGenerator::new()
                .generate(&WisconsinConfig::full(name, cardinality))
                .unwrap();
            let spec = PartitionSpec::on("stringu1", 4, 2);
            let part = PartitionedRelation::from_relation(&rel, spec).unwrap();
            (rel, Arc::new(part))
        };
        let (a_rel, a) = on_stringu1("A", 400);
        let (b_rel, b) = on_stringu1("Bprime", 40);
        let s1 = a.schema().column_index("stringu1").unwrap();
        let expected = a_rel
            .reference_join(&b_rel, "stringu1", "stringu1")
            .unwrap()
            .len();
        assert!(expected > 0, "the string keys meet");
        let algorithm = JoinAlgorithm::Hash;
        let triggered = |count_only: bool| {
            TriggeredJoinOperator::new(Arc::clone(&a), Arc::clone(&b), s1, s1, algorithm)
                .counting_matches(count_only)
        };
        let pipelined = |count_only: bool| {
            PipelinedJoinOperator::new(Arc::clone(&b), s1, s1, algorithm)
                .counting_matches(count_only)
        };
        let (built, counted) = (triggered(false), triggered(true));
        let (built_pipe, counted_pipe) = (pipelined(false), pipelined(true));
        let mut total = 0usize;
        for i in 0..4 {
            let whole = built.process(i, &Activation::Trigger);
            let count = counted.process(i, &Activation::Trigger);
            assert_eq!(count, TupleBatch::counted(whole.len()), "{algorithm:?} {i}");
            let probes = TupleBatch::from(a.fragments()[i].tuples().to_vec());
            let piped = built_pipe.process(i, &Activation::Data(probes.clone()));
            assert_eq!(piped.len(), whole.len(), "{algorithm:?} {i}");
            let piped_count = counted_pipe.process(i, &Activation::Data(probes));
            assert_eq!(piped_count, count, "{algorithm:?} {i}");
            assert_eq!(a.fragments()[i].int_column(s1), None, "string keys");
            total += count.len();
        }
        assert_eq!(total, expected, "algorithm {algorithm:?}");
    }

    #[test]
    fn triggered_join_reuses_per_instance_index_across_morsels() {
        let (_, a) = partitioned("A", 100, 4);
        let (_, b) = partitioned("Bprime", 100, 4);
        let op = triggered(&a, &b, JoinAlgorithm::Hash);
        let _ = op.process(
            1,
            &Activation::Morsel {
                start: 0,
                end: 5,
                lead: true,
            },
        );
        let ptr1 = Arc::as_ptr(op.probe.indexes[1].get().unwrap());
        let _ = op.process(
            1,
            &Activation::Morsel {
                start: 5,
                end: 10,
                lead: false,
            },
        );
        let ptr2 = Arc::as_ptr(op.probe.indexes[1].get().unwrap());
        assert_eq!(ptr1, ptr2, "morsels of one fragment share one build");
    }

    #[test]
    fn stray_activations_are_ignored() {
        let (_, a) = partitioned("A", 50, 4);
        let (_, b) = partitioned("Bprime", 50, 4);
        let triggered = triggered(&a, &b, JoinAlgorithm::Hash);
        let some = a.fragments()[0].tuples()[0].clone();
        assert!(triggered.process(0, &Activation::single(some)).is_empty());
        let pipelined = pipelined(&a, JoinAlgorithm::Hash);
        assert!(pipelined.process(0, &Activation::Trigger).is_empty());
    }
}
