//! Join operators: triggered (co-partitioned) and pipelined.

use crate::activation::{Activation, TupleBatch};
use dbs3_lera::JoinAlgorithm;
use dbs3_storage::{HashIndex, PartitionedRelation, Tuple};
use std::sync::Arc;
use std::sync::OnceLock;

/// What both join operators share: the inner relation, the key columns, the
/// algorithm, the lazily resolved per-instance indexes, and what a match
/// becomes — a built row, or one more in a count.
#[derive(Debug)]
struct Probe {
    inner: Arc<PartitionedRelation>,
    /// Column of the outer (scanned or incoming) tuples holding the join key.
    outer_column: usize,
    /// Column of the inner relation holding the join key.
    inner_column: usize,
    algorithm: JoinAlgorithm,
    /// Lazily resolved per-instance indexes over the inner fragments
    /// (Hash / TempIndex). Resolved once on the first activation of an
    /// instance and shared by every later morsel or data batch — splitting
    /// the outer scan must not multiply the build work. The resolution goes
    /// through the engine-wide index cache, so concurrent and repeated
    /// queries over one relation share one build across operators. A boxed
    /// slice, since the instance count is fixed at bind.
    indexes: Box<[OnceLock<Arc<HashIndex>>]>,
    /// The inner relation's name and its catalog fragment generations: the
    /// key under which instance `i`'s build is shared through
    /// [`crate::cache::shared_index`] is the name with `generations[i]`, so
    /// a fragment the last replace left unchanged keeps its cached index.
    /// The name is copied once here, at bind time, and the generations are
    /// the catalog's own shared slice, so per-fragment lookups allocate
    /// nothing.
    shared_key: (Arc<str>, Arc<[u64]>),
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
        generations: Arc<[u64]>,
    ) -> Self {
        let indexes = (0..inner.degree()).map(|_| OnceLock::new()).collect();
        Probe {
            shared_key: (Arc::from(inner.name()), generations),
            inner,
            outer_column,
            inner_column,
            algorithm,
            indexes,
            count_only: false,
        }
    }

    /// Joins `outers` against inner fragment `instance`. Built output is
    /// presized to one row per outer tuple — exact when every outer key has
    /// one partner (the key joins of the paper's plans), a first guess
    /// otherwise — instead of regrowing from empty on every activation.
    fn join(&self, instance: usize, outers: &[Tuple]) -> TupleBatch {
        #[expect(
            clippy::expect_used,
            reason = "plan binding verified co-partitioning and hash routing is modulo the \
                      instance count, so the fragment exists; a miss is a planner bug worth \
                      crashing on"
        )]
        let inner = self
            .inner
            .fragment(instance)
            .expect("every join instance has an inner fragment")
            .tuples();
        // The paper's "index built on the fly": resolved once per instance,
        // engine-wide. The probe is an allocation-free iterator over the
        // matching bucket.
        let index = (self.algorithm != JoinAlgorithm::NestedLoop).then(|| {
            self.indexes[instance].get_or_init(|| {
                let (relation, generations) = &self.shared_key;
                crate::cache::shared_index(
                    relation,
                    generations[instance],
                    self.inner_column,
                    instance,
                    || HashIndex::build(inner, self.inner_column),
                )
            })
        });
        if self.count_only {
            let mut rows = 0usize;
            self.each_match(outers, inner, index, |_, _| rows += 1);
            TupleBatch::counted(rows)
        } else {
            let mut out = Vec::with_capacity(outers.len());
            self.each_match(outers, inner, index, |o, i| out.push(o.concat(i)));
            TupleBatch::new(out)
        }
    }

    /// The one match loop: calls `on_match(outer, inner)` for every pair
    /// with equal keys, in outer order then inner-fragment order.
    fn each_match(
        &self,
        outers: &[Tuple],
        inner: &[Tuple],
        index: Option<&Arc<HashIndex>>,
        mut on_match: impl FnMut(&Tuple, &Tuple),
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

/// A triggered co-partitioned join (the IdealJoin operation): when instance
/// `i` receives its trigger it joins fragment `i` of the outer relation with
/// fragment `i` of the inner relation.
#[derive(Debug)]
pub struct TriggeredJoinOperator {
    outer: Arc<PartitionedRelation>,
    probe: Probe,
}

impl TriggeredJoinOperator {
    /// Creates a bound triggered join. `generations` are the inner
    /// relation's catalog fragment generations, which key its indexes in the
    /// engine-wide cache, one per fragment.
    pub fn new(
        outer: Arc<PartitionedRelation>,
        inner: Arc<PartitionedRelation>,
        outer_column: usize,
        inner_column: usize,
        algorithm: JoinAlgorithm,
        generations: Arc<[u64]>,
    ) -> Self {
        TriggeredJoinOperator {
            outer,
            probe: Probe::new(inner, outer_column, inner_column, algorithm, generations),
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
    /// inner fragment; a morsel joins only its outer row range.
    pub fn process(&self, instance: usize, activation: Activation) -> TupleBatch {
        #[expect(
            clippy::expect_used,
            reason = "plan binding verified co-partitioning; a missing fragment is a planner \
                      bug worth crashing on"
        )]
        let outer = self
            .outer
            .fragment(instance)
            .expect("co-partitioned operands share the degree of partitioning")
            .tuples();
        match super::control_range(&activation, outer.len()) {
            Some((start, end)) => self.probe.join(instance, &outer[start..end]),
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
#[derive(Debug)]
pub struct PipelinedJoinOperator {
    probe: Probe,
}

impl PipelinedJoinOperator {
    /// Creates a bound pipelined join. `outer_column` is the key column of
    /// the *incoming* tuples; `generations` are as for
    /// [`TriggeredJoinOperator::new`].
    pub fn new(
        inner: Arc<PartitionedRelation>,
        outer_column: usize,
        inner_column: usize,
        algorithm: JoinAlgorithm,
        generations: Arc<[u64]>,
    ) -> Self {
        PipelinedJoinOperator {
            probe: Probe::new(inner, outer_column, inner_column, algorithm, generations),
        }
    }

    /// Counts matches instead of building rows (see
    /// [`TriggeredJoinOperator::counting_matches`]).
    pub(crate) fn counting_matches(mut self, count_only: bool) -> Self {
        self.probe.count_only = count_only;
        self
    }

    /// Processes one activation for `instance`, returning the output batch.
    pub fn process(&self, instance: usize, activation: Activation) -> TupleBatch {
        match activation.into_batch() {
            Some(batch) => self.probe.join(instance, batch.tuples()),
            None => TupleBatch::default(), // pipelined joins ignore stray triggers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_storage::{Catalog, PartitionSpec, Relation, WisconsinConfig, WisconsinGenerator};

    /// Generates `name` and registers it in a catalog of its own: the
    /// relation, its fragments and the catalog fragment generations that
    /// key its indexes in the engine-wide cache (so no two tests share an
    /// entry).
    fn partitioned(
        name: &str,
        cardinality: usize,
        degree: usize,
    ) -> (Relation, Arc<PartitionedRelation>, Arc<[u64]>) {
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow(name, cardinality))
            .unwrap();
        let spec = PartitionSpec::on("unique1", degree, 2);
        let mut catalog = Catalog::new();
        let part = catalog.register(PartitionedRelation::from_relation(&rel, spec).unwrap());
        let generations = Arc::clone(catalog.fragment_generations(name).unwrap());
        (rel, part.unwrap(), generations)
    }

    /// A triggered join of `outer` with `inner` on `unique1`.
    fn triggered(
        outer: &Arc<PartitionedRelation>,
        inner: &Arc<PartitionedRelation>,
        generations: &Arc<[u64]>,
        algorithm: JoinAlgorithm,
    ) -> TriggeredJoinOperator {
        let u1 = outer.schema().column_index("unique1").unwrap();
        let (outer, inner) = (Arc::clone(outer), Arc::clone(inner));
        let generations = Arc::clone(generations);
        TriggeredJoinOperator::new(outer, inner, u1, u1, algorithm, generations)
    }

    /// A pipelined join of incoming tuples with `inner` on `unique1`.
    fn pipelined(
        inner: &Arc<PartitionedRelation>,
        generations: &Arc<[u64]>,
        algorithm: JoinAlgorithm,
    ) -> PipelinedJoinOperator {
        let u1 = inner.schema().column_index("unique1").unwrap();
        PipelinedJoinOperator::new(
            Arc::clone(inner),
            u1,
            u1,
            algorithm,
            Arc::clone(generations),
        )
    }

    fn run_triggered(op: &TriggeredJoinOperator, degree: usize) -> usize {
        (0..degree)
            .map(|i| op.process(i, Activation::Trigger).len())
            .sum()
    }

    #[test]
    fn triggered_join_matches_reference_for_all_algorithms() {
        let (a_rel, a, _) = partitioned("A", 400, 10);
        let (b_rel, b, gb) = partitioned("Bprime", 40, 10);
        let expected = a_rel
            .reference_join(&b_rel, "unique1", "unique1")
            .unwrap()
            .len();
        for algorithm in [
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::Hash,
            JoinAlgorithm::TempIndex,
        ] {
            let op = triggered(&a, &b, &gb, algorithm);
            assert_eq!(run_triggered(&op, 10), expected, "algorithm {algorithm:?}");
        }
    }

    #[test]
    fn triggered_join_result_tuples_are_concatenations() {
        let (_, a, _) = partitioned("A", 100, 5);
        let (_, b, gb) = partitioned("Bprime", 100, 5);
        let u1 = a.schema().column_index("unique1").unwrap();
        let op = triggered(&a, &b, &gb, JoinAlgorithm::Hash);
        let out = op.process(2, Activation::Trigger);
        assert!(!out.is_empty());
        let width = a.schema().width() + b.schema().width();
        for t in &out {
            assert_eq!(t.arity(), width);
            assert_eq!(t.value(u1), t.value(a.schema().width() + u1));
        }
    }

    #[test]
    fn pipelined_join_matches_reference() {
        let (a_rel, a, ga) = partitioned("A", 300, 8);
        let (b_rel, _, _) = partitioned("Bprime", 30, 8);
        let u1 = a.schema().column_index("unique1").unwrap();
        let expected = b_rel
            .reference_join(&a_rel, "unique1", "unique1")
            .unwrap()
            .len();

        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let op = pipelined(&a, &ga, algorithm);
            // Route every B' tuple to the instance its key hashes to, exactly
            // like the runtime does.
            let mut total = 0usize;
            for t in b_rel.tuples() {
                let h = t.hash_key(&[u1]);
                let instance = a.spec().fragment_of_hash(h);
                total += op.process(instance, Activation::single(t.clone())).len();
            }
            assert_eq!(total, expected, "algorithm {algorithm:?}");
        }
    }

    #[test]
    fn batched_probes_match_per_tuple_probes() {
        let (_, a, ga) = partitioned("A", 200, 4);
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let op = pipelined(&a, &ga, algorithm);
            // All tuples of fragment 1 probed against themselves, once as
            // one batch and once tuple by tuple.
            let probes: Vec<Tuple> = a.fragments()[1].tuples().to_vec();
            let batched = op.process(1, Activation::Data(TupleBatch::from(probes.clone())));
            let singles: Vec<Tuple> = probes
                .iter()
                .flat_map(|t| op.process(1, Activation::single(t.clone())))
                .collect();
            assert_eq!(batched, TupleBatch::new(singles), "algorithm {algorithm:?}");
            assert_eq!(batched.len(), probes.len(), "unique1 self-join");
        }
    }

    #[test]
    fn pipelined_join_reuses_per_instance_index() {
        let (_, a, ga) = partitioned("A", 100, 4);
        let op = pipelined(&a, &ga, JoinAlgorithm::TempIndex);
        // Probing twice must not rebuild (OnceLock gives the same instance).
        let probe = a.fragments()[1].tuples()[0].clone();
        let _ = op.process(1, Activation::single(probe.clone()));
        let ptr1 = Arc::as_ptr(op.probe.indexes[1].get().unwrap());
        let _ = op.process(1, Activation::single(probe));
        let ptr2 = Arc::as_ptr(op.probe.indexes[1].get().unwrap());
        assert_eq!(ptr1, ptr2);
    }

    #[test]
    fn shared_generation_shares_builds_across_operators() {
        let (_, a, generations) = partitioned("A", 200, 4);
        let probe = a.fragments()[2].tuples()[0].clone();
        let first = pipelined(&a, &generations, JoinAlgorithm::Hash);
        let second = pipelined(&a, &generations, JoinAlgorithm::Hash);
        let out1 = first.process(2, Activation::single(probe.clone()));
        let out2 = second.process(2, Activation::single(probe.clone()));
        assert_eq!(out1, out2);
        assert_eq!(
            Arc::as_ptr(first.probe.indexes[2].get().unwrap()),
            Arc::as_ptr(second.probe.indexes[2].get().unwrap()),
            "two operators over one (relation, generation) share one build"
        );
        // The same rows registered again carry new fragment generations and
        // get a build of their own.
        let (_, again, regenerated) = partitioned("A", 200, 4);
        let fresh = pipelined(&again, &regenerated, JoinAlgorithm::Hash);
        assert_eq!(fresh.process(2, Activation::single(probe)), out1);
        assert_ne!(
            Arc::as_ptr(first.probe.indexes[2].get().unwrap()),
            Arc::as_ptr(fresh.probe.indexes[2].get().unwrap())
        );
    }

    #[test]
    fn triggered_join_morsels_union_to_the_whole_trigger() {
        let (_, a, _) = partitioned("A", 400, 4);
        let (_, b, gb) = partitioned("Bprime", 40, 4);
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let whole = {
                let op = triggered(&a, &b, &gb, algorithm);
                op.process(1, Activation::Trigger)
            };
            let op = triggered(&a, &b, &gb, algorithm);
            let rows = op.triggered_rows(1).unwrap();
            let mut pieces = Vec::new();
            let mut start = 0usize;
            while start < rows {
                let end = (start + 13).min(rows);
                pieces.extend(op.process(
                    1,
                    Activation::Morsel {
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
        let (_, a, _) = partitioned("A", 400, 4);
        let (_, b, gb) = partitioned("Bprime", 40, 4);
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::Hash] {
            let built = triggered(&a, &b, &gb, algorithm).process(1, Activation::Trigger);
            let op = triggered(&a, &b, &gb, algorithm).counting_matches(true);
            let whole = op.process(1, Activation::Trigger);
            assert_eq!(whole, TupleBatch::counted(built.len()));
            assert!(!whole.is_empty(), "fragment 1 has matches to count");
            let rows = op.triggered_rows(1).unwrap();
            let mut counted = 0usize;
            for start in (0..rows).step_by(13) {
                let end = (start + 13).min(rows);
                let lead = start == 0;
                let piece = op.process(1, Activation::Morsel { start, end, lead });
                assert_eq!(piece, TupleBatch::counted(piece.len()), "nothing built");
                counted += piece.len();
            }
            assert_eq!(counted, built.len(), "algorithm {algorithm:?}");
            // The pipelined twin: the outer fragment arriving as one batch.
            let probes = TupleBatch::from(a.fragments()[1].tuples().to_vec());
            let pipelined = pipelined(&b, &gb, algorithm)
                .counting_matches(true)
                .process(1, Activation::Data(probes));
            assert_eq!(pipelined, whole, "algorithm {algorithm:?}");
        }
    }

    #[test]
    fn triggered_join_reuses_per_instance_index_across_morsels() {
        let (_, a, _) = partitioned("A", 100, 4);
        let (_, b, gb) = partitioned("Bprime", 100, 4);
        let op = triggered(&a, &b, &gb, JoinAlgorithm::Hash);
        let _ = op.process(
            1,
            Activation::Morsel {
                start: 0,
                end: 5,
                lead: true,
            },
        );
        let ptr1 = Arc::as_ptr(op.probe.indexes[1].get().unwrap());
        let _ = op.process(
            1,
            Activation::Morsel {
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
        let (_, a, ga) = partitioned("A", 50, 4);
        let (_, b, gb) = partitioned("Bprime", 50, 4);
        let triggered = triggered(&a, &b, &gb, JoinAlgorithm::Hash);
        let some = a.fragments()[0].tuples()[0].clone();
        assert!(triggered.process(0, Activation::single(some)).is_empty());
        let pipelined = pipelined(&a, &ga, JoinAlgorithm::Hash);
        assert!(pipelined.process(0, Activation::Trigger).is_empty());
    }
}
