//! Relation fragments.

use crate::index::HashIndex;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::sync::{Arc, OnceLock};

/// One fragment of a statically partitioned relation.
///
/// In DBS3 a fragment is the unit of intra-operation parallelism: the
/// extended view of a Lera-par plan has one operation *instance* per fragment
/// of the partitioned input relation, and each instance owns one activation
/// queue. The fragment also records which "disk" it was placed on
/// (round-robin placement, Section 2); the disk assignment is carried along
/// so benches can reason about placement even though all data is
/// memory-resident, as in the paper's experiments.
///
/// A fragment is immutable once built, so it owns the temporary hash
/// indexes joins build over it (Expt 3): one build cell per column, filled
/// by the first join that needs it and dropped with the fragment.
///
/// A clone copies the build cells as they stand: it shares every index
/// built so far, and an index built in either fragment afterwards stays its
/// own.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Fragment identifier, `0 .. degree`.
    id: usize,
    /// Disk the fragment is placed on (`id % num_disks`).
    disk: usize,
    /// Schema shared with the parent relation.
    schema: Schema,
    /// The tuples of this fragment.
    tuples: Vec<Tuple>,
    /// One index build cell per column of `schema`.
    indexes: Box<[OnceLock<Arc<HashIndex>>]>,
}

impl Fragment {
    /// Creates a fragment.
    pub fn new(id: usize, disk: usize, schema: Schema, tuples: Vec<Tuple>) -> Self {
        let indexes = (0..schema.width()).map(|_| OnceLock::new()).collect();
        Fragment {
            id,
            disk,
            schema,
            tuples,
            indexes,
        }
    }

    /// Fragment identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Disk the fragment is assigned to.
    pub fn disk(&self) -> usize {
        self.disk
    }

    /// Fragment schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples of this fragment.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples in the fragment.
    pub fn cardinality(&self) -> usize {
        self.tuples.len()
    }

    /// Returns true when the fragment has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The build cell of the hash index on `column`: empty until a join
    /// builds into it (or while that build is in flight, or after it
    /// panicked), then that index for the fragment's lifetime. Concurrent
    /// requesters wait in [`OnceLock::get_or_init`].
    ///
    /// # Panics
    ///
    /// If `column` is outside the fragment's schema.
    pub fn index_cell(&self, column: usize) -> &OnceLock<Arc<HashIndex>> {
        &self.indexes[column]
    }

    /// Whether [`adopt_indexes`](Self::adopt_indexes) could fill a cell of
    /// this fragment from `previous`: some column's cell is empty here and
    /// built there. When it could not, a replace need not compare the two
    /// fragments' tuples.
    pub(crate) fn could_adopt(&self, previous: &Fragment) -> bool {
        self.indexes
            .iter()
            .zip(previous.indexes.iter())
            .any(|(cell, built)| cell.get().is_none() && built.get().is_some())
    }

    /// Takes over the indexes `previous` has built, for a fragment whose
    /// tuples equal `previous`'s: the same rows give the same index. Cells
    /// this fragment has already filled keep their own index.
    pub(crate) fn adopt_indexes(&self, previous: &Fragment) {
        for (cell, built) in self.indexes.iter().zip(previous.indexes.iter()) {
            if let Some(index) = built.get() {
                let _ = cell.set(Arc::clone(index));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::tuple::int_tuple;

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::int("id"), ColumnDef::int("val")])
    }

    #[test]
    fn construction_and_accessors() {
        let f = Fragment::new(3, 1, schema(), vec![int_tuple(&[1, 2])]);
        assert_eq!(f.id(), 3);
        assert_eq!(f.disk(), 1);
        assert_eq!(f.cardinality(), 1);
        assert!(!f.is_empty());
        assert_eq!(f.schema().width(), 2);
    }

    #[test]
    fn empty_fragment() {
        let f = Fragment::new(0, 0, schema(), Vec::new());
        assert!(f.is_empty());
        assert_eq!(f.cardinality(), 0);
    }

    /// Builds the index on `column` of `f` into its cell.
    fn build(f: &Fragment, column: usize) -> Arc<HashIndex> {
        Arc::clone(
            f.index_cell(column)
                .get_or_init(|| Arc::new(HashIndex::build_for_fragment(f, column))),
        )
    }

    #[test]
    fn a_fragment_could_adopt_only_a_cell_empty_here_and_built_there() {
        let rows = || vec![int_tuple(&[1, 2]), int_tuple(&[3, 4])];
        let old = Fragment::new(0, 0, schema(), rows());
        let new = Fragment::new(0, 0, schema(), rows());
        assert!(!new.could_adopt(&old), "old has built nothing");

        build(&old, 1);
        assert!(new.could_adopt(&old), "column 1: empty here, built there");
        assert!(
            !old.could_adopt(&new),
            "the other way round, nothing is built"
        );

        build(&new, 1);
        assert!(!new.could_adopt(&old), "both built: nothing to hand over");

        build(&old, 0);
        assert!(new.could_adopt(&old), "column 0 is now empty here only");
    }

    #[test]
    fn the_adoption_guard_reads_only_the_columns_both_fragments_have() {
        let wide = Schema::new(vec![
            ColumnDef::int("id"),
            ColumnDef::int("val"),
            ColumnDef::int("extra"),
        ]);
        let narrow = Fragment::new(0, 0, schema(), Vec::new());
        let wider = Fragment::new(0, 0, wide, Vec::new());
        build(&narrow, 1);
        build(&wider, 2);
        assert!(
            wider.could_adopt(&narrow),
            "column 1 is empty in the wider one"
        );
        assert!(
            !narrow.could_adopt(&wider),
            "column 2 has no cell in the narrower one"
        );
    }

    #[test]
    fn a_clone_snapshots_its_cells() {
        let f = Fragment::new(0, 0, schema(), vec![int_tuple(&[1, 2]), int_tuple(&[3, 4])]);
        let clone = f.clone();
        build(&clone, 0);
        assert!(
            f.index_cell(0).get().is_none(),
            "an index built in the clone after cloning stays the clone's"
        );
    }

    #[test]
    fn a_clone_shares_built_indexes() {
        let f = Fragment::new(0, 0, schema(), vec![int_tuple(&[1, 2]), int_tuple(&[3, 4])]);
        let built = Arc::clone(
            f.index_cell(1)
                .get_or_init(|| Arc::new(HashIndex::build_for_fragment(&f, 1))),
        );
        let clone = f.clone();
        assert!(Arc::ptr_eq(clone.index_cell(1).get().unwrap(), &built));
        assert!(
            clone.index_cell(0).get().is_none(),
            "column 0 was never built"
        );
    }
}
