//! Relation fragments.

use crate::index::HashIndex;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The build cells of one column of a fragment: what joins derive from its
/// values, each empty until first needed.
#[derive(Debug, Clone, Default)]
struct ColumnCells {
    /// The hash index on the column.
    index: OnceLock<Arc<HashIndex>>,
    /// The column's values in row order, or `None` when some value is not
    /// an integer.
    ints: OnceLock<Option<Arc<[i64]>>>,
    /// The route tables of the column, one per degree built so far.
    routes: OnceLock<Arc<Routes>>,
}

impl ColumnCells {
    /// Whether some cell is empty here and built in `built`.
    fn could_adopt(&self, built: &ColumnCells) -> bool {
        (self.index.get().is_none() && built.index.get().is_some())
            || (self.ints.get().is_none() && built.ints.get().is_some())
            || (self.routes.get().is_none() && built.routes.get().is_some())
    }

    /// Fills every cell that is empty here and built in `built`.
    fn adopt(&self, built: &ColumnCells) {
        if let Some(index) = built.index.get() {
            let _ = self.index.set(Arc::clone(index));
        }
        if let Some(ints) = built.ints.get() {
            let _ = self.ints.set(ints.clone());
        }
        if let Some(routes) = built.routes.get() {
            let _ = self.routes.set(Arc::clone(routes));
        }
    }
}

/// The route tables of one column, as a list that only grows: a node holds
/// the table of one degree, and its cell the node of the next degree asked
/// for. A reader walks it with one atomic load per node.
#[derive(Debug)]
struct Routes {
    degree: usize,
    table: RouteTable,
    next: OnceLock<Arc<Routes>>,
}

/// A fragment's row positions grouped by the destination that hashing one
/// column over `degree` destinations sends each row to, each group in
/// fragment order.
///
/// A row's destination is `hash_key(&[column]) % degree`, the function
/// static partitioning ([`PartitionSpec::fragment_of_hash`]) and the
/// runtime's routing use, so a table agrees with both bit for bit. Only
/// the destinations that receive rows have a group: a table costs 4 bytes
/// per row and 8 per non-empty destination.
///
/// [`PartitionSpec::fragment_of_hash`]: crate::PartitionSpec::fragment_of_hash
#[derive(Debug)]
pub struct RouteTable {
    /// Row positions, grouped by destination.
    rows: Box<[u32]>,
    /// Each non-empty group's destination and end in `rows`, in
    /// destination order; a group starts where the one before it ends.
    groups: Box<[(u32, u32)]>,
}

impl RouteTable {
    /// Groups the rows of `tuples` by the destination of their `column`
    /// value, a counting sort. Positions are `u32`: the engine rejects a
    /// transmitted fragment beyond `u32::MAX` rows.
    fn build(tuples: &[Tuple], column: usize, degree: usize) -> Self {
        let degree = degree.max(1);
        let dests: Vec<u32> = tuples
            .iter()
            .map(|t| (t.hash_key(&[column]) % degree as u64) as u32)
            .collect();
        let mut next = vec![0u32; degree];
        for &dest in &dests {
            next[dest as usize] += 1;
        }
        let mut groups = Vec::new();
        let mut end = 0u32;
        for (dest, count) in next.iter_mut().enumerate() {
            if *count > 0 {
                let start = end;
                end += *count;
                groups.push((dest as u32, end));
                *count = start;
            }
        }
        let mut rows = vec![0u32; tuples.len()];
        for (row, &dest) in dests.iter().enumerate() {
            let at = &mut next[dest as usize];
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        RouteTable {
            rows: rows.into(),
            groups: groups.into(),
        }
    }

    /// The row positions, grouped by destination.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Each destination that receives rows, in order, with the range of
    /// [`rows`](Self::rows) holding its group.
    pub fn groups(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let starts = std::iter::once(0).chain(self.groups.iter().map(|&(_, end)| end));
        self.groups
            .iter()
            .zip(starts)
            .map(|(&(dest, end), start)| (dest as usize, start as usize..end as usize))
    }
}

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
/// A fragment is immutable once built, so it owns what joins derive from
/// its rows, each in one build cell per column, filled by the first join
/// that needs it and dropped with the fragment:
///
/// * the temporary hash index joins build over an inner fragment (Expt 3);
/// * a dense `i64` copy of the column, which a counting join scans over an
///   outer fragment instead of its rows, to read only the keys. It holds
///   `None` when some value of the column is not an integer;
/// * a [`RouteTable`] per degree the column is routed at, which a transmit
///   slices into batches of positions instead of hashing its rows on every
///   query. Each costs 4 bytes per row and 8 per destination that receives
///   rows, plus one small node: a 20 000-row relation in 200 fragments
///   keeps 80 000 bytes of positions per degree, and between 1 600 bytes
///   of groups (partitioned on the routed column at the routed degree, one
///   group per fragment) and 320 000 (every fragment sending rows to all
///   200 destinations).
///
/// A clone copies the build cells as they stand: it shares every index and
/// dense column built so far, and one built in either fragment afterwards
/// stays its own. Route tables are the exception: the clone shares the
/// column's list of them, so a degree built later in either is built for
/// both, which the equal rows make correct.
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
    /// The build cells of each column of `schema`.
    columns: Box<[ColumnCells]>,
}

impl Fragment {
    /// Creates a fragment.
    pub fn new(id: usize, disk: usize, schema: Schema, tuples: Vec<Tuple>) -> Self {
        let columns = (0..schema.width())
            .map(|_| ColumnCells::default())
            .collect();
        Fragment {
            id,
            disk,
            schema,
            tuples,
            columns,
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
        &self.columns[column].index
    }

    /// The dense integer copy of `column`: its values in row order, or
    /// `None` when some value is not an integer. The first call builds it
    /// (one allocation); concurrent callers wait for that build.
    ///
    /// # Panics
    ///
    /// If `column` is outside the fragment's schema.
    pub fn int_column(&self, column: usize) -> Option<&[i64]> {
        self.columns[column]
            .ints
            .get_or_init(|| {
                let values = || self.tuples.iter().map(|t| t.value(column));
                values()
                    .all(|v| matches!(v, Value::Int(_)))
                    .then(|| values().map(|v| v.as_int().unwrap_or_default()).collect())
            })
            .as_deref()
    }

    /// The route table of `column` at `degree` destinations: built on the
    /// first call for that pair, then found with one atomic load per degree
    /// built before it. Concurrent callers wait for a build in flight.
    ///
    /// # Panics
    ///
    /// If `column` is outside the fragment's schema.
    pub fn routes(&self, column: usize, degree: usize) -> &RouteTable {
        let mut cell = &self.columns[column].routes;
        loop {
            let routes = cell.get_or_init(|| {
                Arc::new(Routes {
                    degree,
                    table: RouteTable::build(&self.tuples, column, degree),
                    next: OnceLock::new(),
                })
            });
            if routes.degree == degree {
                return &routes.table;
            }
            cell = &routes.next;
        }
    }

    /// Whether [`adopt_indexes`](Self::adopt_indexes) could fill a cell of
    /// this fragment from `previous`: some column's index, dense column or
    /// route tables cell is empty here and built there. When it could not, a replace
    /// need not compare the two fragments' tuples.
    pub(crate) fn could_adopt(&self, previous: &Fragment) -> bool {
        self.columns
            .iter()
            .zip(previous.columns.iter())
            .any(|(cells, built)| cells.could_adopt(built))
    }

    /// Takes over the indexes, dense columns and route tables `previous`
    /// has built, for a fragment whose tuples equal `previous`'s: the same
    /// rows give the same index, column and routes. Cells this fragment has already filled
    /// keep their own.
    pub(crate) fn adopt_indexes(&self, previous: &Fragment) {
        for (cells, built) in self.columns.iter().zip(previous.columns.iter()) {
            cells.adopt(built);
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
        build(&new, 0);
        assert!(!new.could_adopt(&old), "every index is built in both");

        old.int_column(1);
        assert!(
            new.could_adopt(&old),
            "a dense column: empty here, built there"
        );
        new.int_column(1);
        assert!(!new.could_adopt(&old), "both built again");

        old.routes(0, 3);
        assert!(new.could_adopt(&old), "routes: empty here, built there");
        new.routes(0, 5);
        assert!(!new.could_adopt(&old), "both hold routes");
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
        let keys = clone.int_column(0).unwrap().as_ptr();
        assert!(
            f.columns[0].ints.get().is_none(),
            "a dense column built in the clone after cloning stays the clone's"
        );
        assert_ne!(f.int_column(0).unwrap().as_ptr(), keys, "built apart");
    }

    #[test]
    fn a_dense_column_holds_the_integers_in_row_order() {
        let f = Fragment::new(
            0,
            0,
            schema(),
            vec![int_tuple(&[1, 2]), int_tuple(&[-3, 4])],
        );
        assert_eq!(f.int_column(0), Some(&[1, -3][..]));
        assert_eq!(f.int_column(1), Some(&[2, 4][..]));
        let empty = Fragment::new(0, 0, schema(), Vec::new());
        assert_eq!(empty.int_column(0), Some(&[][..]));
    }

    #[test]
    fn a_dense_column_is_none_for_a_column_with_a_string() {
        let mixed = Schema::new(vec![ColumnDef::int("id"), ColumnDef::str("s")]);
        let tuples = vec![
            Tuple::new(vec![Value::Int(1), Value::Int(5)]),
            Tuple::new(vec![Value::Int(2), Value::from("x")]),
        ];
        let f = Fragment::new(0, 0, mixed, tuples);
        assert_eq!(f.int_column(1), None);
        assert!(
            matches!(f.columns[1].ints.get(), Some(None)),
            "the cell is built, and holds None"
        );
        assert_eq!(f.int_column(0), Some(&[1, 2][..]));
    }

    #[test]
    fn a_clone_shares_a_built_dense_column() {
        let f = Fragment::new(0, 0, schema(), vec![int_tuple(&[1, 2]), int_tuple(&[3, 4])]);
        let keys = f.int_column(1).unwrap().as_ptr();
        let clone = f.clone();
        assert_eq!(
            clone.columns[1]
                .ints
                .get()
                .unwrap()
                .as_deref()
                .unwrap()
                .as_ptr(),
            keys
        );
        assert!(
            clone.columns[0].ints.get().is_none(),
            "column 0 was never read"
        );
    }

    /// Checks `table` against the routing function row by row: every row
    /// in the group of `hash_key(&[column]) % degree`, each group ascending,
    /// the groups together a permutation of the rows.
    fn assert_routes(f: &Fragment, column: usize, degree: usize) {
        let table = f.routes(column, degree);
        let mut seen = vec![false; f.cardinality()];
        let mut last_dest = None;
        for (dest, group) in table.groups() {
            assert!(
                dest < degree && Some(dest) > last_dest,
                "destinations ascend"
            );
            assert!(!group.is_empty(), "only destinations with rows");
            last_dest = Some(dest);
            let rows = &table.rows()[group];
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "fragment order");
            for &row in rows {
                let tuple = &f.tuples()[row as usize];
                assert_eq!(tuple.hash_key(&[column]) % degree as u64, dest as u64);
                assert!(!std::mem::replace(&mut seen[row as usize], true), "once");
            }
        }
        assert!(seen.into_iter().all(|s| s), "every row has a group");
        assert_eq!(table.rows().len(), f.cardinality());
    }

    #[test]
    fn a_route_table_groups_every_row_where_its_hash_sends_it() {
        use crate::{PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator};
        let rel = WisconsinGenerator::new()
            .generate(&WisconsinConfig::full("A", 2_000))
            .unwrap();
        let unique1 = rel.schema().column_index("unique1").unwrap();
        let stringu1 = rel.schema().column_index("stringu1").unwrap();
        let part =
            PartitionedRelation::from_relation(&rel, PartitionSpec::on("unique2", 3, 1)).unwrap();
        for f in part.fragments() {
            for degree in [1, 7, 200] {
                assert_routes(f, unique1, degree);
                assert_routes(f, stringu1, degree);
            }
        }
        // Co-partitioned on the routed column at the routed degree: the
        // whole fragment is the one group of its own id, in row order.
        for (column, name) in [(unique1, "unique1"), (stringu1, "stringu1")] {
            let part =
                PartitionedRelation::from_relation(&rel, PartitionSpec::on(name, 7, 1)).unwrap();
            for f in part.fragments() {
                let table = f.routes(column, 7);
                let groups: Vec<_> = table.groups().collect();
                assert_eq!(groups, vec![(f.id(), 0..f.cardinality())], "{name}");
                assert!(table
                    .rows()
                    .iter()
                    .enumerate()
                    .all(|(i, &r)| r as usize == i));
            }
        }
        let empty = Fragment::new(0, 0, schema(), Vec::new());
        assert_eq!(empty.routes(0, 7).groups().count(), 0);
    }

    #[test]
    fn one_column_routed_at_two_degrees_keeps_both_tables() {
        let rows = (0..300).map(|i| int_tuple(&[i, i * 7])).collect();
        let f = Fragment::new(0, 0, schema(), rows);
        let at7 = f.routes(1, 7) as *const RouteTable;
        let at200 = f.routes(1, 200) as *const RouteTable;
        assert_ne!(at7, at200);
        assert_routes(&f, 1, 7);
        assert_routes(&f, 1, 200);
        assert_routes(&f, 0, 200);
        assert!(std::ptr::eq(f.routes(1, 7), at7), "found, not rebuilt");
        assert!(std::ptr::eq(f.routes(1, 200), at200), "found, not rebuilt");
        let clone = f.clone();
        assert!(
            std::ptr::eq(clone.routes(1, 200), at200),
            "a clone shares them"
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
