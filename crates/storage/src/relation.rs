//! In-memory relations.

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::Result;

/// An in-memory relation: a schema plus a bag of tuples.
///
/// Relations are the *unpartitioned* view of the data; the execution engine
/// only ever sees [`crate::PartitionedRelation`]s (fragments). Keeping a
/// plain relation type separate makes reference implementations (e.g. the
/// naive join used by the property tests) straightforward.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
        }
    }

    /// Creates a relation from pre-validated tuples.
    ///
    /// Every tuple is checked against the schema; the first mismatch aborts
    /// construction.
    pub fn new(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        for t in &tuples {
            schema.validate_values(t.values())?;
        }
        Ok(Relation {
            name: name.into(),
            schema,
            tuples,
        })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Cardinality of the relation.
    pub fn cardinality(&self) -> usize {
        self.tuples.len()
    }

    /// Returns true when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Appends a tuple after validating it against the schema.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        self.schema.validate_values(tuple.values())?;
        self.tuples.push(tuple);
        Ok(())
    }

    /// Appends a tuple without validation.
    ///
    /// Used by the generators, which construct tuples directly from the
    /// schema and therefore cannot produce mismatches; skipping validation
    /// keeps generating a 500K-tuple relation fast.
    pub fn insert_unchecked(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
    }

    /// Looks up the index of a column by name (convenience forwarding).
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema.column_index(name)
    }

    /// Approximate total size in bytes (used by the Allcache model).
    pub fn approximate_size(&self) -> usize {
        self.tuples.iter().map(Tuple::approximate_size).sum()
    }

    /// Reference nested-loop join used as a correctness oracle in tests.
    ///
    /// Joins `self` with `right` on equality of the named columns and returns
    /// concatenated tuples. This is O(n·m) and only meant for validation.
    pub fn reference_join(
        &self,
        right: &Relation,
        left_col: &str,
        right_col: &str,
    ) -> Result<Vec<Tuple>> {
        let li = self.column_index(left_col)?;
        let ri = right.column_index(right_col)?;
        let mut out = Vec::new();
        for l in &self.tuples {
            for r in &right.tuples {
                if l.value(li) == r.value(ri) {
                    out.push(l.concat(r));
                }
            }
        }
        Ok(out)
    }

    /// Reference selection used as a correctness oracle in tests.
    pub fn reference_select<F>(&self, predicate: F) -> Vec<Tuple>
    where
        F: Fn(&Tuple) -> bool,
    {
        self.tuples
            .iter()
            .filter(|t| predicate(t))
            .cloned()
            .collect()
    }

    /// Validates that the relation is internally consistent; returns the
    /// first violation found. Useful as a cheap invariant check in
    /// integration tests after bulk loads.
    pub fn check_integrity(&self) -> Result<()> {
        for t in &self.tuples {
            self.schema.validate_values(t.values())?;
        }
        Ok(())
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.tuples == other.tuples
    }
}

/// Builds a tiny two-column integer relation, used in unit tests across the
/// workspace (`id`, `val`).
#[expect(
    clippy::expect_used,
    reason = "test-support constructor over a fixed two-column schema, reachable only from \
              tests and examples"
)]
pub fn test_relation(name: &str, rows: &[(i64, i64)]) -> Relation {
    use crate::schema::ColumnDef;
    use crate::value::Value;
    let schema = Schema::new(vec![ColumnDef::int("id"), ColumnDef::int("val")]);
    let tuples = rows
        .iter()
        .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
        .collect();
    Relation::new(name, schema, tuples).expect("test relation is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::schema::ColumnDef;
    use crate::tuple::int_tuple;
    use crate::value::Value;

    fn schema2() -> Schema {
        Schema::new(vec![ColumnDef::int("id"), ColumnDef::int("val")])
    }

    #[test]
    fn new_validates_tuples() {
        let bad = vec![Tuple::new(vec![Value::Int(1)])];
        assert!(matches!(
            Relation::new("r", schema2(), bad),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn insert_and_cardinality() {
        let mut r = Relation::empty("r", schema2());
        assert!(r.is_empty());
        r.insert(int_tuple(&[1, 10])).unwrap();
        r.insert(int_tuple(&[2, 20])).unwrap();
        assert_eq!(r.cardinality(), 2);
        assert!(r.insert(int_tuple(&[1])).is_err());
    }

    #[test]
    fn reference_join_matches_expected() {
        let a = test_relation("a", &[(1, 10), (2, 20), (3, 30)]);
        let b = test_relation("b", &[(2, 200), (3, 300), (3, 301), (9, 900)]);
        let out = a.reference_join(&b, "id", "id").unwrap();
        // id=2 matches once, id=3 matches twice.
        assert_eq!(out.len(), 3);
        for t in &out {
            assert_eq!(t.arity(), 4);
            assert_eq!(t.value(0), t.value(2));
        }
    }

    #[test]
    fn reference_join_unknown_column() {
        let a = test_relation("a", &[(1, 10)]);
        let b = test_relation("b", &[(1, 10)]);
        assert!(a.reference_join(&b, "nope", "id").is_err());
    }

    #[test]
    fn reference_select_filters() {
        let a = test_relation("a", &[(1, 10), (2, 20), (3, 30)]);
        let out = a.reference_select(|t| t.value(1).as_int().unwrap() >= 20);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn integrity_check_passes_for_generated() {
        let a = test_relation("a", &[(1, 10), (2, 20)]);
        assert!(a.check_integrity().is_ok());
    }

    #[test]
    fn approximate_size_positive() {
        let a = test_relation("a", &[(1, 10), (2, 20)]);
        assert!(a.approximate_size() > 0);
    }
}
