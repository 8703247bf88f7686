//! Tuples.

use crate::value::{stable_hash_values, Value};
use std::fmt;
use std::sync::Arc;

/// A tuple: an immutable, cheaply clonable row of values.
///
/// Tuple activations are the unit of work of pipelined operations in DBS3:
/// every tuple produced by a filter is sent (inside a transport batch) to a
/// join instance. The execution engine therefore clones tuples when it
/// enqueues them, so the values are stored behind an `Arc` and a clone is a
/// pointer copy.
///
/// The values live in a single `Arc<[Value]>` allocation — one refcount
/// header directly followed by the value slice — instead of the classic
/// `Arc<Vec<Value>>`: the stored form is one heap block instead of two, and
/// every column access saves a pointer chase. Construction moves the values
/// through a transient exact-size buffer into that block; cloning allocates
/// nothing.
///
/// Equality is by value, but two tuples sharing one allocation — clones,
/// or a relation version built from its predecessor's rows — are equal
/// without reading a value. `Value` equality is reflexive, so the pointer
/// check only short-cuts; std's `Arc` equality does not take it.
#[derive(Debug, Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl PartialEq for Tuple {
    #[inline]
    fn eq(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.values, &other.values) || *self.values == *other.values
    }
}

impl Eq for Tuple {}

// Hashes exactly what the derive would, consistent with `eq` above.
impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

impl Tuple {
    /// Creates a tuple from values.
    #[inline]
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Number of values.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a column index (panics if out of range; callers validate
    /// column indexes against the schema once, at plan-build time).
    #[inline]
    pub fn value(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// Value at a column index without panicking.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// Concatenates two tuples (join result construction).
    ///
    /// Collects from an exact-length iterator, so every buffer on the way
    /// to the shared slice is sized exactly once — no growth reallocations
    /// in the join's per-match path.
    #[inline]
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple {
            values: self
                .values
                .iter()
                .chain(other.values.iter())
                .cloned()
                .collect(),
        }
    }

    /// Projects the tuple onto the given column indexes (exact-length
    /// collect, no growth reallocations).
    #[inline]
    pub fn project(&self, indexes: &[usize]) -> Tuple {
        Tuple {
            values: indexes.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Deterministic hash of the values at `key_indexes`, used for
    /// partitioning and redistribution.
    #[inline]
    pub fn hash_key(&self, key_indexes: &[usize]) -> u64 {
        stable_hash_values(key_indexes.iter().map(|&i| &self.values[i]))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Convenience constructor for integer-only tuples (tests and examples).
pub fn int_tuple(values: &[i64]) -> Tuple {
    Tuple::new(values.iter().map(|&v| Value::Int(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let t = int_tuple(&[1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.value(1), &Value::Int(2));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn concat_appends_values() {
        let a = int_tuple(&[1, 2]);
        let b = int_tuple(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.value(2), &Value::Int(3));
    }

    #[test]
    fn project_reorders() {
        let t = int_tuple(&[10, 20, 30]);
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(30), Value::Int(10)]);
    }

    #[test]
    fn hash_key_depends_only_on_key_columns() {
        let a = int_tuple(&[7, 100, 3]);
        let b = int_tuple(&[7, 999, 4]);
        assert_eq!(a.hash_key(&[0]), b.hash_key(&[0]));
        assert_ne!(a.hash_key(&[1]), b.hash_key(&[1]));
    }

    #[test]
    fn clone_shares_storage() {
        let t = int_tuple(&[1, 2, 3]);
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.values, &c.values));
    }

    #[test]
    fn display_formats_values() {
        let t = Tuple::new(vec![Value::Int(1), Value::from("X")]);
        assert_eq!(t.to_string(), "[1, X]");
    }
}
