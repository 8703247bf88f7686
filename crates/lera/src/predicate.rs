//! Filter predicates and join conditions.
//!
//! The experiments of the paper only need simple comparison predicates on a
//! single attribute (Wisconsin-style range and modulo selections) and
//! single-attribute equi-join conditions, but the predicate type composes
//! with `And`/`Or`/`Not` so that richer examples can be written against the
//! public API.

use crate::error::PlanError;
use crate::Result;
use dbs3_storage::{Schema, Tuple, Value};

/// Comparison operators for scalar predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompareOp {
    /// Applies the comparison.
    pub fn apply(self, left: &Value, right: &Value) -> bool {
        match self {
            CompareOp::Eq => left == right,
            CompareOp::Ne => left != right,
            CompareOp::Lt => left < right,
            CompareOp::Le => left <= right,
            CompareOp::Gt => left > right,
            CompareOp::Ge => left >= right,
        }
    }
}

/// A predicate over a single tuple, expressed on column *names* and bound to
/// column indexes against a schema before evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (used to express "scan everything").
    True,
    /// `column <op> constant`.
    Compare {
        column: String,
        op: CompareOp,
        value: Value,
    },
    /// `column % modulus == remainder` — the Wisconsin selections
    /// (`onePercent = k`, etc.) are all of this shape, and it is also a
    /// convenient way to express selectivity directly.
    Modulo {
        column: String,
        modulus: i64,
        remainder: i64,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = constant` shorthand.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CompareOp::Eq,
            value: value.into(),
        }
    }

    /// `lo <= column < hi` range shorthand (the classic Wisconsin range
    /// selection).
    pub fn range(column: impl Into<String>, lo: i64, hi: i64) -> Self {
        let column = column.into();
        Predicate::And(
            Box::new(Predicate::Compare {
                column: column.clone(),
                op: CompareOp::Ge,
                value: Value::Int(lo),
            }),
            Box::new(Predicate::Compare {
                column,
                op: CompareOp::Lt,
                value: Value::Int(hi),
            }),
        )
    }

    /// A predicate selecting roughly `1/modulus` of the tuples of a column
    /// holding uniformly distributed integers.
    pub fn one_in(column: impl Into<String>, modulus: i64) -> Self {
        Predicate::Modulo {
            column: column.into(),
            modulus,
            remainder: 0,
        }
    }

    /// Binds the predicate against a schema, returning an efficiently
    /// evaluable [`BoundPredicate`]. Column resolution happens once here, not
    /// per tuple.
    pub fn bind(&self, relation: &str, schema: &Schema) -> Result<BoundPredicate> {
        let bound = match self {
            Predicate::True => BoundPredicate::True,
            Predicate::Compare { column, op, value } => BoundPredicate::Compare {
                index: resolve(relation, schema, column)?,
                op: *op,
                value: value.clone(),
            },
            Predicate::Modulo {
                column,
                modulus,
                remainder,
            } => BoundPredicate::Modulo {
                index: resolve(relation, schema, column)?,
                modulus: *modulus,
                remainder: *remainder,
            },
            Predicate::And(a, b) => BoundPredicate::And(
                Box::new(a.bind(relation, schema)?),
                Box::new(b.bind(relation, schema)?),
            ),
            Predicate::Or(a, b) => BoundPredicate::Or(
                Box::new(a.bind(relation, schema)?),
                Box::new(b.bind(relation, schema)?),
            ),
            Predicate::Not(a) => BoundPredicate::Not(Box::new(a.bind(relation, schema)?)),
        };
        Ok(bound)
    }

    /// A rough selectivity estimate in `[0, 1]`, used by the complexity
    /// estimator. Comparisons default to 0.1 (the classic System R default),
    /// equality to 0.01, modulo to `1/modulus`.
    pub fn estimated_selectivity(&self) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::Compare { op, .. } => match op {
                CompareOp::Eq => 0.01,
                CompareOp::Ne => 0.99,
                _ => 0.1,
            },
            Predicate::Modulo { modulus, .. } => {
                if *modulus <= 0 {
                    1.0
                } else {
                    1.0 / *modulus as f64
                }
            }
            Predicate::And(a, b) => a.estimated_selectivity() * b.estimated_selectivity(),
            Predicate::Or(a, b) => {
                let (sa, sb) = (a.estimated_selectivity(), b.estimated_selectivity());
                (sa + sb - sa * sb).min(1.0)
            }
            Predicate::Not(a) => 1.0 - a.estimated_selectivity(),
        }
    }
}

fn resolve(relation: &str, schema: &Schema, column: &str) -> Result<usize> {
    schema
        .column_index(column)
        .map_err(|_| PlanError::UnknownColumn {
            relation: relation.to_string(),
            column: column.to_string(),
        })
}

/// A predicate resolved to column indexes, ready for per-tuple evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundPredicate {
    True,
    Compare {
        index: usize,
        op: CompareOp,
        value: Value,
    },
    Modulo {
        index: usize,
        modulus: i64,
        remainder: i64,
    },
    And(Box<BoundPredicate>, Box<BoundPredicate>),
    Or(Box<BoundPredicate>, Box<BoundPredicate>),
    Not(Box<BoundPredicate>),
}

impl BoundPredicate {
    /// Evaluates the predicate on a tuple.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            BoundPredicate::True => true,
            BoundPredicate::Compare { index, op, value } => op.apply(tuple.value(*index), value),
            BoundPredicate::Modulo {
                index,
                modulus,
                remainder,
            } => match tuple.value(*index) {
                Value::Int(v) if *modulus > 0 => v.rem_euclid(*modulus) == *remainder,
                _ => false,
            },
            BoundPredicate::And(a, b) => a.eval(tuple) && b.eval(tuple),
            BoundPredicate::Or(a, b) => a.eval(tuple) || b.eval(tuple),
            BoundPredicate::Not(a) => !a.eval(tuple),
        }
    }
}

/// An equi-join condition `outer.column = inner.column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCondition {
    /// Column of the outer (probing / pipelined) side.
    pub outer_column: String,
    /// Column of the inner (fragment-resident) side.
    pub inner_column: String,
}

impl JoinCondition {
    /// Creates an equi-join condition.
    pub fn new(outer_column: impl Into<String>, inner_column: impl Into<String>) -> Self {
        JoinCondition {
            outer_column: outer_column.into(),
            inner_column: inner_column.into(),
        }
    }

    /// The common case of joining on the same column name on both sides.
    pub fn natural(column: impl Into<String>) -> Self {
        let c = column.into();
        JoinCondition {
            outer_column: c.clone(),
            inner_column: c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_storage::ColumnDef;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("unique1"),
            ColumnDef::int("ten"),
            ColumnDef::str("name"),
        ])
    }

    fn tuple(u1: i64, ten: i64, name: &str) -> Tuple {
        Tuple::new(vec![Value::Int(u1), Value::Int(ten), Value::from(name)])
    }

    #[test]
    fn compare_ops() {
        assert!(CompareOp::Eq.apply(&Value::Int(3), &Value::Int(3)));
        assert!(CompareOp::Lt.apply(&Value::Int(2), &Value::Int(3)));
        assert!(CompareOp::Ge.apply(&Value::Int(3), &Value::Int(3)));
        assert!(!CompareOp::Gt.apply(&Value::Int(3), &Value::Int(3)));
        assert!(CompareOp::Ne.apply(&Value::from("a"), &Value::from("b")));
    }

    #[test]
    fn bound_compare_and_range() {
        let s = schema();
        let p = Predicate::range("unique1", 10, 20).bind("r", &s).unwrap();
        assert!(p.eval(&tuple(10, 0, "x")));
        assert!(p.eval(&tuple(19, 0, "x")));
        assert!(!p.eval(&tuple(20, 0, "x")));
        assert!(!p.eval(&tuple(9, 0, "x")));
    }

    #[test]
    fn bound_modulo() {
        let s = schema();
        let p = Predicate::one_in("unique1", 100).bind("r", &s).unwrap();
        assert!(p.eval(&tuple(0, 0, "x")));
        assert!(p.eval(&tuple(300, 0, "x")));
        assert!(!p.eval(&tuple(101, 0, "x")));
    }

    #[test]
    fn bound_boolean_combinators() {
        let s = schema();
        let p = Predicate::And(
            Box::new(Predicate::eq("ten", 5)),
            Box::new(Predicate::Not(Box::new(Predicate::eq("name", "skip")))),
        )
        .bind("r", &s)
        .unwrap();
        assert!(p.eval(&tuple(1, 5, "keep")));
        assert!(!p.eval(&tuple(1, 5, "skip")));
        assert!(!p.eval(&tuple(1, 6, "keep")));
    }

    #[test]
    fn unknown_column_is_reported() {
        let s = schema();
        let e = Predicate::eq("missing", 1).bind("r", &s).unwrap_err();
        assert!(matches!(e, PlanError::UnknownColumn { .. }));
    }

    #[test]
    fn selectivity_estimates() {
        assert!((Predicate::True.estimated_selectivity() - 1.0).abs() < 1e-12);
        assert!((Predicate::one_in("x", 100).estimated_selectivity() - 0.01).abs() < 1e-12);
        assert!(Predicate::eq("x", 1).estimated_selectivity() < 0.05);
        let and = Predicate::And(
            Box::new(Predicate::one_in("x", 10)),
            Box::new(Predicate::one_in("y", 10)),
        );
        assert!((and.estimated_selectivity() - 0.01).abs() < 1e-12);
        let not = Predicate::Not(Box::new(Predicate::True));
        assert!((not.estimated_selectivity()).abs() < 1e-12);
    }

    #[test]
    fn join_condition_constructors() {
        let c = JoinCondition::natural("unique1");
        assert_eq!(c.outer_column, "unique1");
        assert_eq!(c.inner_column, "unique1");
        let c = JoinCondition::new("a", "b");
        assert_eq!(c.outer_column, "a");
        assert_eq!(c.inner_column, "b");
    }

    #[test]
    fn modulo_on_string_is_false() {
        let s = schema();
        let p = Predicate::one_in("name", 2).bind("r", &s).unwrap();
        assert!(!p.eval(&tuple(0, 0, "x")));
    }
}
