//! Stable content hashing of plans.
//!
//! The prepared-query cache keys entries by *what a plan means*, not by
//! object identity: two independently built plans with the same operators,
//! predicates and join conditions must collide on the same cache entry.
//! `std::hash::Hash` derives would tie the fingerprint to Rust's unstable
//! default hasher, so this module hand-rolls an FNV-1a walk over the plan
//! structure. The fingerprint is stable within a process run (it also feeds
//! no persistence, so cross-version stability is not required — only
//! structural faithfulness: every field that changes execution semantics
//! feeds the hash).

use crate::ops::{InputSource, JoinAlgorithm, OperatorKind, OperatorNode, OuterInput};
use crate::plan::Plan;
use crate::predicate::{CompareOp, JoinCondition, Predicate};

/// 64-bit FNV-1a, with convenience writers for the field types plans carry.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        ContentHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// Folds an `f64` by bit pattern (cost parameters are knobs, not
    /// computed values, so bitwise identity is the right equivalence).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

fn write_compare_op(h: &mut ContentHasher, op: CompareOp) {
    h.write_u64(match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    });
}

fn write_predicate(h: &mut ContentHasher, p: &Predicate) {
    match p {
        Predicate::True => h.write_u64(0x10),
        Predicate::Compare { column, op, value } => {
            h.write_u64(0x11);
            h.write_str(column);
            write_compare_op(h, *op);
            h.write_u64(value.stable_hash());
        }
        Predicate::Modulo {
            column,
            modulus,
            remainder,
        } => {
            h.write_u64(0x12);
            h.write_str(column);
            h.write_u64(*modulus as u64);
            h.write_u64(*remainder as u64);
        }
        Predicate::And(a, b) => {
            h.write_u64(0x13);
            write_predicate(h, a);
            write_predicate(h, b);
        }
        Predicate::Or(a, b) => {
            h.write_u64(0x14);
            write_predicate(h, a);
            write_predicate(h, b);
        }
        Predicate::Not(inner) => {
            h.write_u64(0x15);
            write_predicate(h, inner);
        }
    }
}

fn write_condition(h: &mut ContentHasher, c: &JoinCondition) {
    h.write_str(&c.outer_column);
    h.write_str(&c.inner_column);
}

fn write_kind(h: &mut ContentHasher, kind: &OperatorKind) {
    match kind {
        OperatorKind::Filter {
            relation,
            predicate,
        } => {
            h.write_u64(0x20);
            h.write_str(relation);
            write_predicate(h, predicate);
        }
        OperatorKind::Transmit {
            relation,
            key_column,
        } => {
            h.write_u64(0x21);
            h.write_str(relation);
            h.write_str(key_column);
        }
        OperatorKind::Join {
            outer,
            inner_relation,
            condition,
            algorithm,
        } => {
            h.write_u64(0x22);
            match outer {
                OuterInput::Fragment { relation } => {
                    h.write_u64(0);
                    h.write_str(relation);
                }
                OuterInput::Pipeline => h.write_u64(1),
            }
            h.write_str(inner_relation);
            write_condition(h, condition);
            h.write_u64(match algorithm {
                JoinAlgorithm::NestedLoop => 0,
                JoinAlgorithm::Hash => 1,
            });
        }
        OperatorKind::Store { result_name } => {
            h.write_u64(0x23);
            h.write_str(result_name);
        }
    }
}

fn write_node(h: &mut ContentHasher, node: &OperatorNode) {
    h.write_usize(node.id.0);
    write_kind(h, &node.kind);
    match node.input {
        InputSource::Trigger => h.write_u64(0x30),
        InputSource::Pipeline { producer } => {
            h.write_u64(0x31);
            h.write_usize(producer.0);
        }
    }
}

/// The structural fingerprint of a plan: every semantics-bearing field of
/// every node in id order. Node display *names* are intentionally excluded —
/// they label metrics output and must not split cache entries.
pub(crate) fn hash_plan(plan: &Plan) -> u64 {
    let mut h = ContentHasher::new();
    h.write_usize(plan.len());
    for node in plan.nodes() {
        write_node(&mut h, node);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plans;

    #[test]
    fn equal_plans_hash_equal_and_survive_clone() {
        let a = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let b = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());
    }

    #[test]
    fn semantic_fields_split_the_hash() {
        let base = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let other_algo = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
        let other_rel = plans::assoc_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let other_col = plans::assoc_join("Bprime", "A", "unique2", JoinAlgorithm::Hash);
        let other_shape = plans::ideal_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        for other in [&other_algo, &other_rel, &other_col, &other_shape] {
            assert_ne!(base.content_hash(), other.content_hash());
        }
    }

    #[test]
    fn predicates_feed_the_hash() {
        let p1 = plans::selection("A", Predicate::range("unique1", 0, 100), "Out");
        let p2 = plans::selection("A", Predicate::range("unique1", 0, 101), "Out");
        let p3 = plans::selection("A", Predicate::one_in("unique1", 7), "Out");
        assert_ne!(p1.content_hash(), p2.content_hash());
        assert_ne!(p1.content_hash(), p3.content_hash());
        let not = plans::selection(
            "A",
            Predicate::Not(Box::new(Predicate::range("unique1", 0, 100))),
            "Out",
        );
        assert_ne!(p1.content_hash(), not.content_hash());
    }

    #[test]
    fn plan_display_name_does_not_split_entries() {
        let a = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let rebuilt = Plan::from_nodes("some-other-name", a.nodes().to_vec()).unwrap();
        assert_eq!(a.content_hash(), rebuilt.content_hash());
    }

    #[test]
    fn hasher_is_order_and_boundary_sensitive() {
        let mut a = ContentHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = ContentHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = ContentHasher::new();
        c.write_u64(1);
        c.write_u64(2);
        let mut d = ContentHasher::new();
        d.write_u64(2);
        d.write_u64(1);
        assert_ne!(c.finish(), d.finish());
    }
}
