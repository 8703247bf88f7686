//! Subquery (pipeline chain) decomposition.
//!
//! Section 3 of the paper describes the execution graph as "pipelined
//! operation chains (called subqueries) and result materializations between
//! chains" (Figure 5). Scheduling steps 2–3, which the simulator runs,
//! assign threads first to subqueries, then to the operations of each
//! chain.
//!
//! A subquery is a maximal chain of operators connected by pipeline (data)
//! edges; a chain starts at a triggered operator and ends at a sink
//! (normally a `Store`). Chains are ordered so that a chain materialising a
//! result any later chain scans comes first.

use crate::complexity::PlanComplexity;
use crate::error::PlanError;
use crate::ops::NodeId;
use crate::plan::Plan;
use crate::Result;

/// One pipeline chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Subquery {
    /// Chain identifier (dense, in discovery order).
    pub id: usize,
    /// The chain's nodes, from the triggered head to the sink.
    pub nodes: Vec<NodeId>,
}

impl Subquery {
    /// Number of operators in the chain.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true when the chain has no operators (never produced by
    /// [`SubqueryDecomposition::decompose`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The triggered head of the chain.
    pub fn head(&self) -> NodeId {
        self.nodes[0]
    }

    /// Sequential complexity of the chain under a plan complexity estimate.
    pub fn complexity(&self, complexity: &PlanComplexity) -> f64 {
        complexity.of_nodes(&self.nodes)
    }
}

/// The decomposition of a plan into subqueries.
#[derive(Debug, Clone)]
pub struct SubqueryDecomposition {
    subqueries: Vec<Subquery>,
}

impl SubqueryDecomposition {
    /// Decomposes a plan into its pipeline chains.
    pub fn decompose(plan: &Plan) -> Result<Self> {
        if plan.is_empty() {
            return Err(PlanError::EmptyPlan);
        }
        plan.topological_order()?; // rejects cycles and dangling producers
        let mut subqueries = Vec::new();
        for head in plan.triggered_nodes() {
            let mut nodes = vec![head];
            let mut current = head;
            loop {
                let mut consumers = plan.consumers_of(current);
                match (consumers.next(), consumers.next()) {
                    (None, _) => break,
                    (Some(next), None) => {
                        current = next;
                        nodes.push(current);
                    }
                    (Some(_), Some(_)) => return Err(PlanError::MultipleConsumers(current.0)),
                }
            }
            subqueries.push(Subquery {
                id: subqueries.len(),
                nodes,
            });
        }
        Ok(SubqueryDecomposition { subqueries })
    }

    /// The chains, in discovery order.
    pub fn subqueries(&self) -> &[Subquery] {
        &self.subqueries
    }

    /// Number of chains.
    pub fn len(&self) -> usize {
        self.subqueries.len()
    }

    /// Returns true when there are no chains.
    pub fn is_empty(&self) -> bool {
        self.subqueries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::ops::JoinAlgorithm;
    use crate::plans;
    use crate::predicate::{JoinCondition, Predicate};

    #[test]
    fn assoc_join_is_one_chain_of_three() {
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let dec = SubqueryDecomposition::decompose(&plan).unwrap();
        assert_eq!(dec.len(), 1);
        let sq = &dec.subqueries()[0];
        assert_eq!(sq.len(), 3);
        assert_eq!(sq.head(), NodeId(0));
        assert_eq!(sq.nodes.last(), Some(&NodeId(2)));
    }

    #[test]
    fn ideal_join_is_one_chain_of_two() {
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let dec = SubqueryDecomposition::decompose(&plan).unwrap();
        assert_eq!(dec.len(), 1);
        assert_eq!(dec.subqueries()[0].len(), 2);
    }

    #[test]
    fn two_independent_chains() {
        // Two unrelated filter→store chains in one plan.
        let mut b = PlanBuilder::new("two-chains");
        let f1 = b.filter("R", Predicate::True);
        b.store(f1, "Out1");
        let f2 = b.filter("S", Predicate::True);
        b.store(f2, "Out2");
        let plan = b.build();
        let dec = SubqueryDecomposition::decompose(&plan).unwrap();
        assert_eq!(dec.len(), 2);
        assert_eq!(dec.subqueries()[0].nodes, vec![NodeId(0), NodeId(1)]);
        assert_eq!(dec.subqueries()[1].nodes, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn filter_join_chain_includes_all_nodes() {
        let plan = plans::filter_join(
            "R",
            Predicate::one_in("ten", 10),
            "S",
            "unique1",
            JoinAlgorithm::Hash,
        );
        let dec = SubqueryDecomposition::decompose(&plan).unwrap();
        assert_eq!(dec.len(), 1);
        assert_eq!(
            dec.subqueries()[0].nodes,
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn chain_helpers() {
        let mut b = PlanBuilder::new("p");
        let f = b.filter("R", Predicate::True);
        let j = b.pipelined_join(f, "S", JoinCondition::natural("k"), JoinAlgorithm::Hash);
        b.store(j, "Res");
        let plan = b.build();
        let dec = SubqueryDecomposition::decompose(&plan).unwrap();
        let sq = &dec.subqueries()[0];
        assert!(!sq.is_empty());
        assert!(!dec.is_empty());
    }
}
