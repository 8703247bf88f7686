//! The simple-view plan: a dataflow graph of operator nodes.

use crate::error::PlanError;
use crate::ops::{InputSource, NodeId, OperatorKind, OperatorNode, OuterInput};
use crate::Result;
use dbs3_storage::{Catalog, Schema};
use std::hash::{DefaultHasher, Hash, Hasher};

/// A Lera-par execution plan (simple view): one node per logical operator.
///
/// Plans are built with [`crate::builder::PlanBuilder`] or the ready-made
/// constructors in [`crate::plans`], validated against a catalog with
/// [`Plan::validate`], and expanded to the extended view with
/// [`crate::extended::ExtendedPlan::from_plan`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Plan {
    name: String,
    nodes: Vec<OperatorNode>,
    /// [`Plan::content_hash`], computed once at construction: a plan never
    /// changes after it is built, and this is a function of the fields
    /// above, so the derived `Eq` and `Hash` stay consistent.
    content_hash: u64,
}

impl Plan {
    /// Creates a plan from nodes. Nodes must be stored at the index given by
    /// their id; the builder guarantees this.
    pub(crate) fn new(name: impl Into<String>, nodes: Vec<OperatorNode>) -> Self {
        let name = name.into();
        let mut hasher = DefaultHasher::new();
        (&name, &nodes).hash(&mut hasher);
        Plan {
            name,
            nodes,
            content_hash: hasher.finish(),
        }
    }

    /// Creates a plan directly from nodes, checking the structural
    /// invariants [`crate::builder::PlanBuilder`] guarantees by
    /// construction: the plan is non-empty, node `i` carries id `i` (ids
    /// are dense and double as indexes), and every pipeline input
    /// references an *earlier* node (the graph is acyclic by ordering).
    ///
    /// This is the reconstruction path for plans that arrive from outside
    /// the process — e.g. decoded off a wire — where the original node
    /// names must survive (rebuilding through the builder would regenerate
    /// them). Catalog-dependent checks still go through
    /// [`Plan::validate`].
    pub fn from_nodes(name: impl Into<String>, nodes: Vec<OperatorNode>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(PlanError::EmptyPlan);
        }
        for (index, node) in nodes.iter().enumerate() {
            if node.id.0 != index {
                return Err(PlanError::UnknownNode(node.id.0));
            }
            if let Some(producer) = node.producer() {
                if producer.0 >= index {
                    return Err(PlanError::InputMismatch {
                        node: index,
                        reason: format!(
                            "pipeline input references node {} which is not an earlier node",
                            producer.0
                        ),
                    });
                }
            }
        }
        Ok(Plan::new(name, nodes))
    }

    /// Plan name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Content hash of the plan: the derived [`Hash`] of its name and nodes,
    /// display names included, fed to a [`DefaultHasher`] once, when the
    /// plan is built. Equal plans hash equal however they were built;
    /// unequal plans may collide, so the prepared-plan cache keys by this
    /// hash and then compares the plans.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> &[OperatorNode] {
        &self.nodes
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true when the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up a node by id.
    pub fn node(&self, id: NodeId) -> Result<&OperatorNode> {
        self.nodes.get(id.0).ok_or(PlanError::UnknownNode(id.0))
    }

    /// The node that consumes `id`'s pipelined output, if any. A valid plan
    /// has at most one ([`PlanError::MultipleConsumers`]).
    pub fn consumer(&self, id: NodeId) -> Option<NodeId> {
        self.consumers_of(id).next()
    }

    /// Every node that consumes `id`'s pipelined output, for the checks
    /// that reject more than one.
    pub(crate) fn consumers_of(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |n| n.producer() == Some(id))
            .map(|n| n.id)
    }

    /// The triggered nodes (roots of the dataflow graph).
    pub fn triggered_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.input, InputSource::Trigger))
            .map(|n| n.id)
            .collect()
    }

    /// The nodes with no pipeline consumer (sinks — usually `Store`s).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| self.consumer(n.id).is_none())
            .map(|n| n.id)
            .collect()
    }

    /// A topological order of the nodes following pipeline edges (producers
    /// before consumers). Fails on cycles.
    pub fn topological_order(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut in_degree = vec![0usize; n];
        for node in &self.nodes {
            if let Some(p) = node.producer() {
                if p.0 >= n {
                    return Err(PlanError::UnknownNode(p.0));
                }
                in_degree[node.id.0] += 1;
                let _ = p;
            }
        }
        let mut ready: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|nd| in_degree[nd.id.0] == 0)
            .map(|nd| nd.id)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = ready.pop() {
            order.push(id);
            for c in self.consumers_of(id) {
                in_degree[c.0] -= 1;
                if in_degree[c.0] == 0 {
                    ready.push(c);
                }
            }
        }
        if order.len() != n {
            return Err(PlanError::CyclicPlan);
        }
        order.sort_by_key(|id| self.depth_of(*id));
        Ok(order)
    }

    /// Pipeline depth of a node (0 for triggered nodes).
    fn depth_of(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = id;
        while let Some(p) = self.nodes[cur.0].producer() {
            depth += 1;
            cur = p;
            if depth > self.nodes.len() {
                break; // cycle; validate() reports it properly
            }
        }
        depth
    }

    /// The output schema of a node, given the catalog providing base
    /// relation schemas.
    pub fn output_schema(&self, id: NodeId, catalog: &Catalog) -> Result<Schema> {
        let node = self.node(id)?;
        match &node.kind {
            OperatorKind::Filter { relation, .. } | OperatorKind::Transmit { relation, .. } => {
                Ok(catalog.get(relation)?.schema().clone())
            }
            OperatorKind::Join {
                outer,
                inner_relation,
                ..
            } => {
                let inner_schema = catalog.get(inner_relation)?.schema().clone();
                let outer_schema = match outer {
                    OuterInput::Fragment { relation } => catalog.get(relation)?.schema().clone(),
                    OuterInput::Pipeline => {
                        let producer = node.producer().ok_or(PlanError::InputMismatch {
                            node: id.0,
                            reason: "pipelined join without a producer".to_string(),
                        })?;
                        self.output_schema(producer, catalog)?
                    }
                };
                Ok(outer_schema.join(&inner_schema, inner_relation))
            }
            OperatorKind::Store { .. } => {
                let producer = node.producer().ok_or(PlanError::InputMismatch {
                    node: id.0,
                    reason: "store without a producer".to_string(),
                })?;
                self.output_schema(producer, catalog)
            }
        }
    }

    /// Validates the plan against a catalog.
    ///
    /// Checks performed:
    /// * the plan is non-empty and acyclic, and every producer id exists;
    /// * triggered operators really are triggered, pipelined operators really
    ///   have a producer;
    /// * each node has at most one pipeline consumer (Lera-par chains are
    ///   linear);
    /// * every referenced relation exists and every referenced column exists
    ///   in the relevant schema;
    /// * a co-partitioned (triggered) join has operands with the same degree
    ///   of partitioning, each partitioned on its join attribute;
    /// * a pipelined join's inner relation is partitioned on the inner join
    ///   attribute (otherwise hash routing of data activations would not
    ///   find the matching fragments).
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(PlanError::EmptyPlan);
        }
        // ids are dense and match positions by construction; check producers.
        for node in &self.nodes {
            if let Some(p) = node.producer() {
                if p.0 >= self.nodes.len() {
                    return Err(PlanError::UnknownNode(p.0));
                }
            }
        }
        self.topological_order()?;
        for node in &self.nodes {
            // Input arity / kind.
            if node.kind.requires_trigger() && node.producer().is_some() {
                return Err(PlanError::InputMismatch {
                    node: node.id.0,
                    reason: format!(
                        "{} scans base fragments and must be triggered",
                        node.kind.name()
                    ),
                });
            }
            if node.kind.requires_pipeline() && node.producer().is_none() {
                return Err(PlanError::InputMismatch {
                    node: node.id.0,
                    reason: format!(
                        "{} consumes a pipeline and needs a producer",
                        node.kind.name()
                    ),
                });
            }
            if self.consumers_of(node.id).nth(1).is_some() {
                return Err(PlanError::MultipleConsumers(node.id.0));
            }
            self.validate_node_against_catalog(node, catalog)?;
        }
        Ok(())
    }

    fn validate_node_against_catalog(&self, node: &OperatorNode, catalog: &Catalog) -> Result<()> {
        match &node.kind {
            OperatorKind::Filter {
                relation,
                predicate,
            } => {
                let rel = catalog.get(relation)?;
                // Binding resolves all referenced columns.
                predicate.bind(relation, rel.schema())?;
                Ok(())
            }
            OperatorKind::Transmit {
                relation,
                key_column,
            } => {
                let rel = catalog.get(relation)?;
                rel.schema()
                    .column_index(key_column)
                    .map_err(|_| PlanError::UnknownColumn {
                        relation: relation.clone(),
                        column: key_column.clone(),
                    })?;
                Ok(())
            }
            OperatorKind::Join {
                outer,
                inner_relation,
                condition,
                ..
            } => {
                let inner = catalog.get(inner_relation)?;
                let inner_col = condition.inner_column.as_str();
                inner
                    .schema()
                    .column_index(inner_col)
                    .map_err(|_| PlanError::UnknownColumn {
                        relation: inner_relation.clone(),
                        column: inner_col.to_string(),
                    })?;
                // Routing / co-partitioning requires the inner relation to be
                // partitioned on the join attribute.
                if inner.spec().key_columns != vec![inner_col.to_string()] {
                    return Err(PlanError::NotCoPartitioned {
                        relation: inner_relation.clone(),
                        column: inner_col.to_string(),
                    });
                }
                match outer {
                    OuterInput::Fragment { relation } => {
                        let outer_rel = catalog.get(relation)?;
                        let outer_col = condition.outer_column.as_str();
                        outer_rel.schema().column_index(outer_col).map_err(|_| {
                            PlanError::UnknownColumn {
                                relation: relation.clone(),
                                column: outer_col.to_string(),
                            }
                        })?;
                        if outer_rel.spec().key_columns != vec![outer_col.to_string()] {
                            return Err(PlanError::NotCoPartitioned {
                                relation: relation.clone(),
                                column: outer_col.to_string(),
                            });
                        }
                        if outer_rel.degree() != inner.degree() {
                            return Err(PlanError::DegreeMismatch {
                                left: relation.clone(),
                                left_degree: outer_rel.degree(),
                                right: inner_relation.clone(),
                                right_degree: inner.degree(),
                            });
                        }
                    }
                    OuterInput::Pipeline => {
                        // The producer's output schema must contain the outer
                        // join column.
                        let producer = node.producer().expect("validated above");
                        let schema = self.output_schema(producer, catalog)?;
                        schema.column_index(&condition.outer_column).map_err(|_| {
                            PlanError::UnknownColumn {
                                relation: format!("<output of {}>", producer),
                                column: condition.outer_column.clone(),
                            }
                        })?;
                    }
                }
                Ok(())
            }
            OperatorKind::Store { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::JoinAlgorithm;
    use crate::plans;
    use crate::predicate::Predicate;
    use dbs3_storage::{PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator};

    fn catalog(degree_a: usize, degree_b: usize) -> Catalog {
        let gen = WisconsinGenerator::new();
        let a = gen.generate(&WisconsinConfig::narrow("A", 1000)).unwrap();
        let b = gen
            .generate(&WisconsinConfig::narrow("Bprime", 100))
            .unwrap();
        let mut cat = Catalog::new();
        cat.register(
            PartitionedRelation::from_relation(&a, PartitionSpec::on("unique1", degree_a, 4))
                .unwrap(),
        )
        .unwrap();
        cat.register(
            PartitionedRelation::from_relation(&b, PartitionSpec::on("unique1", degree_b, 4))
                .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn from_nodes_round_trips_a_builder_plan_and_checks_invariants() {
        let built = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        // Reconstructing from the same nodes yields an equal plan (names
        // included) — the wire-decode path relies on this.
        let rebuilt = Plan::from_nodes(built.name(), built.nodes().to_vec()).unwrap();
        assert_eq!(rebuilt, built);

        assert!(matches!(
            Plan::from_nodes("empty", vec![]),
            Err(PlanError::EmptyPlan)
        ));
        // A node stored at the wrong index is rejected.
        let mut shifted = built.nodes().to_vec();
        shifted[0].id = NodeId(7);
        assert!(matches!(
            Plan::from_nodes("shifted", shifted),
            Err(PlanError::UnknownNode(7))
        ));
        // A pipeline input pointing forward (or at itself) is rejected.
        let mut cyclic = built.nodes().to_vec();
        cyclic[1].input = InputSource::Pipeline {
            producer: NodeId(1),
        };
        assert!(matches!(
            Plan::from_nodes("cyclic", cyclic),
            Err(PlanError::InputMismatch { node: 1, .. })
        ));
    }

    #[test]
    fn ideal_join_plan_validates() {
        let cat = catalog(20, 20);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        plan.validate(&cat).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.triggered_nodes().len(), 1);
        assert_eq!(plan.sinks().len(), 1);
    }

    #[test]
    fn assoc_join_plan_validates() {
        let cat = catalog(20, 30);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        plan.validate(&cat).unwrap();
        assert_eq!(plan.len(), 3);
        let order = plan.topological_order().unwrap();
        assert_eq!(order.len(), 3);
        // transmit before join before store
        assert_eq!(order[0].0, 0);
        assert_eq!(order[2].0, 2);
    }

    #[test]
    fn ideal_join_degree_mismatch_detected() {
        let cat = catalog(20, 30);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        assert!(matches!(
            plan.validate(&cat),
            Err(PlanError::DegreeMismatch { .. })
        ));
    }

    #[test]
    fn not_copartitioned_detected() {
        let cat = catalog(20, 20);
        // Joining on unique2 while relations are partitioned on unique1.
        let plan = plans::ideal_join("A", "Bprime", "unique2", JoinAlgorithm::NestedLoop);
        assert!(matches!(
            plan.validate(&cat),
            Err(PlanError::NotCoPartitioned { .. })
        ));
    }

    #[test]
    fn unknown_relation_detected() {
        let cat = catalog(10, 10);
        let plan = plans::ideal_join("A", "Missing", "unique1", JoinAlgorithm::NestedLoop);
        assert!(plan.validate(&cat).is_err());
    }

    #[test]
    fn filter_join_output_schema_concatenates() {
        let cat = catalog(10, 10);
        let plan = plans::filter_join(
            "A",
            Predicate::one_in("onePercent", 2),
            "Bprime",
            "unique1",
            JoinAlgorithm::Hash,
        );
        plan.validate(&cat).unwrap();
        let join_id = NodeId(1);
        let schema = plan.output_schema(join_id, &cat).unwrap();
        // 8 narrow columns from each side.
        assert_eq!(schema.width(), 16);
        // Store output schema equals join output schema.
        let store_schema = plan.output_schema(NodeId(2), &cat).unwrap();
        assert_eq!(store_schema.width(), 16);
    }

    #[test]
    fn selection_plan_validates_and_has_unknown_column_error() {
        let cat = catalog(10, 10);
        let plan = plans::selection("A", Predicate::range("unique1", 0, 100), "Out");
        plan.validate(&cat).unwrap();

        let bad = plans::selection("A", Predicate::range("nope", 0, 100), "Out");
        assert!(matches!(
            bad.validate(&cat),
            Err(PlanError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn node_lookup_errors() {
        let plan = plans::selection("A", Predicate::True, "Out");
        assert!(plan.node(NodeId(0)).is_ok());
        assert!(matches!(
            plan.node(NodeId(9)),
            Err(PlanError::UnknownNode(9))
        ));
    }

    #[test]
    fn equal_plans_hash_equal_and_survive_clone() {
        let a = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let b = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());
    }

    #[test]
    fn the_stored_hash_is_a_fresh_hash_of_name_and_nodes() {
        let fresh = |plan: &Plan| {
            let mut hasher = DefaultHasher::new();
            (plan.name().to_string(), plan.nodes().to_vec()).hash(&mut hasher);
            hasher.finish()
        };
        let plan = plans::filter_join(
            "A",
            Predicate::range("unique1", 0, 100),
            "Bprime",
            "unique1",
            JoinAlgorithm::Hash,
        );
        assert_eq!(plan.content_hash(), fresh(&plan));
        let copy = plan.clone();
        assert_eq!(copy.content_hash(), fresh(&copy));
        assert_eq!(copy.content_hash(), plan.content_hash());
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
}
