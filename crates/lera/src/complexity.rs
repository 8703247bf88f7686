//! Cost parameters and plan complexity estimation.
//!
//! The scheduler (Section 3) needs estimates of the *sequential complexity*
//! of each operation, chain and subquery in order to choose the number of
//! threads (step 1) and to distribute them (steps 2 and 3). The estimates
//! here are deliberately simple — linear per-tuple costs per operator, the
//! same granularity the paper's compiler uses — because the adaptive engine
//! is designed to tolerate estimation error at run time.

use crate::extended::ExtendedPlan;
use crate::ops::NodeId;
use std::collections::BTreeMap;

/// Abstract per-tuple costs of the physical operators (unit: "cost units";
/// the simulator maps cost units to virtual microseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParameters {
    /// Reading one tuple from a fragment (scan).
    pub scan_tuple: f64,
    /// Sending one tuple through a queue (activation production+consumption).
    pub move_tuple: f64,
    /// Comparing an outer tuple with one inner tuple (nested loop).
    pub nested_loop_probe_per_inner_tuple: f64,
    /// Inserting one inner tuple into a hash table / temporary index.
    pub build_per_tuple: f64,
    /// Probing a hash table / temporary index with one outer tuple.
    pub indexed_probe: f64,
    /// Materialising one result tuple.
    pub store_tuple: f64,
    /// Fixed cost of creating one activation queue (the per-degree overhead
    /// measured in Expt 3: higher degrees of partitioning mean more queues).
    pub queue_creation: f64,
}

impl Default for CostParameters {
    fn default() -> Self {
        CostParameters {
            scan_tuple: 1.0,
            move_tuple: 1.0,
            nested_loop_probe_per_inner_tuple: 1.0,
            build_per_tuple: 2.0,
            indexed_probe: 4.0,
            store_tuple: 1.0,
            queue_creation: 50.0,
        }
    }
}

/// Per-node and total sequential complexity of a plan.
#[derive(Debug, Clone)]
pub struct PlanComplexity {
    per_node: BTreeMap<NodeId, f64>,
}

impl PlanComplexity {
    /// Derives the complexity of every node from an extended plan (sum of the
    /// per-instance estimated costs).
    pub fn from_extended(extended: &ExtendedPlan) -> Self {
        let per_node = extended
            .operations()
            .iter()
            .map(|op| {
                (
                    op.node,
                    op.instances().iter().map(|i| i.estimated_cost).sum::<f64>(),
                )
            })
            .collect();
        PlanComplexity { per_node }
    }

    /// Sequential complexity of one node.
    pub fn node(&self, id: NodeId) -> f64 {
        self.per_node.get(&id).copied().unwrap_or(0.0)
    }

    /// Total sequential complexity of the plan.
    pub fn total(&self) -> f64 {
        self.per_node.values().sum()
    }

    /// Complexity of a set of nodes (e.g. one pipeline chain).
    pub fn of_nodes(&self, nodes: &[NodeId]) -> f64 {
        nodes.iter().map(|id| self.node(*id)).sum()
    }

    /// All per-node complexities.
    pub fn per_node(&self) -> &BTreeMap<NodeId, f64> {
        &self.per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extended::ExtendedPlan;
    use crate::ops::JoinAlgorithm;
    use crate::plans;
    use dbs3_storage::{
        Catalog, PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator,
    };

    fn catalog() -> Catalog {
        let gen = WisconsinGenerator::new();
        let a = gen.generate(&WisconsinConfig::narrow("A", 2000)).unwrap();
        let b = gen
            .generate(&WisconsinConfig::narrow("Bprime", 200))
            .unwrap();
        let mut cat = Catalog::new();
        cat.register(
            PartitionedRelation::from_relation(&a, PartitionSpec::on("unique1", 20, 4)).unwrap(),
        )
        .unwrap();
        cat.register(
            PartitionedRelation::from_relation(&b, PartitionSpec::on("unique1", 20, 4)).unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn default_parameters_are_positive() {
        let p = CostParameters::default();
        assert!(p.scan_tuple > 0.0 && p.queue_creation > 0.0 && p.indexed_probe > 0.0);
    }

    #[test]
    fn complexity_sums_instances() {
        let cat = catalog();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
        let cx = PlanComplexity::from_extended(&ext);
        assert!(cx.total() > 0.0);
        assert!(
            cx.node(NodeId(0)) > cx.node(NodeId(1)),
            "join dominates store"
        );
        let all_nodes: Vec<NodeId> = plan.nodes().iter().map(|n| n.id).collect();
        assert!((cx.of_nodes(&all_nodes) - cx.total()).abs() < 1e-9);
    }

    #[test]
    fn nested_loop_costs_more_than_indexed() {
        let cat = catalog();
        let nl_plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let ix_plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let params = CostParameters::default();
        let nl = PlanComplexity::from_extended(
            &ExtendedPlan::from_plan(&nl_plan, &cat, &params).unwrap(),
        );
        let ix = PlanComplexity::from_extended(
            &ExtendedPlan::from_plan(&ix_plan, &cat, &params).unwrap(),
        );
        assert!(nl.node(NodeId(0)) > ix.node(NodeId(0)));
    }

    #[test]
    fn unknown_node_has_zero_complexity() {
        let cat = catalog();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
        let cx = PlanComplexity::from_extended(&ext);
        assert_eq!(cx.node(NodeId(99)), 0.0);
    }
}
