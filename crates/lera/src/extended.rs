//! The extended view of a plan: one instance per fragment.
//!
//! "To obtain intra-operation parallelism, each node of the execution plan,
//! whose input is a partitioned relation, gets as many instances as
//! fragments" (Section 2, Figure 1). The extended plan records, for every
//! operator, its instances together with static per-instance cost estimates
//! derived from fragment cardinalities. Those estimates drive:
//!
//! * the LPT consumption strategy (queues ordered by decreasing estimated
//!   activation cost),
//! * the scheduler's thread count and the simulator's
//!   complexity-proportional split of it over operations,
//! * the simulator's virtual-time cost accounting.

use crate::complexity::CostParameters;
use crate::error::PlanError;
use crate::ops::{ActivationKind, JoinAlgorithm, NodeId, OperatorKind, OuterInput};
use crate::plan::Plan;
use crate::Result;
use dbs3_storage::Catalog;
use std::collections::BTreeMap;

/// Static information about one operation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceInfo {
    /// Instance index (equals the fragment id of the associated relation).
    pub instance: usize,
    /// Cardinality of the associated fragment (0 when the operator has no
    /// associated relation, e.g. `Store`).
    pub fragment_cardinality: usize,
    /// Estimated number of activations this instance will receive.
    pub estimated_activations: f64,
    /// Estimated total processing cost of this instance, in cost units.
    pub estimated_cost: f64,
}

/// One operator of the extended plan with its instances.
#[derive(Debug, Clone)]
pub struct ExtendedOperation {
    /// Node id in the simple view.
    pub node: NodeId,
    /// Display name.
    pub name: String,
    /// Kind of activation the operation's queues receive.
    pub activation_kind: ActivationKind,
    /// Estimated number of tuples produced by the whole operation.
    pub estimated_output_cardinality: f64,
    instances: Vec<InstanceInfo>,
}

impl ExtendedOperation {
    /// The instances of this operation.
    pub fn instances(&self) -> &[InstanceInfo] {
        &self.instances
    }

    /// Number of instances (and activation queues).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Total estimated sequential cost of the operation.
    pub fn estimated_cost(&self) -> f64 {
        self.instances.iter().map(|i| i.estimated_cost).sum()
    }

    /// The instance indexes ordered by decreasing estimated cost — the order
    /// the LPT strategy visits queues in.
    pub fn lpt_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.instances.len()).collect();
        order.sort_by(|&a, &b| {
            self.instances[b]
                .estimated_cost
                .partial_cmp(&self.instances[a].estimated_cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }
}

/// The extended view of a plan.
#[derive(Debug, Clone)]
pub struct ExtendedPlan {
    plan_name: String,
    operations: Vec<ExtendedOperation>,
    by_node: BTreeMap<NodeId, usize>,
}

impl ExtendedPlan {
    /// Expands a validated plan against a catalog.
    ///
    /// The plan is validated first (an invalid plan cannot be expanded
    /// meaningfully), then every node is given one instance per fragment of
    /// its associated relation and per-instance costs are estimated with
    /// `params`.
    pub fn from_plan(plan: &Plan, catalog: &Catalog, params: &CostParameters) -> Result<Self> {
        plan.validate(catalog)?;
        let order = plan.topological_order()?;
        let mut operations: Vec<ExtendedOperation> = Vec::with_capacity(plan.len());
        let mut by_node: BTreeMap<NodeId, usize> = BTreeMap::new();

        for id in order {
            let node = plan.node(id)?;
            let producer_op = node
                .producer()
                .and_then(|p| by_node.get(&p).map(|&i| &operations[i]));

            let op = match &node.kind {
                OperatorKind::Filter {
                    relation,
                    predicate,
                } => {
                    let rel = catalog.get(relation)?;
                    let selectivity = predicate.estimated_selectivity();
                    let instances = rel
                        .fragment_cardinalities()
                        .iter()
                        .enumerate()
                        .map(|(i, &card)| InstanceInfo {
                            instance: i,
                            fragment_cardinality: card,
                            estimated_activations: 1.0,
                            estimated_cost: card as f64 * params.scan_tuple
                                + card as f64 * selectivity * params.move_tuple,
                        })
                        .collect::<Vec<_>>();
                    let output = rel.cardinality() as f64 * selectivity;
                    ExtendedOperation {
                        node: id,
                        name: node.name.clone(),
                        activation_kind: ActivationKind::Control,
                        estimated_output_cardinality: output,
                        instances,
                    }
                }
                OperatorKind::Transmit { relation, .. } => {
                    let rel = catalog.get(relation)?;
                    let instances = rel
                        .fragment_cardinalities()
                        .iter()
                        .enumerate()
                        .map(|(i, &card)| InstanceInfo {
                            instance: i,
                            fragment_cardinality: card,
                            estimated_activations: 1.0,
                            estimated_cost: card as f64 * (params.scan_tuple + params.move_tuple),
                        })
                        .collect::<Vec<_>>();
                    ExtendedOperation {
                        node: id,
                        name: node.name.clone(),
                        activation_kind: ActivationKind::Control,
                        estimated_output_cardinality: rel.cardinality() as f64,
                        instances,
                    }
                }
                OperatorKind::Join {
                    outer,
                    inner_relation,
                    algorithm,
                    ..
                } => {
                    let inner = catalog.get(inner_relation)?;
                    let inner_cards = inner.fragment_cardinalities();
                    let inner_total = inner.cardinality().max(1) as f64;
                    match outer {
                        OuterInput::Fragment { relation } => {
                            let outer_rel = catalog.get(relation)?;
                            let outer_cards = outer_rel.fragment_cardinalities();
                            let instances = outer_cards
                                .iter()
                                .zip(&inner_cards)
                                .enumerate()
                                .map(|(i, (&oc, &ic))| InstanceInfo {
                                    instance: i,
                                    fragment_cardinality: oc,
                                    estimated_activations: 1.0,
                                    estimated_cost: triggered_join_cost(oc, ic, *algorithm, params),
                                })
                                .collect::<Vec<_>>();
                            ExtendedOperation {
                                node: id,
                                name: node.name.clone(),
                                activation_kind: ActivationKind::Control,
                                estimated_output_cardinality: outer_rel.cardinality() as f64,
                                instances,
                            }
                        }
                        OuterInput::Pipeline => {
                            let incoming = producer_op
                                .map(|p| p.estimated_output_cardinality)
                                .unwrap_or(0.0);
                            let instances = inner_cards
                                .iter()
                                .enumerate()
                                .map(|(i, &ic)| {
                                    // Incoming tuples route by hash of the join key;
                                    // assume they spread proportionally to the
                                    // inner fragment cardinalities.
                                    let share = incoming * ic as f64 / inner_total;
                                    InstanceInfo {
                                        instance: i,
                                        fragment_cardinality: ic,
                                        estimated_activations: share,
                                        estimated_cost: pipelined_join_cost(
                                            share, ic, *algorithm, params,
                                        ),
                                    }
                                })
                                .collect::<Vec<_>>();
                            ExtendedOperation {
                                node: id,
                                name: node.name.clone(),
                                activation_kind: ActivationKind::Data,
                                estimated_output_cardinality: incoming,
                                instances,
                            }
                        }
                    }
                }
                OperatorKind::Store { .. } => {
                    let producer = producer_op.ok_or(PlanError::InputMismatch {
                        node: id.0,
                        reason: "store without a producer".to_string(),
                    })?;
                    let incoming = producer.estimated_output_cardinality;
                    let count = producer.instance_count().max(1);
                    let per_instance = incoming / count as f64;
                    let instances = (0..count)
                        .map(|i| InstanceInfo {
                            instance: i,
                            fragment_cardinality: 0,
                            estimated_activations: per_instance,
                            estimated_cost: per_instance * params.store_tuple,
                        })
                        .collect::<Vec<_>>();
                    ExtendedOperation {
                        node: id,
                        name: node.name.clone(),
                        activation_kind: ActivationKind::Data,
                        estimated_output_cardinality: incoming,
                        instances,
                    }
                }
            };
            by_node.insert(id, operations.len());
            operations.push(op);
        }

        Ok(ExtendedPlan {
            plan_name: plan.name().to_string(),
            operations,
            by_node,
        })
    }

    /// Name of the underlying plan.
    pub fn plan_name(&self) -> &str {
        &self.plan_name
    }

    /// All operations, in topological (producer-before-consumer) order.
    pub fn operations(&self) -> &[ExtendedOperation] {
        &self.operations
    }

    /// The operation for a given simple-view node.
    pub fn operation(&self, node: NodeId) -> Option<&ExtendedOperation> {
        self.by_node.get(&node).map(|&i| &self.operations[i])
    }
}

fn triggered_join_cost(
    outer_card: usize,
    inner_card: usize,
    algorithm: JoinAlgorithm,
    params: &CostParameters,
) -> f64 {
    let (oc, ic) = (outer_card as f64, inner_card as f64);
    match algorithm {
        JoinAlgorithm::NestedLoop => oc * ic * params.nested_loop_probe_per_inner_tuple,
        JoinAlgorithm::Hash | JoinAlgorithm::TempIndex => {
            ic * params.build_per_tuple + oc * params.indexed_probe
        }
    }
}

fn pipelined_join_cost(
    incoming: f64,
    inner_card: usize,
    algorithm: JoinAlgorithm,
    params: &CostParameters,
) -> f64 {
    let ic = inner_card as f64;
    match algorithm {
        JoinAlgorithm::NestedLoop => incoming * ic * params.nested_loop_probe_per_inner_tuple,
        JoinAlgorithm::Hash | JoinAlgorithm::TempIndex => {
            ic * params.build_per_tuple + incoming * params.indexed_probe
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

    fn catalog(degree: usize, skew: f64) -> Catalog {
        let gen = WisconsinGenerator::new();
        let a = gen.generate(&WisconsinConfig::narrow("A", 5000)).unwrap();
        let b = gen
            .generate(&WisconsinConfig::narrow("Bprime", 500))
            .unwrap();
        let mut cat = Catalog::new();
        let a_part = if skew > 0.0 {
            PartitionedRelation::from_relation_with_skew(
                &a,
                PartitionSpec::on("unique1", degree, 4),
                skew,
            )
            .unwrap()
        } else {
            PartitionedRelation::from_relation(&a, PartitionSpec::on("unique1", degree, 4)).unwrap()
        };
        cat.register(a_part).unwrap();
        cat.register(
            PartitionedRelation::from_relation(&b, PartitionSpec::on("unique1", degree, 4))
                .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn ideal_join_has_one_instance_per_fragment() {
        let cat = catalog(25, 0.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
        let join = ext.operation(NodeId(0)).unwrap();
        assert_eq!(join.instance_count(), 25);
        assert_eq!(join.activation_kind, ActivationKind::Control);
        // Store mirrors the join's instances.
        let store = ext.operation(NodeId(1)).unwrap();
        assert_eq!(store.instance_count(), 25);
    }

    #[test]
    fn assoc_join_is_pipelined_with_data_activations() {
        let cat = catalog(20, 0.0);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
        let transmit = ext.operation(NodeId(0)).unwrap();
        let join = ext.operation(NodeId(1)).unwrap();
        assert_eq!(transmit.activation_kind, ActivationKind::Control);
        assert_eq!(join.activation_kind, ActivationKind::Data);
        // The pipelined join receives ~|B'| activations in total.
        let total_act: f64 = join
            .instances()
            .iter()
            .map(|i| i.estimated_activations)
            .sum();
        assert!((total_act - 500.0).abs() < 1.0);
    }

    #[test]
    fn skewed_fragments_produce_skewed_costs_and_lpt_order() {
        let cat = catalog(50, 1.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let ext = ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap();
        let join = ext.operation(NodeId(0)).unwrap();
        let order = join.lpt_order();
        // LPT order is by decreasing estimated cost.
        for w in order.windows(2) {
            assert!(join.instances()[w[0]].estimated_cost >= join.instances()[w[1]].estimated_cost);
        }
        // With Zipf=1 skew the most expensive instance is much more expensive
        // than the median one.
        let costs: Vec<f64> = join.instances().iter().map(|i| i.estimated_cost).collect();
        let max = costs.iter().cloned().fold(f64::MIN, f64::max);
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        assert!(max / mean > 5.0, "max/mean = {}", max / mean);
    }

    #[test]
    fn filter_selectivity_reduces_downstream_costs() {
        let cat = catalog(10, 0.0);
        let selective = plans::filter_join(
            "A",
            Predicate::one_in("onePercent", 100),
            "Bprime",
            "unique1",
            JoinAlgorithm::Hash,
        );
        let permissive = plans::filter_join(
            "A",
            Predicate::True,
            "Bprime",
            "unique1",
            JoinAlgorithm::Hash,
        );
        let params = CostParameters::default();
        let e1 = ExtendedPlan::from_plan(&selective, &cat, &params).unwrap();
        let e2 = ExtendedPlan::from_plan(&permissive, &cat, &params).unwrap();
        let j1 = e1.operation(NodeId(1)).unwrap().estimated_cost();
        let j2 = e2.operation(NodeId(1)).unwrap().estimated_cost();
        assert!(j1 < j2);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let cat = catalog(10, 0.0);
        // Mismatched degrees: build catalog with different degree for B.
        let gen = WisconsinGenerator::new();
        let b = gen
            .generate(&WisconsinConfig::narrow("Bother", 100))
            .unwrap();
        let mut cat2 = cat.clone();
        cat2.register(
            PartitionedRelation::from_relation(&b, PartitionSpec::on("unique1", 13, 4)).unwrap(),
        )
        .unwrap();
        let plan = plans::ideal_join("A", "Bother", "unique1", JoinAlgorithm::Hash);
        assert!(ExtendedPlan::from_plan(&plan, &cat2, &CostParameters::default()).is_err());
    }
}
