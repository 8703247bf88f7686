//! Operator nodes of the Lera-par dataflow graph.

use crate::predicate::{JoinCondition, Predicate};
use std::fmt;

/// Identifier of a node inside a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The kind of activation carried on an edge (Section 2: "An activator
/// denotes either a tuple (data activation) or a control message (control
/// activation)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// A control message: starts the operation instance on its fragment.
    Control,
    /// One tuple flowing through a pipeline.
    Data,
}

/// Join algorithms available to the join operator.
///
/// The paper uses a nested-loop join "when the join algorithm has no impact
/// ... in order to slow down the execution time" and a join over a temporary
/// index built on the fly for the larger databases (Section 5.3); Expt 3
/// (Section 5.6.1) compares the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// Nested loop over the inner fragment per outer tuple.
    NestedLoop,
    /// Probe the paper's temporary index built on the fly over the inner
    /// fragment (its "temp. index" configurations): a `HashIndex` built once
    /// in the inner fragment's cell and shared by every probe of it.
    Hash,
}

impl JoinAlgorithm {
    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            JoinAlgorithm::NestedLoop => "nested-loop",
            JoinAlgorithm::Hash => "hash",
        }
    }
}

/// The outer (probing) input of a join.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OuterInput {
    /// The outer operand is the co-partitioned fragment of a base relation:
    /// the join is a *triggered* operation (IdealJoin).
    Fragment { relation: String },
    /// The outer operand arrives tuple-by-tuple through the pipeline: the
    /// join is a *pipelined* operation (the join of AssocJoin, or the join
    /// after a filter in Figure 1).
    Pipeline,
}

/// What starts an operator: a trigger (control activation broadcast to all
/// instances) or the pipelined output of a producer node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSource {
    /// The operator is triggered: each instance receives exactly one control
    /// activation and then processes its associated fragment.
    Trigger,
    /// The operator consumes the data activations produced by `producer`.
    Pipeline { producer: NodeId },
}

/// The relational operation performed by a node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Scan the fragments of `relation` and emit tuples satisfying
    /// `predicate`. Triggered.
    Filter {
        relation: String,
        predicate: Predicate,
    },
    /// Scan the fragments of `relation` and redistribute every tuple to the
    /// consumer instance selected by hashing `key_column` (dynamic
    /// repartitioning — the first operator of AssocJoin). Triggered.
    Transmit {
        relation: String,
        key_column: String,
    },
    /// Join the outer input with the co-partitioned fragments of
    /// `inner_relation` on `condition` using `algorithm`.
    Join {
        outer: OuterInput,
        inner_relation: String,
        condition: JoinCondition,
        algorithm: JoinAlgorithm,
    },
    /// Materialise incoming tuples into result fragments named
    /// `result_name`. Pipelined.
    Store { result_name: String },
}

impl OperatorKind {
    /// Short operator name for display and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::Filter { .. } => "filter",
            OperatorKind::Transmit { .. } => "transmit",
            OperatorKind::Join { .. } => "join",
            OperatorKind::Store { .. } => "store",
        }
    }

    /// The base relation whose fragments the operator instances are
    /// associated with (determines the number of instances in the extended
    /// view), if any.
    ///
    /// * `Filter`/`Transmit` — the scanned relation.
    /// * `Join` — the inner (fragment-resident) relation.
    /// * `Store` — none: its instances mirror its producer's instances.
    pub fn associated_relation(&self) -> Option<&str> {
        match self {
            OperatorKind::Filter { relation, .. } => Some(relation),
            OperatorKind::Transmit { relation, .. } => Some(relation),
            OperatorKind::Join { inner_relation, .. } => Some(inner_relation),
            OperatorKind::Store { .. } => None,
        }
    }

    /// Whether the operator must be triggered (scans base fragments) rather
    /// than fed by a pipeline.
    pub fn requires_trigger(&self) -> bool {
        match self {
            OperatorKind::Filter { .. } | OperatorKind::Transmit { .. } => true,
            OperatorKind::Join { outer, .. } => matches!(outer, OuterInput::Fragment { .. }),
            OperatorKind::Store { .. } => false,
        }
    }

    /// Whether the operator consumes a pipeline.
    pub fn requires_pipeline(&self) -> bool {
        match self {
            OperatorKind::Join { outer, .. } => matches!(outer, OuterInput::Pipeline),
            OperatorKind::Store { .. } => true,
            _ => false,
        }
    }

    /// The column of incoming pipelined tuples used to route each data
    /// activation to an instance (hash routing), when applicable.
    ///
    /// For a pipelined join this is the outer join column: the tuple must go
    /// to the instance holding the inner fragment its key hashes to. A store
    /// keeps the producer's instance (co-located result fragments), so it has
    /// no routing column.
    pub fn routing_column(&self) -> Option<&str> {
        match self {
            OperatorKind::Join {
                outer: OuterInput::Pipeline,
                condition,
                ..
            } => Some(&condition.outer_column),
            _ => None,
        }
    }
}

/// A node of the simple-view plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OperatorNode {
    /// Node identifier (index in the plan's node list).
    pub id: NodeId,
    /// Display name (e.g. `filter`, `join`, `transmit1`).
    pub name: String,
    /// The operation performed.
    pub kind: OperatorKind,
    /// What starts/feeds the node.
    pub input: InputSource,
}

impl OperatorNode {
    /// Creates an operator node.
    pub fn new(
        id: NodeId,
        name: impl Into<String>,
        kind: OperatorKind,
        input: InputSource,
    ) -> Self {
        OperatorNode {
            id,
            name: name.into(),
            kind,
            input,
        }
    }

    /// The producer feeding this node, if it is pipelined.
    pub fn producer(&self) -> Option<NodeId> {
        match self.input {
            InputSource::Trigger => None,
            InputSource::Pipeline { producer } => Some(producer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    fn filter_kind() -> OperatorKind {
        OperatorKind::Filter {
            relation: "R".into(),
            predicate: Predicate::True,
        }
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "op3");
    }

    #[test]
    fn filter_requires_trigger() {
        let k = filter_kind();
        assert!(k.requires_trigger());
        assert!(!k.requires_pipeline());
        assert_eq!(k.associated_relation(), Some("R"));
        assert_eq!(k.name(), "filter");
    }

    #[test]
    fn pipelined_join_routing() {
        let k = OperatorKind::Join {
            outer: OuterInput::Pipeline,
            inner_relation: "A".into(),
            condition: JoinCondition::new("b_key", "a_key"),
            algorithm: JoinAlgorithm::NestedLoop,
        };
        assert!(k.requires_pipeline());
        assert!(!k.requires_trigger());
        assert_eq!(k.routing_column(), Some("b_key"));
    }

    #[test]
    fn triggered_join_has_no_routing() {
        let k = OperatorKind::Join {
            outer: OuterInput::Fragment {
                relation: "A".into(),
            },
            inner_relation: "B".into(),
            condition: JoinCondition::natural("k"),
            algorithm: JoinAlgorithm::Hash,
        };
        assert!(k.requires_trigger());
        assert_eq!(k.routing_column(), None);
        assert_eq!(k.associated_relation(), Some("B"));
    }

    #[test]
    fn store_is_pipelined_without_relation() {
        let k = OperatorKind::Store {
            result_name: "Res".into(),
        };
        assert!(k.requires_pipeline());
        assert_eq!(k.associated_relation(), None);
        assert_eq!(k.routing_column(), None);
    }

    #[test]
    fn join_algorithm_names() {
        assert_eq!(JoinAlgorithm::NestedLoop.name(), "nested-loop");
        assert_eq!(JoinAlgorithm::Hash.name(), "hash");
    }

    #[test]
    fn operator_node_producer() {
        let n = OperatorNode::new(NodeId(1), "filter", filter_kind(), InputSource::Trigger);
        assert_eq!(n.producer(), None);
        let n = OperatorNode::new(
            NodeId(2),
            "store",
            OperatorKind::Store {
                result_name: "Res".into(),
            },
            InputSource::Pipeline {
                producer: NodeId(1),
            },
        );
        assert_eq!(n.producer(), Some(NodeId(1)));
    }
}
