//! Consumption strategies and scheduling step 4, as the simulator models
//! them.
//!
//! Within an operation, the paper's threads pick the next activation queue
//! by one of two strategies (Section 3):
//!
//! * `Random` (default): the thread randomly chooses one queue among the
//!   non-empty ones.
//! * `LPT` (Longest Processing Time first): the thread chooses the queue with
//!   the most expensive activations, based on static fragment-size estimates
//!   — the heuristic recommended for skewed triggered operations.
//!
//! Step 4 of the scheduler picks one per operation: LPT for triggered
//! operations over skewed fragments, Random otherwise. The simulator replays
//! that choice on the modelled KSR1; [`crate::SimConfig::with_strategy`]
//! forces one strategy everywhere instead. The real engine has no strategy:
//! its workers walk one fixed, cost-ordered ring of queues.

use dbs3_lera::{ActivationKind, ExtendedPlan, NodeId};

/// Skew factor (max instance cost / average instance cost) above which
/// step 4 switches a triggered operation from Random to LPT.
const LPT_SKEW_THRESHOLD: f64 = 3.0;

/// How a thread picks the next queue to consume from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsumptionStrategy {
    /// Pick a random non-empty queue (the paper's default).
    #[default]
    Random,
    /// Pick the non-empty queue with the largest estimated remaining cost
    /// ("Longest Processing Time first", Graham 1969).
    Lpt,
}

impl ConsumptionStrategy {
    /// Human-readable name for metrics and experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ConsumptionStrategy::Random => "random",
            ConsumptionStrategy::Lpt => "lpt",
        }
    }
}

/// Scheduling step 4: LPT for skewed triggered operations, Random otherwise.
pub(crate) fn pick_strategy(extended: &ExtendedPlan, node: NodeId) -> ConsumptionStrategy {
    let Some(op) = extended.operation(node) else {
        return ConsumptionStrategy::Random;
    };
    if op.activation_kind != ActivationKind::Control || op.instance_count() == 0 {
        // Pipelined operations are naturally insensitive to skew
        // (Section 4.1): Random is fine and cheaper.
        return ConsumptionStrategy::Random;
    }
    let costs = op.instances().iter().map(|i| i.estimated_cost);
    let max = costs.clone().fold(f64::MIN, f64::max);
    let avg = costs.sum::<f64>() / op.instance_count() as f64;
    if avg > 0.0 && max / avg > LPT_SKEW_THRESHOLD {
        ConsumptionStrategy::Lpt
    } else {
        ConsumptionStrategy::Random
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::tests::catalog;
    use crate::SimConfig;
    use dbs3_lera::{plans, CostParameters, JoinAlgorithm};

    /// The extended view of a nested-loop IdealJoin over a 40-fragment
    /// catalog with Zipf(`theta`) fragment sizes.
    fn ideal_join(theta: f64) -> ExtendedPlan {
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let cat = catalog(5000, 500, 40, theta);
        ExtendedPlan::from_plan(&plan, &cat, &CostParameters::default()).unwrap()
    }

    #[test]
    fn strategy_names() {
        assert_eq!(ConsumptionStrategy::Random.name(), "random");
        assert_eq!(ConsumptionStrategy::Lpt.name(), "lpt");
        assert_eq!(ConsumptionStrategy::default(), ConsumptionStrategy::Random);
    }

    #[test]
    fn skewed_triggered_join_gets_lpt() {
        let ext = ideal_join(1.0);
        assert_eq!(pick_strategy(&ext, NodeId(0)), ConsumptionStrategy::Lpt);
        // The store below the join is fed by data activations.
        assert_eq!(pick_strategy(&ext, NodeId(1)), ConsumptionStrategy::Random);
    }

    #[test]
    fn unskewed_join_keeps_random() {
        let ext = ideal_join(0.0);
        assert_eq!(pick_strategy(&ext, NodeId(0)), ConsumptionStrategy::Random);
    }

    #[test]
    fn strategy_override_wins() {
        let ext = ideal_join(1.0);
        let forced = SimConfig::ksr1().with_strategy(ConsumptionStrategy::Random);
        assert_eq!(
            forced.strategy_for(&ext, NodeId(0)),
            ConsumptionStrategy::Random
        );
        assert_eq!(
            SimConfig::ksr1().strategy_for(&ext, NodeId(0)),
            ConsumptionStrategy::Lpt
        );
    }
}
