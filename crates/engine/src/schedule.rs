//! The scheduler: fixing `ThreadNb`, `QueueNb` and `CacheSize` for a query
//! (Section 3, Figure 5).
//!
//! The engine runs the first of the paper's four steps: **choosing the
//! number of threads** from the query's estimated complexity (or an explicit
//! request from the caller, as in the paper's experiments which fix the
//! thread count). That count is the width of the pool the query runs on.
//!
//! Steps 2–4 have no counterpart here. Every worker of the shared pool
//! serves every operation, walking one fixed, cost-ordered ring of an
//! operation's queues ([`crate::runtime`]), so there is no per-subquery or
//! per-operation thread count (steps 2–3) and no per-operation consumption
//! strategy (step 4) to read. The simulator (`dbs3_sim`), which models the
//! paper's machine of one pool per operation, runs steps 2–4.

use crate::error::EngineError;
use crate::Result;
use dbs3_lera::{ExtendedPlan, NodeId, Plan, PlanComplexity};
use std::collections::BTreeMap;

/// Execution parameters of one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationSchedule {
    /// Capacity of each activation queue.
    pub queue_capacity: usize,
    /// Producer-side internal cache size (activations per destination before
    /// a flush).
    pub cache_size: usize,
}

/// Default morsel size: fragment rows per control activation when a
/// triggered fragment is split for intra-operator parallelism. Sized so a
/// morsel's working set stays cache-resident while still amortising the
/// queue round-trip over thousands of rows; paper-scale fragments (~1k
/// rows) stay below it and keep their single whole-fragment trigger.
pub const DEFAULT_MORSEL_ROWS: usize = 4_096;

/// Upper bound on the thread count step 1 derives from complexity.
const MAX_DERIVED_THREADS: usize = 64;

/// Estimated work (cost units) step 1 gives one thread before adding
/// another — amortises thread start-up over low-complexity queries.
const WORK_PER_THREAD: f64 = 250_000.0;

/// Execution parameters for a whole plan.
#[derive(Debug, Clone)]
pub struct ExecutionSchedule {
    per_node: BTreeMap<NodeId, OperationSchedule>,
    /// Step 1's answer: the thread count the caller fixed, or the one
    /// derived from the estimated complexity.
    query_threads: usize,
    /// Store operators count result tuples instead of materialising them.
    discard_results: bool,
    /// Fragment rows per morsel for triggered operations
    /// ([`DEFAULT_MORSEL_ROWS`] unless overridden). Fragments at or below
    /// this size keep a single whole-fragment trigger.
    morsel_rows: usize,
}

impl ExecutionSchedule {
    /// Builds a schedule from explicit per-node parameters and the query's
    /// thread count. Results are materialised (see
    /// [`Self::with_discard_results`]).
    pub fn from_parts(per_node: BTreeMap<NodeId, OperationSchedule>, query_threads: usize) -> Self {
        ExecutionSchedule {
            query_threads,
            per_node,
            discard_results: false,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }

    /// Sets the morsel size (fragment rows per control activation) for
    /// triggered operations (clamped to at least 1).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    /// Fragment rows per morsel for triggered operations.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Makes store operators count result tuples instead of materialising
    /// them (cardinalities and metrics stay exact, `results` stays empty).
    pub fn with_discard_results(mut self, discard: bool) -> Self {
        self.discard_results = discard;
        self
    }

    /// Whether store operators only count result tuples.
    pub fn discard_results(&self) -> bool {
        self.discard_results
    }

    /// The schedule of one operation.
    pub fn operation(&self, node: NodeId) -> Result<OperationSchedule> {
        self.per_node
            .get(&node)
            .copied()
            .ok_or(EngineError::IncompleteSchedule { node: node.0 })
    }

    /// The query's thread count (scheduling step 1): the count the caller
    /// fixed with [`SchedulerOptions::total_threads`], or the one derived
    /// from the estimated complexity. It is the width of the pool a query
    /// runs on by default.
    pub fn query_threads(&self) -> usize {
        self.query_threads
    }

    /// All per-node schedules.
    pub fn per_node(&self) -> &BTreeMap<NodeId, OperationSchedule> {
        &self.per_node
    }

    /// Checks the schedule is sane (non-zero capacities and cache sizes
    /// everywhere, and covers every plan node).
    pub fn validate(&self, plan: &Plan) -> Result<()> {
        for node in plan.nodes() {
            let s = self.operation(node.id)?;
            if s.queue_capacity == 0 || s.cache_size == 0 {
                return Err(EngineError::InvalidSchedule(format!(
                    "operation {} has a zero queue capacity or cache size",
                    node.id
                )));
            }
        }
        Ok(())
    }
}

/// Tunables of the scheduler: every setting a caller can vary per query,
/// each settable here and nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Explicit total thread count (the experiments fix this). `None` lets
    /// step 1 derive it from the estimated complexity.
    pub total_threads: Option<usize>,
    /// Capacity of every activation queue.
    pub queue_capacity: usize,
    /// Producer-side internal cache size: tuples per transport batch.
    pub cache_size: usize,
    /// Count result tuples in the store operators instead of materialising
    /// them (for workloads that only need cardinalities and metrics).
    pub discard_results: bool,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            total_threads: None,
            queue_capacity: 1024,
            cache_size: 32,
            discard_results: false,
        }
    }
}

impl SchedulerOptions {
    /// Fixes the total thread count, as the paper's experiments do.
    ///
    /// A zero thread count is kept as-is and rejected by [`Self::validate`]
    /// when the schedule is built — no silent clamping.
    pub fn with_total_threads(mut self, threads: usize) -> Self {
        self.total_threads = Some(threads);
        self
    }

    /// Checks the options are executable before any scheduling work starts.
    ///
    /// Rejected configurations (each would otherwise dead-lock or crash the
    /// engine at run time): an explicit total thread count of zero, a zero
    /// activation-queue capacity and a zero internal cache size.
    pub fn validate(&self) -> Result<()> {
        if self.total_threads == Some(0) {
            return Err(EngineError::InvalidOptions(
                "total_threads must be at least 1".to_string(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(EngineError::InvalidOptions(
                "queue_capacity must be at least 1".to_string(),
            ));
        }
        if self.cache_size == 0 {
            return Err(EngineError::InvalidOptions(
                "cache_size must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// The DBS3 scheduler.
#[derive(Debug, Default)]
pub struct Scheduler;

impl Scheduler {
    /// Builds an execution schedule for a plan (step 1 of Figure 5).
    pub fn build(
        plan: &Plan,
        extended: &ExtendedPlan,
        options: &SchedulerOptions,
    ) -> Result<ExecutionSchedule> {
        options.validate()?;

        // Step 1: total thread count.
        let total_threads = match options.total_threads {
            Some(n) => n,
            None => {
                let complexity = PlanComplexity::from_extended(extended).total();
                let derived = (complexity / WORK_PER_THREAD).ceil() as usize;
                derived.clamp(1, MAX_DERIVED_THREADS)
            }
        };
        let op = OperationSchedule {
            queue_capacity: options.queue_capacity,
            cache_size: options.cache_size,
        };
        let per_node = plan.nodes().iter().map(|node| (node.id, op)).collect();

        let schedule = ExecutionSchedule {
            per_node,
            query_threads: total_threads,
            discard_results: options.discard_results,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        };
        schedule.validate(plan)?;
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_lera::{plans, CostParameters, JoinAlgorithm};
    use dbs3_storage::{
        Catalog, PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator,
    };

    fn catalog() -> Catalog {
        catalog_of(5000, 500, 40)
    }

    fn catalog_of(a_card: usize, b_card: usize, degree: usize) -> Catalog {
        let gen = WisconsinGenerator::new();
        let a = gen.generate(&WisconsinConfig::narrow("A", a_card)).unwrap();
        let b = gen
            .generate(&WisconsinConfig::narrow("Bprime", b_card))
            .unwrap();
        let mut cat = Catalog::new();
        let spec = PartitionSpec::on("unique1", degree, 4);
        cat.register(PartitionedRelation::from_relation(&a, spec.clone()).unwrap())
            .unwrap();
        cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
            .unwrap();
        cat
    }

    fn extended(cat: &Catalog, plan: &Plan) -> ExtendedPlan {
        ExtendedPlan::from_plan(plan, cat, &CostParameters::default()).unwrap()
    }

    #[test]
    fn derived_thread_count_scales_with_complexity() {
        let cat = catalog_of(20_000, 2_000, 20);
        let small = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let big = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let derive = |plan: &Plan| {
            let ext = extended(&cat, plan);
            let expected =
                (PlanComplexity::from_extended(&ext).total() / WORK_PER_THREAD).ceil() as usize;
            let schedule = Scheduler::build(plan, &ext, &SchedulerOptions::default()).unwrap();
            assert_eq!(
                schedule.query_threads(),
                expected.clamp(1, MAX_DERIVED_THREADS)
            );
            schedule.query_threads()
        };
        assert!(derive(&big) > derive(&small));
        // An explicit count is step 1's answer verbatim.
        let one = Scheduler::build(
            &small,
            &extended(&cat, &small),
            &SchedulerOptions::default().with_total_threads(1),
        )
        .unwrap();
        assert_eq!(one.query_threads(), 1);
    }

    #[test]
    fn missing_operation_is_an_error() {
        let schedule = ExecutionSchedule::from_parts(BTreeMap::new(), 1);
        assert!(matches!(
            schedule.operation(NodeId(0)),
            Err(EngineError::IncompleteSchedule { node: 0 })
        ));
    }

    #[test]
    fn validate_rejects_zero_queue_capacity_in_parts() {
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let mut per_node = BTreeMap::new();
        for node in plan.nodes() {
            per_node.insert(
                node.id,
                OperationSchedule {
                    queue_capacity: 0,
                    cache_size: 4,
                },
            );
        }
        let schedule = ExecutionSchedule::from_parts(per_node, 2);
        assert!(matches!(
            schedule.validate(&plan),
            Err(EngineError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn build_rejects_zero_total_threads() {
        let cat = catalog();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let ext = extended(&cat, &plan);
        let err = Scheduler::build(
            &plan,
            &ext,
            &SchedulerOptions::default().with_total_threads(0),
        )
        .unwrap_err();
        assert!(
            matches!(&err, EngineError::InvalidOptions(msg) if msg.contains("total_threads")),
            "got {err:?}"
        );
    }

    #[test]
    fn build_rejects_zero_cache_size() {
        let cat = catalog();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let ext = extended(&cat, &plan);
        let options = SchedulerOptions {
            cache_size: 0,
            ..SchedulerOptions::default().with_total_threads(4)
        };
        let err = Scheduler::build(&plan, &ext, &options).unwrap_err();
        assert!(
            matches!(&err, EngineError::InvalidOptions(msg) if msg.contains("cache_size")),
            "got {err:?}"
        );
    }

    #[test]
    fn validate_rejects_zero_queue_capacity() {
        let zero_capacity = SchedulerOptions {
            queue_capacity: 0,
            ..SchedulerOptions::default()
        };
        assert!(matches!(
            zero_capacity.validate(),
            Err(EngineError::InvalidOptions(_))
        ));
        assert!(SchedulerOptions::default().validate().is_ok());
    }

    #[test]
    fn morsel_rows_default_and_schedule_override() {
        let cat = catalog();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let ext = extended(&cat, &plan);
        let derived = Scheduler::build(
            &plan,
            &ext,
            &SchedulerOptions::default().with_total_threads(4),
        )
        .unwrap();
        assert_eq!(derived.morsel_rows(), DEFAULT_MORSEL_ROWS);
        assert_eq!(derived.clone().with_morsel_rows(512).morsel_rows(), 512);
        assert_eq!(derived.with_morsel_rows(0).morsel_rows(), 1);
        let manual = ExecutionSchedule::from_parts(BTreeMap::new(), 1);
        assert_eq!(manual.morsel_rows(), DEFAULT_MORSEL_ROWS);
    }

    #[test]
    fn with_helpers_adjust_schedule() {
        let cat = catalog();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let ext = extended(&cat, &plan);
        let schedule = Scheduler::build(
            &plan,
            &ext,
            &SchedulerOptions::default().with_total_threads(4),
        )
        .unwrap();
        assert!(!schedule.discard_results());
        let adjusted = schedule
            .clone()
            .with_discard_results(true)
            .with_morsel_rows(7);
        assert!(adjusted.discard_results());
        assert_eq!(adjusted.morsel_rows(), 7);
        // The per-operation plan and step 1's answer are untouched.
        assert_eq!(adjusted.per_node(), schedule.per_node());
        assert_eq!(adjusted.query_threads(), 4);
    }
}
