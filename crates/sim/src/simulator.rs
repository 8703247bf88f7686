//! Pipeline-aware list-scheduling simulation of an extended plan.
//!
//! The simulator models exactly the execution structure of the engine:
//!
//! * every operation has one activation per fragment (triggered) or one per
//!   pipelined tuple (data), with a cost from [`crate::cost::SimCostParams`];
//! * every operation has its own pool of virtual workers. The query's
//!   thread count is step 1's, from the same [`dbs3_engine::Scheduler`] the
//!   real engine uses; scheduling steps 2–3 then split it over subqueries
//!   and over the operations of each chain (`operation_threads`), which
//!   only this machine model reads;
//! * a triggered operation's activations are all available at start; the
//!   pool consumes them in the order dictated by the paper's consumption
//!   strategy (`Random` or `LPT`, picked per operation by scheduling step 4
//!   or forced by [`SimConfig::with_strategy`]; see [`crate::strategy`]),
//!   each activation going to the earliest-free worker — which is precisely
//!   what shared activation queues achieve;
//! * a pipelined operation's activations are *released* over time, as the
//!   producer instances stream their tuples; they are consumed in release
//!   order by the earliest-free worker of the consumer pool;
//! * with [`WorkerAssignment::StaticPerInstance`] the earliest-free-worker
//!   rule is replaced by a fixed instance→worker binding, which models the
//!   conventional "one thread per operation instance" execution model the
//!   paper improves upon (the ablation baseline);
//! * start-up time grows with the number of queues and threads, and running
//!   more threads than processors dilates every activation (time sharing).
//!
//! `Store` operations are folded into their producers (the paper's
//! experiment plans write result fragments directly from the join
//! instances), so the simulated plans have the same activation counts as the
//! plans of Figures 10 and 11.

use crate::allcache::{AllcacheParams, DataPlacement};
use crate::cost::SimCostParams;
use crate::report::{OperationReport, SimReport};
use crate::strategy::{pick_strategy, ConsumptionStrategy};
use crate::{Result, SimError};
use dbs3_engine::{Scheduler, SchedulerOptions};
use dbs3_lera::{
    CostParameters, ExtendedPlan, JoinAlgorithm, NodeId, OperatorKind, OuterInput, Plan,
    PlanComplexity, SubqueryDecomposition,
};
use dbs3_model::{allocate_chain, allocate_subqueries, SubqueryNode};
use dbs3_storage::Catalog;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// How activations are assigned to the workers of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerAssignment {
    /// The DBS3 model: queues are shared, any worker of the pool may take
    /// any activation (modelled as "earliest-free worker").
    #[default]
    SharedQueues,
    /// The conventional model: each operation instance is bound to one
    /// worker (`instance mod threads`) and no stealing happens.
    StaticPerInstance,
}

/// The simulated machine, and the consumption strategy its threads use.
/// What the query asks for — its thread count — comes from the
/// [`SchedulerOptions`] passed to [`Simulator::simulate`], exactly as on the
/// real engine.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of physical processors (KSR1: 72; the experiments reserve 70).
    pub processors: usize,
    /// Shared queues (adaptive) or static per-instance binding (baseline).
    pub assignment: WorkerAssignment,
    /// Where base data resides relative to the executing processors.
    pub placement: DataPlacement,
    /// The activation cost model.
    pub costs: SimCostParams,
    /// The Allcache memory model.
    pub allcache: AllcacheParams,
    /// Seed of the Random strategy's shuffles.
    pub seed: u64,
    /// The consumption strategy of every operation. `None` lets scheduling
    /// step 4 pick per operation: LPT for skewed triggered operations,
    /// Random otherwise.
    pub strategy: Option<ConsumptionStrategy>,
    /// Grain of parallelism for *triggered* joins: when set, each
    /// co-partitioned join activation is split into sub-activations of at
    /// most this many outer tuples.
    ///
    /// This implements the paper's stated future work ("allowing the choice
    /// of the grain of parallelism independent of the operation semantics",
    /// Section 6): a coarse grain (`None`, one activation per fragment) has
    /// minimal overhead but suffers from skew; a fine grain behaves like a
    /// pipelined operation — insensitive to skew at the price of one
    /// activation-handling overhead per sub-activation.
    pub triggered_granule: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processors: 70,
            assignment: WorkerAssignment::SharedQueues,
            placement: DataPlacement::Local,
            costs: SimCostParams::default(),
            allcache: AllcacheParams::default(),
            seed: 0xD857,
            strategy: None,
            triggered_granule: None,
        }
    }
}

impl SimConfig {
    /// The calibrated KSR1 configuration of the paper's evaluation: 70 of
    /// the 72 processors reserved, local data placement, shared queues and
    /// the default cost model calibrated against the paper's sequential
    /// times. This is the configuration every experiment starts from, named
    /// so call sites read as "simulate the paper's machine".
    pub fn ksr1() -> Self {
        Self::default()
    }

    /// Selects the static one-thread-per-instance baseline.
    pub fn with_static_baseline(mut self) -> Self {
        self.assignment = WorkerAssignment::StaticPerInstance;
        self
    }

    /// Sets the data placement (Allcache experiment).
    pub fn with_placement(mut self, placement: DataPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Splits triggered join activations into sub-activations of at most
    /// `outer_tuples` outer tuples (the grain-of-parallelism extension).
    pub fn with_triggered_granule(mut self, outer_tuples: usize) -> Self {
        self.triggered_granule = Some(outer_tuples.max(1));
        self
    }

    /// Forces one consumption strategy for every operation instead of
    /// letting scheduling step 4 pick per operation.
    pub fn with_strategy(mut self, strategy: ConsumptionStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// The strategy operation `node` is consumed with: the forced one, or
    /// step 4's pick.
    pub(crate) fn strategy_for(
        &self,
        extended: &ExtendedPlan,
        node: NodeId,
    ) -> ConsumptionStrategy {
        self.strategy
            .unwrap_or_else(|| pick_strategy(extended, node))
    }
}

/// Scheduling steps 2–3 (Section 3, Figure 5): the threads of each
/// operation's pool on the modelled machine, from the query's thread count.
///
/// 2. **Assigning the threads to subqueries** bottom-up over the subquery
///    tree, proportionally to sequential complexity
///    ([`dbs3_model::allocate_subqueries`]).
/// 3. **Assigning the threads of each chain to its operations** by
///    complexity ratio ([`dbs3_model::allocate_chain`]).
///
/// Every operation gets at least one thread, so the counts can sum to more
/// than `query_threads`.
fn operation_threads(
    plan: &Plan,
    extended: &ExtendedPlan,
    query_threads: usize,
) -> Result<HashMap<NodeId, usize>> {
    let complexity = PlanComplexity::from_extended(extended);
    let decomposition = SubqueryDecomposition::decompose(plan)?;

    // Step 2: threads per subquery. Independent chains become children of
    // a synthetic root whose own complexity is zero, which reproduces the
    // paper's proportional split between sibling subqueries.
    let chain_threads: Vec<usize> = if decomposition.len() == 1 {
        vec![query_threads]
    } else {
        let children: Vec<SubqueryNode> = decomposition
            .subqueries()
            .iter()
            .map(|sq| SubqueryNode::leaf(sq.id, sq.complexity(&complexity)))
            .collect();
        let root_id = decomposition.len(); // unused id for the synthetic root
        let tree = SubqueryNode::node(root_id, 0.0, children);
        let alloc = allocate_subqueries(&tree, query_threads);
        decomposition
            .subqueries()
            .iter()
            .map(|sq| alloc.integral_threads_of(sq.id).unwrap_or(1))
            .collect()
    };

    // Step 3: threads per operation within each chain.
    let mut per_node = HashMap::new();
    for (sq, &threads) in decomposition.subqueries().iter().zip(&chain_threads) {
        let op_complexities: Vec<f64> = sq.nodes.iter().map(|n| complexity.node(*n)).collect();
        let shares = allocate_chain(threads, &op_complexities);
        per_node.extend(sq.nodes.iter().copied().zip(shares));
    }
    Ok(per_node)
}

/// One simulated activation.
#[derive(Debug, Clone)]
struct SimActivation {
    /// Instance (queue) the activation belongs to.
    instance: usize,
    /// Virtual time at which the activation becomes available.
    release: f64,
    /// Processing cost (undilated µs).
    cost: f64,
    /// Start time assigned by the pool simulation (filled in).
    start: f64,
}

/// Activations prepared for a pipelined consumer by its producer.
#[derive(Debug, Default)]
struct PendingPipeline {
    activations: Vec<SimActivation>,
    /// Exact number of join matches the consumer will produce (counted over
    /// the actual tuples; used for reporting only, never for costs).
    tuples_out: usize,
}

/// The virtual-time simulator.
#[derive(Debug)]
pub struct Simulator<'a> {
    catalog: &'a Catalog,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Simulator { catalog }
    }

    /// Simulates the execution of `plan` on the machine `config`, scheduled
    /// by the engine's [`Scheduler`] under `options`. The query's thread
    /// count is the schedule's [`query_threads`]: the count `options` fixes,
    /// or the one step 1 derives from the estimated complexity. Steps 2–3
    /// then size each operation's pool from it.
    ///
    /// [`query_threads`]: dbs3_engine::ExecutionSchedule::query_threads
    pub fn simulate(
        &self,
        plan: &Plan,
        config: &SimConfig,
        options: &SchedulerOptions,
    ) -> Result<SimReport> {
        if options.total_threads == Some(0) || config.processors == 0 {
            return Err(SimError::InvalidConfig(
                "total_threads and processors must be at least 1".to_string(),
            ));
        }
        let extended = ExtendedPlan::from_plan(plan, self.catalog, &CostParameters::default())?;
        let schedule = Scheduler::build(plan, &extended, options)?;
        let threads = schedule.query_threads();
        let op_threads = operation_threads(plan, &extended, threads)?;
        let dilation = (threads as f64 / config.processors as f64).max(1.0);

        // Start-up cost: queue creation for every non-store operation plus
        // thread start-up.
        let mut control_queues = 0usize;
        let mut data_queues = 0usize;
        for node in plan.nodes() {
            if matches!(node.kind, OperatorKind::Store { .. }) {
                continue;
            }
            let count = extended
                .operation(node.id)
                .map(|op| op.instance_count())
                .unwrap_or(0);
            if node.kind.requires_pipeline() {
                data_queues += count;
            } else {
                control_queues += count;
            }
        }
        // The modelled machine starts one pool per operation, so every
        // operation's thread (steps 2–3, each at least 1) is paid for.
        let pool_threads: usize = op_threads.values().sum();
        let startup_us = config
            .costs
            .startup_us(control_queues, data_queues, pool_threads);

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut reports: Vec<OperationReport> = Vec::new();
        let mut pending: HashMap<NodeId, PendingPipeline> = HashMap::new();
        let mut execution_us: f64 = 0.0;
        let mut sequential_work_us: f64 = 0.0;

        for id in plan.topological_order()? {
            let node = plan.node(id)?;
            if matches!(node.kind, OperatorKind::Store { .. }) {
                continue;
            }
            // Store operations are folded into their producers (the paper's
            // plans write result fragments directly from the join
            // instances), so the threads steps 2–3 reserved for a store are
            // credited back to the producer's pool.
            let store_threads: usize = plan
                .consumer(id)
                .and_then(|c| plan.node(c).ok())
                .filter(|c| matches!(c.kind, OperatorKind::Store { .. }))
                .and_then(|c| op_threads.get(&c.id).copied())
                .unwrap_or(0);
            let pool_threads = (op_threads[&id] + store_threads).min(threads);

            let (mut activations, tuples_out) =
                self.build_activations(plan, id, config, threads, &mut pending)?;
            let total_work: f64 = activations.iter().map(|a| a.cost).sum();
            let max_activation = activations.iter().map(|a| a.cost).fold(0.0, f64::max);
            sequential_work_us += total_work;

            let (completion, busy_us) = simulate_pool(
                &mut activations,
                pool_threads,
                config.strategy_for(&extended, id),
                config.assignment,
                dilation,
                &mut rng,
            );
            execution_us = execution_us.max(completion);

            // If this operation feeds a pipelined consumer, derive the
            // consumer's activations (with release times) from the producer's
            // per-instance start times and the actual tuples.
            if let Some(consumer_id) = plan.consumer(id) {
                let consumer = plan.node(consumer_id)?;
                if matches!(
                    consumer.kind,
                    OperatorKind::Join {
                        outer: OuterInput::Pipeline,
                        ..
                    }
                ) {
                    let produced = self.build_pipeline_activations(
                        plan,
                        id,
                        consumer_id,
                        &activations,
                        config,
                        threads,
                    )?;
                    pending.insert(consumer_id, produced);
                }
            }

            reports.push(OperationReport {
                node: id,
                name: node.name.clone(),
                threads: pool_threads,
                activations: activations.len(),
                tuples_out,
                total_work_us: total_work,
                max_activation_us: max_activation,
                completion_us: completion,
                busy_us,
            });
        }

        Ok(SimReport {
            threads,
            startup_us,
            execution_us,
            sequential_work_us,
            operations: reports,
        })
    }

    /// Builds the activation list of one operation, together with the exact
    /// number of output tuples the operation produces. The output count is
    /// computed over the actual stored tuples and feeds reporting only —
    /// activation *costs* still use the estimates the scheduler sees, so
    /// virtual times are unchanged. `threads` is the query's thread count,
    /// which sizes each thread's share of the Allcache.
    fn build_activations(
        &self,
        plan: &Plan,
        id: NodeId,
        config: &SimConfig,
        threads: usize,
        pending: &mut HashMap<NodeId, PendingPipeline>,
    ) -> Result<(Vec<SimActivation>, usize)> {
        let node = plan.node(id)?;
        let consumer_is_store = plan
            .consumer(id)
            .and_then(|c| plan.node(c).ok())
            .map(|c| matches!(c.kind, OperatorKind::Store { .. }))
            .unwrap_or(false);
        let costs = &config.costs;

        match &node.kind {
            OperatorKind::Filter {
                relation,
                predicate,
            } => {
                let rel = self.catalog.get(relation)?;
                let bound = predicate.bind(relation, rel.schema())?;
                let access = config.allcache.access_us_per_tuple(
                    config.placement,
                    rel.cardinality() as u64,
                    threads,
                );
                let per_emitted = if consumer_is_store {
                    costs.store_tuple_us
                } else {
                    costs.move_tuple_us
                };
                let mut activations = Vec::new();
                let mut tuples_out = 0usize;
                for frag in rel.fragments() {
                    let selected = frag.tuples().iter().filter(|t| bound.eval(t)).count();
                    tuples_out += selected;
                    activations.push(SimActivation {
                        instance: frag.id(),
                        release: 0.0,
                        cost: costs.activation_overhead_us
                            + frag.cardinality() as f64 * (costs.scan_tuple_us + access)
                            + selected as f64 * per_emitted,
                        start: 0.0,
                    });
                }
                Ok((activations, tuples_out))
            }
            OperatorKind::Transmit { relation, .. } => {
                let rel = self.catalog.get(relation)?;
                let access = config.allcache.access_us_per_tuple(
                    config.placement,
                    rel.cardinality() as u64,
                    threads,
                );
                let activations = rel
                    .fragments()
                    .iter()
                    .map(|frag| SimActivation {
                        instance: frag.id(),
                        release: 0.0,
                        cost: costs.activation_overhead_us
                            + frag.cardinality() as f64
                                * (costs.scan_tuple_us + access + costs.move_tuple_us),
                        start: 0.0,
                    })
                    .collect();
                Ok((activations, rel.cardinality()))
            }
            OperatorKind::Join {
                outer,
                inner_relation,
                condition,
                algorithm,
            } => {
                let inner = self.catalog.get(inner_relation)?;
                match outer {
                    OuterInput::Fragment { relation } => {
                        let outer_rel = self.catalog.get(relation)?;
                        let mut activations = Vec::new();
                        for (i, (&oc, ic)) in outer_rel
                            .fragment_cardinalities()
                            .iter()
                            .zip(inner.fragment_cardinalities())
                            .enumerate()
                        {
                            // Grain of parallelism: split the fragment's
                            // outer tuples into sub-activations of at most
                            // `granule` tuples. `None` keeps the paper's one
                            // activation per fragment.
                            let granule = config.triggered_granule.unwrap_or(oc.max(1)).max(1);
                            let mut remaining = oc;
                            loop {
                                let chunk = remaining.min(granule).max(if oc == 0 { 0 } else { 1 });
                                let output = ((chunk as f64 / oc.max(1) as f64) * oc.min(ic) as f64)
                                    .round() as usize;
                                activations.push(SimActivation {
                                    instance: i,
                                    release: 0.0,
                                    cost: costs.triggered_join_activation_us(
                                        chunk, ic, output, *algorithm,
                                    ),
                                    start: 0.0,
                                });
                                if remaining <= granule {
                                    break;
                                }
                                remaining -= granule;
                            }
                        }
                        let tuples_out = exact_cofragment_matches(
                            &outer_rel,
                            &inner,
                            &condition.outer_column,
                            &condition.inner_column,
                        )?;
                        Ok((activations, tuples_out))
                    }
                    OuterInput::Pipeline => {
                        let produced = pending.remove(&id).ok_or_else(|| {
                            SimError::Plan(format!(
                                "pipelined operation {id} has no pending activations"
                            ))
                        })?;
                        let mut activations = produced.activations;
                        // Index / hash-table builds happen once per instance,
                        // at operation start.
                        if !matches!(algorithm, JoinAlgorithm::NestedLoop) {
                            for (i, &card) in inner.fragment_cardinalities().iter().enumerate() {
                                activations.push(SimActivation {
                                    instance: i,
                                    release: 0.0,
                                    cost: costs.pipelined_build_us(card, *algorithm),
                                    start: 0.0,
                                });
                            }
                        }
                        Ok((activations, produced.tuples_out))
                    }
                }
            }
            OperatorKind::Store { .. } => Ok((Vec::new(), 0)),
        }
    }

    /// Builds the data activations a producer streams into a pipelined join,
    /// with per-tuple release times derived from the producer's simulated
    /// per-instance start times.
    fn build_pipeline_activations(
        &self,
        plan: &Plan,
        producer_id: NodeId,
        consumer_id: NodeId,
        producer_activations: &[SimActivation],
        config: &SimConfig,
        threads: usize,
    ) -> Result<PendingPipeline> {
        let producer = plan.node(producer_id)?;
        let consumer = plan.node(consumer_id)?;
        let costs = &config.costs;

        let OperatorKind::Join {
            inner_relation,
            condition,
            algorithm,
            ..
        } = &consumer.kind
        else {
            return Ok(PendingPipeline::default());
        };
        let inner = self.catalog.get(inner_relation)?;
        let inner_cards = inner.fragment_cardinalities();
        // Wisconsin join keys are unique on the inner side, so every probe
        // finds exactly one match regardless of what consumes the join; the
        // *cost* model keeps that calibrated assumption, while the reported
        // output cardinality below is counted exactly.
        let matches_per_probe = 1;
        let inner_col = inner.schema().column_index(&condition.inner_column)?;
        let match_counts: Vec<HashMap<&dbs3_storage::Value, usize>> = inner
            .fragments()
            .iter()
            .map(|frag| {
                let mut counts = HashMap::new();
                for t in frag.tuples() {
                    *counts.entry(t.value(inner_col)).or_insert(0) += 1;
                }
                counts
            })
            .collect();
        let mut tuples_out = 0usize;

        // Column of the producer's output tuples used for routing.
        let producer_schema = plan.output_schema(producer_id, self.catalog)?;
        let routing_column = consumer
            .kind
            .routing_column()
            .ok_or_else(|| SimError::Plan("pipelined join without a routing column".to_string()))?;
        let route_index = producer_schema
            .column_index(routing_column)
            .map_err(|e| SimError::Storage(e.to_string()))?;

        // Per-instance start times of the producer.
        let mut start_of_instance: HashMap<usize, f64> = HashMap::new();
        for a in producer_activations {
            start_of_instance
                .entry(a.instance)
                .and_modify(|s| *s = s.min(a.start))
                .or_insert(a.start);
        }

        let mut activations = Vec::new();
        match &producer.kind {
            OperatorKind::Filter {
                relation,
                predicate,
            } => {
                let rel = self.catalog.get(relation)?;
                let bound = predicate.bind(relation, rel.schema())?;
                let access = config.allcache.access_us_per_tuple(
                    config.placement,
                    rel.cardinality() as u64,
                    threads,
                );
                for frag in rel.fragments() {
                    let mut t = *start_of_instance.get(&frag.id()).unwrap_or(&0.0);
                    for tuple in frag.tuples() {
                        t += costs.scan_tuple_us + access;
                        if bound.eval(tuple) {
                            t += costs.move_tuple_us;
                            let target =
                                (tuple.hash_key(&[route_index]) % inner.degree() as u64) as usize;
                            tuples_out += match_counts[target]
                                .get(tuple.value(route_index))
                                .copied()
                                .unwrap_or(0);
                            activations.push(SimActivation {
                                instance: target,
                                release: t,
                                cost: costs.pipelined_probe_us(
                                    inner_cards[target],
                                    matches_per_probe,
                                    *algorithm,
                                ),
                                start: 0.0,
                            });
                        }
                    }
                }
            }
            OperatorKind::Transmit { relation, .. } => {
                let rel = self.catalog.get(relation)?;
                let access = config.allcache.access_us_per_tuple(
                    config.placement,
                    rel.cardinality() as u64,
                    threads,
                );
                for frag in rel.fragments() {
                    let mut t = *start_of_instance.get(&frag.id()).unwrap_or(&0.0);
                    for tuple in frag.tuples() {
                        t += costs.scan_tuple_us + access + costs.move_tuple_us;
                        let target =
                            (tuple.hash_key(&[route_index]) % inner.degree() as u64) as usize;
                        tuples_out += match_counts[target]
                            .get(tuple.value(route_index))
                            .copied()
                            .unwrap_or(0);
                        activations.push(SimActivation {
                            instance: target,
                            release: t,
                            cost: costs.pipelined_probe_us(
                                inner_cards[target],
                                matches_per_probe,
                                *algorithm,
                            ),
                            start: 0.0,
                        });
                    }
                }
            }
            _ => {
                return Err(SimError::Plan(
                    "only filter and transmit producers can feed a pipelined join".to_string(),
                ))
            }
        }
        Ok(PendingPipeline {
            activations,
            tuples_out,
        })
    }
}

/// Exact number of join matches between co-partitioned fragments, counted
/// over the actual stored tuples (one hash pass per fragment pair). Used for
/// reporting only — activation costs keep the scheduler's estimates.
fn exact_cofragment_matches(
    outer: &dbs3_storage::PartitionedRelation,
    inner: &dbs3_storage::PartitionedRelation,
    outer_column: &str,
    inner_column: &str,
) -> Result<usize> {
    let outer_col = outer.schema().column_index(outer_column)?;
    let inner_col = inner.schema().column_index(inner_column)?;
    let mut matches = 0usize;
    for (of, inf) in outer.fragments().iter().zip(inner.fragments()) {
        let mut counts: HashMap<&dbs3_storage::Value, usize> = HashMap::new();
        for t in inf.tuples() {
            *counts.entry(t.value(inner_col)).or_insert(0) += 1;
        }
        for t in of.tuples() {
            matches += counts.get(t.value(outer_col)).copied().unwrap_or(0);
        }
    }
    Ok(matches)
}

/// Simulates one operation pool: assigns every activation a start time and
/// returns the completion time of the pool together with the virtual busy
/// time each worker accumulated (dilated µs).
fn simulate_pool(
    activations: &mut [SimActivation],
    threads: usize,
    strategy: ConsumptionStrategy,
    assignment: WorkerAssignment,
    dilation: f64,
    rng: &mut StdRng,
) -> (f64, Vec<f64>) {
    let threads = threads.max(1);
    if activations.is_empty() {
        return (0.0, vec![0.0; threads]);
    }

    // Decide the consumption order.
    let mut order: Vec<usize> = (0..activations.len()).collect();
    let all_immediate = activations.iter().all(|a| a.release == 0.0);
    if all_immediate {
        match strategy {
            ConsumptionStrategy::Lpt => order.sort_by(|&a, &b| {
                activations[b]
                    .cost
                    .partial_cmp(&activations[a].cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }),
            ConsumptionStrategy::Random => order.shuffle(rng),
        }
    } else {
        order.sort_by(|&a, &b| {
            activations[a]
                .release
                .partial_cmp(&activations[b].release)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    let mut completion: f64 = 0.0;
    let mut busy = vec![0.0f64; threads];
    match assignment {
        WorkerAssignment::SharedQueues => {
            // Min-heap of (worker free time, worker id), keyed on bit-ordered
            // f64 so the earliest-free worker takes the next activation.
            let mut heap: BinaryHeap<Reverse<(OrderedF64, usize)>> = (0..threads)
                .map(|w| Reverse((OrderedF64(0.0), w)))
                .collect();
            for idx in order {
                let Reverse((OrderedF64(free), worker)) =
                    heap.pop().expect("heap holds `threads` entries");
                let start = free.max(activations[idx].release);
                let end = start + activations[idx].cost * dilation;
                activations[idx].start = start;
                busy[worker] += activations[idx].cost * dilation;
                completion = completion.max(end);
                heap.push(Reverse((OrderedF64(end), worker)));
            }
        }
        WorkerAssignment::StaticPerInstance => {
            let mut free = vec![0.0f64; threads];
            for idx in order {
                let worker = activations[idx].instance % threads;
                let start = free[worker].max(activations[idx].release);
                let end = start + activations[idx].cost * dilation;
                activations[idx].start = start;
                busy[worker] += activations[idx].cost * dilation;
                free[worker] = end;
                completion = completion.max(end);
            }
        }
    }
    (completion, busy)
}

/// `f64` wrapper with a total order for use in the worker heap (all values
/// are finite simulation times).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dbs3_lera::plans;
    use dbs3_lera::Predicate;
    use dbs3_storage::{PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator};

    /// Scheduler options fixing the query's thread count.
    fn threads(n: usize) -> SchedulerOptions {
        SchedulerOptions::default().with_total_threads(n)
    }

    /// Builds an experiment catalog: relation `A` (optionally skewed) and
    /// `Bprime`, both partitioned on `unique1` with the given degree.
    pub(crate) fn catalog(a_card: usize, b_card: usize, degree: usize, theta: f64) -> Catalog {
        let gen = WisconsinGenerator::new();
        let a = gen.generate(&WisconsinConfig::narrow("A", a_card)).unwrap();
        let b = gen
            .generate(&WisconsinConfig::narrow("Bprime", b_card))
            .unwrap();
        let spec = PartitionSpec::on("unique1", degree, 8);
        let mut cat = Catalog::new();
        let a_part = if theta > 0.0 {
            PartitionedRelation::from_relation_with_skew(&a, spec.clone(), theta).unwrap()
        } else {
            PartitionedRelation::from_relation(&a, spec.clone()).unwrap()
        };
        cat.register(a_part).unwrap();
        cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
            .unwrap();
        cat
    }

    /// Steps 2–3's per-operation thread counts for `plan` under a budget.
    fn allocate(cat: &Catalog, plan: &Plan, budget: usize) -> HashMap<NodeId, usize> {
        let ext = ExtendedPlan::from_plan(plan, cat, &CostParameters::default()).unwrap();
        operation_threads(plan, &ext, budget).unwrap()
    }

    #[test]
    fn explicit_thread_count_is_distributed_across_the_chain() {
        let cat = catalog(5_000, 500, 40, 0.0);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
        let threads = allocate(&cat, &plan, 10);
        assert_eq!(threads.values().sum::<usize>(), 10);
        // The join dominates the complexity, so it receives most threads.
        assert!(threads[&NodeId(1)] > threads[&NodeId(0)]);
        assert!(threads[&NodeId(0)] >= 1);
    }

    #[test]
    fn scheduler_respects_thread_budget_across_plans() {
        let cat = catalog(2_000, 200, 10, 0.0);
        for plan in [
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            plans::selection("A", Predicate::one_in("ten", 10), "Out"),
        ] {
            for budget in [1usize, 2, 5, 12] {
                // Every operation gets at least one thread, so the sum only
                // exceeds the budget when the plan has more operations.
                let allocated: usize = allocate(&cat, &plan, budget).values().sum();
                assert_eq!(
                    allocated,
                    budget.max(plan.len()),
                    "plan {} with budget {budget}",
                    plan.name()
                );
            }
        }
    }

    #[test]
    fn unskewed_ideal_join_speeds_up_linearly() {
        let cat = catalog(10_000, 1_000, 200, 0.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let sim = Simulator::new(&cat);
        let r1 = sim
            .simulate(&plan, &SimConfig::default(), &threads(1))
            .unwrap();
        let r10 = sim
            .simulate(&plan, &SimConfig::default(), &threads(10))
            .unwrap();
        let r70 = sim
            .simulate(&plan, &SimConfig::default(), &threads(70))
            .unwrap();
        assert!(r10.total_us() < r1.total_us() / 5.0);
        // Start-up (queues + threads) is significant for this deliberately
        // small database, so assess linearity on the execution span.
        // (The small test fragments have noticeable cardinality variance, so
        // the speed-up is good but not perfectly linear.)
        assert!(
            r70.execution_speedup() > 45.0,
            "speedup(70) = {}",
            r70.execution_speedup()
        );
        assert!(
            r10.execution_speedup() > 7.0,
            "speedup(10) = {}",
            r10.execution_speedup()
        );
    }

    #[test]
    fn skewed_triggered_join_hits_nmax_ceiling() {
        let cat = catalog(10_000, 1_000, 200, 1.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let sim = Simulator::new(&cat);
        let speedup = |n: usize| {
            sim.simulate(
                &plan,
                &SimConfig::default().with_strategy(ConsumptionStrategy::Lpt),
                &threads(n),
            )
            .unwrap()
            .speedup()
        };
        let s10 = speedup(10);
        let s70 = speedup(70);
        // nmax ≈ 6 for Zipf = 1 with 200 fragments: more threads do not help.
        assert!(s10 < 9.0, "speedup(10) = {s10}");
        assert!(
            (s70 - s10).abs() < 2.0,
            "speedup should plateau: {s10} vs {s70}"
        );
    }

    #[test]
    fn pipelined_assoc_join_absorbs_skew() {
        let cat = catalog(10_000, 1_000, 200, 1.0);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
        let sim = Simulator::new(&cat);
        let skewed = sim
            .simulate(&plan, &SimConfig::default(), &threads(10))
            .unwrap();
        let cat0 = catalog(10_000, 1_000, 200, 0.0);
        let sim0 = Simulator::new(&cat0);
        let unskewed = sim0
            .simulate(&plan, &SimConfig::default(), &threads(10))
            .unwrap();
        let overhead = skewed.total_us() / unskewed.total_us() - 1.0;
        assert!(
            overhead.abs() < 0.10,
            "pipelined execution should be (almost) insensitive to skew, got {overhead}"
        );
    }

    #[test]
    fn lpt_beats_random_on_skewed_triggered_join() {
        let cat = catalog(10_000, 1_000, 200, 0.8);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let sim = Simulator::new(&cat);
        let run = |strategy| {
            sim.simulate(
                &plan,
                &SimConfig::default().with_strategy(strategy),
                &threads(10),
            )
            .unwrap()
        };
        let lpt = run(ConsumptionStrategy::Lpt);
        let random = run(ConsumptionStrategy::Random);
        assert!(lpt.total_us() <= random.total_us() * 1.02);
    }

    #[test]
    fn static_baseline_is_slower_under_skew() {
        let cat = catalog(10_000, 1_000, 50, 1.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let sim = Simulator::new(&cat);
        let adaptive = sim
            .simulate(&plan, &SimConfig::default(), &threads(10))
            .unwrap();
        let baseline = sim
            .simulate(
                &plan,
                &SimConfig::default().with_static_baseline(),
                &threads(10),
            )
            .unwrap();
        assert!(
            baseline.total_us() > adaptive.total_us(),
            "static binding cannot rebalance skewed instances"
        );
    }

    #[test]
    fn startup_grows_with_partitioning_degree() {
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let low = catalog(5_000, 500, 20, 0.0);
        let high = catalog(5_000, 500, 400, 0.0);
        let r_low = Simulator::new(&low)
            .simulate(&plan, &SimConfig::default(), &threads(20))
            .unwrap();
        let r_high = Simulator::new(&high)
            .simulate(&plan, &SimConfig::default(), &threads(20))
            .unwrap();
        assert!(r_high.startup_us > r_low.startup_us);
        // Roughly 0.45 ms per extra fragment for a triggered join.
        let per_degree_ms = (r_high.startup_us - r_low.startup_us) / 1e3 / 380.0;
        assert!(
            (per_degree_ms - 0.45).abs() < 0.1,
            "got {per_degree_ms} ms/degree"
        );
    }

    #[test]
    fn remote_placement_slower_by_a_few_percent() {
        let gen = WisconsinGenerator::new();
        let a = gen
            .generate(&WisconsinConfig::narrow("DewittA", 20_000))
            .unwrap();
        let mut cat = Catalog::new();
        cat.register(
            PartitionedRelation::from_relation(&a, PartitionSpec::on("unique1", 64, 8)).unwrap(),
        )
        .unwrap();
        let plan = plans::selection("DewittA", Predicate::range("unique1", 0, 10_000), "Out");
        let sim = Simulator::new(&cat);
        let local = sim
            .simulate(&plan, &SimConfig::default(), &threads(20))
            .unwrap();
        let remote = sim
            .simulate(
                &plan,
                &SimConfig::default().with_placement(DataPlacement::Remote),
                &threads(20),
            )
            .unwrap();
        let overhead = remote.total_us() / local.total_us() - 1.0;
        assert!(overhead > 0.0);
        assert!(
            overhead < 0.10,
            "remote overhead should be a few percent, got {overhead}"
        );
    }

    #[test]
    fn more_threads_than_processors_do_not_help() {
        let cat = catalog(10_000, 1_000, 200, 0.0);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
        let sim = Simulator::new(&cat);
        let at_70 = sim
            .simulate(&plan, &SimConfig::default(), &threads(70))
            .unwrap();
        let at_100 = sim
            .simulate(&plan, &SimConfig::default(), &threads(100))
            .unwrap();
        assert!(at_100.speedup() <= at_70.speedup() + 1.0);
    }

    #[test]
    fn fine_granule_absorbs_skew_of_triggered_join() {
        // The grain-of-parallelism extension (paper Section 6, future work):
        // splitting the skewed fragments' activations into sub-activations
        // recovers most of the time lost to the longest activation.
        let cat = catalog(10_000, 1_000, 50, 1.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let sim = Simulator::new(&cat);
        let lpt = SimConfig::default().with_strategy(ConsumptionStrategy::Lpt);
        let coarse = sim.simulate(&plan, &lpt, &threads(20)).unwrap();
        let fine = sim
            .simulate(&plan, &lpt.with_triggered_granule(50), &threads(20))
            .unwrap();
        assert!(
            fine.execution_us < coarse.execution_us * 0.7,
            "fine grain {} should beat coarse grain {} on skewed data",
            fine.execution_us,
            coarse.execution_us
        );
        // The total work only grows by the extra per-activation overhead.
        assert!(fine.sequential_work_us < coarse.sequential_work_us * 1.2);
        // Sub-activations multiply the activation count.
        let coarse_join = coarse.operation(NodeId(0)).unwrap().activations;
        let fine_join = fine.operation(NodeId(0)).unwrap().activations;
        assert_eq!(coarse_join, 50);
        assert!(
            fine_join > 150,
            "expected many sub-activations, got {fine_join}"
        );
    }

    #[test]
    fn granule_larger_than_fragments_changes_nothing() {
        let cat = catalog(2_000, 200, 20, 0.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let sim = Simulator::new(&cat);
        let plain = sim
            .simulate(&plan, &SimConfig::default(), &threads(8))
            .unwrap();
        let huge = sim
            .simulate(
                &plan,
                &SimConfig::default().with_triggered_granule(1_000_000),
                &threads(8),
            )
            .unwrap();
        assert_eq!(
            plain.operation(NodeId(0)).unwrap().activations,
            huge.operation(NodeId(0)).unwrap().activations
        );
        assert!((plain.total_us() - huge.total_us()).abs() < 1e-6);
    }

    #[test]
    fn zero_threads_rejected() {
        let cat = catalog(100, 10, 4, 0.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let sim = Simulator::new(&cat);
        assert!(matches!(
            sim.simulate(&plan, &SimConfig::default(), &threads(0)),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn reported_output_counts_match_reference_join_even_under_skew() {
        for theta in [0.0, 1.0] {
            let cat = catalog(2_000, 200, 20, theta);
            let a = cat.get("A").unwrap().reassemble();
            let b = cat.get("Bprime").unwrap().reassemble();
            let expected = a.reference_join(&b, "unique1", "unique1").unwrap().len();

            let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
            let r = Simulator::new(&cat)
                .simulate(&ideal, &SimConfig::ksr1(), &threads(8))
                .unwrap();
            assert_eq!(
                r.operation(NodeId(0)).unwrap().tuples_out,
                expected,
                "triggered join, theta={theta}"
            );

            let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
            let r = Simulator::new(&cat)
                .simulate(&assoc, &SimConfig::ksr1(), &threads(8))
                .unwrap();
            assert_eq!(
                r.operation(NodeId(1)).unwrap().tuples_out,
                expected,
                "pipelined join, theta={theta}"
            );
            // The transmit emits every B' tuple.
            assert_eq!(r.operation(NodeId(0)).unwrap().tuples_out, 200);
        }
    }

    #[test]
    fn pool_busy_times_are_reported_and_roughly_balanced_when_unskewed() {
        let cat = catalog(10_000, 1_000, 200, 0.0);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let report = Simulator::new(&cat)
            .simulate(&plan, &SimConfig::ksr1(), &threads(10))
            .unwrap();
        let join = report.operation(NodeId(0)).unwrap();
        assert_eq!(join.busy_us.len(), join.threads);
        let total_busy: f64 = join.busy_us.iter().sum();
        assert!((total_busy - join.total_work_us).abs() / join.total_work_us < 1e-9);
        assert!(join.busy_imbalance() < 1.5, "got {}", join.busy_imbalance());
        assert!(report.worst_imbalance() >= 1.0);
    }

    #[test]
    fn report_contains_per_operation_breakdown() {
        let cat = catalog(2_000, 200, 20, 0.0);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let report = Simulator::new(&cat)
            .simulate(&plan, &SimConfig::default(), &threads(8))
            .unwrap();
        // Transmit and join are reported; store is folded away.
        assert_eq!(report.operations.len(), 2);
        let join = report.operation(NodeId(1)).unwrap();
        // One probe per transmitted tuple plus one index build per fragment.
        assert_eq!(join.activations, 200 + 20);
        assert!(report.sequential_work_us > 0.0);
        assert!(report.execution_us > 0.0);
    }
}
