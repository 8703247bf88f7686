//! The `Session`/`Query` facade: the one-stop entry point of the workspace.
//!
//! The low-level API is a five-step ritual — generate, partition/register,
//! [`ExtendedPlan::from_plan`](dbs3_lera::ExtendedPlan::from_plan),
//! [`Scheduler::build`](dbs3_engine::Scheduler::build),
//! [`Runtime::submit`] — repeated at every call site. A [`Session`] owns the
//! catalog and a [`Query`] chains the execution knobs, so running the
//! paper's experiments under a different regime (thread count, cache size,
//! real threads vs. the simulated KSR1) changes one line instead of five.
//!
//! Every run on real threads — [`Query::run`], [`Query::submit`],
//! [`PreparedQuery::submit`] — is the same two engine calls,
//! [`dbs3_engine::prepare`] then [`Runtime::submit_prepared`], made by one
//! private helper (`submit_to`). The callers differ only in whose pool it
//! is and whether they wait: `run()` spawns a [`Runtime`] as wide as the
//! schedule's thread count, waits on the [`QueryHandle`] and joins the
//! pool before returning; the `submit` methods take a [`Runtime`] the
//! caller owns and hand the handle back.

use crate::error::Result;
use crate::exec::{Backend, QueryHandle, QueryOutcome};
use dbs3_engine::{ExecutionSchedule, PreparedPlan, Runtime, Scheduler, SchedulerOptions};
use dbs3_lera::{CostParameters, ExtendedPlan, Plan};
use dbs3_sim::{SimConfig, Simulator};
use dbs3_storage::{
    Catalog, PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator,
};
use std::sync::{Arc, Mutex, PoisonError};

/// An execution session: a catalog of partitioned relations plus the entry
/// point for running queries against it on any [`Backend`].
///
/// See the crate-level quick start for the full flow.
#[derive(Debug, Clone, Default)]
pub struct Session {
    catalog: Catalog,
}

impl Session {
    /// Creates a session with an empty catalog.
    pub fn new() -> Self {
        Session::default()
    }

    /// Wraps an already-populated catalog in a session.
    pub fn from_catalog(catalog: Catalog) -> Self {
        Session { catalog }
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (for `replace`/`remove`).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Registers an already-partitioned relation.
    pub fn register(&mut self, relation: PartitionedRelation) -> Result<Arc<PartitionedRelation>> {
        Ok(self.catalog.register(relation)?)
    }

    /// Generates a Wisconsin benchmark relation, hash-partitions it under
    /// `spec` and registers it — the three set-up steps of every experiment
    /// in one call.
    pub fn load_wisconsin(
        &mut self,
        config: &WisconsinConfig,
        spec: PartitionSpec,
    ) -> Result<Arc<PartitionedRelation>> {
        let relation = WisconsinGenerator::new().generate(config)?;
        Ok(self
            .catalog
            .register(PartitionedRelation::from_relation(&relation, spec)?)?)
    }

    /// Like [`Self::load_wisconsin`], but re-keys the relation so its
    /// fragment cardinalities follow a Zipf(θ) distribution (the paper's
    /// Section 5.4 skewed databases). `theta == 0.0` is plain hash
    /// partitioning.
    pub fn load_wisconsin_skewed(
        &mut self,
        config: &WisconsinConfig,
        spec: PartitionSpec,
        theta: f64,
    ) -> Result<Arc<PartitionedRelation>> {
        let relation = WisconsinGenerator::new().generate(config)?;
        let partitioned = if theta > 0.0 {
            PartitionedRelation::from_relation_with_skew(&relation, spec, theta)?
        } else {
            PartitionedRelation::from_relation(&relation, spec)?
        };
        Ok(self.catalog.register(partitioned)?)
    }

    /// Starts a query over a plan. The returned builder chains execution
    /// knobs and runs on [`Backend::Threaded`] unless pointed elsewhere with
    /// [`Query::on`].
    pub fn query<'a>(&'a self, plan: &'a Plan) -> Query<'a> {
        Query {
            session: self,
            plan,
            options: SchedulerOptions::default(),
            backend: Backend::Threaded,
        }
    }

    /// Prepares `plan` under default options: expansion and scheduling run
    /// once (through the process-wide prepared-query cache) and the result
    /// can be [`submit`](PreparedQuery::submit)ted any number of times.
    /// Equivalent to `session.query(plan).prepare()`; use the builder form
    /// to bake in knobs.
    pub fn prepare(&self, plan: &Plan) -> Result<PreparedQuery> {
        self.query(plan).prepare()
    }
}

/// Expansion + scheduling through the engine's prepared-plan cache.
fn prepare_plan(
    catalog: &Catalog,
    plan: &Plan,
    options: &SchedulerOptions,
) -> Result<Arc<PreparedPlan>> {
    Ok(dbs3_engine::prepare(
        catalog,
        plan,
        options,
        &CostParameters::default(),
    )?)
}

/// The one door from the facade into the engine: submits `prepared` to
/// `runtime`.
fn submit_to(runtime: &Runtime, catalog: &Catalog, prepared: &PreparedPlan) -> Result<QueryHandle> {
    Ok(QueryHandle::new(
        runtime.submit_prepared(catalog, prepared)?,
    ))
}

/// Replays the query in virtual time. `config` supplies the machine model
/// (processors, data placement, cost calibration, worker assignment) and
/// the consumption strategy, which only the simulator models; every
/// scheduling setting the engine reads comes from the query's options, so
/// the simulated schedule is the one the engine would build.
fn simulate(
    catalog: &Catalog,
    plan: &Plan,
    options: &SchedulerOptions,
    config: &SimConfig,
) -> Result<QueryOutcome> {
    options.validate()?;
    let report = Simulator::new(catalog).simulate(plan, config, options)?;
    Ok(QueryOutcome::from_sim_report(plan, report))
}

/// A chainable query: a plan, backend-neutral execution knobs, and the
/// backend to run on.
///
/// Knobs not set explicitly are decided by the scheduler (thread count
/// from estimated complexity, default queue and cache sizes).
#[derive(Debug, Clone)]
pub struct Query<'a> {
    session: &'a Session,
    plan: &'a Plan,
    options: SchedulerOptions,
    backend: Backend,
}

impl<'a> Query<'a> {
    /// Fixes the total thread budget (the paper's x-axis) on every backend;
    /// unset, scheduling step 1 derives it from the query's complexity.
    /// Zero is rejected with a typed error when the query runs.
    pub fn threads(mut self, total: usize) -> Self {
        self.options.total_threads = Some(total);
        self
    }

    /// Sets the producer-side internal activation cache size.
    pub fn cache_size(mut self, size: usize) -> Self {
        self.options.cache_size = size;
        self
    }

    /// Sets the capacity of every activation queue.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.options.queue_capacity = capacity;
        self
    }

    /// Counts result tuples in the store operators instead of materialising
    /// them: `QueryOutcome::results` stays empty while `cardinalities` and
    /// every metric stay exact. For benches and workloads that only need
    /// counts: the filter or join feeding such a store counts its matches
    /// instead of building a row per match, so nothing allocated grows with
    /// the result — no result `Vec<Tuple>`, and no result tuples either.
    pub fn discard_results(mut self) -> Self {
        self.options.discard_results = true;
        self
    }

    /// Replaces all scheduler options at once. Every field also has a
    /// dedicated chain method; this is for callers that already hold a
    /// [`SchedulerOptions`] value.
    pub fn scheduler_options(mut self, options: SchedulerOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the backend: [`Backend::Threaded`] (default) or
    /// [`Backend::Simulated`] — the one-line regime swap. To run on a pool
    /// the caller owns, use [`Query::submit`].
    pub fn on(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The scheduler options accumulated so far.
    pub fn options(&self) -> &SchedulerOptions {
        &self.options
    }

    /// Builds the execution schedule (step 1 of Figure 5: the query's thread
    /// count, plus every operation's queue capacity and cache size) without
    /// executing.
    pub fn schedule(&self) -> Result<ExecutionSchedule> {
        let extended = self.extended_plan()?;
        Ok(Scheduler::build(self.plan, &extended, &self.options)?)
    }

    /// The per-fragment extended view of the plan over the session catalog.
    pub fn extended_plan(&self) -> Result<ExtendedPlan> {
        Ok(ExtendedPlan::from_plan(
            self.plan,
            self.session.catalog(),
            &CostParameters::default(),
        )?)
    }

    /// Runs the query on the selected [`Backend`], blocking until the
    /// outcome is available. On real threads this spawns a [`Runtime`] as
    /// wide as the schedule's thread count (scheduling step 1), runs
    /// [`Query::submit`] and [`QueryHandle::wait`] on it, and joins its
    /// workers before returning.
    pub fn run(self) -> Result<QueryOutcome> {
        let catalog = self.session.catalog();
        match &self.backend {
            Backend::Threaded => {
                let prepared = prepare_plan(catalog, self.plan, &self.options)?;
                let runtime = Runtime::new(prepared.schedule().query_threads())?;
                submit_to(&runtime, catalog, &prepared)?.wait()
            }
            Backend::Simulated(config) => simulate(catalog, self.plan, &self.options, config),
        }
    }

    /// Submits the query to a caller-owned [`Runtime`] pool and returns
    /// immediately with a [`QueryHandle`] (`wait`/`cancel`).
    /// Any number of queries may be in flight on one runtime; workers
    /// schedule activations across all of them. The query's schedule is
    /// built exactly as `run()` would build it; the pool's width (fixed at
    /// [`Runtime::new`]) bounds the actual parallelism.
    pub fn submit(&self, runtime: &Runtime) -> Result<QueryHandle> {
        let catalog = self.session.catalog();
        let prepared = prepare_plan(catalog, self.plan, &self.options)?;
        submit_to(runtime, catalog, &prepared)
    }

    /// Resolves the query once — plan expansion, scheduling and generation
    /// stamping — into a reusable [`PreparedQuery`], consuming the builder.
    /// The work goes through the process-wide prepared-query cache, so
    /// preparing the same plan shape twice is itself ~free.
    pub fn prepare(self) -> Result<PreparedQuery> {
        let prepared = prepare_plan(self.session.catalog(), self.plan, &self.options)?;
        Ok(PreparedQuery {
            plan: self.plan.clone(),
            options: self.options,
            prepared: Mutex::new(prepared),
        })
    }
}

/// A query prepared once and executed many times.
///
/// Holds the expanded plan, execution schedule and the catalog generations
/// they were derived from. [`submit`](Self::submit) skips straight to
/// operator binding — no re-expansion, no re-scheduling.
/// If the session's catalog mutated since preparation (a referenced relation
/// was replaced or removed), the prepared query transparently re-prepares
/// against the current catalog instead of failing, so callers can hold one
/// `PreparedQuery` across catalog churn; [`is_current`](Self::is_current)
/// exposes the staleness check for callers that want to observe it.
///
/// Not tied to one session borrow: the session (or any session sharing the
/// same relations) is passed at execution time, so the catalog can be
/// mutated between runs.
#[derive(Debug)]
pub struct PreparedQuery {
    plan: Plan,
    options: SchedulerOptions,
    prepared: Mutex<Arc<PreparedPlan>>,
}

impl PreparedQuery {
    /// Whether the preparation still matches `session`'s catalog: every
    /// relation the plan references is at the generation it was prepared
    /// against.
    pub fn is_current(&self, session: &Session) -> bool {
        let slot = self.prepared.lock().unwrap_or_else(PoisonError::into_inner);
        slot.is_current(session.catalog())
    }

    /// The prepared plan for `catalog`, transparently re-preparing (and
    /// caching the replacement) when a referenced relation changed
    /// generation since preparation.
    fn current(&self, catalog: &Catalog) -> Result<Arc<PreparedPlan>> {
        let mut slot = self.prepared.lock().unwrap_or_else(PoisonError::into_inner);
        if !slot.is_current(catalog) {
            *slot = prepare_plan(catalog, &self.plan, &self.options)?;
        }
        Ok(Arc::clone(&slot))
    }

    /// Submits the prepared query to a caller-owned [`Runtime`] pool,
    /// returning immediately with a [`QueryHandle`]; blocking is
    /// `prepared.submit(&session, &runtime)?.wait()`.
    pub fn submit(&self, session: &Session, runtime: &Runtime) -> Result<QueryHandle> {
        let prepared = self.current(session.catalog())?;
        submit_to(runtime, session.catalog(), &prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use dbs3_engine::EngineError;
    use dbs3_lera::{plans, JoinAlgorithm};

    fn session() -> Session {
        let mut session = Session::new();
        let spec = PartitionSpec::on("unique1", 8, 2);
        session
            .load_wisconsin(&WisconsinConfig::narrow("A", 800), spec.clone())
            .unwrap();
        session
            .load_wisconsin(&WisconsinConfig::narrow("Bprime", 80), spec)
            .unwrap();
        session
    }

    #[test]
    fn threaded_query_runs_end_to_end() {
        let session = session();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let outcome = session.query(&plan).threads(4).run().unwrap();
        assert_eq!(outcome.result_cardinality("Result"), Some(80));
        assert_eq!(outcome.results["Result"].len(), 80);
        assert_eq!(outcome.metrics.backend_name(), "threaded");
        assert!(outcome.metrics.total_activations() > 0);
    }

    #[test]
    fn simulated_query_reports_the_same_cardinality() {
        let session = session();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let outcome = session
            .query(&plan)
            .threads(4)
            .on(Backend::Simulated(SimConfig::ksr1()))
            .run()
            .unwrap();
        assert_eq!(outcome.result_cardinality("Result"), Some(80));
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.metrics.backend_name(), "simulated");
        assert!(outcome.sim_report().unwrap().total_us() > 0.0);
    }

    use dbs3_sim::{ConsumptionStrategy, SimConfig};

    #[test]
    fn zero_threads_is_a_typed_error_on_both_backends() {
        let session = session();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let err = session.query(&plan).threads(0).run().unwrap_err();
        assert!(matches!(err, Error::Engine(EngineError::InvalidOptions(_))));
        let err = session
            .query(&plan)
            .threads(0)
            .on(Backend::Simulated(SimConfig::ksr1()))
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Engine(EngineError::InvalidOptions(_))));
    }

    #[test]
    fn schedule_inspection_respects_knobs() {
        let session = session();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let schedule = session
            .query(&plan)
            .threads(6)
            .cache_size(16)
            .schedule()
            .unwrap();
        assert_eq!(schedule.query_threads(), 6);
        for op in schedule.per_node().values() {
            assert_eq!(op.cache_size, 16);
        }
    }

    #[test]
    fn scheduler_knobs_reach_the_simulated_backend() {
        // A strongly skewed triggered join: the query's thread count reaches
        // the simulator, scheduling step 4 picks LPT, and a Random strategy
        // forced on the simulated machine is observable as a different
        // virtual time.
        let mut session = Session::new();
        let spec = PartitionSpec::on("unique1", 40, 4);
        session
            .load_wisconsin_skewed(&WisconsinConfig::narrow("A", 5_000), spec.clone(), 1.0)
            .unwrap();
        session
            .load_wisconsin(&WisconsinConfig::narrow("Bprime", 500), spec)
            .unwrap();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let run = |config: SimConfig| {
            let outcome = session
                .query(&plan)
                .threads(10)
                .on(Backend::Simulated(config))
                .run()
                .unwrap();
            let report = outcome.sim_report().unwrap();
            assert_eq!(report.threads, 10);
            report.total_us()
        };
        let lpt = run(SimConfig::ksr1());
        let random = run(SimConfig::ksr1().with_strategy(ConsumptionStrategy::Random));
        assert_ne!(
            lpt, random,
            "the strategy must influence the simulated schedule"
        );
        assert!(lpt <= random * 1.02, "LPT should not lose to Random");
    }

    #[test]
    fn prepared_query_reruns_and_reprepares_after_catalog_mutation() {
        let mut session = session();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let prepared = session.query(&plan).threads(4).prepare().unwrap();
        assert!(prepared.is_current(&session));
        let prepared_plan = |session: &Session| prepared.current(session.catalog()).unwrap();
        assert_eq!(prepared_plan(&session).plan(), &plan);
        let runtime = Runtime::new(4).unwrap();
        let run = |session: &Session| prepared.submit(session, &runtime).unwrap().wait().unwrap();
        assert_eq!(run(&session).result_cardinality("Result"), Some(80));

        // Replace A with a repartitioned copy: new generation, same rows.
        let a = WisconsinGenerator::new()
            .generate(&WisconsinConfig::narrow("A", 800))
            .unwrap();
        session.catalog_mut().replace(
            PartitionedRelation::from_relation(&a, PartitionSpec::on("unique1", 8, 2)).unwrap(),
        );
        assert!(!prepared.is_current(&session));
        assert_eq!(run(&session).result_cardinality("Result"), Some(80));
        assert!(
            prepared.is_current(&session),
            "submit() must transparently re-prepare against the mutated catalog"
        );
        assert_eq!(prepared_plan(&session).plan(), &plan);
    }

    #[test]
    fn prepared_query_submits_repeatedly_to_a_shared_runtime() {
        let session = session();
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let runtime = Runtime::new(4).unwrap();
        let prepared = session.query(&plan).threads(4).prepare().unwrap();
        let first = prepared.submit(&session, &runtime).unwrap();
        let second = prepared.submit(&session, &runtime).unwrap();
        assert_eq!(first.wait().unwrap().result_cardinality("Result"), Some(80));
        assert_eq!(
            second.wait().unwrap().result_cardinality("Result"),
            Some(80)
        );
    }

    #[test]
    fn session_prepare_uses_default_options() {
        let session = session();
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
        let prepared = session.prepare(&plan).unwrap();
        let before = crate::cache_stats();
        let runtime = Runtime::new(2).unwrap();
        let outcome = prepared.submit(&session, &runtime).unwrap().wait().unwrap();
        assert_eq!(outcome.result_cardinality("Result"), Some(80));
        let stats = crate::cache_stats().since(&before);
        assert!(
            stats.index.hits + stats.index.misses > 0,
            "join builds must resolve their fragments' indexes"
        );
    }

    #[test]
    fn duplicate_relation_surfaces_as_storage_error() {
        let mut session = session();
        let err = session
            .load_wisconsin(
                &WisconsinConfig::narrow("A", 100),
                PartitionSpec::on("unique1", 4, 2),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Storage(_)));
    }

    #[test]
    fn skewed_loading_skews_fragments() {
        let mut session = Session::new();
        let rel = session
            .load_wisconsin_skewed(
                &WisconsinConfig::narrow("S", 5_000),
                PartitionSpec::on("unique1", 40, 4),
                1.0,
            )
            .unwrap();
        assert!(rel.observed_skew_factor() > 5.0);
    }
}
