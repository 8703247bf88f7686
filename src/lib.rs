//! # dbs3 — Adaptive Parallel Query Execution in DBS3, reproduced in Rust
//!
//! The public entry point is the [`Session`]/[`Query`] facade: a session
//! owns a catalog of partitioned relations, a query chains execution knobs
//! and runs on the [`Backend`] it names — a worker pool of the schedule's
//! width, spawned for the query ([`Backend::Threaded`], the default) or the
//! virtual-time KSR1 simulator ([`Backend::Simulated`]) — returning a
//! unified [`exec::QueryOutcome`]. [`Query::submit`] hands the query to a
//! [`Runtime`] pool the caller owns and shares between concurrent queries
//! instead. Every real-thread run is one engine path (`prepare` →
//! `Runtime::submit_prepared`); runs differ only in which pool receives the
//! query.
//!
//! The underlying crates stay public for low-level control:
//!
//! * [`storage`] ([`dbs3_storage`]) — partitioned storage, the Wisconsin
//!   benchmark generator, Zipf skew, temporary indexes;
//! * [`lera`] ([`dbs3_lera`]) — the Lera-par dataflow plan language,
//!   extended-view expansion and complexity estimation;
//! * [`engine`] ([`dbs3_engine`]) — the adaptive parallel execution engine
//!   (activation queues, one fixed worker pool scheduling activations
//!   across all live queries, each worker walking a cost-ordered ring of an
//!   operation's queues from its own main slice, scheduling step 1's
//!   thread count as the pool width);
//! * [`model`] ([`dbs3_model`]) — the analytical model (skew overhead bound,
//!   `nmax`, thread-allocation equations);
//! * [`sim`] ([`dbs3_sim`]) — the virtual-time multiprocessor simulator
//!   standing in for the 72-processor KSR1, with one pool per operation
//!   sized by scheduling steps 2–3, and the paper's Random/LPT consumption
//!   strategies with step 4, which picks between them.
//!
//! ## Quick start
//!
//! ```
//! use dbs3::prelude::*;
//!
//! // 1. Load two small Wisconsin relations, co-partitioned on `unique1`.
//! let mut session = Session::new();
//! let spec = PartitionSpec::on("unique1", 16, 4);
//! session.load_wisconsin(&WisconsinConfig::narrow("A", 2_000), spec.clone())?;
//! session.load_wisconsin(&WisconsinConfig::narrow("Bprime", 200), spec)?;
//!
//! // 2. Build the IdealJoin plan (both operands co-partitioned on unique1).
//! let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
//!
//! // 3. Run it on the parallel engine with 4 threads.
//! let outcome = session.query(&plan).threads(4).run()?;
//! assert_eq!(outcome.result_cardinality("Result"), Some(200));
//!
//! // 4. Same query, same knobs, on the simulated KSR1 — one line changed.
//! //    The simulated machine also models the paper's LPT consumption.
//! let ksr1 = SimConfig::ksr1().with_strategy(ConsumptionStrategy::Lpt);
//! let simulated = session
//!     .query(&plan)
//!     .threads(4)
//!     .on(Backend::Simulated(ksr1))
//!     .run()?;
//! assert_eq!(simulated.result_cardinality("Result"), Some(200));
//! assert!(simulated.metrics.worst_imbalance() >= 1.0);
//! # Ok::<(), dbs3::Error>(())
//! ```

pub use dbs3_engine as engine;
pub use dbs3_lera as lera;
pub use dbs3_model as model;
pub use dbs3_sim as sim;
pub use dbs3_storage as storage;

mod error;
pub mod exec;
mod session;

pub use dbs3_engine::{cache_stats, clear_caches, CacheCounters, CacheStats, QueryId, Runtime};
pub use error::{Error, Result};
pub use exec::{Backend, BackendMetrics, QueryHandle, QueryOutcome};
pub use session::{PreparedQuery, Query, Session};

/// The most commonly used items of every crate, for `use dbs3::prelude::*`.
pub mod prelude {
    pub use crate::exec::{Backend, BackendMetrics, QueryHandle, QueryOutcome};
    pub use crate::session::{PreparedQuery, Query, Session};
    pub use crate::{Error, Result};
    pub use dbs3_engine::{
        CacheStats, ExecutionSchedule, QueryId, Runtime, Scheduler, SchedulerOptions,
    };
    pub use dbs3_lera::{
        plans, CostParameters, ExtendedPlan, JoinAlgorithm, Plan, PlanBuilder, Predicate,
    };
    pub use dbs3_model::{n_max, overhead_bound, theoretical_speedup, zipf_max_to_avg};
    pub use dbs3_sim::{
        ConsumptionStrategy, DataPlacement, SimConfig, Simulator, WorkerAssignment,
    };
    pub use dbs3_storage::{
        Catalog, PartitionSpec, PartitionedRelation, Relation, Schema, Tuple, Value,
        WisconsinConfig, WisconsinGenerator, Zipf,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = JoinAlgorithm::NestedLoop;
        let _ = ConsumptionStrategy::Lpt;
        let _ = DataPlacement::Local;
        let _ = Backend::Threaded;
        let _ = Session::new();
        assert!(zipf_max_to_avg(1.0, 200) > 30.0);
    }
}
