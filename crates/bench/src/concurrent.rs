//! Concurrent multi-query workloads on a shared [`Runtime`] pool.
//!
//! The paper evaluates one query at a time; the runtime's reason to exist
//! is many queries sharing one pool. This module measures that shape: `N`
//! identical queries submitted concurrently to a `Runtime` of `P` workers,
//! waited to completion, and summarised as **queries per second** — every
//! query of a level runs the same plan, so this is the aggregate throughput
//! of the pool at that concurrency. Queries run with `discard_results()`
//! (cardinalities and metrics only), so the measurement tracks engine
//! scheduling cost, not result materialisation.
//!
//! It backs the `concurrent` section of `BENCH_engine.json` and the
//! non-collapse half of the `baseline --gate` check. Correctness of
//! concurrent queries, under a hard timeout, is pinned in tier-1 by
//! `tests/runtime.rs`.

use dbs3::prelude::*;
use std::time::Instant;

/// One measured concurrent-workload configuration.
#[derive(Debug, Clone)]
pub struct ConcurrentRun {
    /// Workload identifier (the plan shape all queries share).
    pub workload: &'static str,
    /// Tier the workload data was generated at (`paper`, `scaled`, ...);
    /// [`run_concurrent`] itself doesn't know, so it stamps `"unscaled"`
    /// and [`run_concurrent_baseline`] overwrites it.
    pub scale: &'static str,
    /// Number of worker threads in the shared pool.
    pub pool_threads: usize,
    /// Number of concurrently submitted queries.
    pub queries: usize,
    /// Wall-clock time from first submit to last completion, in seconds.
    pub elapsed_s: f64,
    /// Result cardinality of each query, in submission order (for
    /// verification against a sequential run).
    pub cardinalities: Vec<usize>,
}

impl ConcurrentRun {
    /// `queries / elapsed_s` — the aggregate throughput of the pool under
    /// this concurrency level.
    pub fn queries_per_second(&self) -> f64 {
        self.queries as f64 / self.elapsed_s
    }
}

/// Submits `queries` copies of `plan` to one fresh [`Runtime`] of
/// `pool_threads` workers, waits for all of them and returns the aggregate
/// measurement.
pub fn run_concurrent(
    session: &Session,
    plan: &Plan,
    workload: &'static str,
    pool_threads: usize,
    queries: usize,
) -> dbs3::Result<ConcurrentRun> {
    let runtime = Runtime::new(pool_threads)?;
    let started = Instant::now();
    let handles: Vec<QueryHandle> = (0..queries)
        .map(|_| {
            session
                .query(plan)
                .threads(pool_threads)
                .discard_results()
                .submit(&runtime)
        })
        .collect::<dbs3::Result<Vec<_>>>()?;
    let outcomes: Vec<QueryOutcome> = handles
        .into_iter()
        .map(QueryHandle::wait)
        .collect::<dbs3::Result<Vec<_>>>()?;
    let elapsed_s = started.elapsed().as_secs_f64();

    let cardinalities: Vec<usize> = outcomes
        .iter()
        .map(|o| o.result_cardinality("Result").unwrap_or(0))
        .collect();
    Ok(ConcurrentRun {
        workload,
        scale: "unscaled",
        pool_threads,
        queries,
        elapsed_s,
        cardinalities,
    })
}

/// Concurrency levels the multi-query baseline is measured at.
pub const CONCURRENT_QUERIES: [usize; 3] = [1, 4, 16];

/// Pool width of the multi-query baseline.
pub const CONCURRENT_POOL_THREADS: usize = 4;

/// Measures the multi-query throughput shape of `BENCH_engine.json`: the
/// fig14 AssocJoin (hash) workload at 1, 4 and 16 concurrent queries on a
/// 4-worker pool, best of `repetitions` per level, at the given tier.
pub fn run_concurrent_baseline(
    scale: crate::ExperimentScale,
    repetitions: usize,
) -> Vec<ConcurrentRun> {
    let db = crate::JoinDatabase::generate(scale.cardinality(200_000), scale.cardinality(20_000));
    let session = db.session(scale.degree(200), 0.0);
    let plan = dbs3_lera::plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    CONCURRENT_QUERIES
        .iter()
        .map(|&queries| {
            let mut best: Option<ConcurrentRun> = None;
            for _ in 0..repetitions.max(1) {
                let mut run = run_concurrent(
                    &session,
                    &plan,
                    "fig14_assoc_join",
                    CONCURRENT_POOL_THREADS,
                    queries,
                )
                .expect("baseline workload executes on the shared pool");
                run.scale = scale.name();
                if best.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
                    best = Some(run);
                }
            }
            best.expect("at least one repetition ran")
        })
        .collect()
}

/// Whether aggregate throughput holds up as concurrency rises: every
/// successive concurrency level of each scale must keep at least
/// `min_ratio` of the *best* queries/s seen at any lower level of that
/// scale. This is the shape of the 4-query anomaly the ready-deque
/// scheduler fixed — aggregate throughput at 4 concurrent queries dropped
/// to a quarter of the 1-query figure because workers stuck to one query's
/// longest queues — phrased loosely enough to tolerate bench noise.
pub fn is_non_collapsing(runs: &[ConcurrentRun], min_ratio: f64) -> bool {
    let scales: Vec<&'static str> = {
        let mut s: Vec<&'static str> = runs.iter().map(|r| r.scale).collect();
        s.dedup();
        s
    };
    scales.iter().all(|&scale| {
        let mut best_so_far = 0.0f64;
        for run in runs.iter().filter(|r| r.scale == scale) {
            if run.queries_per_second() < best_so_far * min_ratio {
                return false;
            }
            best_so_far = best_so_far.max(run.queries_per_second());
        }
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentScale, JoinDatabase};

    #[test]
    fn concurrent_runs_match_the_sequential_cardinality() {
        let db = JoinDatabase::generate(2_000, 200);
        let session = db.session(16, 0.0);
        let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
        let sequential = session
            .query(&plan)
            .threads(4)
            .discard_results()
            .run()
            .unwrap()
            .result_cardinality("Result")
            .unwrap();
        let run = run_concurrent(&session, &plan, "test", 4, 8).unwrap();
        assert_eq!(run.queries, 8);
        assert_eq!(run.cardinalities.len(), 8);
        assert!(run.cardinalities.iter().all(|&c| c == sequential));
        assert!(run.elapsed_s > 0.0);
    }

    #[test]
    fn smoke_concurrent_baseline_covers_every_level() {
        let runs = run_concurrent_baseline(ExperimentScale::Smoke, 1);
        assert_eq!(runs.len(), CONCURRENT_QUERIES.len());
        for (run, &queries) in runs.iter().zip(&CONCURRENT_QUERIES) {
            assert_eq!(run.queries, queries);
            assert_eq!(run.pool_threads, CONCURRENT_POOL_THREADS);
            assert_eq!(run.scale, "smoke");
            assert!(run.elapsed_s > 0.0);
            let first = run.cardinalities[0];
            assert!(run.cardinalities.iter().all(|&c| c == first));
        }
    }

    /// Builds a throwaway one-query run with the given scale and queries/s
    /// for shape tests of the gate predicate.
    fn run_at(scale: &'static str, queries_per_s: f64) -> ConcurrentRun {
        ConcurrentRun {
            workload: "test",
            scale,
            pool_threads: 4,
            queries: 1,
            elapsed_s: 1.0 / queries_per_s,
            cardinalities: vec![],
        }
    }

    #[test]
    fn non_collapsing_accepts_monotone_and_noisy_flat_shapes() {
        // Strictly rising.
        let rising = [
            run_at("paper", 40.0),
            run_at("paper", 60.0),
            run_at("paper", 80.0),
        ];
        assert!(is_non_collapsing(&rising, 0.75));
        // A noisy dip within tolerance of the best-so-far.
        let noisy = [
            run_at("paper", 40.0),
            run_at("paper", 32.0),
            run_at("paper", 44.0),
        ];
        assert!(is_non_collapsing(&noisy, 0.75));
        // Empty and single-run inputs trivially hold.
        assert!(is_non_collapsing(&[], 0.75));
        assert!(is_non_collapsing(&[run_at("paper", 1.0)], 0.75));
    }

    #[test]
    fn non_collapsing_rejects_the_four_query_collapse_shape() {
        // The pre-fix BENCH_engine.json shape: 1.84M -> 0.45M -> 0.88M
        // aggregate acts/s, i.e. 45.8 -> 11.2 -> 21.9 q/s at 40 200 acts per
        // query.
        let collapse = [
            run_at("paper", 45.8),
            run_at("paper", 11.2),
            run_at("paper", 21.9),
        ];
        assert!(!is_non_collapsing(&collapse, 0.75));
    }

    #[test]
    fn non_collapsing_judges_each_scale_independently() {
        // Scaled tier runs slower in absolute terms; the drop across the
        // scale boundary must not trip the check, but a collapse inside one
        // scale must.
        let ok = [
            run_at("paper", 50.0),
            run_at("paper", 52.0),
            run_at("scaled", 1.5),
            run_at("scaled", 1.8),
        ];
        assert!(is_non_collapsing(&ok, 0.75));
        let bad = [
            run_at("paper", 50.0),
            run_at("paper", 52.0),
            run_at("scaled", 1.8),
            run_at("scaled", 0.6),
        ];
        assert!(!is_non_collapsing(&bad, 0.75));
    }
}
