//! Benchmark-baseline emitter: the paper-figure record of the repository.
//!
//! This module runs the two join shapes of the paper's speed-up
//! experiments — the AssocJoin of Figure 14 (transmit → pipelined join, the
//! engine's hottest data path) and the IdealJoin of Figure 15
//! (co-partitioned triggered join) — on the *real threaded engine* at
//! 1/4/8 threads and serialises their elapsed time to `BENCH_engine.json`
//! (`cargo run -p dbs3-bench --release --bin baseline`).
//!
//! The hash-join variant is measured (not the paper's nested loop) because it
//! makes per-tuple *engine* overhead — routing, queue locking, activation
//! dispatch — the dominant cost, which is exactly what the baseline is meant
//! to track; algorithmic join cost would only dilute the signal.
//!
//! The document is **tiered**: each tier (paper scale, and `scaled` at 32×
//! the paper's cardinalities) carries its runs plus derived
//! `speedup_4t`/`speedup_8t` ratios per shape (1-thread elapsed time over
//! 4/8-thread elapsed time), and the top level records `host_cpus` — a
//! speedup measured on a 1-core container is honestly a flat line, and the
//! record must say so.

use crate::{ExperimentScale, JoinDatabase};
use dbs3::Session;
use dbs3_lera::{plans, JoinAlgorithm, Plan};

/// Thread counts every baseline shape is measured at.
pub const BASELINE_THREADS: [usize; 3] = [1, 4, 8];

/// Measurement repetitions per configuration (the best run is recorded, which
/// is the conventional way to suppress scheduling noise in short benches).
const REPETITIONS: usize = 3;

/// One measured configuration of the baseline.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Shape identifier (`fig14_assoc_join` or `fig15_ideal_join`).
    pub shape: &'static str,
    /// Total threads the scheduler distributed over the pools.
    pub threads: usize,
    /// Best-of-N wall-clock execution time in seconds.
    pub elapsed_s: f64,
    /// Cardinality of the materialised join result.
    pub result_tuples: usize,
    /// Logical activations consumed across all operations. A property of
    /// the plan and data, not of the thread count, which is what lets
    /// [`speedups_of`] compare elapsed times directly.
    pub logical_activations: u64,
}

/// The two measured shapes: (identifier, plan).
fn shapes() -> [(&'static str, Plan); 2] {
    [
        (
            "fig14_assoc_join",
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
        ),
        (
            "fig15_ideal_join",
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash),
        ),
    ]
}

/// Runs every baseline configuration at `scale` and returns the rows in
/// deterministic (shape, threads) order.
pub fn run_baseline(scale: ExperimentScale) -> Vec<BaselineRun> {
    let db = JoinDatabase::generate(scale.cardinality(200_000), scale.cardinality(20_000));
    let session = db.session(scale.degree(200), 0.0);
    let mut runs = Vec::new();
    for (shape, plan) in shapes() {
        for &threads in &BASELINE_THREADS {
            runs.push(measure(&session, &plan, shape, threads));
        }
    }
    runs
}

/// Derived multicore speedup of one shape: 1-thread elapsed time over the
/// 4- and 8-thread elapsed times of the same tier.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Shape identifier the ratios belong to.
    pub shape: &'static str,
    /// `elapsed_s(1 thread) / elapsed_s(4 threads)`.
    pub speedup_4t: f64,
    /// `elapsed_s(1 thread) / elapsed_s(8 threads)`.
    pub speedup_8t: f64,
}

/// One measured tier of the baseline document.
#[derive(Debug, Clone)]
pub struct BaselineTier {
    /// The tier's scale.
    pub scale: ExperimentScale,
    /// Measured rows in (shape, threads) order.
    pub runs: Vec<BaselineRun>,
    /// Per-shape speedup ratios derived from `runs`.
    pub speedups: Vec<SpeedupRow>,
}

/// Derives the per-shape speedup rows from a tier's measured runs.
///
/// # Panics
///
/// If a shape's runs disagree on `logical_activations`: the ratio of
/// elapsed times is a speedup only when every thread count did the same
/// work.
pub fn speedups_of(runs: &[BaselineRun]) -> Vec<SpeedupRow> {
    let run = |shape: &str, threads: usize| {
        runs.iter()
            .find(|r| r.shape == shape && r.threads == threads)
    };
    let mut shapes: Vec<&'static str> = Vec::new();
    for r in runs {
        if !shapes.contains(&r.shape) {
            shapes.push(r.shape);
        }
    }
    shapes
        .into_iter()
        .filter_map(|shape| {
            let base = run(shape, 1)?;
            let speedup = |threads: usize| {
                run(shape, threads).map_or(0.0, |r| {
                    assert_eq!(
                        r.logical_activations, base.logical_activations,
                        "{shape} at {threads} threads did different work than at 1 thread"
                    );
                    base.elapsed_s / r.elapsed_s
                })
            };
            Some(SpeedupRow {
                shape,
                speedup_4t: speedup(4),
                speedup_8t: speedup(8),
            })
        })
        .collect()
}

/// Measures one tier and bundles the derived speedups with it.
pub fn run_tier(scale: ExperimentScale) -> BaselineTier {
    let runs = run_baseline(scale);
    let speedups = speedups_of(&runs);
    BaselineTier {
        scale,
        runs,
        speedups,
    }
}

/// Parallelism the measuring host actually offers (1 when unknown). A
/// speedup row is only meaningful relative to this.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measures one (plan, threads) configuration, keeping the best repetition.
/// Results are discarded (counting stores): the baseline tracks engine
/// overhead, and materialising a 20K-tuple `Vec` per run would only add
/// allocator noise to the signal.
fn measure(session: &Session, plan: &Plan, shape: &'static str, threads: usize) -> BaselineRun {
    let mut best: Option<BaselineRun> = None;
    for _ in 0..REPETITIONS {
        let outcome = session
            .query(plan)
            .threads(threads)
            .discard_results()
            .run()
            .expect("baseline plans execute on any thread count");
        let run = BaselineRun {
            shape,
            threads,
            elapsed_s: outcome.elapsed().as_secs_f64(),
            result_tuples: outcome.result_cardinality("Result").unwrap_or(0),
            logical_activations: outcome.metrics.total_activations(),
        };
        if best.as_ref().is_none_or(|b| run.elapsed_s < b.elapsed_s) {
            best = Some(run);
        }
    }
    best.expect("at least one repetition ran")
}

/// Serialises baseline tiers as the `BENCH_engine.json` document
/// (schema version 5).
///
/// The format is intentionally flat so future PRs can diff it textually:
/// one object per tier under `"tiers"` — each holding one object per
/// configuration under `"runs"` and per-shape `speedup_4t`/`speedup_8t`
/// rows under `"speedups"` — one object per concurrency level under
/// `"concurrent"` (the multi-query shape of the shared [`dbs3::Runtime`]
/// pool, as queries and elapsed time), and the measuring host's parallelism
/// under `"host_cpus"` (below 4 CPUs the speedups are a degenerate
/// reference, not evidence of scaling).
pub fn to_json(tiers: &[BaselineTier], concurrent: &[crate::concurrent::ConcurrentRun]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema_version\": 5,\n");
    out.push_str(
        "  \"bench\": \"dbs3 engine baseline (threaded backend, hash join); \
         speedups divide 1-thread elapsed_s by n-thread elapsed_s\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    out.push_str("  \"tiers\": [\n");
    for (t, tier) in tiers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scale\": \"{}\", \"runs\": [\n",
            tier.scale.name()
        ));
        for (i, r) in tier.runs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"shape\": \"{}\", \"threads\": {}, \"elapsed_s\": {:.6}, \
                 \"result_tuples\": {}, \"logical_activations\": {}}}{}\n",
                r.shape,
                r.threads,
                r.elapsed_s,
                r.result_tuples,
                r.logical_activations,
                if i + 1 < tier.runs.len() { "," } else { "" },
            ));
        }
        out.push_str("    ], \"speedups\": [\n");
        for (i, s) in tier.speedups.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"shape\": \"{}\", \"speedup_4t\": {:.3}, \"speedup_8t\": {:.3}}}{}\n",
                s.shape,
                s.speedup_4t,
                s.speedup_8t,
                if i + 1 < tier.speedups.len() { "," } else { "" },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if t + 1 < tiers.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if !concurrent.is_empty() {
        out.push_str(",\n  \"concurrent\": [\n");
        for (i, c) in concurrent.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"scale\": \"{}\", \"pool_threads\": {}, \
                 \"queries\": {}, \"elapsed_s\": {:.6}}}{}\n",
                c.workload,
                c.scale,
                c.pool_threads,
                c.queries,
                c.elapsed_s,
                if i + 1 < concurrent.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shape: &'static str, threads: usize, elapsed_s: f64) -> BaselineRun {
        BaselineRun {
            shape,
            threads,
            elapsed_s,
            result_tuples: 1_000,
            logical_activations: 2_020,
        }
    }

    fn sample_tier(scale: ExperimentScale) -> BaselineTier {
        let runs = vec![
            run("fig14_assoc_join", 1, 0.12),
            run("fig14_assoc_join", 4, 0.04),
            run("fig14_assoc_join", 8, 0.03),
            run("fig15_ideal_join", 1, 0.2),
            run("fig15_ideal_join", 8, 0.1),
        ];
        let speedups = speedups_of(&runs);
        BaselineTier {
            scale,
            runs,
            speedups,
        }
    }

    #[test]
    fn speedups_are_ratios_over_the_one_thread_run() {
        let tier = sample_tier(ExperimentScale::Paper);
        assert_eq!(tier.speedups.len(), 2);
        let fig14 = &tier.speedups[0];
        assert_eq!(fig14.shape, "fig14_assoc_join");
        assert!((fig14.speedup_4t - 3.0).abs() < 1e-9);
        assert!((fig14.speedup_8t - 4.0).abs() < 1e-9);
        // A shape with no 4-thread run reports 0.0 rather than inventing one.
        let fig15 = &tier.speedups[1];
        assert_eq!(fig15.speedup_4t, 0.0);
        assert!((fig15.speedup_8t - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "did different work")]
    fn speedups_refuse_runs_that_did_different_work() {
        let mut runs = vec![
            run("fig14_assoc_join", 1, 0.12),
            run("fig14_assoc_join", 4, 0.04),
        ];
        runs[1].logical_activations += 1;
        speedups_of(&runs);
    }

    #[test]
    fn json_has_one_object_per_run_and_balanced_braces() {
        let tiers = [
            sample_tier(ExperimentScale::Smoke),
            sample_tier(ExperimentScale::ScaledSmoke),
        ];
        let json = to_json(&tiers, &[]);
        // One "shape" per run object plus one per speedup row, per tier.
        assert_eq!(json.matches("\"shape\"").count(), 2 * (5 + 2));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema_version\": 5"));
        assert!(json.contains("\"scale\": \"smoke\""));
        assert!(json.contains("\"scale\": \"scaled_smoke\""));
        assert!(json.contains("\"host_cpus\": "));
        assert!(json.contains("\"speedup_4t\": 3.000"));
        assert!(json.contains("\"speedup_8t\": 4.000"));
        assert!(json.contains("\"elapsed_s\": 0.120000"));
        assert!(!json.contains("\"concurrent\""));
    }

    #[test]
    fn json_includes_concurrent_section() {
        let concurrent = vec![crate::concurrent::ConcurrentRun {
            workload: "fig14_assoc_join",
            scale: "paper",
            pool_threads: 4,
            queries: 16,
            elapsed_s: 0.5,
            cardinalities: vec![20_000; 16],
        }];
        let tiers = [sample_tier(ExperimentScale::Paper)];
        let json = to_json(&tiers, &concurrent);
        assert!(json.contains("\"concurrent\": ["));
        assert!(json.contains("\"scale\": \"paper\""));
        assert!(json.contains("\"queries\": 16, \"elapsed_s\": 0.500000}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn smoke_baseline_measures_every_configuration() {
        let tier = run_tier(ExperimentScale::Smoke);
        assert_eq!(tier.runs.len(), 2 * BASELINE_THREADS.len());
        for r in &tier.runs {
            assert!(r.elapsed_s > 0.0, "{:?}", r);
            assert!(r.logical_activations > 0, "{:?}", r);
            // Both shapes join the full Bprime against A on the unique key.
            assert_eq!(r.result_tuples, 1_000);
        }
        // Every measured shape gets a speedup row with positive ratios.
        assert_eq!(tier.speedups.len(), 2);
        for s in &tier.speedups {
            assert!(s.speedup_4t > 0.0 && s.speedup_8t > 0.0, "{:?}", s);
        }
    }
}
