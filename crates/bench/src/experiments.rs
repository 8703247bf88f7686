//! One harness function per figure of the paper's evaluation.
//!
//! Every function returns the rows of the corresponding figure (one struct
//! per row, all fields public) and has a `print_*` companion that renders
//! them as an aligned table — the output format the `experiments` binary
//! uses. README's "Reproducing the paper's figures" table maps each figure
//! to its harness, and `tests/golden/figures_smoke.txt` pins the smoke-scale
//! output of every simulator-driven subcommand.
//!
//! All experiments except the ablations run on the virtual-time simulator
//! (the `dbs3-sim` stand-in for the paper's 72-processor KSR1); the
//! affinity ablation runs the real multi-threaded engine.

use crate::data::{selection_session, ExperimentScale, JoinDatabase};
use dbs3::{Backend, Query, Session};
use dbs3_engine::ConsumptionStrategy;
use dbs3_lera::{plans, JoinAlgorithm, NodeId, Plan, Predicate};
use dbs3_model as model;
use dbs3_sim::{DataPlacement, SimConfig, SimReport};

/// The degrees of parallelism the paper sweeps in Figures 14–15.
pub fn thread_sweep(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Paper | ExperimentScale::Scaled => {
            vec![1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        }
        ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => vec![1, 10, 40, 70],
    }
}

/// The degrees of partitioning the paper sweeps in Figures 16–19.
pub fn degree_sweep(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Paper | ExperimentScale::Scaled => {
            vec![20, 250, 500, 750, 1000, 1250, 1500]
        }
        ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => vec![10, 50, 100, 150],
    }
}

/// The Zipf skew factors the paper sweeps in Figures 12–13.
pub fn skew_sweep(scale: ExperimentScale) -> Vec<f64> {
    match scale {
        ExperimentScale::Paper | ExperimentScale::Scaled => {
            (0..=10).map(|i| f64::from(i) / 10.0).collect()
        }
        ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => vec![0.0, 0.5, 1.0],
    }
}

/// Runs `query` on the simulated machine `config` and returns the
/// virtual-time report. Every figure harness funnels through this one
/// facade call; the Criterion benches and the `experiments` binary differ
/// only in scale.
fn simulate(query: Query<'_>, config: SimConfig) -> SimReport {
    query
        .on(Backend::Simulated(config))
        .run()
        .expect("valid simulated query")
        .sim_report()
        .expect("simulated outcome carries a report")
        .clone()
}

// ---------------------------------------------------------------------------
// Figures 8 and 9: impact of the Allcache remote access (Section 5.2)
// ---------------------------------------------------------------------------

/// One row of Figures 8/9.
#[derive(Debug, Clone, Copy)]
pub struct RemoteAccessRow {
    pub threads: usize,
    /// Execution time with local data, seconds.
    pub local_s: f64,
    /// Execution time with remote data, seconds.
    pub remote_s: f64,
}

impl RemoteAccessRow {
    /// `Tr − Tl` in milliseconds (the Figure 9 series).
    pub fn difference_ms(&self) -> f64 {
        (self.remote_s - self.local_s) * 1e3
    }
}

/// Figure 8: 200K-tuple selection, local vs remote data, 5–30 threads.
pub fn fig08_remote_access(scale: ExperimentScale) -> Vec<RemoteAccessRow> {
    let cardinality = scale.cardinality(200_000);
    let degree = scale.degree(200);
    let session = selection_session(cardinality, degree);
    // Select roughly half of the relation, as a representative selection.
    let plan = plans::selection(
        "DewittA",
        Predicate::range("unique1", 0, cardinality as i64 / 2),
        "Out",
    );
    let threads: Vec<usize> = match scale {
        ExperimentScale::Paper | ExperimentScale::Scaled => (5..=30).step_by(5).collect(),
        ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => vec![5, 15, 30],
    };
    threads
        .into_iter()
        .map(|n| {
            let local = simulate(
                session.query(&plan).threads(n),
                SimConfig::ksr1().with_placement(DataPlacement::Local),
            );
            let remote = simulate(
                session.query(&plan).threads(n),
                SimConfig::ksr1().with_placement(DataPlacement::Remote),
            );
            RemoteAccessRow {
                threads: n,
                local_s: local.total_seconds(),
                remote_s: remote.total_seconds(),
            }
        })
        .collect()
}

/// Prints Figures 8 and 9.
pub fn print_fig08(rows: &[RemoteAccessRow]) {
    println!("# Figure 8/9 — 200K-tuple selection, local vs remote data (Allcache)");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>10}",
        "threads", "local (s)", "remote (s)", "Tr-Tl (ms)", "overhead"
    );
    for r in rows {
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>14.1} {:>9.1}%",
            r.threads,
            r.local_s,
            r.remote_s,
            r.difference_ms(),
            (r.remote_s / r.local_s - 1.0) * 100.0
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 12: AssocJoin execution time vs skew (Section 5.4)
// ---------------------------------------------------------------------------

/// One row of Figure 12.
#[derive(Debug, Clone, Copy)]
pub struct AssocSkewRow {
    pub theta: f64,
    /// Measured (simulated) execution time with the Random strategy, seconds.
    pub measured_s: f64,
    /// The analytic worst-case time `Tworst`, seconds.
    pub tworst_s: f64,
}

/// Figure 12: AssocJoin (A=100K, B'=10K, 200 fragments, 10 threads) for
/// varying skew. The pipelined join has one activation per B' tuple, so the
/// response time stays flat.
pub fn fig12_assocjoin_skew(scale: ExperimentScale) -> Vec<AssocSkewRow> {
    let db = JoinDatabase::generate(scale.cardinality(100_000), scale.cardinality(10_000));
    let degree = scale.degree(200);
    let threads = 10;
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    skew_sweep(scale)
        .into_iter()
        .map(|theta| {
            let session = db.session(degree, theta);
            let report = simulate(
                session
                    .query(&plan)
                    .threads(threads)
                    .strategy(ConsumptionStrategy::Random),
                SimConfig::ksr1(),
            );
            // Tworst from the analytic model, over the pipelined join's
            // activation profile and the threads its pool actually received.
            let join = report.operation(NodeId(1)).expect("join is simulated");
            let tworst_us = report.startup_us
                + model::worst_time(
                    join.activations as u64,
                    join.total_work_us / join.activations.max(1) as f64,
                    join.max_activation_us,
                    join.threads,
                );
            AssocSkewRow {
                theta,
                measured_s: report.total_seconds(),
                tworst_s: tworst_us / 1e6,
            }
        })
        .collect()
}

/// Prints Figure 12.
pub fn print_fig12(rows: &[AssocSkewRow]) {
    println!("# Figure 12 — AssocJoin execution time vs skew (10 threads, 200 fragments)");
    println!("{:>6} {:>14} {:>12}", "zipf", "measured (s)", "Tworst (s)");
    for r in rows {
        println!(
            "{:>6.1} {:>14.2} {:>12.2}",
            r.theta, r.measured_s, r.tworst_s
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 13: IdealJoin execution time vs skew, Random vs LPT (Section 5.4)
// ---------------------------------------------------------------------------

/// One row of Figure 13.
#[derive(Debug, Clone, Copy)]
pub struct IdealSkewRow {
    pub theta: f64,
    pub random_s: f64,
    pub lpt_s: f64,
    pub tworst_s: f64,
}

/// Figure 13: IdealJoin (A=100K, B'=10K, 200 fragments, 10 threads), Random
/// vs LPT consumption strategies vs the analytic worst case.
pub fn fig13_idealjoin_skew(scale: ExperimentScale) -> Vec<IdealSkewRow> {
    let db = JoinDatabase::generate(scale.cardinality(100_000), scale.cardinality(10_000));
    let degree = scale.degree(200);
    let threads = 10;
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    skew_sweep(scale)
        .into_iter()
        .map(|theta| {
            let session = db.session(degree, theta);
            let random = simulate(
                session
                    .query(&plan)
                    .threads(threads)
                    .strategy(ConsumptionStrategy::Random),
                SimConfig::ksr1(),
            );
            let lpt = simulate(
                session
                    .query(&plan)
                    .threads(threads)
                    .strategy(ConsumptionStrategy::Lpt),
                SimConfig::ksr1(),
            );
            let join = random.operation(NodeId(0)).expect("join is simulated");
            let tworst_us = random.startup_us
                + model::worst_time(
                    join.activations as u64,
                    join.total_work_us / join.activations.max(1) as f64,
                    join.max_activation_us,
                    join.threads,
                );
            IdealSkewRow {
                theta,
                random_s: random.total_seconds(),
                lpt_s: lpt.total_seconds(),
                tworst_s: tworst_us / 1e6,
            }
        })
        .collect()
}

/// Prints Figure 13.
pub fn print_fig13(rows: &[IdealSkewRow]) {
    println!("# Figure 13 — IdealJoin execution time vs skew (10 threads, 200 fragments)");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "zipf", "random (s)", "lpt (s)", "Tworst (s)"
    );
    for r in rows {
        println!(
            "{:>6.1} {:>12.2} {:>12.2} {:>12.2}",
            r.theta, r.random_s, r.lpt_s, r.tworst_s
        );
    }
}

// ---------------------------------------------------------------------------
// Figures 14 and 15: speed-up vs number of threads (Section 5.5)
// ---------------------------------------------------------------------------

/// One row of Figure 14.
#[derive(Debug, Clone, Copy)]
pub struct AssocSpeedupRow {
    pub threads: usize,
    pub unskewed: f64,
    pub skewed_zipf1: f64,
    pub theoretical: f64,
}

/// Figure 14: AssocJoin speed-up (A=200K, B'=20K, 200 fragments) for 1–100
/// threads, unskewed vs Zipf = 1, with the theoretical speed-up.
pub fn fig14_assocjoin_speedup(scale: ExperimentScale) -> Vec<AssocSpeedupRow> {
    let db = JoinDatabase::generate(scale.cardinality(200_000), scale.cardinality(20_000));
    let degree = scale.degree(200);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    let unskewed_session = db.session(degree, 0.0);
    let skewed_session = db.session(degree, 1.0);
    let activations = db.b_cardinality() as u64;

    thread_sweep(scale)
        .into_iter()
        .map(|n| {
            let unskewed = simulate(unskewed_session.query(&plan).threads(n), SimConfig::ksr1());
            let skewed = simulate(skewed_session.query(&plan).threads(n), SimConfig::ksr1());
            AssocSpeedupRow {
                threads: n,
                unskewed: unskewed.speedup(),
                skewed_zipf1: skewed.speedup(),
                theoretical: model::theoretical_speedup(activations, 1.0, n, 70),
            }
        })
        .collect()
}

/// Prints Figure 14.
pub fn print_fig14(rows: &[AssocSpeedupRow]) {
    println!("# Figure 14 — AssocJoin speed-up vs threads (200 fragments)");
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "threads", "unskewed", "zipf=1", "theoretical"
    );
    for r in rows {
        println!(
            "{:>8} {:>10.1} {:>12.1} {:>12.1}",
            r.threads, r.unskewed, r.skewed_zipf1, r.theoretical
        );
    }
}

/// One row of Figure 15.
#[derive(Debug, Clone, Copy)]
pub struct IdealSpeedupRow {
    pub threads: usize,
    pub unskewed: f64,
    pub zipf_04: f64,
    pub zipf_06: f64,
    pub zipf_1: f64,
    pub theoretical: f64,
}

/// Figure 15: IdealJoin (nested loop) speed-up for 1–100 threads at
/// Zipf ∈ {0, 0.4, 0.6, 1}. The skewed curves plateau at `nmax`.
pub fn fig15_idealjoin_speedup(scale: ExperimentScale) -> Vec<IdealSpeedupRow> {
    let db = JoinDatabase::generate(scale.cardinality(200_000), scale.cardinality(20_000));
    let degree = scale.degree(200);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let sessions: Vec<(f64, Session)> = [0.0, 0.4, 0.6, 1.0]
        .into_iter()
        .map(|theta| (theta, db.session(degree, theta)))
        .collect();

    thread_sweep(scale)
        .into_iter()
        .map(|n| {
            let speedup_at = |idx: usize| {
                simulate(
                    sessions[idx]
                        .1
                        .query(&plan)
                        .threads(n)
                        .strategy(ConsumptionStrategy::Lpt),
                    SimConfig::ksr1(),
                )
                .speedup()
            };
            IdealSpeedupRow {
                threads: n,
                unskewed: speedup_at(0),
                zipf_04: speedup_at(1),
                zipf_06: speedup_at(2),
                zipf_1: speedup_at(3),
                theoretical: model::theoretical_speedup(degree as u64, 1.0, n, 70),
            }
        })
        .collect()
}

/// Prints Figure 15, together with the analytic `nmax` ceilings.
pub fn print_fig15(rows: &[IdealSpeedupRow], degree: usize) {
    println!("# Figure 15 — IdealJoin speed-up vs threads (nested loop, 200 fragments)");
    println!(
        "# analytic ceilings: nmax(0.4) = {:.0}, nmax(0.6) = {:.0}, nmax(1.0) = {:.0}",
        model::n_max(degree as u64, model::zipf_max_to_avg(0.4, degree)),
        model::n_max(degree as u64, model::zipf_max_to_avg(0.6, degree)),
        model::n_max(degree as u64, model::zipf_max_to_avg(1.0, degree)),
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "threads", "unskewed", "zipf=0.4", "zipf=0.6", "zipf=1", "theoretical"
    );
    for r in rows {
        println!(
            "{:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.1}",
            r.threads, r.unskewed, r.zipf_04, r.zipf_06, r.zipf_1, r.theoretical
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 16: partitioning overhead without index (Section 5.6.1)
// ---------------------------------------------------------------------------

/// One row of Figure 16.
#[derive(Debug, Clone, Copy)]
pub struct PartitioningOverheadRow {
    pub degree: usize,
    /// Measured-minus-theoretical overhead for IdealJoin, seconds.
    pub ideal_overhead_s: f64,
    /// Measured-minus-theoretical overhead for AssocJoin, seconds.
    pub assoc_overhead_s: f64,
}

/// Figure 16: overhead of a high degree of partitioning, unskewed relations
/// (100K/10K), 20 threads, nested-loop joins. The overhead is the measured
/// time minus the theoretical time `Td = T20 · 20 / d`.
pub fn fig16_partitioning_overhead(scale: ExperimentScale) -> Vec<PartitioningOverheadRow> {
    let db = JoinDatabase::generate(scale.cardinality(100_000), scale.cardinality(10_000));
    let threads = 20;
    let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    let degrees = degree_sweep(scale);
    let base_degree = degrees[0];

    let run = |plan: &Plan, degree: usize| -> f64 {
        let session = db.session(degree, 0.0);
        simulate(session.query(plan).threads(threads), SimConfig::ksr1()).total_seconds()
    };
    let ideal_base = run(&ideal, base_degree);
    let assoc_base = run(&assoc, base_degree);

    degrees
        .iter()
        .map(|&d| {
            let scale_factor = base_degree as f64 / d as f64;
            PartitioningOverheadRow {
                degree: d,
                ideal_overhead_s: run(&ideal, d) - ideal_base * scale_factor,
                assoc_overhead_s: run(&assoc, d) - assoc_base * scale_factor,
            }
        })
        .collect()
}

/// Prints Figure 16 with the fitted per-degree slopes.
pub fn print_fig16(rows: &[PartitioningOverheadRow]) {
    println!("# Figure 16 — partitioning overhead, no index (20 threads, unskewed)");
    println!(
        "{:>8} {:>16} {:>16}",
        "degree", "ideal ovh (s)", "assoc ovh (s)"
    );
    for r in rows {
        println!(
            "{:>8} {:>16.3} {:>16.3}",
            r.degree, r.ideal_overhead_s, r.assoc_overhead_s
        );
    }
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let span = (last.degree - first.degree) as f64;
        if span > 0.0 {
            println!(
                "# fitted slopes: ideal ≈ {:.2} ms/degree, assoc ≈ {:.2} ms/degree (paper: 0.45 and 4)",
                (last.ideal_overhead_s - first.ideal_overhead_s) / span * 1e3,
                (last.assoc_overhead_s - first.assoc_overhead_s) / span * 1e3
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 17: execution time with a temporary index (Section 5.6.1)
// ---------------------------------------------------------------------------

/// One row of Figure 17.
#[derive(Debug, Clone, Copy)]
pub struct IndexPartitioningRow {
    pub degree: usize,
    pub ideal_s: f64,
    pub assoc_s: f64,
}

/// Figure 17: IdealJoin and AssocJoin with a temporary index over 500K/50K
/// relations, 20 threads, degree of partitioning 250–1500.
pub fn fig17_index_partitioning(scale: ExperimentScale) -> Vec<IndexPartitioningRow> {
    let db = JoinDatabase::generate(scale.cardinality(500_000), scale.cardinality(50_000));
    let threads = 20;
    let ideal = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::TempIndex);
    let assoc = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::TempIndex);
    degree_sweep(scale)
        .into_iter()
        .map(|d| {
            let session = db.session(d, 0.0);
            IndexPartitioningRow {
                degree: d,
                ideal_s: simulate(session.query(&ideal).threads(threads), SimConfig::ksr1())
                    .total_seconds(),
                assoc_s: simulate(session.query(&assoc).threads(threads), SimConfig::ksr1())
                    .total_seconds(),
            }
        })
        .collect()
}

/// Prints Figure 17.
pub fn print_fig17(rows: &[IndexPartitioningRow]) {
    println!("# Figure 17 — execution time with temporary index (20 threads, 500K/50K)");
    println!("{:>8} {:>12} {:>12}", "degree", "ideal (s)", "assoc (s)");
    for r in rows {
        println!("{:>8} {:>12.2} {:>12.2}", r.degree, r.ideal_s, r.assoc_s);
    }
}

// ---------------------------------------------------------------------------
// Figures 18 and 19: high degree of partitioning under skew (Section 5.6.2)
// ---------------------------------------------------------------------------

/// One row of Figure 18.
#[derive(Debug, Clone, Copy)]
pub struct SkewVsPartitioningRow {
    pub degree: usize,
    /// Skew overhead v0.6 of the nested-loop IdealJoin (100K/10K).
    pub v_nested_loop: f64,
    /// Skew overhead v0.6 of the temp-index IdealJoin (500K/50K).
    pub v_index: f64,
    /// The analytic bound vworst at this degree.
    pub v_worst: f64,
}

/// Figure 18: skew overhead `v0.6 = T0.6 / T0 − 1` of IdealJoin (LPT, 20
/// threads) as the degree of partitioning grows.
pub fn fig18_skew_vs_partitioning(scale: ExperimentScale) -> Vec<SkewVsPartitioningRow> {
    let threads = 20;
    let nl_db = JoinDatabase::generate(scale.cardinality(100_000), scale.cardinality(10_000));
    let ix_db = JoinDatabase::generate(scale.cardinality(500_000), scale.cardinality(50_000));
    let nl_plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let ix_plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::TempIndex);

    let run = |db: &JoinDatabase, plan: &Plan, degree: usize, theta: f64| -> f64 {
        let session = db.session(degree, theta);
        simulate(
            session
                .query(plan)
                .threads(threads)
                .strategy(ConsumptionStrategy::Lpt),
            SimConfig::ksr1(),
        )
        .total_seconds()
    };

    degree_sweep(scale)
        .into_iter()
        .map(|d| {
            let v_nl = run(&nl_db, &nl_plan, d, 0.6) / run(&nl_db, &nl_plan, d, 0.0) - 1.0;
            let v_ix = run(&ix_db, &ix_plan, d, 0.6) / run(&ix_db, &ix_plan, d, 0.0) - 1.0;
            SkewVsPartitioningRow {
                degree: d,
                v_nested_loop: v_nl,
                v_index: v_ix,
                v_worst: model::overhead_bound(d as u64, model::zipf_max_to_avg(0.6, d), threads),
            }
        })
        .collect()
}

/// Prints Figure 18.
pub fn print_fig18(rows: &[SkewVsPartitioningRow]) {
    println!(
        "# Figure 18 — skew overhead v0.6 of IdealJoin vs degree of partitioning (LPT, 20 threads)"
    );
    println!(
        "{:>8} {:>16} {:>14} {:>10}",
        "degree", "v (nested loop)", "v (index)", "vworst"
    );
    for r in rows {
        println!(
            "{:>8} {:>16.3} {:>14.3} {:>10.3}",
            r.degree, r.v_nested_loop, r.v_index, r.v_worst
        );
    }
}

/// One row of Figure 19.
#[derive(Debug, Clone, Copy)]
pub struct SavedTimeRow {
    pub degree: usize,
    /// Execution time of the skewed temp-index IdealJoin at this degree.
    pub time_s: f64,
    /// Time saved relative to the smallest degree of the sweep.
    pub saved_s: f64,
}

/// Figure 19: time saved by raising the degree of partitioning for the
/// temp-index IdealJoin over skewed (Zipf = 0.6) data, 20 threads, LPT.
pub fn fig19_saved_time(scale: ExperimentScale) -> Vec<SavedTimeRow> {
    let db = JoinDatabase::generate(scale.cardinality(500_000), scale.cardinality(50_000));
    let threads = 20;
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::TempIndex);
    let degrees = degree_sweep(scale);
    let times: Vec<f64> = degrees
        .iter()
        .map(|&d| {
            let session = db.session(d, 0.6);
            simulate(
                session
                    .query(&plan)
                    .threads(threads)
                    .strategy(ConsumptionStrategy::Lpt),
                SimConfig::ksr1(),
            )
            .total_seconds()
        })
        .collect();
    let baseline = times[0];
    degrees
        .into_iter()
        .zip(times)
        .map(|(degree, time_s)| SavedTimeRow {
            degree,
            time_s,
            saved_s: baseline - time_s,
        })
        .collect()
}

/// Prints Figure 19, together with the unskewed reference time `T0`.
pub fn print_fig19(rows: &[SavedTimeRow], t0_reference_s: f64) {
    println!("# Figure 19 — saved time for IdealJoin with index, Zipf = 0.6 (20 threads)");
    println!("# unskewed reference T0 ≈ {t0_reference_s:.2} s (paper: 7.34 s)");
    println!("{:>8} {:>12} {:>12}", "degree", "time (s)", "saved (s)");
    for r in rows {
        println!("{:>8} {:>12.2} {:>12.2}", r.degree, r.time_s, r.saved_s);
    }
}

/// The unskewed reference time `T0` quoted in Figure 19 (temp-index
/// IdealJoin at the paper's base degree).
pub fn fig19_t0_reference(scale: ExperimentScale) -> f64 {
    let db = JoinDatabase::generate(scale.cardinality(500_000), scale.cardinality(50_000));
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::TempIndex);
    let session = db.session(scale.degree(250), 0.0);
    simulate(session.query(&plan).threads(20), SimConfig::ksr1()).total_seconds()
}

// ---------------------------------------------------------------------------
// Ablation A1: adaptive shared queues vs static one-thread-per-instance
// ---------------------------------------------------------------------------

/// One row of the static-baseline ablation.
#[derive(Debug, Clone, Copy)]
pub struct StaticBaselineRow {
    pub theta: f64,
    pub adaptive_s: f64,
    pub static_s: f64,
}

/// Ablation: the DBS3 shared-queue model against a static one-thread-per-
/// instance binding, IdealJoin, 10 threads, 200 fragments.
pub fn ablation_static_baseline(scale: ExperimentScale) -> Vec<StaticBaselineRow> {
    let db = JoinDatabase::generate(scale.cardinality(100_000), scale.cardinality(10_000));
    let degree = scale.degree(200);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    skew_sweep(scale)
        .into_iter()
        .map(|theta| {
            let session = db.session(degree, theta);
            let query = || {
                session
                    .query(&plan)
                    .threads(10)
                    .strategy(ConsumptionStrategy::Lpt)
            };
            let adaptive = simulate(query(), SimConfig::ksr1());
            let fixed = simulate(query(), SimConfig::ksr1().with_static_baseline());
            StaticBaselineRow {
                theta,
                adaptive_s: adaptive.total_seconds(),
                static_s: fixed.total_seconds(),
            }
        })
        .collect()
}

/// Prints the static-baseline ablation.
pub fn print_ablation_static(rows: &[StaticBaselineRow]) {
    println!("# Ablation — adaptive shared queues vs static per-instance threads (IdealJoin, 10 threads)");
    println!(
        "{:>6} {:>14} {:>12} {:>10}",
        "zipf", "adaptive (s)", "static (s)", "ratio"
    );
    for r in rows {
        println!(
            "{:>6.1} {:>14.2} {:>12.2} {:>10.2}",
            r.theta,
            r.adaptive_s,
            r.static_s,
            r.static_s / r.adaptive_s
        );
    }
}

// ---------------------------------------------------------------------------
// Ablation A2: queue affinity and internal cache on the real engine
// ---------------------------------------------------------------------------

/// One row of the affinity/cache ablation (real engine execution).
#[derive(Debug, Clone, Copy)]
pub struct AffinityRow {
    pub cache_size: usize,
    pub threads: usize,
    pub elapsed_ms: f64,
    /// Fraction of activations consumed from secondary (non-owned) queues.
    pub secondary_ratio: f64,
    /// Total producer-side cache flushes (lock acquisitions on consumer
    /// queues).
    pub cache_flushes: u64,
}

/// Ablation: effect of the internal activation cache size on the real
/// engine's queue traffic, AssocJoin at a reduced scale.
pub fn ablation_affinity(scale: ExperimentScale) -> Vec<AffinityRow> {
    // Always run the real engine at a modest size: this ablation is about
    // queue traffic, not data volume.
    let (a_card, b_card) = match scale {
        ExperimentScale::Paper | ExperimentScale::Scaled => (20_000, 2_000),
        ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => (4_000, 400),
    };
    let db = JoinDatabase::generate(a_card, b_card);
    let session = db.session(40, 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);

    [1usize, 8, 32, 128]
        .into_iter()
        .map(|cache_size| {
            let threads = 4;
            let outcome = session
                .query(&plan)
                .threads(threads)
                .cache_size(cache_size)
                .run()
                .expect("execution succeeds");
            let metrics = outcome
                .execution_metrics()
                .expect("threaded outcome carries engine metrics");
            let join = metrics.operation(NodeId(1)).expect("join metrics present");
            let flushes: u64 = metrics
                .operations
                .iter()
                .flat_map(|op| op.threads.iter())
                .map(|t| t.cache_flushes)
                .sum();
            AffinityRow {
                cache_size,
                threads,
                elapsed_ms: metrics.elapsed.as_secs_f64() * 1e3,
                secondary_ratio: join.secondary_consumption_ratio(),
                cache_flushes: flushes,
            }
        })
        .collect()
}

/// Prints the affinity/cache ablation.
pub fn print_ablation_affinity(rows: &[AffinityRow]) {
    println!("# Ablation — internal activation cache size (real engine, AssocJoin)");
    println!(
        "{:>11} {:>8} {:>13} {:>17} {:>14}",
        "cache size", "threads", "elapsed (ms)", "secondary ratio", "cache flushes"
    );
    for r in rows {
        println!(
            "{:>11} {:>8} {:>13.1} {:>17.3} {:>14}",
            r.cache_size, r.threads, r.elapsed_ms, r.secondary_ratio, r.cache_flushes
        );
    }
}

// ---------------------------------------------------------------------------
// Ablation A4: grain of parallelism (the paper's future work, Section 6)
// ---------------------------------------------------------------------------

/// One row of the grain-of-parallelism ablation.
#[derive(Debug, Clone, Copy)]
pub struct GranuleRow {
    /// Maximum outer tuples per triggered sub-activation (`None` = one
    /// activation per fragment, the paper's model).
    pub granule: Option<usize>,
    /// Number of join activations produced.
    pub activations: usize,
    /// Skewed (Zipf = 1) execution time, seconds.
    pub skewed_s: f64,
    /// Unskewed execution time, seconds.
    pub unskewed_s: f64,
}

impl GranuleRow {
    /// Skew overhead v at this granule.
    pub fn overhead(&self) -> f64 {
        self.skewed_s / self.unskewed_s - 1.0
    }
}

/// Ablation: choosing the grain of parallelism independent of the operation
/// semantics (Section 6, "future work"). The triggered IdealJoin is run with
/// one activation per fragment (coarse grain) and with sub-activations of
/// decreasing size; a finer grain makes the triggered operation behave like
/// a pipelined one — insensitive to skew — at the cost of per-activation
/// overhead.
pub fn ablation_granule(scale: ExperimentScale) -> Vec<GranuleRow> {
    let db = JoinDatabase::generate(scale.cardinality(100_000), scale.cardinality(10_000));
    let degree = scale.degree(200);
    let threads = 20;
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let skewed = db.session(degree, 1.0);
    let unskewed = db.session(degree, 0.0);
    let granules: Vec<Option<usize>> = match scale {
        ExperimentScale::Paper | ExperimentScale::Scaled => {
            vec![None, Some(2_000), Some(500), Some(125), Some(25)]
        }
        ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => vec![None, Some(100), Some(25)],
    };

    granules
        .into_iter()
        .map(|granule| {
            let config = match granule {
                Some(g) => SimConfig::ksr1().with_triggered_granule(g),
                None => SimConfig::ksr1(),
            };
            let run = |session: &Session| {
                let query = session
                    .query(&plan)
                    .threads(threads)
                    .strategy(ConsumptionStrategy::Lpt);
                simulate(query, config.clone())
            };
            let skewed_report = run(&skewed);
            let unskewed_report = run(&unskewed);
            GranuleRow {
                granule,
                activations: skewed_report
                    .operation(NodeId(0))
                    .expect("join simulated")
                    .activations,
                skewed_s: skewed_report.total_seconds(),
                unskewed_s: unskewed_report.total_seconds(),
            }
        })
        .collect()
}

/// Prints the grain-of-parallelism ablation.
pub fn print_ablation_granule(rows: &[GranuleRow]) {
    println!(
        "# Ablation — grain of parallelism for the triggered IdealJoin (Zipf = 1, LPT, 20 threads)"
    );
    println!(
        "{:>10} {:>13} {:>13} {:>15} {:>10}",
        "granule", "activations", "skewed (s)", "unskewed (s)", "v"
    );
    for r in rows {
        let granule = r
            .granule
            .map(|g| g.to_string())
            .unwrap_or_else(|| "fragment".to_string());
        println!(
            "{:>10} {:>13} {:>13.2} {:>15.2} {:>10.3}",
            granule,
            r.activations,
            r.skewed_s,
            r.unskewed_s,
            r.overhead()
        );
    }
}

// ---------------------------------------------------------------------------
// Ablation A3: measured overhead vs the analytic bound
// ---------------------------------------------------------------------------

/// One row of the bound-validation ablation.
#[derive(Debug, Clone, Copy)]
pub struct BoundRow {
    pub theta: f64,
    pub threads: usize,
    pub measured_v: f64,
    pub bound_v: f64,
}

/// Ablation: the measured skew overhead of the triggered IdealJoin against
/// the analytic bound of equation 3, across a (θ, n) grid.
pub fn ablation_bound(scale: ExperimentScale) -> Vec<BoundRow> {
    let db = JoinDatabase::generate(scale.cardinality(100_000), scale.cardinality(10_000));
    let degree = scale.degree(200);
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
    let thetas = [0.4, 0.8, 1.0];
    let thread_counts = [5usize, 10, 20];

    let mut rows = Vec::new();
    for &theta in &thetas {
        let skewed = db.session(degree, theta);
        let unskewed = db.session(degree, 0.0);
        for &threads in &thread_counts {
            let t_skewed = simulate(
                skewed
                    .query(&plan)
                    .threads(threads)
                    .strategy(ConsumptionStrategy::Lpt),
                SimConfig::ksr1(),
            )
            .execution_us;
            let t_ideal = simulate(
                unskewed
                    .query(&plan)
                    .threads(threads)
                    .strategy(ConsumptionStrategy::Lpt),
                SimConfig::ksr1(),
            )
            .execution_us;
            rows.push(BoundRow {
                theta,
                threads,
                measured_v: t_skewed / t_ideal - 1.0,
                bound_v: model::overhead_bound(
                    degree as u64,
                    model::zipf_max_to_avg(theta, degree),
                    threads,
                ),
            });
        }
    }
    rows
}

/// Prints the bound-validation ablation.
pub fn print_ablation_bound(rows: &[BoundRow]) {
    println!("# Ablation — measured skew overhead vs analytic bound (IdealJoin, LPT)");
    println!(
        "{:>6} {:>8} {:>12} {:>10}",
        "zipf", "threads", "measured v", "bound v"
    );
    for r in rows {
        println!(
            "{:>6.1} {:>8} {:>12.3} {:>10.3}",
            r.theta, r.threads, r.measured_v, r.bound_v
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: ExperimentScale = ExperimentScale::Smoke;

    #[test]
    fn fig08_remote_never_faster_and_gap_shrinks() {
        let rows = fig08_remote_access(SMOKE);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.remote_s >= r.local_s);
        }
        assert!(rows.last().unwrap().difference_ms() <= rows[0].difference_ms() + 1e-6);
    }

    #[test]
    fn fig12_assoc_join_is_flat_under_skew() {
        let rows = fig12_assocjoin_skew(SMOKE);
        let first = rows.first().unwrap().measured_s;
        let worst = rows
            .iter()
            .map(|r| (r.measured_s - first).abs() / first)
            .fold(0.0, f64::max);
        assert!(
            worst < 0.12,
            "AssocJoin should stay flat, max deviation {worst}"
        );
        for r in &rows {
            assert!(r.measured_s <= r.tworst_s * 1.05);
        }
    }

    #[test]
    fn fig13_lpt_no_worse_than_random_and_grows_with_skew() {
        let rows = fig13_idealjoin_skew(SMOKE);
        for r in &rows {
            assert!(
                r.lpt_s <= r.random_s * 1.05,
                "LPT worse than Random at {}",
                r.theta
            );
        }
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.random_s >= first.random_s);
    }

    #[test]
    fn fig15_skew_caps_speedup() {
        let rows = fig15_idealjoin_speedup(SMOKE);
        let last = rows.last().unwrap();
        assert!(
            last.unskewed > last.zipf_1,
            "skew must reduce the asymptotic speed-up"
        );
    }

    #[test]
    fn fig16_overheads_grow_with_degree() {
        let rows = fig16_partitioning_overhead(SMOKE);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.assoc_overhead_s >= first.assoc_overhead_s);
        assert!(last.assoc_overhead_s >= last.ideal_overhead_s);
    }

    #[test]
    fn fig18_skew_overhead_decreases_with_degree() {
        let rows = fig18_skew_vs_partitioning(SMOKE);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.v_nested_loop <= first.v_nested_loop + 0.05);
    }

    #[test]
    fn ablation_static_is_never_faster() {
        let rows = ablation_static_baseline(SMOKE);
        for r in &rows {
            assert!(r.static_s + 1e-9 >= r.adaptive_s);
        }
    }

    #[test]
    fn ablation_granule_reduces_skew_overhead() {
        let rows = ablation_granule(SMOKE);
        let coarse = rows.first().unwrap();
        let fine = rows.last().unwrap();
        assert!(fine.overhead() < coarse.overhead());
        assert!(fine.activations > coarse.activations);
    }

    #[test]
    fn ablation_bound_holds() {
        let rows = ablation_bound(SMOKE);
        for r in &rows {
            assert!(
                r.measured_v <= r.bound_v + 0.05,
                "measured {} exceeds bound {} at zipf {} threads {}",
                r.measured_v,
                r.bound_v,
                r.theta,
                r.threads
            );
        }
    }
}
