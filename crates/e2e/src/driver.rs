//! The parent process: per workload, one untimed settling child, then one
//! fresh child per timed round, then a counted child (and a traced one on
//! request); their reports are reduced to the published metrics. Every
//! timing is the median over rounds of the per-round statistic: about one
//! fresh process in five starts with a ~1.7x slow window, and the median
//! discards it.
//!
//! Workloads run one after the other, not interleaved round by round. On
//! the sizing host a stretch of heavy CPU use leaves the next ~7 s of a
//! *light* load slow (the open-loop workload read 4.3-5.0 CPU-ms per query
//! instead of 2.6 right after a closed-loop child, and recovered after two
//! windows or 8 s of idling), so a light workload interleaved with heavy
//! ones never leaves that state. The settling round absorbs the same
//! hangover from whatever ran before this process.

use crate::child::Role;
use crate::report::{ChildReport, Metric, WorkloadReport};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, max_over_min, median, percentile_with_failures, range_share};
use crate::workload::Workload;
use crate::BenchResult;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workloads, in report order.
    pub workloads: Vec<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Total measured seconds per workload, split evenly over the rounds.
    pub seconds: f64,
    /// Timed rounds per workload.
    pub rounds: usize,
    /// Also run the traced child and report the layer table.
    pub traced: bool,
    /// 1/20-scale data (with `rounds` and `seconds` set by the caller).
    pub smoke: bool,
}

/// Runs one child process to completion and parses its report.
fn spawn_child(
    cfg: &RunConfig,
    workload: Workload,
    role: Role,
    round: usize,
) -> BenchResult<ChildReport> {
    let window = cfg.seconds / cfg.rounds.max(1) as f64;
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--child", role.name(), "--workload", workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &window.to_string()])
        .args(["--round", &round.to_string()]);
    if cfg.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!(
            "{} child of {} (round {round}) ended with {}",
            role.name(),
            workload.name(),
            output.status
        )
        .into());
    }
    ChildReport::parse(&String::from_utf8_lossy(&output.stdout))
}

/// The reports behind one workload's numbers.
#[derive(Debug, Default)]
struct Collected {
    timed: Vec<ChildReport>,
    counted: ChildReport,
    traced: Option<ChildReport>,
}

impl Collected {
    fn rounds(&self, name: &str) -> Vec<f64> {
        self.timed.iter().map(|r| r.get(name)).collect()
    }

    fn pooled_latencies(&self) -> Vec<f64> {
        self.timed
            .iter()
            .filter_map(|r| r.series.get("latencies_ms"))
            .flatten()
            .copied()
            .collect()
    }

    fn failed_in_rounds(&self) -> usize {
        self.timed.iter().map(|r| r.failed as usize).sum()
    }
}

/// Reduces a workload's child reports to its published metrics.
fn reduce(workload: Workload, c: &Collected) -> WorkloadReport {
    let mut report = WorkloadReport {
        workload: workload.name(),
        ..WorkloadReport::default()
    };
    let all = c.timed.iter().chain([&c.counted]).chain(c.traced.as_ref());
    for child in all {
        report.attempted += child.attempted;
        report.failed += child.failed;
    }
    report.correct = report.failed == 0;
    let pooled = c.pooled_latencies();

    for m in END_TO_END {
        let metric = if m.name.starts_with("alloc") {
            // Counts, not timings: one counted child, repeatable exactly.
            Metric {
                name: m.name.to_string(),
                unit: m.unit,
                value: c.counted.get(m.name),
                samples: c.counted.attempted as usize,
                rounds: vec![],
            }
        } else {
            let rounds = c.rounds(m.name);
            Metric {
                name: m.name.to_string(),
                unit: m.unit,
                value: median(&rounds),
                samples: if m.name.starts_with("query_") {
                    pooled.len()
                } else {
                    rounds.len()
                },
                rounds,
            }
        };
        report.end_to_end.push(metric);
    }

    let Some(traced) = &c.traced else {
        return report;
    };
    let p50_rounds = c.rounds("query_p50_ms");
    let calib = c.rounds("host.calib_ms");
    for (name, unit, _) in PER_LAYER {
        let in_rounds = c.timed.iter().all(|r| r.values.contains_key(name));
        let (value, rounds, samples) = match name {
            "dbs3_engine.instance_spread" => (max_over_min(&p50_rounds), vec![], p50_rounds.len()),
            "latency.p99_ms" => (
                percentile_with_failures(&pooled, c.failed_in_rounds(), 99.0),
                vec![],
                pooled.len(),
            ),
            "latency.samples_per_round" => {
                let per_round: Vec<f64> = c.timed.iter().map(|r| r.attempted as f64).collect();
                (median(&per_round), per_round.clone(), per_round.len())
            }
            "host.calib_spread" => (max_over_min(&calib), vec![], calib.len()),
            "trace.overhead_share" => {
                let untraced = median(&p50_rounds);
                let share = if untraced > 0.0 {
                    traced.get("trace.window_p50_ms") / untraced - 1.0
                } else {
                    0.0
                };
                (share, vec![], 1)
            }
            _ if in_rounds && !c.timed.is_empty() => {
                let rounds = c.rounds(name);
                (median(&rounds), rounds.clone(), rounds.len())
            }
            _ if c.counted.values.contains_key(name) => (c.counted.get(name), vec![], 1),
            _ => (traced.get(name), vec![], 1),
        };
        report.per_layer.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            rounds,
        });
    }

    let spread = max_over_min(&calib);
    if spread > 1.15 {
        report.warnings.push(format!(
            "host.calib_ms max/min = {spread:.3} over the rounds: the host itself shifted, \
             timings of this run are suspect"
        ));
    }
    let coverage = traced.get("trace.span_coverage");
    if (coverage - 1.0).abs() > 0.05 {
        report.warnings.push(format!(
            "top-level spans cover {coverage:.3} of the measured query time (expected 1 ± 0.05)"
        ));
    }
    report
}

/// Round index of the settling child; timed rounds count from 1.
const SETTLING_ROUND: usize = 0;

/// Runs the benchmark: every child of every workload, then the reduction.
pub fn run_benchmark(cfg: &RunConfig) -> BenchResult<Vec<WorkloadReport>> {
    let mut reports = Vec::with_capacity(cfg.workloads.len());
    for workload in &cfg.workloads {
        // Same work as a timed round, result discarded (see module docs).
        spawn_child(cfg, *workload, Role::Timed, SETTLING_ROUND)?;
        let mut collected = Collected::default();
        for round in 1..=cfg.rounds {
            collected
                .timed
                .push(spawn_child(cfg, *workload, Role::Timed, round)?);
        }
        collected.counted = spawn_child(cfg, *workload, Role::Counted, cfg.rounds + 1)?;
        if cfg.traced {
            collected.traced = Some(spawn_child(cfg, *workload, Role::Traced, cfg.rounds + 2)?);
        }
        reports.push(reduce(*workload, &collected));
    }
    Ok(reports)
}

/// `--audit N`: the whole benchmark `n` times back to back, run `i` on seed
/// `seed + i` — the acceptance procedure for this benchmark — then, per
/// end-to-end metric × workload, how far the `n` aggregates spread and how
/// far the rounds inside a run spread, as a markdown document.
pub fn audit(cfg: &RunConfig, n: usize) -> BenchResult<String> {
    let mut runs = Vec::with_capacity(n);
    for i in 0..n {
        eprintln!("dbs3-e2e: audit run {} of {n}", i + 1);
        runs.push(run_benchmark(&RunConfig {
            seed: cfg.seed.wrapping_add(i as u64),
            ..cfg.clone()
        })?);
    }
    let mut out = String::from("# dbs3-e2e audit\n\n");
    let _ = writeln!(
        out,
        "`--audit {n} --seed {} --seconds {}` (run i uses seed + i) — {} rounds per run, host \
         CPUs {}.\n",
        cfg.seed,
        cfg.seconds,
        cfg.rounds,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    out.push_str(
        "Range = (max − min) / median of the per-run aggregates; IQR = (Q3 − Q1) / median of \
         the same, quartiles as Python's `statistics.quantiles(v, n=4)` (equal to the range \
         for three runs); round spread = the largest (max − min) / median of the per-round \
         values inside any one run. A range above the metric's bound is marked **over**.\n\n",
    );
    let mut over = 0usize;
    let mut failed = 0u64;
    for (w_index, workload) in cfg.workloads.iter().enumerate() {
        let _ = writeln!(out, "## {}\n", workload.name());
        out.push_str(
            "| metric | unit | bound | per-run aggregates | range | IQR | round spread | |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for (m_index, m) in END_TO_END.iter().enumerate() {
            let metrics: Vec<&Metric> = runs
                .iter()
                .map(|run| &run[w_index].end_to_end[m_index])
                .collect();
            let aggregates: Vec<f64> = metrics.iter().map(|m| m.value).collect();
            let run_spread = range_share(&aggregates);
            let round_spread = metrics
                .iter()
                .map(|m| range_share(&m.rounds))
                .fold(0.0, f64::max);
            let verdict = if run_spread > m.bound {
                over += 1;
                "**over**"
            } else {
                "ok"
            };
            let values: Vec<String> = aggregates.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(
                out,
                "| `{}` | {} | {:.0} % | {} | {:.2} % | {:.2} % | {:.2} % | {verdict} |",
                m.name,
                m.unit,
                m.bound * 100.0,
                values.join(", "),
                run_spread * 100.0,
                iqr_share(&aggregates) * 100.0,
                round_spread * 100.0,
            );
        }
        failed += runs.iter().map(|run| run[w_index].failed).sum::<u64>();
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{} pairings, {over} over their bound, {failed} failed operations.",
        cfg.workloads.len() * END_TO_END.len()
    );
    for run in &runs {
        for report in run {
            for warning in &report.warnings {
                let _ = writeln!(out, "\nwarning ({}): {warning}", report.workload);
            }
        }
    }
    Ok(out)
}

/// The default configuration of a full run.
pub fn default_config() -> RunConfig {
    RunConfig {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        rounds: spec::ROUNDS,
        traced: false,
        smoke: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(p50: f64, latencies: &[f64], calib: f64) -> ChildReport {
        let mut r = ChildReport {
            attempted: latencies.len() as u64,
            ..ChildReport::default()
        };
        r.set("query_p50_ms", p50);
        r.set("query_p90_ms", p50 * 2.0);
        r.set("throughput_qps", 1000.0 / p50);
        r.set("cpu_ms_per_query", p50 * 1.5);
        r.set("setup_s", 0.5);
        r.set("host.calib_ms", calib);
        r.series.insert("latencies_ms".into(), latencies.to_vec());
        r
    }

    fn collected() -> Collected {
        let mut counted = ChildReport {
            attempted: 200,
            ..ChildReport::default()
        };
        counted.set("allocs_per_query", 27_313.0);
        counted.set("alloc_kib_per_query", 26_190.33);
        counted.set("setup_s", 9.0);
        Collected {
            timed: vec![
                timed(14.0, &[13.0, 14.0, 15.0], 20.0),
                timed(24.0, &[23.0, 24.0, 25.0], 20.0),
                timed(14.2, &[14.0, 14.2, 14.4], 25.0),
            ],
            counted,
            traced: None,
        }
    }

    #[test]
    fn timings_are_medians_over_rounds_and_counts_come_from_the_counted_child() {
        let report = reduce(Workload::LocalAssocPipeline, &collected());
        let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let get = |n: &str| report.end_to_end.iter().find(|m| m.name == n).unwrap();
        // The 24 ms round is the outlier the median discards.
        assert_eq!(get("query_p50_ms").value, 14.2);
        assert_eq!(get("query_p50_ms").rounds, vec![14.0, 24.0, 14.2]);
        assert_eq!(get("query_p50_ms").samples, 9);
        assert_eq!(get("allocs_per_query").value, 27_313.0);
        assert_eq!(get("allocs_per_query").samples, 200);
        // setup_s is a timing: rounds' median, not the counted child's.
        assert_eq!(get("setup_s").value, 0.5);
        assert_eq!(report.attempted, 209);
        assert!(report.correct && report.per_layer.is_empty());
    }

    #[test]
    fn layer_table_covers_every_declared_metric_and_warns_on_host_shift() {
        let mut c = collected();
        let mut traced = ChildReport::default();
        traced.set("trace.window_p50_ms", 14.91);
        traced.set("trace.span_coverage", 0.99);
        traced.set("dbs3_engine.wait_ms", 13.0);
        c.traced = Some(traced);
        let report = reduce(Workload::LocalAssocPipeline, &c);
        assert_eq!(report.per_layer.len(), PER_LAYER.len());
        let get = |n: &str| report.per_layer.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("dbs3_engine.wait_ms"), 13.0);
        assert!((get("dbs3_engine.instance_spread") - 24.0 / 14.0).abs() < 1e-12);
        assert!((get("trace.overhead_share") - 0.05).abs() < 1e-9);
        assert_eq!(get("host.calib_ms"), 20.0);
        assert_eq!(get("host.calib_spread"), 1.25);
        assert_eq!(get("latency.p99_ms"), 25.0);
        // A layer the workload never touches reads 0.
        assert_eq!(get("dbs3_serve.connect_ms"), 0.0);
        assert_eq!(report.warnings.len(), 1);
        assert!(report.warnings[0].contains("host.calib_ms"));
    }

    #[test]
    fn a_failed_operation_marks_the_run_incorrect() {
        let mut c = collected();
        c.timed[0].failed = 1;
        c.timed[0].attempted += 1;
        let report = reduce(Workload::LocalAssocPipeline, &c);
        assert!(!report.correct);
        assert_eq!(report.failed, 1);
    }
}
