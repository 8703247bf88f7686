//! One child process = one fresh instance of the system: set-up, the
//! correctness gate, warm-up, then exactly one measured pass. The parent
//! (`driver`) spawns a child per (workload, round) and takes medians over
//! them, so allocator state, cache contents and per-`Runtime` scheduling
//! modes of one round never leak into the next.

use crate::layers;
use crate::procfs;
use crate::report::ChildReport;
use crate::spec;
use crate::stats::{median, percentile_with_failures};
use crate::target::{
    ExecStats, LocalTarget, PassLength, PassOutcome, ServeTarget, CONNECTIONS, LADDER_CONNECTIONS,
};
use crate::trace::{self, Span, Tracer};
use crate::workload::{self, Workload, WARMUP_QUERIES};
use crate::{BenchResult, GLOBAL};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a child measures after its warm-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A timed window with tracing and allocation counting off.
    Timed,
    /// A fixed number of queries with the allocator counting.
    Counted,
    /// A timed window with spans on, then the layer probes.
    Traced,
}

impl Role {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Role::Timed => "timed",
            Role::Counted => "counted",
            Role::Traced => "traced",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Role> {
        [Role::Timed, Role::Counted, Role::Traced]
            .into_iter()
            .find(|r| r.name() == name)
    }
}

/// A child's instructions.
#[derive(Debug, Clone)]
pub struct ChildConfig {
    /// Workload to run.
    pub workload: Workload,
    /// What to measure.
    pub role: Role,
    /// Workload seed (data) — the round is mixed in for the arrival schedule.
    pub seed: u64,
    /// Round index.
    pub round: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// 1/20-scale data.
    pub smoke: bool,
}

/// Where trace files go: `$CARGO_TARGET_DIR/dbs3-e2e/` (or `target/…`),
/// relative to the working directory — inside the checkout, ignored by git.
pub fn trace_path(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("dbs3-e2e")
        .join(format!("{}.trace.json", workload.name()))
}

enum Target {
    Local(Box<LocalTarget>),
    Serve(Box<ServeTarget>),
}

impl Target {
    fn run(&mut self, length: PassLength, seed: u64, tr: &mut Tracer) -> BenchResult<PassOutcome> {
        match self {
            Target::Local(local) => Ok(local.run(length, tr, 1)),
            Target::Serve(serve) => match length {
                PassLength::Window(window) => serve.open_loop(
                    workload::OPEN_LOOP_QPS,
                    window,
                    seed,
                    CONNECTIONS,
                    tr.is_enabled().then(|| tr.origin()),
                ),
                PassLength::Count(n) => serve.closed_loop(n),
            },
        }
    }
}

/// Runs one child to completion and returns its report.
pub fn run_child(cfg: &ChildConfig, process_start: Instant) -> BenchResult<ChildReport> {
    let mut report = ChildReport::default();
    let mut tr = if cfg.role == Role::Traced {
        Tracer::enabled(process_start)
    } else {
        Tracer::disabled()
    };
    let setup_span = tr.begin("setup", 0);
    let db = workload::build_database(cfg.workload, cfg.seed, cfg.smoke, &mut tr)?;
    let relations = (db.probe_relation, db.build_relation);
    let mut target = if cfg.workload.is_remote() {
        Target::Serve(Box::new(ServeTarget::start(db, &mut tr)?))
    } else {
        let prepare = !cfg.workload.replaces_catalog();
        Target::Local(Box::new(LocalTarget::from_parts(
            db.session, db.plan, db.spare, prepare, &mut tr,
        )?))
    };

    // The gate is the benchmark's work, not the system's: it is timed
    // apart and kept out of `setup_s`.
    let span = tr.begin("setup.verify", 0);
    let verify_started = Instant::now();
    match &mut target {
        Target::Local(local) => local.verify(relations)?,
        Target::Serve(serve) => serve.verify(relations)?,
    }
    let verify_time = verify_started.elapsed();
    tr.end(span);

    let span = tr.begin("setup.warmup", 0);
    let warmup = target.run(
        PassLength::Count(WARMUP_QUERIES),
        cfg.seed,
        &mut Tracer::disabled(),
    )?;
    tr.end(span);
    tr.end(setup_span);
    if warmup.failed > 0 {
        return Err(format!("{} warm-up queries failed", warmup.failed).into());
    }
    let setup_s = process_start.elapsed().saturating_sub(verify_time);
    report.set("setup_s", setup_s.as_secs_f64());
    report.set("setup.verify_ms", verify_time.as_secs_f64() * 1e3);
    report.set("host.calib_ms", procfs::calibrate_ms());

    let round_seed = cfg.seed.wrapping_mul(1_000_003).wrapping_add(cfg.round + 1);
    match cfg.role {
        Role::Counted => {
            let n = cfg.workload.shape(cfg.smoke).counted_queries;
            GLOBAL.start();
            let pass = target.run(PassLength::Count(n), round_seed, &mut tr);
            let counts = GLOBAL.stop();
            let pass = pass?;
            let per_query = pass.attempted().max(1) as f64;
            report.set("allocs_per_query", counts.allocs as f64 / per_query);
            report.set(
                "alloc_kib_per_query",
                counts.bytes as f64 / 1024.0 / per_query,
            );
            report.set(
                "alloc.peak_live_mib",
                counts.peak_live_bytes as f64 / (1024.0 * 1024.0),
            );
            report.attempted = pass.attempted() as u64;
            report.failed = pass.failed as u64;
        }
        Role::Timed | Role::Traced => {
            let cpu_before = procfs::process_cpu_ms();
            let switches_before = procfs::context_switches();
            let caches_before = dbs3::cache_stats();
            let pass = target.run(PassLength::Window(cfg.window), round_seed, &mut tr)?;
            let caches = dbs3::cache_stats().since(&caches_before);
            let queries = pass.attempted().max(1) as f64;
            let ok = &pass.latencies_ms;
            report.set(
                "query_p50_ms",
                percentile_with_failures(ok, pass.failed, 50.0),
            );
            report.set(
                "query_p90_ms",
                percentile_with_failures(ok, pass.failed, 90.0),
            );
            report.set(
                "throughput_qps",
                ok.len() as f64 / pass.elapsed.as_secs_f64().max(1e-9),
            );
            if let (Some(before), Some(after)) = (cpu_before, procfs::process_cpu_ms()) {
                report.set("cpu_ms_per_query", (after - before) / queries);
            }
            if let (Some(before), Some(after)) = (switches_before, procfs::context_switches()) {
                report.set(
                    "process.ctx_switches_per_query",
                    after.saturating_sub(before) as f64 / queries,
                );
            }
            report.set(
                "dbs3_serve.generator_late_p90_ms",
                percentile_with_failures(&pass.late_ms, 0, 90.0),
            );
            report.set("dbs3_engine.cache.plan_hit_rate", hit_rate(&caches.plan));
            report.set("dbs3_engine.cache.index_hit_rate", hit_rate(&caches.index));
            report.set(
                "dbs3_engine.cache.evictions_per_query",
                (caches.plan.evictions + caches.index.evictions) as f64 / queries,
            );
            report.series.insert("latencies_ms".into(), ok.clone());
            report.attempted = pass.attempted() as u64;
            report.failed = pass.failed as u64;
            if cfg.role == Role::Traced {
                traced_extras(cfg, &mut target, relations, tr, pass, &mut report)?;
            }
        }
    }

    if let Target::Local(local) = &target {
        if local.reclaim_clones > 0 {
            eprintln!(
                "dbs3-e2e: note: {} replaced relation versions were still shared and were cloned",
                local.reclaim_clones
            );
        }
    }
    if let Target::Serve(serve) = target {
        let stats = serve.stop()?;
        report.set("dbs3_serve.shed", stats.shed as f64);
        report.set("dbs3_serve.replayed", stats.replayed as f64);
        report.set("dbs3_serve.deadlines", stats.deadlines as f64);
    }
    if let Some(rss) = procfs::peak_rss_mib() {
        report.set("process.peak_rss_mib", rss);
    }
    Ok(report)
}

/// Hits over lookups; a window without a single lookup missed nothing (a
/// prepared query carries its plan and never asks the plan cache), so it
/// reads 1.0 rather than `CacheCounters::hit_rate`'s 0.0.
fn hit_rate(counters: &dbs3::CacheCounters) -> f64 {
    if counters.hits + counters.misses == 0 {
        1.0
    } else {
        counters.hit_rate()
    }
}

/// Median of one field over per-query engine statistics.
fn exec_median(exec: &[ExecStats], field: impl Fn(&ExecStats) -> f64) -> f64 {
    median(&exec.iter().map(field).collect::<Vec<f64>>())
}

/// Fills the engine rows of the layer table from per-query statistics and
/// the caller-side `dbs3_engine.submit` / `dbs3_engine.wait` spans of the same pass.
fn engine_rows(exec: &[ExecStats], spans: &[Span], report: &mut ChildReport) {
    let submit_ms = trace::durations_ms(spans, "dbs3_engine.submit");
    let wait_ms = trace::durations_ms(spans, "dbs3_engine.wait");
    report.set("dbs3_engine.submit_us", median(&submit_ms) * 1e3);
    report.set("dbs3_engine.wait_ms", median(&wait_ms));
    report.set(
        "dbs3_engine.exec_elapsed_ms",
        exec_median(exec, |e| e.elapsed_ms),
    );
    // Spans and statistics pair up query by query unless a query failed.
    if submit_ms.len() == exec.len() && wait_ms.len() == exec.len() {
        let bind: Vec<f64> = exec
            .iter()
            .zip(submit_ms.iter().zip(&wait_ms))
            .map(|(e, (s, w))| s + w - e.elapsed_ms)
            .collect();
        report.set("dbs3_engine.bind_ms", median(&bind));
    }
    report.set(
        "dbs3_engine.op_busy_ms.transmit",
        exec_median(exec, |e| e.busy_ms[0]),
    );
    report.set(
        "dbs3_engine.op_busy_ms.join",
        exec_median(exec, |e| e.busy_ms[1]),
    );
    report.set(
        "dbs3_engine.op_busy_ms.store",
        exec_median(exec, |e| e.busy_ms[2]),
    );
    report.set(
        "dbs3_engine.idle_share",
        exec_median(exec, |e| {
            let capacity = workload::POOL_THREADS as f64 * e.elapsed_ms;
            if capacity > 0.0 {
                1.0 - e.busy_ms.iter().sum::<f64>() / capacity
            } else {
                0.0
            }
        }),
    );
    report.set(
        "dbs3_engine.join_imbalance",
        exec_median(exec, |e| e.join_imbalance),
    );
    report.set(
        "dbs3_engine.secondary_ratio",
        exec_median(exec, |e| e.secondary_ratio),
    );
    report.set(
        "dbs3_engine.idle_polls_per_query",
        exec_median(exec, |e| e.idle_polls as f64),
    );
    report.set(
        "dbs3_engine.cache_flushes_per_query",
        exec_median(exec, |e| e.cache_flushes as f64),
    );
    report.set(
        "dbs3_engine.logical_activations_per_query",
        exec_median(exec, |e| e.activations as f64),
    );
}

/// The traced child's second half: layer rows from the window's spans, the
/// layer probes, the serve-only passes, and the trace file.
fn traced_extras(
    cfg: &ChildConfig,
    target: &mut Target,
    relations: (&str, &str),
    mut tr: Tracer,
    window: PassOutcome,
    report: &mut ChildReport,
) -> BenchResult<()> {
    report.set("trace.window_p50_ms", report.get("query_p50_ms"));
    let mut threads: Vec<Vec<Span>> = window.thread_spans;

    match target {
        Target::Local(local) => {
            // Top-level spans of each query against its measured time.
            let covered: f64 = [
                "dbs3_storage.catalog_replace",
                "dbs3_engine.submit",
                "dbs3_engine.wait",
            ]
            .iter()
            .map(|name| trace::durations_ms(tr.spans(), name).iter().sum::<f64>())
            .sum();
            let measured: f64 = window.latencies_ms.iter().sum();
            if window.failed == 0 && measured > 0.0 {
                report.set("trace.span_coverage", covered / measured);
            }
            engine_rows(&window.exec, tr.spans(), report);
            layers::probe_layers(
                local.session(),
                local.plan(),
                relations.0,
                relations.1,
                local.runtime(),
                &mut tr,
                &mut report.values,
            )?;
        }
        Target::Serve(serve) => {
            // Each request's span is its own top level: due → done.
            let whole: f64 = threads
                .iter()
                .map(|t| trace::durations_ms(t, "query").iter().sum::<f64>())
                .sum();
            let parts: f64 = threads
                .iter()
                .flat_map(|t| {
                    ["generator.late", "dbs3_serve.execute"]
                        .iter()
                        .map(|n| trace::durations_ms(t, n).iter().sum::<f64>())
                })
                .sum();
            if whole > 0.0 {
                report.set("trace.span_coverage", parts / whole);
            }

            // The same query on a local pool beside the (now idle) server:
            // the engine rows, and the base of `dbs3_serve.remote_extra_ms`.
            let detail_queries = if cfg.smoke { 10 } else { 50 };
            let span = tr.begin("dbs3_serve.detail.local", 0);
            let mut local = LocalTarget::from_parts(
                serve.session.clone(),
                serve.request.plan.clone(),
                None,
                true,
                &mut Tracer::disabled(),
            )?;
            local.set_expected(serve.request.expected as usize);
            let first = tr.spans().len();
            let local_pass = local.run(PassLength::Count(detail_queries), &mut tr, 1_000_000);
            engine_rows(&local_pass.exec, &tr.spans()[first..], report);
            tr.end(span);
            let span = tr.begin("dbs3_serve.detail.remote", 0);
            let remote_pass = serve.closed_loop(detail_queries)?;
            tr.end(span);
            if local_pass.failed + remote_pass.failed > 0 {
                return Err("a serve detail pass returned a wrong answer".into());
            }
            report.set("dbs3_serve.connect_ms", remote_pass.connect_ms);
            report.set(
                "dbs3_serve.remote_extra_ms",
                median(&remote_pass.latencies_ms) - median(&local_pass.latencies_ms),
            );

            // Latency at a few fixed rates, and the highest that stays
            // within the limit while the generator keeps up.
            let mut best = 0.0;
            for (step, rate) in spec::LADDER_RATES.into_iter().enumerate() {
                let seed = cfg.seed.wrapping_add(step as u64);
                let span = tr.begin("dbs3_serve.ladder.step", 0);
                let pass = serve.open_loop(rate, cfg.window, seed, LADDER_CONNECTIONS, None)?;
                tr.end(span);
                let p90 = percentile_with_failures(&pass.latencies_ms, pass.failed, 90.0);
                let late = percentile_with_failures(&pass.late_ms, 0, 90.0);
                report.set(&spec::ladder_metric(rate), p90);
                if p90 <= spec::LADDER_P90_LIMIT_MS && late < spec::LADDER_LATE_LIMIT_MS {
                    best = rate;
                }
            }
            report.set("dbs3_serve.max_rate_within_limit_qps", best);

            layers::probe_layers(
                local.session(),
                &serve.request.plan,
                relations.0,
                relations.1,
                local.runtime(),
                &mut tr,
                &mut report.values,
            )?;
        }
    }

    // Set-up rows come straight from the set-up spans.
    for (metric, name) in [
        ("dbs3_storage.generate_ms", "dbs3_storage.generate"),
        ("dbs3_storage.partition_ms", "dbs3_storage.partition"),
    ] {
        report.set(metric, trace::durations_ms(tr.spans(), name).iter().sum());
    }
    threads.insert(0, tr.into_spans());
    report.set(
        "trace.spans",
        threads.iter().map(Vec::len).sum::<usize>() as f64,
    );
    let path = trace_path(cfg.workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, trace::chrome_trace_json(&threads))?;
    eprintln!("dbs3-e2e: trace written to {}", path.display());
    Ok(())
}
