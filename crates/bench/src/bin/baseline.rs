//! Writes the engine benchmark baseline (`BENCH_engine.json`).
//!
//! ```text
//! cargo run -p dbs3-bench --release --bin baseline                    # paper + scaled tiers
//! cargo run -p dbs3-bench --release --bin baseline -- --scale paper  # one tier only
//! cargo run -p dbs3-bench --release --bin baseline -- --scale scaled --gate
//! cargo run -p dbs3-bench --release --bin baseline -- --out /tmp/b.json
//! ```
//!
//! Measures the fig14 (AssocJoin, pipelined) and fig15 (IdealJoin, triggered)
//! hash-join shapes on the threaded engine at 1/4/8 threads — at the paper
//! tier and at the 32× `scaled` tier, each with derived
//! `speedup_4t`/`speedup_8t` ratios per shape — plus the multi-query shape
//! (fig14 at 1/4/16 concurrent queries on a shared 4-worker `Runtime` pool,
//! measured at every requested tier), and writes one JSON document.
//!
//! `--smoke` substitutes the CI-sized tiers (smoke / scaled_smoke).
//! `--gate` turns the run into a scaling gate: after measuring, the scaled
//! tier's fig14 shape must reach a 4-thread speedup of at least
//! `0.6 × min(4, host_cpus)` (1.2 on 2 CPUs, 2.4 on 4 or more), and
//! multi-query queries/s must not collapse as concurrency rises (each
//! level keeps at least 70% of the best lower level, per tier) — or
//! the process exits non-zero. The gate runs on every host.
//! The emitted file is re-read and sanity-checked so a truncated write fails
//! loudly (the CI smoke step relies on a non-zero exit here).

use dbs3_bench::baseline::{host_cpus, run_tier, to_json, BaselineTier, BASELINE_THREADS};
use dbs3_bench::concurrent::{
    is_non_collapsing, run_concurrent_baseline, ConcurrentRun, CONCURRENT_QUERIES,
};
use dbs3_bench::ExperimentScale;

/// Share of the host's usable width, `min(4, host_cpus)`, that the scaled
/// fig14 shape's 4-thread speedup must reach under `--gate`. A 2-CPU host
/// measures ~2.0 against a floor of 1.2; a 4-thread run that falls below it
/// means the extra workers stopped paying.
const GATE_SPEEDUP_PER_CPU: f64 = 0.6;

/// Minimum fraction of the best lower-concurrency queries/s each
/// multi-query level must keep under `--gate`. Guards the 4-query anomaly
/// (aggregate throughput at 4 concurrent queries collapsing to a quarter of
/// the 1-query figure) while tolerating bench noise.
const GATE_MIN_CONCURRENT_RATIO: f64 = 0.7;

/// Shape the gate inspects (the engine's hottest data path).
const GATE_SHAPE: &str = "fig14_assoc_join";

fn usage() -> ! {
    eprintln!("usage: baseline [--smoke] [--scale paper|scaled|both] [--gate] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = args.iter().any(|a| a == "--gate");
    let scale_arg = match args.iter().position(|a| a == "--scale") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some(s @ ("paper" | "scaled" | "both")) => s.to_string(),
            _ => usage(),
        },
        None => "both".to_string(),
    };
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => path.clone(),
            _ => usage(),
        },
        None => "BENCH_engine.json".to_string(),
    };

    let base_tier = if smoke {
        ExperimentScale::Smoke
    } else {
        ExperimentScale::Paper
    };
    let scaled_tier = if smoke {
        ExperimentScale::ScaledSmoke
    } else {
        ExperimentScale::Scaled
    };
    let scales: Vec<ExperimentScale> = match scale_arg.as_str() {
        "paper" => vec![base_tier],
        "scaled" => vec![scaled_tier],
        _ => vec![base_tier, scaled_tier],
    };

    // The multi-query section is measured per requested tier: the base tier
    // tracks pool scheduling cost, the 32× tier shows whether the shape
    // survives when each query carries real join work. It runs *before*
    // the single-query tier sweeps: the 32× tier churns gigabytes through
    // the process allocator, and the short paper-tier concurrent runs
    // measurably slow down when they inherit that heap state.
    let mut concurrent: Vec<ConcurrentRun> = Vec::new();
    for &scale in &scales {
        eprintln!(
            "# measuring multi-query baseline ({} tier, shared pool, queries {CONCURRENT_QUERIES:?})...",
            scale.name()
        );
        let runs = run_concurrent_baseline(scale, 3);
        for c in &runs {
            eprintln!(
                "#   {:<18} scale={} pool={} queries={:<2} elapsed={:.4}s queries/s={:.1}",
                c.workload,
                c.scale,
                c.pool_threads,
                c.queries,
                c.elapsed_s,
                c.queries_per_second()
            );
        }
        concurrent.extend(runs);
    }

    let mut tiers: Vec<BaselineTier> = Vec::new();
    for &scale in &scales {
        eprintln!(
            "# measuring engine baseline ({} tier, threads {BASELINE_THREADS:?}, host_cpus {})...",
            scale.name(),
            host_cpus()
        );
        let tier = run_tier(scale);
        for r in &tier.runs {
            eprintln!(
                "#   {:<18} threads={} elapsed={:.4}s acts={}",
                r.shape, r.threads, r.elapsed_s, r.logical_activations
            );
        }
        for s in &tier.speedups {
            eprintln!(
                "#   {:<18} speedup_4t={:.2} speedup_8t={:.2}",
                s.shape, s.speedup_4t, s.speedup_8t
            );
        }
        tiers.push(tier);
    }

    let json = to_json(&tiers, &concurrent);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    });

    // Fail loudly on a truncated or malformed emission. (CI additionally
    // parses the file with a real JSON parser.)
    let written = std::fs::read_to_string(&out_path).unwrap_or_default();
    let expected_runs = scales.len() * 2 * BASELINE_THREADS.len();
    if !written.contains("\"tiers\"")
        || written.matches("\"shape\"").count() < expected_runs
        || written.matches('{').count() != written.matches('}').count()
        || written.matches('[').count() != written.matches(']').count()
        || !written.trim_end().ends_with('}')
    {
        eprintln!("error: {out_path} is malformed");
        std::process::exit(1);
    }
    eprintln!(
        "# wrote {out_path} ({} tiers, {expected_runs} runs, {} concurrency levels)",
        tiers.len(),
        concurrent.len()
    );

    if gate {
        run_gate(&tiers, scaled_tier, &concurrent);
    }
}

/// The CI scaling gate: the scaled-tier fig14 shape must reach
/// `GATE_SPEEDUP_PER_CPU × min(4, host_cpus)` at 4 threads, and the
/// multi-query queries/s must be non-collapsing across concurrency levels
/// at every measured tier.
fn run_gate(tiers: &[BaselineTier], scaled_tier: ExperimentScale, concurrent: &[ConcurrentRun]) {
    let cpus = host_cpus();
    let min_speedup = GATE_SPEEDUP_PER_CPU * cpus.min(4) as f64;
    let Some(tier) = tiers.iter().find(|t| t.scale == scaled_tier) else {
        eprintln!("error: gate requested but the scaled tier was not measured");
        std::process::exit(1);
    };
    let Some(row) = tier.speedups.iter().find(|s| s.shape == GATE_SHAPE) else {
        eprintln!("error: gate shape {GATE_SHAPE} missing from the scaled tier");
        std::process::exit(1);
    };
    if row.speedup_4t < min_speedup {
        eprintln!(
            "error: gate FAILED — {GATE_SHAPE} 4-thread speedup {:.2} < {min_speedup:.1} \
             on a {cpus}-CPU host (parallelism stopped paying)",
            row.speedup_4t
        );
        std::process::exit(1);
    }
    if concurrent.is_empty() {
        eprintln!("error: gate requested but no multi-query levels were measured");
        std::process::exit(1);
    }
    if !is_non_collapsing(concurrent, GATE_MIN_CONCURRENT_RATIO) {
        let shape: Vec<String> = concurrent
            .iter()
            .map(|c| format!("{}/{}q={:.1}", c.scale, c.queries, c.queries_per_second()))
            .collect();
        eprintln!(
            "error: gate FAILED — multi-query queries/s collapses as \
             concurrency rises (some level fell below {GATE_MIN_CONCURRENT_RATIO} of the \
             best lower level): {}",
            shape.join(", ")
        );
        std::process::exit(1);
    }
    eprintln!(
        "# gate: OK — {GATE_SHAPE} speedup_4t={:.2} (>= {min_speedup:.1}), multi-query \
         queries/s non-collapsing over {} levels (ratio >= {GATE_MIN_CONCURRENT_RATIO}, \
         host_cpus={cpus})",
        row.speedup_4t,
        concurrent.len()
    );
}
