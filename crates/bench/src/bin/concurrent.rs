//! Concurrent-runtime stress gate: N queries on one shared worker pool,
//! verified against a sequential run.
//!
//! ```text
//! cargo run -p dbs3-bench --release --bin concurrent              # paper scale
//! cargo run -p dbs3-bench --release --bin concurrent -- --smoke  # CI gate
//! cargo run -p dbs3-bench --release --bin concurrent -- --queries 32 --pool 8
//! ```
//!
//! Submits `--queries` (default 16) copies of the fig14 AssocJoin to a
//! shared `Runtime` of `--pool` (default 4) workers, waits for all of them
//! and checks every per-query cardinality against a sequential `run()` of
//! the same plan. Exits non-zero on any mismatch or error — run under a CI
//! timeout, a deadlocked or livelocked pool fails the build instead of
//! hanging it.

use dbs3::prelude::*;
use dbs3_bench::concurrent::run_concurrent;
use dbs3_bench::{ExperimentScale, JoinDatabase};

fn arg_value(args: &[String], flag: &str, default: usize) -> usize {
    match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) if v > 0 => v,
            _ => {
                eprintln!("error: {flag} requires a positive integer argument");
                eprintln!("usage: concurrent [--smoke] [--queries N] [--pool N]");
                std::process::exit(2);
            }
        },
        None => default,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--smoke") {
        ExperimentScale::Smoke
    } else {
        ExperimentScale::Paper
    };
    let queries = arg_value(&args, "--queries", 16);
    let pool = arg_value(&args, "--pool", 4);

    let db = JoinDatabase::generate(scale.cardinality(200_000), scale.cardinality(20_000));
    let session = db.session(scale.degree(200), 0.0);
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);

    let expected = session
        .query(&plan)
        .threads(pool)
        .discard_results()
        .run()
        // allow-panic: the reference run gates the whole benchmark — if it
        // fails there is nothing to measure and aborting loudly is correct.
        .expect("sequential reference run")
        .result_cardinality("Result")
        // allow-panic: assoc_join always stores `Result`.
        .expect("the plan stores `Result`");

    eprintln!(
        "# concurrent stress: {queries} queries x {pool}-worker pool ({scale:?} scale, expected \
         cardinality {expected})..."
    );
    let run = match run_concurrent(&session, &plan, "fig14_assoc_join", pool, queries) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: concurrent execution failed: {e}");
            std::process::exit(1);
        }
    };

    let mut mismatches = 0usize;
    for (i, &cardinality) in run.cardinalities.iter().enumerate() {
        if cardinality != expected {
            eprintln!("error: query {i} produced {cardinality} tuples, expected {expected}");
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("error: {mismatches}/{queries} queries diverged from the sequential run");
        std::process::exit(1);
    }
    eprintln!(
        "# ok: {queries} queries agreed; elapsed={:.4}s queries/s={:.1}",
        run.elapsed_s,
        run.queries_per_second()
    );
}
