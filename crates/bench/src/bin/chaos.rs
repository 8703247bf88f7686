//! `chaos` — the seeded fault-replay driver the CI chaos job runs.
//!
//! ```text
//! chaos [--seed N] [--clients N] [--queries N]
//! ```
//!
//! Runs one [`dbs3_bench::chaos`] storm: an in-process `dbs3-serve` server
//! with the runtime watchdog armed, a seeded fault plan on every serve,
//! worker and cache path, and a fleet of self-healing clients, every fourth
//! request under a 1 ms deadline. The module doc lists the faults and the
//! invariants.
//!
//! Exits 0 when every invariant held, 1 when the storm broke one (or could
//! not be set up), and 2 on bad usage.

// A panic here kills the process: each justified site carries an
// `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use dbs3_bench::chaos::{self, Storm};
use std::process::ExitCode;

fn parse_args() -> Result<Storm, String> {
    let mut storm = Storm::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seed" => {
                storm.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--clients" => {
                storm.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--queries" => {
                storm.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?;
            }
            "--help" | "-h" => {
                println!("usage: chaos [--seed N] [--clients N] [--queries N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if storm.clients == 0 || storm.queries == 0 {
        return Err("--clients and --queries must be at least 1".to_string());
    }
    Ok(storm)
}

fn main() -> ExitCode {
    let storm = match parse_args() {
        Ok(storm) => storm,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "chaos: seed={} clients={} queries/client={}",
        storm.seed, storm.clients, storm.queries
    );
    match chaos::run(storm) {
        Ok(report) => {
            eprintln!("chaos: {report}; all invariants held");
            ExitCode::SUCCESS
        }
        Err(broken) => {
            eprintln!("chaos: FAILED — {broken}");
            ExitCode::FAILURE
        }
    }
}
