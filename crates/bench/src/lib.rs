//! # dbs3-bench
//!
//! The experiment harness regenerating every figure of the paper's
//! evaluation (Section 5), plus three ablations.
//!
//! Every experiment is a pure function returning printable rows, so the same
//! code backs:
//!
//! * the `experiments` binary (`cargo run -p dbs3-bench --release --bin
//!   experiments -- fig15`), which prints the same series the paper plots at
//!   paper scale;
//! * the Criterion benches (`cargo bench -p dbs3-bench`), which run the
//!   identical harness at a reduced "smoke" scale so a full `cargo bench`
//!   stays tractable.
//!
//! Three more binaries measure or stress the real threaded engine:
//!
//! * `baseline` writes `BENCH_engine.json`, the paper-figure record: fig14 /
//!   fig15 elapsed time at 1/4/8 threads with derived speedups, plus the
//!   multi-query queries/s shape; `--gate` turns it into the CI scaling gate;
//! * `concurrent` runs N verified queries on one shared pool under a hard
//!   timeout (the CI stress gate);
//! * `chaos` replays a seeded fault storm against an in-process server.
//!
//! README's "Reproducing the paper's figures" table maps each bench target
//! to its figure; `tests/golden/figures_smoke.txt` pins the smoke-scale
//! output of every simulator-driven `experiments` subcommand.

pub mod baseline;
pub mod concurrent;
pub mod data;
pub mod experiments;

pub use data::{ExperimentScale, JoinDatabase};
