//! # dbs3-bench
//!
//! The experiment harness regenerating every figure of the paper's
//! evaluation (Section 5), plus three ablations.
//!
//! Every experiment is a pure function returning printable rows, printed by
//! the `experiments` binary (`cargo run -p dbs3-bench --release --bin
//! experiments -- fig15`) as the same series the paper plots, at paper scale
//! or, with `--smoke`, at a reduced scale. `tests/golden/figures_smoke.txt`
//! pins the smoke-scale output of every simulator-driven subcommand, and
//! README's "Reproducing the paper's figures" table maps each subcommand to
//! its figure.
//!
//! Two more binaries drive the real threaded engine:
//!
//! * `baseline` writes `BENCH_engine.json`, the paper-figure record: fig14 /
//!   fig15 elapsed time at 1/4/8 threads with derived speedups, plus the
//!   multi-query queries/s shape; `--gate` turns it into the CI scaling gate;
//! * `chaos` replays a seeded fault storm against an in-process server.

pub mod baseline;
pub mod concurrent;
pub mod data;
pub mod experiments;

pub use data::{ExperimentScale, JoinDatabase};
