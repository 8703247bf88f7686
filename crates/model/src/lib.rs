//! # dbs3-model
//!
//! Analytical model of DBS3's adaptive parallel execution, straight from the
//! paper:
//!
//! * Section 4.1 — the skew overhead analysis for a single operation:
//!   `Tideal`, `Tworst` and the overhead bound
//!   `v ≤ (Pmax / P) · (n − 1) / a` (equations 1–3);
//! * Section 5.5 — the maximum useful degree of parallelism
//!   `nmax = (a · P) / Pmax` and the resulting speed-up ceiling for triggered
//!   operations;
//! * Section 3 — the four-step thread allocation: total thread count, the
//!   bottom-up assignment of threads to subqueries (the system of ratio
//!   equations of Figure 5 step 2), and the per-operation split within a
//!   pipeline chain (step 3).
//!
//! The simulator consumes the thread-allocation solver (scheduling steps
//! 2–3, which only its one-pool-per-operation machine reads), and the
//! benches overlay its predictions (Tworst, theoretical speed-up, vworst) on
//! the measured curves exactly as the paper's figures do.

pub mod allocation;
pub mod overhead;
pub mod speedup;

pub use allocation::{allocate_chain, allocate_subqueries, SubqueryNode, SubqueryPlanAllocation};
pub use overhead::{ideal_time, overhead_bound, skew_overhead, worst_time};
pub use speedup::{n_max, theoretical_speedup, triggered_speedup_ceiling, zipf_max_to_avg};
