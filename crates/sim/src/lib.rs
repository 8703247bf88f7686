//! # dbs3-sim
//!
//! A virtual-time multiprocessor simulator standing in for the paper's
//! 72-processor KSR1.
//!
//! ## Why a simulator
//!
//! The paper's evaluation (Section 5) sweeps the number of threads from 1 to
//! 100 over 70 reserved processors and reports wall-clock speed-ups. Those
//! curves cannot be reproduced with real threads on a small machine, but the
//! phenomena they demonstrate — skew overhead, the `nmax` speed-up ceiling of
//! triggered operations, the per-degree partitioning overhead, the Allcache
//! remote-access penalty — are *scheduling* phenomena: they are fully
//! determined by which worker processes which activation when, and by a
//! per-activation cost model. The simulator therefore replays the same
//! extended plans, with the same activation granularity and the same
//! thread count (scheduling step 1) as the real engine, but advances a
//! virtual clock instead of burning CPU. It also runs the rest of the
//! paper's scheduler: steps 2–3 split the thread count into one pool per
//! operation, and step 4 picks a consumption strategy (Random / LPT) per
//! operation. They matter on the modelled machine, while the real engine's
//! one shared pool serves every operation and walks one fixed, cost-ordered
//! ring of queues instead.
//!
//! ## Calibration
//!
//! The default [`cost::SimCostParams`] are calibrated against the sequential
//! times the paper reports (Tseq ≈ 956 s for the 200K ⋈ 20K nested-loop
//! IdealJoin, ≈ 1048 s for AssocJoin; ≈ 0.45 ms/degree and ≈ 4 ms/degree of
//! partitioning overhead; a remote/local access ratio of 6 on the Allcache).
//! Absolute times are therefore "KSR1-scale"; the benches compare *shapes*,
//! not absolute values, against the paper.
//!
//! ## Structure
//!
//! * [`cost`] — the per-activation virtual-time cost model;
//! * [`allcache`] — the KSR1 Allcache memory model (local cache capacity,
//!   remote-access ratio) used by the Section 5.2 experiment;
//! * [`simulator`] — pipeline-aware list-scheduling simulation of an
//!   extended plan on `n` virtual workers, split into per-operation pools
//!   by scheduling steps 2–3, with the adaptive shared-queue policy or the
//!   static one-thread-per-instance baseline;
//! * [`strategy`] — the Random / LPT consumption strategies and scheduling
//!   step 4's choice between them;
//! * [`report`] — the simulation report (virtual times, speed-ups,
//!   per-operation breakdown).

pub mod allcache;
pub mod cost;
pub mod report;
pub mod simulator;
pub mod strategy;

pub use allcache::{AllcacheParams, DataPlacement};
pub use cost::SimCostParams;
pub use report::{OperationReport, SimReport};
pub use simulator::{SimConfig, Simulator, WorkerAssignment};
pub use strategy::ConsumptionStrategy;

/// Convenient `Result` alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The plan failed validation/expansion.
    Plan(String),
    /// A storage lookup failed.
    Storage(String),
    /// The configuration is invalid.
    InvalidConfig(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Plan(m) => write!(f, "plan error: {m}"),
            SimError::Storage(m) => write!(f, "storage error: {m}"),
            SimError::InvalidConfig(m) => write!(f, "invalid simulator configuration: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<dbs3_lera::PlanError> for SimError {
    fn from(e: dbs3_lera::PlanError) -> Self {
        SimError::Plan(e.to_string())
    }
}

impl From<dbs3_storage::StorageError> for SimError {
    fn from(e: dbs3_storage::StorageError) -> Self {
        SimError::Storage(e.to_string())
    }
}

impl From<dbs3_engine::EngineError> for SimError {
    fn from(e: dbs3_engine::EngineError) -> Self {
        SimError::Plan(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        assert!(SimError::InvalidConfig("zero threads".into())
            .to_string()
            .contains("zero threads"));
        let e: SimError = dbs3_lera::PlanError::EmptyPlan.into();
        assert!(matches!(e, SimError::Plan(_)));
        let e: SimError = dbs3_storage::StorageError::InvalidDegree(0).into();
        assert!(matches!(e, SimError::Storage(_)));
    }
}
