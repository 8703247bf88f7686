//! Engine errors.

use crate::faults::FaultPoint;
use std::fmt;

/// Errors produced while scheduling or executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The plan failed validation or expansion.
    Plan(String),
    /// A storage lookup failed at bind time.
    Storage(String),
    /// The schedule does not cover every operation of the plan.
    IncompleteSchedule { node: usize },
    /// A schedule parameter is invalid (zero queue capacity or cache size).
    InvalidSchedule(String),
    /// The scheduler options themselves are invalid (zero total threads,
    /// zero cache size, ...). Rejected up front instead of silently clamping.
    InvalidOptions(String),
    /// A worker thread panicked during execution.
    WorkerPanicked { operation: String },
    /// The runtime was asked to run a plan with no store operator, so there
    /// is nowhere to put the result.
    NoStoreOperator,
    /// The query was cancelled through its
    /// [`QueryHandle`](crate::runtime::QueryHandle) before it completed.
    QueryCancelled { query: u64 },
    /// The [`Runtime`](crate::runtime::Runtime) was shut down (dropped) while
    /// the query was still in flight.
    RuntimeShutdown,
    /// The query's deadline elapsed and the query was cancelled (by
    /// [`QueryHandle::wait_timeout_or_cancel`](crate::runtime::QueryHandle::wait_timeout_or_cancel)).
    /// The query is no longer running.
    DeadlineExceeded { query: u64 },
    /// The runtime watchdog saw no activation progress on the query for
    /// longer than its stall interval and aborted it.
    QueryStuck { query: u64, stalled_for_ms: u64 },
    /// An installed [`FaultPlan`](crate::faults::FaultPlan) fired an
    /// `error`/`drop` action at the named fault point.
    FaultInjected { point: FaultPoint },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plan(msg) => write!(f, "plan error: {msg}"),
            EngineError::Storage(msg) => write!(f, "storage error: {msg}"),
            EngineError::IncompleteSchedule { node } => {
                write!(f, "schedule is missing operation for plan node {node}")
            }
            EngineError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            EngineError::InvalidOptions(msg) => write!(f, "invalid scheduler options: {msg}"),
            EngineError::WorkerPanicked { operation } => {
                write!(f, "a worker thread of operation `{operation}` panicked")
            }
            EngineError::NoStoreOperator => {
                write!(f, "plan has no store operator; results would be lost")
            }
            EngineError::QueryCancelled { query } => {
                write!(f, "query {query} was cancelled")
            }
            EngineError::RuntimeShutdown => {
                write!(f, "the runtime was shut down before the query completed")
            }
            EngineError::DeadlineExceeded { query } => {
                write!(f, "query {query} exceeded its deadline and was cancelled")
            }
            EngineError::QueryStuck {
                query,
                stalled_for_ms,
            } => {
                write!(
                    f,
                    "query {query} made no progress for {stalled_for_ms} ms and was aborted by the watchdog"
                )
            }
            EngineError::FaultInjected { point } => {
                write!(f, "injected fault fired at `{point}`")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<dbs3_lera::PlanError> for EngineError {
    fn from(e: dbs3_lera::PlanError) -> Self {
        EngineError::Plan(e.to_string())
    }
}

impl From<dbs3_storage::StorageError> for EngineError {
    fn from(e: dbs3_storage::StorageError) -> Self {
        EngineError::Storage(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EngineError::NoStoreOperator.to_string().contains("store"));
        assert!(EngineError::IncompleteSchedule { node: 4 }
            .to_string()
            .contains('4'));
        assert!(EngineError::InvalidSchedule("x".into())
            .to_string()
            .contains('x'));
        assert!(EngineError::QueryCancelled { query: 7 }
            .to_string()
            .contains('7'));
        assert!(EngineError::RuntimeShutdown.to_string().contains("shut"));
        assert!(EngineError::DeadlineExceeded { query: 3 }
            .to_string()
            .contains("deadline"));
        assert!(EngineError::QueryStuck {
            query: 9,
            stalled_for_ms: 250
        }
        .to_string()
        .contains("250"));
        assert!(EngineError::FaultInjected {
            point: FaultPoint::ServeWrite
        }
        .to_string()
        .contains("serve.write"));
    }

    #[test]
    fn conversions() {
        let p: EngineError = dbs3_lera::PlanError::EmptyPlan.into();
        assert!(matches!(p, EngineError::Plan(_)));
        let s: EngineError = dbs3_storage::StorageError::InvalidDegree(0).into();
        assert!(matches!(s, EngineError::Storage(_)));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<EngineError>();
    }
}
