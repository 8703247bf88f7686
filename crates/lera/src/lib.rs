//! # dbs3-lera
//!
//! The Lera-par parallel plan language used by DBS3 (Section 2 of the paper).
//!
//! Lera-par is a dataflow language: a program is a graph whose nodes are
//! operators (filter, join, transmit, store, ...) and whose edges carry
//! *activations*. An activation is either a **control activation** (a trigger
//! message that starts an operation on its associated fragment) or a **data
//! activation** (one tuple flowing through a pipeline). Each activation is a
//! sequential unit of work.
//!
//! The storage model is statically partitioned, so a plan has two views:
//!
//! * the **simple view** ([`plan::Plan`]) with one node per logical operator,
//! * the **extended view** ([`extended::ExtendedPlan`]) with one *instance*
//!   per fragment of the operator's associated relation — the view the
//!   execution engine and the simulator actually run.
//!
//! The crate also provides the plan builders for the two experiment plans of
//! the paper (`IdealJoin` and `AssocJoin`, Figures 10 and 11), pipeline-chain
//! (subquery) decomposition, and the complexity estimation the scheduler
//! feeds into the thread-allocation equations of Section 3.

pub mod builder;
pub mod complexity;
pub mod error;
pub mod extended;
pub mod ops;
pub mod plan;
pub mod plans;
pub mod predicate;
pub mod subquery;

pub use builder::PlanBuilder;
pub use complexity::{CostParameters, PlanComplexity};
pub use error::PlanError;
pub use extended::{ExtendedOperation, ExtendedPlan, InstanceInfo};
pub use ops::{
    ActivationKind, InputSource, JoinAlgorithm, NodeId, OperatorKind, OperatorNode, OuterInput,
};
pub use plan::Plan;
pub use predicate::{CompareOp, JoinCondition, Predicate};
pub use subquery::{Subquery, SubqueryDecomposition};

/// Convenient `Result` alias for plan construction and validation.
pub type Result<T> = std::result::Result<T, PlanError>;
