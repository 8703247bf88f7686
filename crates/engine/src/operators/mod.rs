//! Physical operators (the paper's "database functions", `DBFunc` in
//! Figure 4).
//!
//! Every operator is *bound*: plan-level column names are resolved to column
//! indexes and relation names to `Arc<PartitionedRelation>` fragments before
//! execution, so processing an activation does no name lookups. Operators are
//! shared by all threads of their operation pool and must be `Send + Sync`.

mod filter;
mod join;
mod store;
mod transmit;

pub use filter::FilterOperator;
pub use join::{PipelinedJoinOperator, TriggeredJoinOperator};
pub use store::StoreOperator;
pub use transmit::TransmitOperator;

use crate::activation::{Activation, TupleBatch};

/// Resolves a control activation to the fragment row range it covers, given
/// the fragment's cardinality: a trigger covers the whole fragment, a morsel
/// covers its `start..end` slice (clamped to the fragment). Data activations
/// resolve to `None` — they carry tuples, not a scan range.
pub(crate) fn control_range(
    activation: &Activation,
    fragment_len: usize,
) -> Option<(usize, usize)> {
    match activation {
        Activation::Trigger => Some((0, fragment_len)),
        Activation::Morsel { start, end, .. } => {
            let end = (*end).min(fragment_len);
            Some(((*start).min(end), end))
        }
        Activation::Data(_) => None,
    }
}

/// A bound physical operator: given an activation for one of its instances,
/// produce the output tuples.
#[derive(Debug)]
pub enum BoundOperator {
    /// Triggered selection over base fragments.
    Filter(FilterOperator),
    /// Triggered scan + redistribution of base fragments.
    Transmit(TransmitOperator),
    /// Triggered co-partitioned join (IdealJoin).
    TriggeredJoin(TriggeredJoinOperator),
    /// Pipelined join probing co-partitioned inner fragments.
    PipelinedJoin(PipelinedJoinOperator),
    /// Result materialisation.
    Store(StoreOperator),
}

impl BoundOperator {
    /// Processes one transport activation for `instance`, returning the
    /// produced output batch (empty for `Store`; rows counted but not built
    /// for a producer bound to a counting store). A data activation's whole
    /// tuple batch is processed under this single dispatch.
    pub fn process(&self, instance: usize, activation: Activation) -> TupleBatch {
        match self {
            BoundOperator::Filter(op) => op.process(instance, activation),
            BoundOperator::Transmit(op) => op.process(instance, activation),
            BoundOperator::TriggeredJoin(op) => op.process(instance, activation),
            BoundOperator::PipelinedJoin(op) => op.process(instance, activation),
            BoundOperator::Store(op) => op.process(instance, activation),
        }
    }

    /// For triggered operators, the number of fragment rows instance
    /// `instance` scans when triggered — the cardinality the runtime splits
    /// into morsels at submit time. `None` for pipelined/store operators
    /// (they are driven by data activations, not triggers) or when the
    /// instance has no fragment.
    pub fn triggered_rows(&self, instance: usize) -> Option<usize> {
        match self {
            BoundOperator::Filter(op) => op.triggered_rows(instance),
            BoundOperator::Transmit(op) => op.triggered_rows(instance),
            BoundOperator::TriggeredJoin(op) => op.triggered_rows(instance),
            BoundOperator::PipelinedJoin(_) | BoundOperator::Store(_) => None,
        }
    }

    /// Short operator name for metrics.
    pub fn name(&self) -> &'static str {
        match self {
            BoundOperator::Filter(_) => "filter",
            BoundOperator::Transmit(_) => "transmit",
            BoundOperator::TriggeredJoin(_) => "triggered-join",
            BoundOperator::PipelinedJoin(_) => "pipelined-join",
            BoundOperator::Store(_) => "store",
        }
    }
}
