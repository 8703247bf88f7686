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
use dbs3_storage::{Fragment, PartitionedRelation};
use std::sync::Arc;

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

/// How data activations produced by one operation find the consumer
/// instance's queue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Router {
    /// Hash the given column over the consumer's degree — the dynamic
    /// redistribution of `Transmit`/pipelined joins, matching the static
    /// partitioning function exactly. A transmit does not hash: its
    /// fragment's route table for this column and degree holds the answer
    /// for every row, and its batches are slices of it.
    HashColumn { column: usize, degree: usize },
    /// Keep the producing instance (result fragments are co-located with
    /// the producing join instances).
    SameInstance,
}

/// What a consumer of a transmit reads its batches of positions in: the
/// transmitted relation, and the router of the hop, whose route tables a
/// routed batch slices.
#[derive(Debug, Clone)]
pub(crate) struct Transmitted {
    pub(crate) relation: Arc<PartitionedRelation>,
    pub(crate) router: Router,
}

impl Transmitted {
    /// The fragment a batch of positions points into and the positions of
    /// its rows there, in batch order; `None` for a batch of another form,
    /// or a routed one on a co-located hop. A routed batch's table was
    /// built by the transmit that cut it, so finding it takes one atomic
    /// load per degree built and no lock or reference count.
    #[expect(
        clippy::expect_used,
        reason = "a batch of positions names the transmit instance that scanned the fragment, \
                  and binding gave its consumer the same relation"
    )]
    pub(crate) fn rows(
        &self,
        batch: &TupleBatch,
    ) -> Option<(&Fragment, impl ExactSizeIterator<Item = usize> + Clone + '_)> {
        let at = batch.positions()?;
        let fragment = self
            .relation
            .fragment(at.source as usize)
            .expect("positions point into an existing fragment");
        let table = match (at.routed, self.router) {
            (false, _) => None,
            (true, Router::HashColumn { column, degree }) => {
                Some(fragment.routes(column, degree).rows())
            }
            (true, Router::SameInstance) => return None,
        };
        let rows = at.start as usize..at.end as usize;
        Some((
            fragment,
            rows.map(move |i| table.map_or(i, |t| t[i] as usize)),
        ))
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
    ///
    /// The activation is only borrowed: a store keeps clones of the rows it
    /// materialises.
    ///
    /// A transmit builds no batch: the runtime has it cut its fragment's
    /// positions into batches instead, so here it returns an empty one.
    pub fn process(&self, instance: usize, activation: &Activation) -> TupleBatch {
        match self {
            BoundOperator::Filter(op) => op.process(instance, activation),
            BoundOperator::Transmit(_) => TupleBatch::default(),
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
