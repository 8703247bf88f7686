//! Activations: the sequential units of work.
//!
//! "An activator denotes either a tuple (data activation) or a control
//! message (control activation). In either case, when an operator receives an
//! activation, the corresponding sequential operation is executed. Therefore,
//! each activation acts as a sequential unit of work." (Section 2)
//!
//! # Transport batches vs logical activations
//!
//! The paper's model is strictly per-tuple: one data activation per pipelined
//! tuple. Handling millions of per-tuple activations is also where the
//! paper's overhead story lives (queue interference, Section 3, Figure 4),
//! which DBS3 mitigates with the producer-side activation cache. This engine
//! takes the mitigation one step further: a data activation physically
//! carries a [`TupleBatch`] — every tuple the producer's internal cache had
//! buffered for the destination instance — so one queue push/pop moves up to
//! `CacheSize` tuples under a single lock acquisition.
//!
//! Batching is purely a *transport* optimisation. All observable semantics
//! stay per-tuple: metrics count **logical activations** (one per tuple of a
//! data batch, one per trigger, see [`Activation::logical_len`]), routing
//! hashes every tuple individually, and the simulator keeps modelling
//! per-tuple activations — which is why `tests/backend_equivalence.rs` holds
//! across cache sizes.
//!
//! There is a third case: rows that are **counted but never built**. When a
//! query discards its results, the store only tallies `batch.len()` — so the
//! operator feeding it does not build (and the store's thread does not free)
//! one tuple per output row; it ships a batch that *stands for* `n` rows
//! ([`TupleBatch::len`]). Such a batch is still `n` logical activations and
//! `n` units of queue weight, so metrics, back-pressure and the
//! simulator-pinned activation counts cannot tell the difference.
//! **Invariant:** counted rows only ever cross a co-located
//! (`Router::SameInstance`) hop into a counting store.
//!
//! And a fourth: rows that travel as **positions**. A transmit scans base
//! fragments the catalog already holds, so it ships no row at all: a batch
//! of positions names a fragment and a range `start..end`, 12 bytes with no
//! buffer behind them. On a hash-routed hop the range indexes the
//! fragment's route table ([`dbs3_storage::RouteTable`]: its rows grouped
//! by destination, built once per fragment and degree), and each batch is
//! a slice of one destination's group; on a co-located hop it is the rows
//! themselves. The batch says which, in its `routed` flag. The consumer
//! reads what it needs from the fragment — a counting indexed join only the
//! dense key column, a building join or a materialising store the rows, a
//! counting store only `batch.len()`. A batch of `n` positions is `n`
//! logical activations and `n` units of queue weight, like `n` rows.
//! **Invariant:** positions only ever travel from a transmit to a consumer
//! bound with the transmitted relation, and a routed batch only to one
//! bound with the column and degree it was routed by.
//!
//! The runtime decides both once per operator, at bind time, from the
//! schedule's `discard_results` and the plan edge; every place that reads
//! tuples out of a batch `debug_assert`s that it holds built rows.

use dbs3_storage::Tuple;

/// An ordered batch of tuples moving through a pipeline as one transport
/// unit. The batch size is bounded by the producer's `CacheSize` (the flush
/// threshold of the internal activation cache).
#[derive(Debug, Clone, PartialEq)]
pub struct TupleBatch(Rows);

/// What a batch carries for its rows (see the module docs for where each
/// form may travel). Every form fits in the 32 bytes of an [`Activation`],
/// which a morsel needs anyway: the form is a tag byte of its own rather
/// than a niche in the vector's capacity, so telling the forms apart is
/// one byte compare, and the batch keeps the four words of a queue slot.
#[derive(Debug, Clone, PartialEq)]
#[repr(u8)]
enum Rows {
    /// Built rows.
    Built(Vec<Tuple>),
    /// Rows counted by the producer, never built.
    Counted(usize),
    /// Rows of a fragment of the transmitted relation, by position.
    Positions(Positions),
}

/// A batch of positions: rows of fragment `source` of a transmitted
/// relation, given as the range `start..end` of the fragment's route table
/// when `routed`, else of its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Positions {
    /// The fragment, which is the transmit instance that scanned it.
    pub(crate) source: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
    /// Whether `start..end` indexes the route table of the column and
    /// degree of a hash-routed hop rather than the rows.
    pub(crate) routed: bool,
}

impl Default for TupleBatch {
    fn default() -> Self {
        TupleBatch(Rows::Built(Vec::new()))
    }
}

impl TupleBatch {
    /// Creates a batch from tuples.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        TupleBatch(Rows::Built(tuples))
    }

    /// A batch standing for `rows` rows that were counted but never built.
    /// Only a counting store may receive it. No rows is the empty batch.
    pub(crate) fn counted(rows: usize) -> Self {
        if rows == 0 {
            return TupleBatch::default();
        }
        TupleBatch(Rows::Counted(rows))
    }

    /// A batch of positions. Only a consumer bound with the transmitted
    /// relation, and for a routed one with its route, may receive it.
    pub(crate) fn at(positions: Positions) -> Self {
        TupleBatch(Rows::Positions(positions))
    }

    /// Number of rows in the batch, whatever its form — the batch's
    /// *logical* activation count in the paper's per-tuple model.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Rows::Built(tuples) => tuples.len(),
            Rows::Counted(rows) => *rows,
            Rows::Positions(at) => at.end.saturating_sub(at.start) as usize,
        }
    }

    /// Whether the batch stands for no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What a batch of positions points at.
    #[inline]
    pub(crate) fn positions(&self) -> Option<Positions> {
        match &self.0 {
            Rows::Positions(at) => Some(*at),
            Rows::Built(_) | Rows::Counted(_) => None,
        }
    }

    /// The tuples in arrival order.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        self.debug_assert_built();
        match &self.0 {
            Rows::Built(tuples) => tuples,
            Rows::Counted(_) | Rows::Positions(_) => &[],
        }
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples().iter()
    }

    /// Consumes the batch, returning the tuple vector.
    #[inline]
    pub fn into_vec(self) -> Vec<Tuple> {
        self.debug_assert_built();
        match self.0 {
            Rows::Built(tuples) => tuples,
            Rows::Counted(_) | Rows::Positions(_) => Vec::new(),
        }
    }

    /// Reading tuples out of a batch of counted rows or of positions would
    /// silently lose them: such a batch reached something other than a
    /// counting store or a consumer bound with the transmitted relation.
    #[inline]
    fn debug_assert_built(&self) {
        debug_assert!(
            matches!(self.0, Rows::Built(_)),
            "counted rows may only reach a counting store, and positions only a consumer \
             bound with the transmitted relation"
        );
    }
}

impl From<Vec<Tuple>> for TupleBatch {
    fn from(tuples: Vec<Tuple>) -> Self {
        TupleBatch::new(tuples)
    }
}

impl From<Tuple> for TupleBatch {
    fn from(tuple: Tuple) -> Self {
        TupleBatch::new(vec![tuple])
    }
}

impl IntoIterator for TupleBatch {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a TupleBatch {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One transport activation.
#[derive(Debug, Clone, PartialEq)]
pub enum Activation {
    /// A control activation: start the operation instance on its associated
    /// fragment. A triggered queue receives exactly one of these (unless the
    /// fragment was split into [`Activation::Morsel`]s instead).
    Trigger,
    /// A control activation covering the fragment row range `start..end` —
    /// one morsel of a fragment split for intra-operator parallelism (the
    /// engine-side counterpart of the simulator's `triggered_granule`).
    ///
    /// Exactly one morsel per fragment is the *lead* morsel; only it carries
    /// the fragment's single logical trigger activation, so however finely a
    /// fragment is split, the per-operation logical activation count stays
    /// what the paper's model (and the simulator) report for one trigger.
    Morsel {
        /// First fragment row covered (inclusive).
        start: usize,
        /// One past the last fragment row covered.
        end: usize,
        /// Whether this morsel carries the fragment's logical trigger.
        lead: bool,
    },
    /// A data activation: a batch of tuples flowing through a pipeline
    /// (logically, one per-tuple activation per batched row, built or not).
    Data(TupleBatch),
}

impl Activation {
    /// Builds a data activation carrying a single tuple (the degenerate
    /// `CacheSize = 1` transport, and the convenient form for tests).
    pub fn single(tuple: Tuple) -> Self {
        Activation::Data(TupleBatch::from(tuple))
    }

    /// Whether this is a whole-fragment control activation.
    pub fn is_trigger(&self) -> bool {
        matches!(self, Activation::Trigger)
    }

    /// Whether this is a control activation (a trigger or a morsel).
    pub fn is_control(&self) -> bool {
        matches!(self, Activation::Trigger | Activation::Morsel { .. })
    }

    /// Number of *logical* (paper-model, per-tuple) activations this
    /// transport activation stands for: a trigger is one unit of work, a
    /// data batch is one unit per tuple, and of a split fragment's morsels
    /// only the lead one counts (the whole fragment is still one logical
    /// trigger). Execution metrics count logical activations so they are
    /// independent of both the transport batch granularity and the morsel
    /// granularity.
    #[inline]
    pub fn logical_len(&self) -> usize {
        match self {
            Activation::Trigger => 1,
            Activation::Morsel { lead, .. } => usize::from(*lead),
            Activation::Data(batch) => batch.len(),
        }
    }

    /// Queue-transport weight: what this activation occupies in a queue.
    /// Every control activation weighs one unit (a non-lead morsel is real
    /// schedulable work even though it is logically weightless), a data
    /// batch weighs one unit per tuple. Queue accounting — capacity,
    /// `len()`, the enqueue/dequeue totals and the runtime's pending-work
    /// counters — uses this weight, so morsels stay visible to the
    /// scheduler; metrics use [`Activation::logical_len`].
    #[inline]
    pub fn queue_weight(&self) -> usize {
        match self {
            Activation::Trigger | Activation::Morsel { .. } => 1,
            Activation::Data(batch) => batch.len(),
        }
    }

    /// The batch carried by a data activation.
    pub fn batch(&self) -> Option<&TupleBatch> {
        match self {
            Activation::Trigger | Activation::Morsel { .. } => None,
            Activation::Data(batch) => Some(batch),
        }
    }

    /// Consumes the activation, returning the batch of a data activation.
    pub fn into_batch(self) -> Option<TupleBatch> {
        match self {
            Activation::Trigger | Activation::Morsel { .. } => None,
            Activation::Data(batch) => Some(batch),
        }
    }
}

impl From<Tuple> for Activation {
    fn from(t: Tuple) -> Self {
        Activation::single(t)
    }
}

impl From<TupleBatch> for Activation {
    fn from(batch: TupleBatch) -> Self {
        Activation::Data(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs3_storage::tuple::int_tuple;

    #[test]
    fn trigger_has_no_batch() {
        let a = Activation::Trigger;
        assert!(a.is_trigger());
        assert!(a.is_control());
        assert_eq!(a.logical_len(), 1);
        assert_eq!(a.queue_weight(), 1);
        assert!(a.batch().is_none());
        assert!(a.into_batch().is_none());
    }

    #[test]
    fn morsels_weigh_one_in_queues_but_only_the_lead_counts_logically() {
        let lead = Activation::Morsel {
            start: 0,
            end: 128,
            lead: true,
        };
        let tail = Activation::Morsel {
            start: 128,
            end: 200,
            lead: false,
        };
        for a in [&lead, &tail] {
            assert!(a.is_control());
            assert!(!a.is_trigger());
            assert_eq!(a.queue_weight(), 1);
            assert!(a.batch().is_none());
        }
        assert_eq!(lead.logical_len(), 1);
        assert_eq!(tail.logical_len(), 0);
    }

    #[test]
    fn data_carries_batch() {
        let batch = TupleBatch::new(vec![int_tuple(&[1, 2]), int_tuple(&[3, 4])]);
        let a = Activation::from(batch.clone());
        assert!(!a.is_trigger());
        assert_eq!(a.logical_len(), 2);
        assert_eq!(a.batch(), Some(&batch));
        assert_eq!(a.into_batch(), Some(batch));
    }

    #[test]
    fn counted_rows_weigh_like_built_ones() {
        let a = Activation::Data(TupleBatch::counted(5));
        assert_eq!(a.logical_len(), 5);
        assert_eq!(a.queue_weight(), 5);
        assert!(!a.batch().unwrap().is_empty());
        assert!(TupleBatch::counted(0).is_empty());
        assert_eq!(TupleBatch::counted(0), TupleBatch::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "counting store")]
    fn reading_tuples_out_of_a_counted_batch_is_a_bug() {
        let _ = TupleBatch::counted(2).into_vec();
    }

    #[test]
    fn positions_weigh_like_the_rows_they_stand_for() {
        for routed in [false, true] {
            let at = Positions {
                source: 3,
                start: 7,
                end: 10,
                routed,
            };
            let batch = TupleBatch::at(at);
            assert_eq!(batch.positions(), Some(at));
            let a = Activation::Data(batch);
            assert_eq!(a.logical_len(), 3);
            assert_eq!(a.queue_weight(), 3);
        }
        assert!(TupleBatch::new(vec![int_tuple(&[1])]).positions().is_none());
        assert!(TupleBatch::counted(1).positions().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "transmitted relation")]
    fn reading_tuples_out_of_a_batch_of_positions_is_a_bug() {
        let _ = TupleBatch::at(Positions {
            source: 0,
            start: 1,
            end: 3,
            routed: false,
        })
        .tuples();
    }

    #[test]
    fn an_activation_stays_four_words() {
        // Every queue slot holds one activation: a fifth word would grow
        // every queue and every pop buffer.
        assert_eq!(std::mem::size_of::<TupleBatch>(), 32);
        assert_eq!(std::mem::size_of::<Activation>(), 32);
    }

    #[test]
    fn single_tuple_is_a_one_element_batch() {
        let t = int_tuple(&[7]);
        let a = Activation::from(t.clone());
        assert_eq!(a.logical_len(), 1);
        assert_eq!(a.batch().unwrap().tuples(), &[t]);
    }

    #[test]
    fn batch_iteration_preserves_order() {
        let batch = TupleBatch::from(vec![int_tuple(&[1]), int_tuple(&[2]), int_tuple(&[3])]);
        let vals: Vec<i64> = batch.iter().map(|t| t.value(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 3]);
        let owned: Vec<i64> = batch
            .into_iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(owned, vec![1, 2, 3]);
        assert!(TupleBatch::default().is_empty());
    }
}
