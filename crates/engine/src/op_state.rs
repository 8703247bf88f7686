//! One state word per operation: whether it has work, whether it is being
//! worked on, and whether it is done.
//!
//! The paper's adaptive execution makes one decision per operation over its
//! per-instance activation queues (Figure 4). The runtime keeps that
//! decision in a single [`OpState`], packed into one `AtomicU64` per
//! operation ([`OpWord`]), and changes it only through the pure transition
//! function [`apply`]. Every reservation, claim, pop and finish is one
//! read-modify-write on that one location, so the transitions of an
//! operation happen in one total order, and the exhaustive explorer in this
//! module's tests checks the protocol over every interleaving instead of
//! prose arguing it.
//!
//! # Accounting
//!
//! `pending` is the queue weight buffered across the operation's queues,
//! plus the weight of pushes in progress. A producer raises it *before*
//! every push ([`Event::Reserve`]) and gives it back if the push is refused
//! ([`Event::Unreserve`]); a consumer lowers it only *after* a pop
//! ([`Event::Popped`]). So `pending` is at least the buffered weight at
//! every instant, and `pending = 0` means the queues are empty.
//!
//! The operation is finished when `input_closed ∧ pending = 0 ∧
//! inflight = 0`: its producers are done and have closed its queues
//! ([`Event::InputClosed`]), nothing is buffered, and no worker holds a
//! popped batch ([`Event::Begin`] … [`Event::End`]). [`apply`] checks that
//! condition after every transition, so exactly one transition — an
//! `End`, an `InputClosed` or a give-back — reports [`Effect::Finished`],
//! and its caller closes the consumer's queues. The one cross-location edge
//! left is push-before-close: the queue mutex orders them, and a push that
//! lands after the close is refused and given back.
//!
//! # Waking a worker
//!
//! Workers find work by reading `pending`: a worker snapshots the pool's
//! wake-up epoch, walks the live operations for one with `pending > 0`, and
//! parks on that epoch if the walk finds none. A producer whose `Reserve`
//! raised `pending` from 0 bumps the epoch after its push, landed or
//! refused: a refused push may leave in the queue the batch of a producer
//! whose `Reserve` came second and found `pending` above 0. A walk that
//! read the 0 began before that bump, so its worker does not sleep through
//! it, and a walk that began after it reads the raised `pending`. The
//! explorer below checks that no worker is left parked beside pending
//! work.
//!
//! # Occupancy
//!
//! Which of the operation's queues hold work is not part of the state:
//! [`OpWord`] keeps a 512-bit summary of it beside the word, in padding the
//! word had anyway. The summary changes outside [`apply`], by a mark after
//! each push and a clear-then-recheck settle after a pop that empties a
//! queue; the runtime's `worker` module docs give that protocol, and a
//! second explorer below checks it.

use crate::sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of the `pending` field.
const PENDING_BITS: u32 = 45;
/// Largest `pending` queue weight the word can hold.
const MAX_PENDING: u64 = (1 << PENDING_BITS) - 1;
const INFLIGHT_SHIFT: u32 = PENDING_BITS;
const INPUT_CLOSED: u64 = 1 << 62;
const FINISHED: u64 = 1 << 63;

/// Widest pool the word can count: `inflight` is 16 bits.
pub(crate) const MAX_INFLIGHT: usize = u16::MAX as usize;

/// The state of one operation (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct OpState {
    /// The producers are done and the queues are closed.
    pub input_closed: bool,
    /// Set once, by the transition that found the operation closed,
    /// drained and idle.
    pub finished: bool,
    /// Workers holding a claim on the operation. A worker holds at most one
    /// claim on each operation: it claims the operation it pops, and helping
    /// a full queue only claims operations further downstream. So
    /// `inflight` never exceeds the pool width, which `Runtime::new` bounds
    /// by [`MAX_INFLIGHT`].
    pub inflight: u16,
    /// Queue weight buffered or being pushed (45 bits).
    pub pending: u64,
}

impl OpState {
    /// The state of a triggered operation at submit: its `pending`
    /// control activations are queued and its queues closed. A fragment
    /// yields at most one activation per row, far below 45 bits.
    pub(crate) fn triggered(pending: u64) -> OpState {
        OpState {
            input_closed: true,
            pending,
            ..OpState::default()
        }
    }

    fn pack(self) -> u64 {
        self.pending
            | u64::from(self.inflight) << INFLIGHT_SHIFT
            | if self.input_closed { INPUT_CLOSED } else { 0 }
            | if self.finished { FINISHED } else { 0 }
    }

    fn unpack(bits: u64) -> OpState {
        OpState {
            input_closed: bits & INPUT_CLOSED != 0,
            finished: bits & FINISHED != 0,
            inflight: (bits >> INFLIGHT_SHIFT) as u16,
            pending: bits & MAX_PENDING,
        }
    }
}

/// What happened to an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Event {
    /// A producer is about to push this queue weight.
    Reserve(u64),
    /// The push was refused: the reservation is given back.
    Unreserve(u64),
    /// A worker wants to pop a batch: claim the operation if it has work.
    Begin,
    /// The claiming worker popped this queue weight.
    Popped(u64),
    /// The claiming worker is done with its batch.
    End,
    /// The producers finished and closed the queues.
    InputClosed,
}

/// What the caller of a transition must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Effect {
    /// Nothing.
    None,
    /// `Begin`: the caller holds a claim and must end it with `End`.
    Claimed,
    /// The operation just finished: close the consumer's queues.
    Finished,
}

/// A transition the protocol never makes; [`apply`] refuses it rather
/// than wrap a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Violation {
    /// `pending` would exceed its 45 bits.
    PendingOverflow,
    /// More weight popped or given back than is pending.
    PendingUnderflow,
    /// More claims than 16 bits count.
    InflightOverflow,
    /// `Popped` or `End` without a claim.
    NoClaim,
}

/// The transition function of an operation's state.
pub(crate) fn apply(s: OpState, event: Event) -> Result<(OpState, Effect), Violation> {
    let mut next = s;
    let mut effect = Effect::None;
    match event {
        Event::Reserve(w) => {
            next.pending = s
                .pending
                .checked_add(w)
                .filter(|p| *p <= MAX_PENDING)
                .ok_or(Violation::PendingOverflow)?;
        }
        Event::Unreserve(w) | Event::Popped(w) => {
            if matches!(event, Event::Popped(_)) && s.inflight == 0 {
                return Err(Violation::NoClaim);
            }
            next.pending = s
                .pending
                .checked_sub(w)
                .ok_or(Violation::PendingUnderflow)?;
        }
        Event::Begin => {
            if s.pending > 0 {
                next.inflight = s
                    .inflight
                    .checked_add(1)
                    .ok_or(Violation::InflightOverflow)?;
                effect = Effect::Claimed;
            }
        }
        Event::End => {
            next.inflight = s.inflight.checked_sub(1).ok_or(Violation::NoClaim)?;
        }
        Event::InputClosed => next.input_closed = true,
    }
    if !next.finished && next.input_closed && next.pending == 0 && next.inflight == 0 {
        next.finished = true;
        effect = Effect::Finished;
    }
    Ok((next, effect))
}

/// Bits of an operation's occupancy summary (see [`OpWord`]).
pub(crate) const OCCUPANCY_BITS: usize = 512;
const OCCUPANCY_WORDS: usize = OCCUPANCY_BITS / 64;

/// An operation's state word: [`apply`] over one `AtomicU64`, and the
/// operation's occupancy summary in the rest of its 128-byte padded block
/// (padded because every worker touching the operation writes it).
///
/// The summary is [`OCCUPANCY_BITS`] bits over the operation's cost-ordered
/// ring of queues: bit `b` is set when a queue of ring chunk `b` may hold
/// work (the runtime's `worker` module docs give the chunks and the
/// protocol that keeps every non-empty queue's bit set). The bits live in
/// padding the word had anyway, so they cost no allocation and no byte.
///
/// [`OpWord::new`] starts with every bit clear. Submit replaces the word of
/// a triggered operation after filling its queues, so it marks their bits
/// only after that replacement: marks made before it would be wiped, and
/// workers would never find the queued triggers.
pub(crate) struct OpWord {
    slots: CachePadded<Slots>,
}

struct Slots {
    // ordering(word): AcqRel — the word's own transitions are totally
    // ordered by any ordering; AcqRel also carries each worker's batch
    // effects (store rows, metrics) to whichever worker's later transition
    // finishes the operation and seals the query.
    word: AtomicU64,
    // ordering(occupancy): SeqCst, like the queues' `atomic_len` mirrors
    // it summarises — a consumer's clear, its re-read of the mirrors and a
    // producer's push and mark sit in one total order, so the re-read sees
    // the push or the mark lands after the clear.
    occupancy: [AtomicU64; OCCUPANCY_WORDS],
}

impl OpWord {
    pub(crate) fn new(state: OpState) -> OpWord {
        OpWord {
            slots: CachePadded::new(Slots {
                word: AtomicU64::new(state.pack()),
                occupancy: Default::default(),
            }),
        }
    }

    pub(crate) fn load(&self) -> OpState {
        OpState::unpack(self.slots.word.load(Ordering::Acquire))
    }

    /// Applies `event` as one read-modify-write and returns the new state
    /// and the caller's [`Effect`]. A transition that changes nothing is a
    /// single load.
    pub(crate) fn apply(&self, event: Event) -> (OpState, Effect) {
        let mut outcome = Err(Violation::NoClaim);
        let _ = self
            .slots
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |bits| {
                outcome = apply(OpState::unpack(bits), event);
                match outcome {
                    Ok((next, _)) if next.pack() != bits => Some(next.pack()),
                    _ => None,
                }
            });
        match outcome {
            Ok(done) => done,
            #[expect(
                clippy::panic,
                reason = "the runtime never makes a refused transition: the explorer below \
                          checks every interleaving of the events it issues, and `Runtime::new` \
                          bounds the pool by MAX_INFLIGHT; a wrapped field would hang the \
                          query's waiters instead"
            )]
            Err(violation) => panic!("operation state violation: {violation:?} on {event:?}"),
        }
    }

    /// Occupancy bits `64 * index ..` (`index < OCCUPANCY_BITS / 64`).
    pub(crate) fn occupancy(&self, index: usize) -> u64 {
        self.slots.occupancy[index].load(Ordering::SeqCst)
    }

    /// A producer's mark after a push landed in a queue of chunk `bit`: a
    /// load, and a write only if the bit is clear, so producers feeding a
    /// busy operation do not keep taking its line exclusive.
    pub(crate) fn mark(&self, bit: usize) {
        let (slot, mask) = self.bit(bit);
        if slot.load(Ordering::SeqCst) & mask == 0 {
            slot.fetch_or(mask, Ordering::SeqCst);
        }
    }

    /// A consumer's settle after it found chunk `bit` empty or popped one
    /// of its queues to empty: clear the bit, then set it again if
    /// `occupied` (a re-read of the chunk's queue lengths) finds work. A
    /// push that the re-read misses comes after the clear in the total
    /// order, and so does its producer's mark.
    pub(crate) fn settle(&self, bit: usize, occupied: impl FnOnce() -> bool) {
        let (slot, mask) = self.bit(bit);
        slot.fetch_and(!mask, Ordering::SeqCst);
        if occupied() {
            slot.fetch_or(mask, Ordering::SeqCst);
        }
    }

    fn bit(&self, bit: usize) -> (&AtomicU64, u64) {
        (&self.slots.occupancy[bit / 64], 1 << (bit % 64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    type Transition = fn(OpState, Event) -> Result<(OpState, Effect), Violation>;

    #[test]
    fn packing_round_trips_at_the_field_limits() {
        for state in [
            OpState::default(),
            OpState {
                input_closed: true,
                finished: true,
                inflight: u16::MAX,
                pending: MAX_PENDING,
            },
            OpState {
                inflight: 1,
                pending: 1,
                ..OpState::default()
            },
        ] {
            assert_eq!(OpState::unpack(state.pack()), state);
        }
    }

    #[test]
    fn refused_transitions_leave_no_field_wrapped() {
        let full = OpState {
            inflight: u16::MAX,
            pending: MAX_PENDING,
            ..OpState::default()
        };
        assert_eq!(
            apply(full, Event::Reserve(1)),
            Err(Violation::PendingOverflow)
        );
        assert_eq!(apply(full, Event::Begin), Err(Violation::InflightOverflow));
        let idle = OpState::default();
        assert_eq!(
            apply(idle, Event::Unreserve(1)),
            Err(Violation::PendingUnderflow)
        );
        assert_eq!(apply(idle, Event::End), Err(Violation::NoClaim));
        assert_eq!(apply(idle, Event::Popped(0)), Err(Violation::NoClaim));
    }

    #[test]
    fn the_word_applies_transitions_in_place() {
        let word = OpWord::new(OpState::triggered(2));
        assert_eq!(word.apply(Event::Begin).1, Effect::Claimed);
        assert_eq!(word.apply(Event::Popped(2)).0.pending, 0);
        assert_eq!(word.apply(Event::End).1, Effect::Finished);
        assert_eq!(word.apply(Event::Begin).1, Effect::None);
        assert!(word.load().finished);
    }

    // ---- the exhaustive explorer ----

    /// Queue capacity and pop budget of the model, in queue weight: small
    /// enough that pushes are refused and pops leave work behind.
    const CAPACITY: u64 = 1;
    const BUDGET: u64 = 1;

    /// Whether a producer bumps the wake-up epoch after its push, given
    /// whether its `Reserve` raised `pending` from 0 and whether the push
    /// landed.
    type Wakes = fn(bool, bool) -> bool;

    /// The runtime's rule: the producer that raised `pending` from 0 wakes
    /// a worker, whether its push landed or was refused.
    fn raised_from_zero(raised: bool, _landed: bool) -> bool {
        raised
    }

    /// What one modelled worker does: events on the word, interleaved with
    /// its queue actions and its reads and bumps of the wake-up epoch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Role {
        /// Pushes `batches` batches of weight 1: `Reserve`, push,
        /// `Unreserve` if the push was refused, then a wake-up if the
        /// `Reserve` raised `pending` from 0 (see [`Wakes`]).
        Producer { batches: u8 },
        /// The upstream finishing: close the queues, then `InputClosed`
        /// (after the producers' pushes, see [`Model::enabled`]).
        Closer,
        /// A pool worker's loop: snapshot the epoch, read `pending`, then
        /// park on the snapshot, or claim and work one batch: `Begin`, pop,
        /// `Popped` (waking another worker if work is left), `End`.
        Consumer,
        /// Helps drain a full queue: `Begin`, pop, `Popped`, `End`.
        Helper,
        /// Cancels the query: it stops being live, and its queues are
        /// closed and drained without touching the word.
        Canceller,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Worker {
        role: Role,
        pc: u8,
        batches_left: u8,
        /// A producer's `Reserve` raised `pending` from 0.
        raised: bool,
        /// The epoch a consumer snapshotted before its read.
        epoch: u8,
        /// Weight of the last push (0 if refused) or pop.
        moved: u64,
        done: bool,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Model {
        word: OpState,
        /// Weight really in the queues.
        buffered: u64,
        closed: bool,
        live: bool,
        /// The pool's wake-up epoch.
        epoch: u8,
        finishes: u8,
        workers: Vec<Worker>,
    }

    impl Model {
        fn enabled(&self, i: usize) -> bool {
            let w = &self.workers[i];
            match (w.role, w.pc) {
                _ if w.done => false,
                // A parked consumer runs again only once the epoch moved.
                (Role::Consumer, 2) => self.epoch != w.epoch,
                // Producers push while they hold a claim upstream, so the
                // upstream finishes, and closes this input, only after every
                // push has landed or been refused. Their give-backs and
                // wake-ups may still trail the close here, which the runtime
                // never does: the model checks more schedules than the
                // runtime can make.
                (Role::Closer, 0) => self.workers.iter().all(|p| match p.role {
                    Role::Producer { .. } => p.done || (p.batches_left == 1 && p.pc >= 2),
                    _ => true,
                }),
                _ => true,
            }
        }

        /// Applies `event` to the word, counting a finish.
        fn event(&mut self, apply: Transition, event: Event) -> Result<Effect, String> {
            let (next, effect) =
                apply(self.word, event).map_err(|v| format!("{v:?} on {event:?}"))?;
            self.word = next;
            if effect == Effect::Finished {
                self.finishes += 1;
            }
            Ok(effect)
        }

        /// Runs worker `i`'s next atomic action.
        fn step(&mut self, apply: Transition, wakes: Wakes, i: usize) -> Result<(), String> {
            let mut w = self.workers[i].clone();
            let end_batch = |w: &mut Worker| {
                w.batches_left -= 1;
                w.pc = 0;
                w.done = w.batches_left == 0;
            };
            // A consumer loops; a helper works one batch.
            let end_round = |w: &mut Worker| {
                w.pc = 0;
                w.done = w.role == Role::Helper;
            };
            match (w.role, w.pc) {
                (Role::Producer { .. }, 0) => {
                    self.event(apply, Event::Reserve(1))?;
                    w.raised = self.word.pending == 1;
                    w.pc = 1;
                }
                (Role::Producer { .. }, 1) => {
                    w.moved = if self.closed || self.buffered >= CAPACITY {
                        0
                    } else {
                        self.buffered += 1;
                        1
                    };
                    w.pc = 2;
                }
                (Role::Producer { .. }, 2) => {
                    if w.moved == 0 {
                        self.event(apply, Event::Unreserve(1))?;
                    }
                    if wakes(w.raised, w.moved > 0) {
                        w.pc = 3;
                    } else {
                        end_batch(&mut w);
                    }
                }
                (Role::Producer { .. }, _) => {
                    self.epoch += 1;
                    end_batch(&mut w);
                }
                (Role::Closer, 0) => {
                    self.closed = true;
                    w.pc = 1;
                }
                (Role::Closer, _) => {
                    self.event(apply, Event::InputClosed)?;
                    w.done = true;
                }
                (Role::Canceller, _) => {
                    self.live = false;
                    self.closed = true;
                    self.buffered = 0;
                    w.done = true;
                }
                (Role::Consumer, 0) => {
                    w.epoch = self.epoch;
                    w.pc = 1;
                }
                (Role::Consumer, 1) => {
                    w.pc = if self.live && self.word.pending > 0 {
                        3
                    } else {
                        2
                    };
                }
                (Role::Consumer, 2) => w.pc = 0,
                // The helper starts here, at the consumer's `Begin`.
                (_, 3) => {
                    if self.event(apply, Event::Begin)? == Effect::Claimed {
                        w.pc = 4;
                    } else {
                        end_round(&mut w);
                    }
                }
                (_, 4) => {
                    w.moved = self.buffered.min(BUDGET);
                    self.buffered -= w.moved;
                    w.pc = if w.moved > 0 { 5 } else { 6 };
                }
                (_, 5) => {
                    self.event(apply, Event::Popped(w.moved))?;
                    if w.role == Role::Consumer && self.word.pending > 0 {
                        self.epoch += 1;
                    }
                    w.pc = 6;
                }
                (_, _) => {
                    self.event(apply, Event::End)?;
                    end_round(&mut w);
                }
            }
            self.workers[i] = w;
            self.check()
        }

        /// The invariants of every reachable state.
        fn check(&self) -> Result<(), String> {
            let s = self.word;
            if s.finished && (s.inflight > 0 || s.pending > 0) {
                return Err(format!("finished while busy: {s:?}"));
            }
            if u8::from(s.finished) != self.finishes {
                return Err(format!(
                    "{} finishes, finished = {}",
                    self.finishes, s.finished
                ));
            }
            if s.pending < self.buffered {
                return Err(format!(
                    "pending {} below buffered {}",
                    s.pending, self.buffered
                ));
            }
            Ok(())
        }

        /// The invariants of a state where no worker can move: every
        /// consumer is parked on an epoch that has not moved.
        fn check_quiescent(&self) -> Result<(), String> {
            let s = self.word;
            if !self.live {
                return Ok(());
            }
            if s.inflight != 0 || s.pending != self.buffered {
                return Err(format!(
                    "quiescent with inflight {} and pending {} over buffered {}",
                    s.inflight, s.pending, self.buffered
                ));
            }
            if s.input_closed && s.pending == 0 && !s.finished {
                return Err("closed and drained but never finished".into());
            }
            let parked = self.workers.iter().any(|w| w.role == Role::Consumer);
            if parked && s.pending > 0 && !s.finished {
                return Err(format!("lost wake-up: {s:?}"));
            }
            Ok(())
        }
    }

    /// Visits every state reachable from `start` under any interleaving of
    /// its workers (memoised: a state's successors do not depend on the
    /// path to it) and returns how many there are.
    fn explore_from(start: Model, apply: Transition, wakes: Wakes) -> Result<usize, String> {
        start.check()?;
        let mut seen: HashSet<Model> = HashSet::new();
        let mut stack = vec![start];
        while let Some(model) = stack.pop() {
            if !seen.insert(model.clone()) {
                continue;
            }
            let runnable: Vec<usize> = (0..model.workers.len())
                .filter(|&i| model.enabled(i))
                .collect();
            if runnable.is_empty() {
                model
                    .check_quiescent()
                    .map_err(|e| format!("{e} in {model:?}"))?;
            }
            for i in runnable {
                let mut next = model.clone();
                next.step(apply, wakes, i)
                    .map_err(|e| format!("{e} after worker {i} of {model:?}"))?;
                stack.push(next);
            }
        }
        Ok(seen.len())
    }

    /// Every team of at most three workers, against a pipelined operation
    /// (empty, fed by producers) and a triggered one (two control
    /// activations queued at submit, which wakes the consumers).
    fn explore(apply: Transition, wakes: Wakes) -> Result<usize, String> {
        let pipelined_roles = [
            Role::Producer { batches: 1 },
            Role::Producer { batches: 2 },
            Role::Closer,
            Role::Consumer,
            Role::Helper,
            Role::Canceller,
        ];
        let triggered_roles = [Role::Consumer, Role::Helper, Role::Canceller];
        let mut states = 0;
        for (word, buffered, closed, roles) in [
            (OpState::default(), 0, false, &pipelined_roles[..]),
            (OpState::triggered(2), 2, true, &triggered_roles[..]),
        ] {
            for team in teams(roles) {
                let once = |r: Role| team.iter().filter(|t| **t == r).count() <= 1;
                if !once(Role::Closer) || !once(Role::Canceller) {
                    continue;
                }
                let workers = team
                    .iter()
                    .map(|&role| Worker {
                        role,
                        pc: if role == Role::Helper { 3 } else { 0 },
                        batches_left: match role {
                            Role::Producer { batches } => batches,
                            _ => 1,
                        },
                        raised: false,
                        epoch: 0,
                        moved: 0,
                        done: false,
                    })
                    .collect();
                let model = Model {
                    word,
                    buffered,
                    closed,
                    live: true,
                    epoch: 0,
                    finishes: 0,
                    workers,
                };
                states +=
                    explore_from(model, apply, wakes).map_err(|e| format!("team {team:?}: {e}"))?;
            }
        }
        Ok(states)
    }

    /// Every multiset of one to three roles.
    fn teams(roles: &[Role]) -> Vec<Vec<Role>> {
        let mut out = Vec::new();
        for a in 0..roles.len() {
            out.push(vec![roles[a]]);
            for b in a..roles.len() {
                out.push(vec![roles[a], roles[b]]);
                for c in b..roles.len() {
                    out.push(vec![roles[a], roles[b], roles[c]]);
                }
            }
        }
        out
    }

    #[test]
    fn every_interleaving_keeps_the_protocol() {
        let states = explore(apply, raised_from_zero).unwrap();
        assert!(states > 1_000, "explored only {states} states");
    }

    #[test]
    fn the_explorer_catches_an_end_that_ignores_pending() {
        fn broken(s: OpState, event: Event) -> Result<(OpState, Effect), Violation> {
            let (mut next, effect) = apply(s, event)?;
            if event == Event::End && next.input_closed && next.inflight == 0 && !next.finished {
                next.finished = true;
                return Ok((next, Effect::Finished));
            }
            Ok((next, effect))
        }
        let report = explore(broken, raised_from_zero).unwrap_err();
        assert!(report.contains("finished while busy"), "{report}");
    }

    #[test]
    fn the_explorer_catches_a_producer_that_never_wakes() {
        let report = explore(apply, |_, _| false).unwrap_err();
        assert!(report.contains("lost wake-up"), "{report}");
    }

    /// A producer whose `Reserve` raised `pending` from 0 can be refused
    /// because a second producer's push filled the queue in between; that
    /// second `Reserve` found `pending` above 0, so only the first producer
    /// is left to wake anyone.
    #[test]
    fn the_explorer_catches_a_refused_push_that_does_not_wake() {
        let report = explore(apply, |raised, landed| raised && landed).unwrap_err();
        assert!(report.contains("lost wake-up"), "{report}");
    }

    // ---- the occupancy protocol ----

    /// The occupancy protocol as the runtime runs it, and the two broken
    /// forms the explorer must catch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Protocol {
        /// Push, then mark; pop, then clear, re-read and maybe set.
        Sound,
        /// A settle that clears the bit and never re-reads the queues.
        NoReread,
        /// A producer that marks before its push.
        MarkFirst,
    }

    /// One modelled thread of the occupancy protocol.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Actor {
        /// Pushes into this queue, or (`None`) is a consumer that pops
        /// either queue.
        push_to: Option<usize>,
        rounds: u8,
        /// 0 between rounds; every other value is a step in flight.
        pc: u8,
        /// A producer's load found the bit set; a consumer's re-read found
        /// a queue holding work.
        seen: bool,
    }

    /// One occupancy chunk of two queues.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Chunk {
        queues: [u8; 2],
        bit: bool,
        actors: Vec<Actor>,
    }

    impl Chunk {
        /// Every state worker `i`'s next atomic step can lead to.
        fn steps(&self, protocol: Protocol, i: usize) -> Vec<Chunk> {
            let a = self.actors[i];
            let mut outs = Vec::new();
            let mut next = self.clone();
            let round_done = |c: &mut Chunk| {
                let a = &mut c.actors[i];
                a.pc = 0;
                a.seen = false;
                a.rounds -= 1;
            };
            match (a.push_to, a.pc) {
                (Some(q), pc) => {
                    // The sound order is push (0), load (1), mark (2); a
                    // mark-first producer loads (0), marks (1), pushes (2).
                    let step = match protocol {
                        Protocol::MarkFirst => [1, 2, 0][usize::from(pc)],
                        _ => pc,
                    };
                    match step {
                        0 => next.queues[q] += 1,
                        1 => next.actors[i].seen = self.bit,
                        _ => next.bit |= !a.seen,
                    }
                    next.actors[i].pc += 1;
                    if next.actors[i].pc == 3 {
                        round_done(&mut next);
                    }
                    outs.push(next);
                }
                (None, 0) => {
                    // Pop one activation or all of one queue; popping to
                    // empty, or finding it empty, starts the settle.
                    for q in 0..2 {
                        for take in 1..=self.queues[q].max(1) {
                            let mut next = self.clone();
                            next.queues[q] = self.queues[q].saturating_sub(take);
                            if next.queues[q] == 0 {
                                next.actors[i].pc = 1;
                            } else {
                                round_done(&mut next);
                            }
                            outs.push(next);
                        }
                    }
                }
                (None, 1) => {
                    next.bit = false;
                    if protocol == Protocol::NoReread {
                        round_done(&mut next);
                    } else {
                        next.actors[i].pc = 2;
                    }
                    outs.push(next);
                }
                (None, pc @ (2 | 3)) => {
                    next.actors[i].seen |= self.queues[usize::from(pc - 2)] > 0;
                    next.actors[i].pc += 1;
                    outs.push(next);
                }
                (None, _) => {
                    next.bit |= a.seen;
                    round_done(&mut next);
                    outs.push(next);
                }
            }
            outs
        }
    }

    /// Visits every state reachable from every start and team: one or two
    /// producers (one or two rounds each) and one or two consumers, over a
    /// chunk that starts empty or with both queues holding work. In every
    /// state where no step is in flight, each non-empty queue's bit must be
    /// set. Returns the number of states.
    fn explore_occupancy(protocol: Protocol) -> Result<usize, String> {
        let producer = |q, rounds| Actor {
            push_to: Some(q),
            rounds,
            pc: 0,
            seen: false,
        };
        let consumer = |rounds| Actor {
            push_to: None,
            rounds,
            pc: 0,
            seen: false,
        };
        let producers = [
            vec![producer(0, 1)],
            vec![producer(0, 2)],
            vec![producer(0, 1), producer(1, 1)],
            vec![producer(0, 1), producer(0, 1)],
            vec![producer(0, 2), producer(1, 1)],
        ];
        let consumers = [
            vec![consumer(1)],
            vec![consumer(2)],
            vec![consumer(1), consumer(1)],
        ];
        let mut states = 0;
        for (queues, bit) in [([0, 0], false), ([1, 1], true)] {
            for team in &producers {
                for eaters in &consumers {
                    let start = Chunk {
                        queues,
                        bit,
                        actors: team.iter().chain(eaters).copied().collect(),
                    };
                    let mut seen: HashSet<Chunk> = HashSet::new();
                    let mut stack = vec![start];
                    while let Some(chunk) = stack.pop() {
                        if !seen.insert(chunk.clone()) {
                            continue;
                        }
                        let between_rounds = chunk.actors.iter().all(|a| a.pc == 0);
                        if between_rounds && (0..2).any(|q| chunk.queues[q] > 0 && !chunk.bit) {
                            return Err(format!("a queue holds work under a clear bit: {chunk:?}"));
                        }
                        for i in 0..chunk.actors.len() {
                            if chunk.actors[i].rounds > 0 {
                                stack.extend(chunk.steps(protocol, i));
                            }
                        }
                    }
                    states += seen.len();
                }
            }
        }
        Ok(states)
    }

    #[test]
    fn every_interleaving_keeps_a_working_queue_marked() {
        let states = explore_occupancy(Protocol::Sound).unwrap();
        assert!(states > 1_000, "explored only {states} states");
    }

    #[test]
    fn the_occupancy_explorer_catches_a_settle_without_reread() {
        let report = explore_occupancy(Protocol::NoReread).unwrap_err();
        assert!(report.contains("clear bit"), "{report}");
    }

    #[test]
    fn the_occupancy_explorer_catches_a_mark_before_the_push() {
        let report = explore_occupancy(Protocol::MarkFirst).unwrap_err();
        assert!(report.contains("clear bit"), "{report}");
    }

    #[test]
    fn the_summary_fits_in_the_padding_the_word_had() {
        assert_eq!(std::mem::size_of::<OpWord>(), 128);
        let word = OpWord::new(OpState::default());
        word.mark(0);
        word.mark(511);
        assert_eq!((word.occupancy(0), word.occupancy(7)), (1, 1 << 63));
        word.settle(511, || true);
        word.settle(0, || false);
        assert_eq!((word.occupancy(0), word.occupancy(7)), (0, 1 << 63));
        assert_eq!(word.load(), OpState::default());
    }
}
