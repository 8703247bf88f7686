//! Property-based tests of the [`ActivationQueue`]: under arbitrary
//! interleavings of `push` / `push_batch` / `try_push` / `try_pop_batch` /
//! `try_pop_into` / `close`, no tuple is ever lost or duplicated, and the
//! lock-free
//! observation mirrors (`len` / `is_empty` / `is_closed` / `is_exhausted`)
//! always agree with the data that actually moved.
//!
//! Two complementary properties:
//!
//! * a **sequential model check** drives one queue and an exact in-memory
//!   model through a random operation script (including mid-script closes)
//!   and asserts every observable — popped values, lengths, closed state —
//!   matches the model after every step;
//! * a **concurrent interleaving check** runs random multi-producer scripts
//!   against racing consumers and asserts the multiset of consumed tuples
//!   equals the multiset of successfully pushed ones.

use dbs3_engine::{Activation, ActivationQueue, TryPushError, TupleBatch};
use dbs3_storage::tuple::int_tuple;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;

/// Builds a data activation carrying `count` tuples with ascending payloads
/// starting at `base`.
fn batch_of(base: i64, count: usize) -> Activation {
    Activation::Data(TupleBatch::from(
        (0..count as i64)
            .map(|i| int_tuple(&[base + i]))
            .collect::<Vec<_>>(),
    ))
}

/// Pushes as a pool worker does: `try_push`, yielding while the queue is
/// full. The queue is closed only after every producer finished.
fn push_retrying(q: &ActivationQueue, mut activation: Activation) {
    while let Err(refused) = q.try_push(activation) {
        match refused {
            TryPushError::Full(back) => activation = back,
            TryPushError::Closed(_) => panic!("producer pushed into a closed queue"),
        }
        thread::yield_now();
    }
}

/// Flattens popped activations into their tuple payloads.
fn payloads(batch: &[Activation]) -> Vec<i64> {
    batch
        .iter()
        .flat_map(|a| a.batch().expect("data only").iter())
        .map(|t| t.value(0).as_int().unwrap())
        .collect()
}

/// Observable form of one queue entry, shared by the queue side and the
/// model side so popped sequences compare exactly (kind included).
#[derive(Debug, Clone, PartialEq)]
enum Entry {
    /// A control activation (trigger or whole-fragment/morsel range);
    /// weighs one queue unit whatever range it covers.
    Control(&'static str),
    /// A data activation; weighs one unit per tuple.
    Data(Vec<i64>),
}

impl Entry {
    fn weight(&self) -> usize {
        match self {
            Entry::Control(_) => 1,
            Entry::Data(v) => v.len(),
        }
    }
}

/// Renders popped activations into comparable entries.
fn render(batch: &[Activation]) -> Vec<Entry> {
    batch
        .iter()
        .map(|a| match a {
            Activation::Trigger => Entry::Control("trigger"),
            Activation::Morsel { .. } => Entry::Control("morsel"),
            Activation::Data(b) => Entry::Data(
                b.iter()
                    .map(|t| t.value(0).as_int().unwrap())
                    .collect::<Vec<_>>(),
            ),
        })
        .collect()
}

/// An exact reference model of the queue: activation entries with the same
/// queue-weight accounting, overfill, at-least-one-per-pop,
/// one-control-per-pop and close semantics.
#[derive(Default)]
struct Model {
    buffer: VecDeque<Entry>,
    closed: bool,
}

impl Model {
    fn len(&self) -> usize {
        self.buffer.iter().map(Entry::weight).sum()
    }

    /// Mirrors `try_pop_batch(max_weight)`: pops whole activations while
    /// the accumulated queue weight stays within budget (the first always
    /// comes out), and a popped control activation ends the pop — they are
    /// claimed one at a time.
    fn pop(&mut self, max_weight: usize) -> Vec<Entry> {
        let mut out = Vec::new();
        let mut popped = 0usize;
        while let Some(front) = self.buffer.front() {
            let weight = front.weight();
            if !out.is_empty() && popped + weight > max_weight {
                break;
            }
            let entry = self.buffer.pop_front().expect("front exists");
            popped += weight;
            let control = matches!(entry, Entry::Control(_));
            out.push(entry);
            if control || popped >= max_weight {
                break;
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sequential model check over random op scripts. Ops are encoded as
    /// `(kind, size)`; the unconditional appends (`push`, `push_batch`) are
    /// only issued below capacity on an open queue, the contract submit
    /// keeps (producers never push after closing).
    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..6, 1usize..8), 1..150),
        capacity in 1usize..24,
    ) {
        let q = ActivationQueue::new(0, capacity, 0.0);
        let mut model = Model::default();
        let mut next_payload = 0i64;
        // The `try_pop_into` buffer and what it should hold: appending must
        // never disturb what an earlier pop left in it.
        let mut reused: Vec<Activation> = Vec::new();
        let mut reused_entries: Vec<Entry> = Vec::new();
        for (kind, size) in ops {
            match kind {
                // try_push: always safe; refused on full/closed.
                0 => {
                    let result = q.try_push(batch_of(next_payload, size));
                    if model.closed {
                        prop_assert!(matches!(result, Err(TryPushError::Closed(_))));
                    } else if model.len() >= capacity {
                        prop_assert!(matches!(result, Err(TryPushError::Full(_))));
                    } else {
                        prop_assert!(result.is_ok());
                        model.buffer.push_back(Entry::Data((next_payload..next_payload + size as i64).collect()));
                        next_payload += size as i64;
                    }
                }
                // push: issued only below capacity on an open queue.
                1 if !model.closed && model.len() < capacity => {
                    q.push(batch_of(next_payload, size));
                    model.buffer.push_back(Entry::Data((next_payload..next_payload + size as i64).collect()));
                    next_payload += size as i64;
                }
                // push_batch of singletons; the whole batch lands, even past
                // the capacity.
                2 if !model.closed && model.len() < capacity => {
                    let singles: Vec<Activation> =
                        (0..size as i64).map(|i| Activation::single(int_tuple(&[next_payload + i]))).collect();
                    q.push_batch(singles);
                    for i in 0..size as i64 {
                        model.buffer.push_back(Entry::Data(vec![next_payload + i]));
                    }
                    next_payload += size as i64;
                }
                // A pop with a random weight budget: half of them through
                // `try_pop_batch`, half through `try_pop_into` appending to
                // one reused buffer, as a pool worker does.
                3 => {
                    let want = model.pop(size);
                    let got = if size % 2 == 0 {
                        render(&q.try_pop_batch(size))
                    } else {
                        let held = reused.len();
                        let weight = q.try_pop_into(size, &mut reused);
                        let got = render(&reused[held..]);
                        prop_assert_eq!(weight, got.iter().map(Entry::weight).sum::<usize>());
                        reused_entries.extend(got.iter().cloned());
                        // Empty it now and then: only its capacity carries on.
                        if reused.len() > 8 {
                            prop_assert_eq!(render(&reused), std::mem::take(&mut reused_entries));
                            reused.clear();
                        }
                        got
                    };
                    prop_assert_eq!(got, want, "pop diverged from the model");
                }
                // close (possibly mid-script, possibly repeated).
                4 => {
                    q.close();
                    model.closed = true;
                }
                // push of a control activation (trigger or a non-lead
                // morsel — both weigh one queue unit and end any pop that
                // claims them); issued only below capacity.
                5 if !model.closed && model.len() < capacity => {
                    let (activation, tag) = if size % 2 == 0 {
                        (Activation::Trigger, "trigger")
                    } else {
                        (Activation::Morsel { start: size, end: size * 2, lead: false }, "morsel")
                    };
                    q.push(activation);
                    model.buffer.push_back(Entry::Control(tag));
                }
                _ => {} // guarded pushes the contract rules out: skip.
            }
            // The lock-free observers agree with the model after every op.
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.len() == 0);
            prop_assert_eq!(q.is_closed(), model.closed);
            prop_assert_eq!(q.is_exhausted(), model.closed && model.len() == 0);
        }
        prop_assert_eq!(render(&reused), reused_entries);
        // Drain: everything enqueued comes back out exactly once. A pop
        // ends at each control activation, so drain in rounds, alternating
        // between the two pop entry points.
        for round in 0.. {
            let rest = if round % 2 == 0 {
                render(&q.try_pop_batch(usize::MAX))
            } else {
                reused.clear();
                q.try_pop_into(usize::MAX, &mut reused);
                render(&reused)
            };
            let want = model.pop(usize::MAX);
            let drained = rest.is_empty();
            prop_assert_eq!(rest, want);
            if drained {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent interleavings: random producer scripts (mixing retried
    /// pushes of one batch or of singletons with lossy try_pushes) race two
    /// consumers. The multiset of consumed payloads must equal the multiset
    /// of payloads whose push was *accepted* — nothing lost, nothing
    /// duplicated.
    #[test]
    fn concurrent_interleavings_lose_and_duplicate_nothing(
        scripts in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 1usize..6), 5..40),
            1..4,
        ),
        capacity in 2usize..32,
        budget in 1usize..12,
    ) {
        let q = Arc::new(ActivationQueue::new(0, capacity, 0.0));

        // Consumers: pop until the queue is closed (while they run) and
        // drained, yielding when it is empty; collect every payload seen.
        // Consumer 0 pops with `try_pop_batch`, consumer 1 with
        // `try_pop_into` through one reused buffer.
        let consumers: Vec<_> = (0..2)
            .map(|c| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seen: Vec<i64> = Vec::new();
                    let mut batch: Vec<Activation> = Vec::new();
                    while !q.is_exhausted() {
                        batch.clear();
                        if c == 0 {
                            batch = q.try_pop_batch(budget);
                        } else {
                            let weight = q.try_pop_into(budget, &mut batch);
                            assert_eq!(weight, batch.iter().map(Activation::queue_weight).sum::<usize>());
                        }
                        if batch.is_empty() {
                            thread::yield_now();
                        }
                        seen.extend(payloads(&batch));
                    }
                    seen
                })
            })
            .collect();

        // Producers: each runs its random script with a disjoint payload
        // namespace and reports which payloads were actually accepted.
        let producers: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(p, script)| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut accepted: Vec<i64> = Vec::new();
                    let mut next = (p as i64 + 1) * 1_000_000;
                    for (kind, size) in script {
                        let base = next;
                        next += size as i64;
                        match kind {
                            // One batch, retried until accepted.
                            0 => {
                                push_retrying(&q, batch_of(base, size));
                                accepted.extend(base..base + size as i64);
                            }
                            // Singletons, each retried until accepted.
                            1 => {
                                for i in 0..size as i64 {
                                    push_retrying(&q, Activation::single(int_tuple(&[base + i])));
                                }
                                accepted.extend(base..base + size as i64);
                            }
                            // try_push: accepted only if the queue had room.
                            _ => {
                                if q.try_push(batch_of(base, size)).is_ok() {
                                    accepted.extend(base..base + size as i64);
                                }
                            }
                        }
                    }
                    accepted
                })
            })
            .collect();

        let mut pushed: Vec<i64> = Vec::new();
        for producer in producers {
            pushed.extend(producer.join().unwrap());
        }
        q.close();
        let mut consumed: Vec<i64> = Vec::new();
        for consumer in consumers {
            consumed.extend(consumer.join().unwrap());
        }

        pushed.sort_unstable();
        consumed.sort_unstable();
        prop_assert_eq!(
            consumed, pushed,
            "consumed multiset differs from accepted-push multiset"
        );
        prop_assert!(q.is_exhausted());
    }
}
