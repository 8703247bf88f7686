//! Property tests of the wire protocol: arbitrary well-formed requests
//! round-trip exactly, and arbitrary damage — truncation, bit flips, pure
//! noise — decodes to a typed error without ever panicking.

use dbs3_engine::SchedulerOptions;
use dbs3_lera::{JoinAlgorithm, JoinCondition, Plan, PlanBuilder, Predicate};
use dbs3_serve::{Frame, QueryRequest, ServeError};
use dbs3_storage::Value;
use proptest::prelude::*;

/// Deterministically expands a seed into a (possibly nested) predicate
/// exercising every variant the codec must carry.
fn predicate_from(seed: u32, depth: u32) -> Predicate {
    let column = format!("col{}", seed % 5);
    match seed % 7 {
        0 => Predicate::True,
        1 => Predicate::Compare {
            column,
            op: match seed % 6 {
                0 => dbs3_lera::CompareOp::Eq,
                1 => dbs3_lera::CompareOp::Ne,
                2 => dbs3_lera::CompareOp::Lt,
                3 => dbs3_lera::CompareOp::Le,
                4 => dbs3_lera::CompareOp::Gt,
                _ => dbs3_lera::CompareOp::Ge,
            },
            value: Value::Int(i64::from(seed) - 500),
        },
        2 => Predicate::Compare {
            column,
            op: dbs3_lera::CompareOp::Eq,
            value: Value::from(format!("BAAAA{seed}")),
        },
        3 => Predicate::Modulo {
            column,
            modulus: i64::from(seed % 90 + 2),
            remainder: i64::from(seed % 7),
        },
        _ if depth == 0 => Predicate::one_in(column, seed as i64 % 50 + 1),
        4 => Predicate::And(
            Box::new(predicate_from(seed / 3, depth - 1)),
            Box::new(predicate_from(seed / 5, depth - 1)),
        ),
        5 => Predicate::Or(
            Box::new(predicate_from(seed / 3, depth - 1)),
            Box::new(predicate_from(seed / 7, depth - 1)),
        ),
        _ => Predicate::Not(Box::new(predicate_from(seed / 3, depth - 1))),
    }
}

fn algorithm_from(seed: u32) -> JoinAlgorithm {
    match seed % 2 {
        0 => JoinAlgorithm::NestedLoop,
        _ => JoinAlgorithm::Hash,
    }
}

/// Expands per-chain seeds into a multi-chain plan covering every operator
/// kind and both input sources.
fn plan_from(chain_seeds: &[u32]) -> Plan {
    let mut builder = PlanBuilder::new(format!("prop-plan-{}", chain_seeds.len()));
    for (c, &seed) in chain_seeds.iter().enumerate() {
        let tail = match seed % 4 {
            0 => builder.filter(format!("R{c}"), predicate_from(seed, 3)),
            1 => builder.transmit(format!("R{c}"), format!("key{}", seed % 3)),
            2 => builder.copartitioned_join(
                format!("R{c}"),
                format!("S{c}"),
                JoinCondition::new(format!("o{}", seed % 3), format!("i{}", seed % 3)),
                algorithm_from(seed),
            ),
            _ => {
                let filter = builder.filter(format!("R{c}"), predicate_from(seed / 2, 2));
                builder.pipelined_join(
                    filter,
                    format!("S{c}"),
                    JoinCondition::natural(format!("k{}", seed % 4)),
                    algorithm_from(seed / 3),
                )
            }
        };
        builder.store(tail, format!("Out{c}"));
    }
    builder.build()
}

fn options_from(threads: Option<u32>, cache: u32, discard: bool) -> SchedulerOptions {
    SchedulerOptions {
        total_threads: threads.map(|t| t as usize + 1),
        cache_size: cache as usize,
        discard_results: discard,
        ..SchedulerOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every well-formed request round-trips exactly: every field compares
    /// equal and the re-encoding is byte-identical.
    #[test]
    fn requests_round_trip(
        chain_seeds in collection::vec(any::<u32>(), 1..6),
        has_threads in any::<bool>(),
        threads in 0u32..512,
        cache in 0u32..4096,
        discard in any::<bool>(),
        deadline_ms in any::<u64>(),
        request_id in any::<u64>(),
    ) {
        let request = QueryRequest {
            plan: plan_from(&chain_seeds),
            options: options_from(has_threads.then_some(threads), cache, discard),
            deadline_ms,
            request_id,
        };
        let bytes = request.encode();
        let decoded = QueryRequest::decode(&bytes).expect("well-formed request decodes");
        prop_assert_eq!(&decoded.plan, &request.plan);
        prop_assert_eq!(decoded.options, request.options);
        prop_assert_eq!(decoded.deadline_ms, request.deadline_ms);
        prop_assert_eq!(decoded.request_id, request.request_id);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Truncating a frame at any strict prefix yields `Truncated` (or a
    /// clean `None` at offset zero) — never a panic, never a bogus frame.
    #[test]
    fn truncation_is_always_typed(
        chain_seeds in collection::vec(any::<u32>(), 1..4),
        cut_seed in any::<u64>(),
    ) {
        let request = QueryRequest {
            plan: plan_from(&chain_seeds),
            options: SchedulerOptions::default(),
            deadline_ms: 0,
            request_id: 0,
        };
        let mut stream = Vec::new();
        Frame::Query(request).write_to(&mut stream).unwrap();
        let cut = (cut_seed % stream.len() as u64) as usize;
        let mut cursor = std::io::Cursor::new(stream[..cut].to_vec());
        match Frame::read_from(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only at offset zero"),
            Err(ServeError::Truncated) => prop_assert!(cut > 0),
            other => prop_assert!(false, "unexpected outcome {:?} at cut {}", other, cut),
        }
    }

    /// Flipping any single byte of a valid request payload never panics the
    /// decoder: it either still decodes (the byte was inside a string or a
    /// numeric field) or fails with a typed error.
    #[test]
    fn bit_flips_never_panic(
        chain_seeds in collection::vec(any::<u32>(), 1..4),
        flip_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let request = QueryRequest {
            plan: plan_from(&chain_seeds),
            options: SchedulerOptions::default(),
            deadline_ms: 1000,
            request_id: 0,
        };
        let mut bytes = request.encode();
        let index = (flip_seed % bytes.len() as u64) as usize;
        bytes[index] ^= xor;
        // Must return, not panic; both Ok and Err are acceptable.
        let _ = QueryRequest::decode(&bytes);
    }

    /// Pure noise fed to the frame decoder never panics, for every frame
    /// type byte including undefined ones.
    #[test]
    fn noise_never_panics(
        frame_type in any::<u8>(),
        payload in collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = Frame::decode(frame_type, &payload);
        let mut cursor = std::io::Cursor::new(payload);
        let _ = Frame::read_from(&mut cursor);
    }
}
