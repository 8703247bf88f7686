//! Property-based tests for the storage layer.
//!
//! The partitioning function is the foundation of the whole execution model:
//! if it loses tuples, duplicates them or violates the placement invariant,
//! every experiment downstream is meaningless. These properties exercise it
//! with arbitrary data.

use dbs3_storage::{
    HashIndex, PartitionSpec, PartitionedRelation, Relation, Schema, Tuple, Value, Zipf,
};
use proptest::prelude::*;

fn schema2() -> Schema {
    use dbs3_storage::ColumnDef;
    Schema::new(vec![ColumnDef::int("id"), ColumnDef::int("val")])
}

fn relation_from_rows(rows: &[(i64, i64)]) -> Relation {
    let tuples = rows
        .iter()
        .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
        .collect();
    Relation::new("r", schema2(), tuples).unwrap()
}

/// An index key from a small universe, so bags repeat keys: the extreme
/// integers, small negative and positive integers, and short strings
/// including the empty one. `(kind, n)` is what the strategy draws.
fn index_key((kind, n): (u8, i64)) -> Value {
    match kind {
        0 => Value::Int(i64::MIN),
        1 => Value::Int(i64::MAX),
        2 => Value::from(""),
        3 => Value::from(format!("s{n}")),
        _ => Value::Int(n),
    }
}

/// Every key [`index_key`] can draw from `n` in `-20..20`, plus keys it
/// never draws.
fn key_universe() -> Vec<Value> {
    let mut keys: Vec<Value> = (0..4).map(|kind| index_key((kind, 0))).collect();
    for n in -25..25 {
        keys.push(index_key((3, n)));
        keys.push(index_key((4, n)));
    }
    keys
}

/// Tuples `(key, position)` over a bag of drawn keys.
fn keyed_tuples(draws: &[(u8, i64)]) -> Vec<Tuple> {
    draws
        .iter()
        .enumerate()
        .map(|(pos, &d)| Tuple::new(vec![index_key(d), Value::Int(pos as i64)]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash partitioning is a partition in the mathematical sense: the
    /// fragments are disjoint and their union is the original relation.
    #[test]
    fn partitioning_preserves_multiset(
        rows in proptest::collection::vec((-1000i64..1000, any::<i64>()), 0..300),
        degree in 1usize..64,
        disks in 1usize..8,
    ) {
        let rel = relation_from_rows(&rows);
        let part = PartitionedRelation::from_relation(&rel, PartitionSpec::on("id", degree, disks)).unwrap();
        prop_assert_eq!(part.cardinality(), rel.cardinality());

        let mut original: Vec<(i64, i64)> = rows.clone();
        let mut reassembled: Vec<(i64, i64)> = part
            .reassemble()
            .tuples()
            .iter()
            .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
            .collect();
        original.sort_unstable();
        reassembled.sort_unstable();
        prop_assert_eq!(original, reassembled);
    }

    /// Every tuple lands in the fragment its key hashes to, and every
    /// fragment is placed on the round-robin disk.
    #[test]
    fn placement_invariant(
        rows in proptest::collection::vec((any::<i64>(), any::<i64>()), 0..200),
        degree in 1usize..40,
        disks in 1usize..5,
    ) {
        let rel = relation_from_rows(&rows);
        let spec = PartitionSpec::on("id", degree, disks);
        let part = PartitionedRelation::from_relation(&rel, spec).unwrap();
        prop_assert!(part.check_placement().is_ok());
        for frag in part.fragments() {
            prop_assert_eq!(frag.disk(), frag.id() % disks);
        }
    }

    /// Tuples with equal keys always land in the same fragment — the
    /// property IdealJoin relies on (co-partitioned operands only need to
    /// join fragment i with fragment i).
    #[test]
    fn equal_keys_colocate(
        key in -500i64..500,
        degree in 1usize..100,
        payloads in proptest::collection::vec(any::<i64>(), 1..50),
    ) {
        let rows: Vec<(i64, i64)> = payloads.iter().map(|&p| (key, p)).collect();
        let rel = relation_from_rows(&rows);
        let part = PartitionedRelation::from_relation(&rel, PartitionSpec::on("id", degree, 1)).unwrap();
        let non_empty: Vec<_> = part.fragments().iter().filter(|f| !f.is_empty()).collect();
        prop_assert_eq!(non_empty.len(), 1);
        prop_assert_eq!(non_empty[0].cardinality(), payloads.len());
    }

    /// Skewed partitioning always produces exactly the Zipf cardinalities
    /// and never violates the placement invariant.
    #[test]
    fn skewed_partitioning_respects_zipf(
        total in 1usize..3000,
        degree in 1usize..60,
        theta_millis in 0u32..=1000,
    ) {
        let theta = f64::from(theta_millis) / 1000.0;
        let rows: Vec<(i64, i64)> = (0..total as i64).map(|i| (i, i)).collect();
        let rel = relation_from_rows(&rows);
        let part = PartitionedRelation::from_relation_with_skew(
            &rel,
            PartitionSpec::on("id", degree, 1),
            theta,
        )
        .unwrap();
        prop_assert_eq!(part.cardinality(), total);
        let expected = Zipf::new(theta, degree).unwrap().cardinalities(total);
        prop_assert_eq!(part.fragment_cardinalities(), expected);
        prop_assert!(part.check_placement().is_ok());
    }

    /// Zipf cardinalities always sum to the requested total and are
    /// non-increasing by rank (up to the +1 remainder correction).
    #[test]
    fn zipf_cardinalities_well_formed(
        total in 0usize..100_000,
        n in 1usize..500,
        theta_millis in 0u32..=1000,
    ) {
        let theta = f64::from(theta_millis) / 1000.0;
        let z = Zipf::new(theta, n).unwrap();
        let cards = z.cardinalities(total);
        prop_assert_eq!(cards.len(), n);
        prop_assert_eq!(cards.iter().sum::<usize>(), total);
        for w in cards.windows(2) {
            // Remainder distribution can add at most 1 to any fragment.
            prop_assert!(w[0] + 1 >= w[1]);
        }
    }

    /// An index probe returns exactly the tuples an equality scan returns,
    /// in ascending position order, for every key, present or absent.
    #[test]
    fn index_probe_equals_scan(
        draws in proptest::collection::vec((0u8..6, -20i64..20), 0..400),
    ) {
        let tuples = keyed_tuples(&draws);
        let idx = HashIndex::build(&tuples, 0);
        prop_assert_eq!(idx.len(), tuples.len());
        let position = |t: &Tuple| t.value(1).as_int().unwrap();
        for key in key_universe() {
            let probed: Vec<i64> = idx.probe(&tuples, &key).map(position).collect();
            let scanned: Vec<i64> =
                tuples.iter().filter(|t| t.value(0) == &key).map(position).collect();
            prop_assert_eq!(probed, scanned);
        }
    }

    /// The reference join is symmetric in cardinality: |A ⋈ B| == |B ⋈ A|.
    #[test]
    fn reference_join_symmetric(
        left in proptest::collection::vec((-20i64..20, any::<i64>()), 0..60),
        right in proptest::collection::vec((-20i64..20, any::<i64>()), 0..60),
    ) {
        let a = relation_from_rows(&left);
        let b = relation_from_rows(&right);
        let ab = a.reference_join(&b, "id", "id").unwrap().len();
        let ba = b.reference_join(&a, "id", "id").unwrap().len();
        prop_assert_eq!(ab, ba);
    }
}
