//! Temporary hash indexes.
//!
//! Expt 3 (Section 5.6.1) compares joins "without indexes" (nested loop) and
//! "using a temporary index" built on the fly over 500K/50K-tuple relations.
//! This module provides that temporary index: an equi-join hash index from
//! key value to the positions of matching tuples inside one fragment (or any
//! other tuple slice).
//!
//! The index stores positions rather than tuple clones so that building it is
//! cheap — the cost the paper attributes to "building indexes on the fly".
//! The layout is a contiguous grouped table: per-bucket start offsets plus
//! one 8-byte word per row, grouped by bucket. A word is the key's index
//! hash with its bucket bits replaced by the row's position: the position is
//! below the bucket count, so it fits in the bits the bucket mask covers, and
//! the bucket a word sits in supplies those bits of the hash back. A counting
//! sort builds the table in two passes over the rows and exactly two
//! right-sized allocations — the two arrays the index keeps. The obvious
//! alternative — a `HashMap<u64, Vec<u32>>` — costs one heap allocation *per
//! distinct key*, which at Wisconsin cardinalities (unique join keys) made
//! index construction the single most expensive step of a pipelined join.
//!
//! The index hashes keys with its own `index_hash`, not with
//! [`Value::stable_hash`]: nothing outside the index sees its buckets, so it
//! needs no stable byte-wise hash, only a cheap one whose low bits do not
//! correlate with the partitioning hash that chose the fragment's rows.
//!
//! For integers that hash is a splitmix64 finaliser: xor-shifts and
//! multiplies by odd constants, each a bijection on `u64`, so two integers
//! share a full hash only when they are equal. A word therefore identifies
//! an integer key exactly, and [`HashIndex::count`] counts the matches of
//! an integer key in an all-integer index without reading a row.

use crate::fragment::Fragment;
use crate::tuple::Tuple;
use crate::value::Value;

/// A hash index on a single integer or string column of a tuple collection.
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// Column the index is built on.
    key_index: usize,
    /// Bucket mask (bucket count − 1; the bucket count is a power of two).
    mask: usize,
    /// `starts[b]` is the offset of bucket `b`'s first entry (length
    /// `buckets + 1`, so `starts[buckets]` is the row count).
    starts: Vec<u32>,
    /// One word per indexed tuple, grouped by bucket and in ascending
    /// position within a bucket: the key's index hash above the bucket
    /// mask, OR'd with the tuple's position below it. With the bucket's own
    /// bits, a word's high part is the key's full hash, so a probe skips
    /// same-bucket entries of other keys without touching the tuple data.
    entries: Vec<u64>,
    /// Whether every indexed key is an integer: then a full-hash match is
    /// an exact key match.
    all_int: bool,
}

/// The index's key hash: a splitmix64 finaliser for integers (a few
/// independent multiplies instead of FNV-1a's nine dependent ones, and a
/// bijection on `u64`), the stable hash for strings. A string probe
/// re-checks equality, so for strings the hash decides speed only, never a
/// result.
#[inline]
fn index_hash(value: &Value) -> u64 {
    match value {
        Value::Int(v) => {
            let mut z = *v as u64;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        Value::Str(_) => value.stable_hash(),
    }
}

/// The bucket of an index hash: its low bits.
#[inline]
fn bucket_of(hash: u64, mask: usize) -> usize {
    hash as usize & mask
}

impl HashIndex {
    /// Builds an index over an arbitrary slice of tuples.
    pub fn build(tuples: &[Tuple], key_index: usize) -> Self {
        // Load factor <= 1: at least one bucket per tuple, rounded up, so
        // every position fits below the mask.
        let buckets = tuples.len().next_power_of_two().max(1);
        let mask = buckets - 1;
        let mut starts = vec![0u32; buckets + 1];
        let mut entries = vec![0u64; tuples.len()];
        // A counting sort. Each key is hashed twice, once per pass: staging
        // the n hashes instead would save a little CPU but cost 8 bytes per
        // row.
        let hash = |t: &Tuple| index_hash(t.value(key_index));
        let mut all_int = true;
        for t in tuples {
            all_int &= matches!(t.value(key_index), Value::Int(_));
            starts[bucket_of(hash(t), mask)] += 1;
        }
        // Running totals: each bucket's ends one past its entries, and the
        // sentinel `starts[buckets]` (never counted into) ends at the row
        // count. Walking the rows backwards and decrementing a total leaves
        // `starts[b]` at bucket `b`'s first entry, with duplicates in
        // ascending position.
        let mut acc = 0;
        for slot in &mut starts {
            acc += *slot;
            *slot = acc;
        }
        let high = !(mask as u64);
        for (pos, t) in tuples.iter().enumerate().rev() {
            let h = hash(t);
            let slot = &mut starts[bucket_of(h, mask)];
            *slot -= 1;
            entries[*slot as usize] = (h & high) | pos as u64;
        }
        HashIndex {
            key_index,
            mask,
            starts,
            entries,
            all_int,
        }
    }

    /// Builds an index over a fragment (the common case: one temporary index
    /// per join operation instance).
    pub fn build_for_fragment(fragment: &Fragment, key_index: usize) -> Self {
        Self::build(fragment.tuples(), key_index)
    }

    /// Column the index is keyed on.
    pub fn key_index(&self) -> usize {
        self.key_index
    }

    /// Number of indexed tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when no tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The positions of the tuples whose key has the full index hash of
    /// `value`, ascending.
    #[inline]
    fn hash_matches(&self, value: &Value) -> impl Iterator<Item = usize> + '_ {
        let h = index_hash(value);
        let b = bucket_of(h, self.mask);
        let low = self.mask as u64;
        let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
        self.entries[lo..hi]
            .iter()
            .filter(move |&&word| (word ^ h) & !low == 0)
            .map(move |&word| (word & low) as usize)
    }

    /// Probes the index with `value` over `tuples` (the same collection the
    /// index was built from) and yields references to the matching tuples
    /// in ascending position, with exact equality re-checked on the tuples
    /// whose key has `value`'s full hash.
    ///
    /// The probe is allocation-free: it walks the bucket's entry range
    /// lazily instead of materialising a `Vec` per call, which matters in
    /// the join inner loops where the engine probes once per outer tuple.
    #[inline]
    pub fn probe<'a>(
        &'a self,
        tuples: &'a [Tuple],
        value: &'a Value,
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        let key_index = self.key_index;
        self.hash_matches(value)
            .map(move |pos| &tuples[pos])
            .filter(move |t| t.value(key_index) == value)
    }

    /// The number of tuples [`probe`](Self::probe) would yield for `value`
    /// over `tuples`. When `value` and every indexed key are integers, a
    /// full-hash match is a key match (see the module doc), so the count
    /// reads no tuple; otherwise it re-checks equality as a probe does.
    #[inline]
    pub fn count(&self, tuples: &[Tuple], value: &Value) -> usize {
        match value {
            Value::Int(_) if self.all_int => self.hash_matches(value).count(),
            _ => self.probe(tuples, value).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::test_relation;
    use crate::schema::{ColumnDef, Schema};
    use crate::tuple::int_tuple;

    #[test]
    fn build_and_probe_matches_equality_scan() {
        let rel = test_relation("r", &[(1, 10), (2, 20), (2, 21), (3, 30), (2, 22)]);
        let idx = HashIndex::build(rel.tuples(), 0);
        assert_eq!(idx.len(), 5);
        let hits = idx.probe(rel.tuples(), &Value::Int(2)).collect::<Vec<_>>();
        assert_eq!(hits.len(), 3);
        for t in hits {
            assert_eq!(t.value(0), &Value::Int(2));
        }
        assert_eq!(idx.probe(rel.tuples(), &Value::Int(42)).count(), 0);
    }

    #[test]
    fn probe_rechecks_exact_equality() {
        // Even if two different values collided in hash, probe would filter
        // them out; simulate by probing with a value that is absent.
        let rel = test_relation("r", &[(5, 1)]);
        let idx = HashIndex::build(rel.tuples(), 0);
        assert_eq!(idx.probe(rel.tuples(), &Value::Int(6)).count(), 0);
    }

    #[test]
    fn fragment_index() {
        let schema = Schema::new(vec![ColumnDef::int("id"), ColumnDef::int("val")]);
        let tuples = (0..100).map(|i| int_tuple(&[i % 10, i])).collect();
        let frag = Fragment::new(0, 0, schema, tuples);
        let idx = HashIndex::build_for_fragment(&frag, 0);
        assert_eq!(idx.probe(frag.tuples(), &Value::Int(3)).count(), 10);
        assert_eq!(idx.probe(frag.tuples(), &Value::Int(999)).count(), 0);
    }

    #[test]
    fn probe_order_is_build_order() {
        // Duplicate keys must come back in insertion order so joins are
        // deterministic.
        let rel = test_relation("r", &[(7, 0), (1, 1), (7, 2), (7, 3)]);
        let idx = HashIndex::build(rel.tuples(), 0);
        let payloads: Vec<i64> = idx
            .probe(rel.tuples(), &Value::Int(7))
            .map(|t| t.value(1).as_int().unwrap())
            .collect();
        assert_eq!(payloads, vec![0, 2, 3]);
    }

    #[test]
    fn empty_index() {
        let idx = HashIndex::build(&[], 0);
        assert!(idx.is_empty());
        assert_eq!(idx.probe(&[], &Value::Int(0)).count(), 0);
    }

    #[test]
    fn an_all_integer_index_counts_without_reading_a_row() {
        let keys = [7, -1, 7, i64::MIN, 0, i64::MAX, 7];
        let tuples: Vec<Tuple> = keys.iter().map(|&k| int_tuple(&[k])).collect();
        let idx = HashIndex::build(&tuples, 0);
        for key in [7, -1, i64::MIN, 0, i64::MAX, 1, 8, -7] {
            let expected = keys.iter().filter(|&&k| k == key).count();
            assert_eq!(idx.count(&tuples, &Value::Int(key)), expected, "{key}");
            // Handed no rows at all, the count still holds: it reads none.
            assert_eq!(idx.count(&[], &Value::Int(key)), expected, "{key}");
        }
    }

    /// The integer whose index hash is `hash`: the splitmix64 finaliser run
    /// backwards, step by step.
    fn int_with_hash(hash: u64) -> i64 {
        let unshift = |y: u64, s: u32| (0..64 / s).fold(y, |x, _| y ^ (x >> s));
        let inverse = |c: u64| {
            (0..6).fold(c, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i)))
            })
        };
        let mut z = unshift(hash, 31);
        z = unshift(z.wrapping_mul(inverse(0x94d0_49bb_1331_11eb)), 27);
        z = unshift(z.wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9)), 30);
        z as i64
    }

    #[test]
    fn a_full_hash_shared_across_types_is_rechecked() {
        // The integer hash is a bijection, so some integer shares the full
        // hash of any string; only an all-integer index may trust a hash.
        let s = Value::from("AAA");
        let k = Value::Int(int_with_hash(s.stable_hash()));
        assert_eq!(index_hash(&k), index_hash(&s));
        let mixed = vec![Tuple::new(vec![s.clone()]), int_tuple(&[1])];
        let idx = HashIndex::build(&mixed, 0);
        assert_eq!(
            idx.count(&mixed, &k),
            0,
            "an integer key against a string row"
        );
        assert_eq!(idx.count(&mixed, &s), 1);
        let ints = vec![Tuple::new(vec![k.clone()])];
        let idx = HashIndex::build(&ints, 0);
        assert_eq!(
            idx.count(&ints, &s),
            0,
            "a string key against an integer row"
        );
        assert_eq!(idx.count(&ints, &k), 1);
    }

    #[test]
    fn index_on_string_column() {
        let schema = Schema::new(vec![ColumnDef::str("s")]);
        let tuples = ["AAA", "BBB", "AAA"]
            .map(|s| Tuple::new(vec![Value::from(s)]))
            .to_vec();
        let frag = Fragment::new(0, 0, schema, tuples);
        let idx = HashIndex::build_for_fragment(&frag, 0);
        assert_eq!(idx.probe(frag.tuples(), &Value::from("AAA")).count(), 2);
        assert_eq!(idx.probe(frag.tuples(), &Value::from("BBB")).count(), 1);
        assert_eq!(idx.probe(frag.tuples(), &Value::from("")).count(), 0);
        assert_eq!(idx.count(frag.tuples(), &Value::from("AAA")), 2);
        assert_eq!(idx.count(frag.tuples(), &Value::Int(1)), 0);
    }

    #[test]
    fn every_position_is_indexed_exactly_once() {
        let rows: Vec<(i64, i64)> = (0..1000).map(|i| (i % 37, i)).collect();
        let rel = test_relation("r", &rows);
        let idx = HashIndex::build(rel.tuples(), 0);
        let mut seen: Vec<i64> = (0..37)
            .flat_map(|k| {
                let key = Value::Int(k);
                idx.probe(rel.tuples(), &key)
                    .map(|t| t.value(1).as_int().unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn buckets_spread_keys_the_partitioning_hash_groups() {
        // A weak mixer (or an identity "hash") piles structured keys into a
        // few buckets; so would one whose low bits correlate with the
        // partitioning hash that put a fragment's rows together. 10 000
        // random keys over 16 384 buckets occupy 45.7 % of them.
        let one_partition = (0i64..)
            .filter(|&k| crate::value::stable_hash_values([&Value::Int(k)]) % 20 == 7)
            .take(10_000)
            .collect();
        let key_sets: [(&str, Vec<i64>); 5] = [
            ("consecutive", (0..10_000).collect()),
            ("one partition", one_partition),
            ("multiples of 2^16", (0..10_000).map(|k| k << 16).collect()),
            ("multiples of 2^32", (0..10_000).map(|k| k << 32).collect()),
            ("negatives", (1..=10_000).map(|k| -k).collect()),
        ];
        for (name, keys) in key_sets {
            let tuples: Vec<Tuple> = keys.iter().map(|&k| int_tuple(&[k])).collect();
            let idx = HashIndex::build(&tuples, 0);
            assert_eq!(idx.starts.len(), 16_385, "{name}");
            let sizes = idx.starts.windows(2).map(|w| w[1] - w[0]);
            let longest = sizes.clone().max().unwrap();
            let occupied = sizes.filter(|&n| n > 0).count();
            assert!(longest <= 8, "{name}: longest bucket {longest}");
            assert!(
                occupied as f64 >= 0.42 * 16_384.0,
                "{name}: {occupied} of 16 384 buckets occupied"
            );
        }
    }
}
