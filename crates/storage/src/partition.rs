//! Static hash partitioning.
//!
//! Lera-par's storage model is statically partitioned: "Relations are
//! partitioned by hashing on one or more attributes, and relation fragments
//! are distributed onto disks in a round-robin fashion. Thus, the degree of
//! partitioning can be independent of the number of disks." (Section 2).
//!
//! This module implements that model:
//!
//! * [`PartitionSpec`] — the partitioning key, the degree of partitioning and
//!   the number of disks;
//! * [`PartitionedRelation`] — a relation split into [`Fragment`]s;
//! * skew-controlled partitioning ([`PartitionedRelation::from_relation_with_skew`])
//!   used to build the experiment databases of Section 5.4–5.6, where
//!   fragment cardinalities follow a Zipf(θ) distribution.

use crate::error::StorageError;
use crate::fragment::Fragment;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::zipf::Zipf;
use crate::Result;

/// How a relation is statically partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Names of the partitioning attributes (hashed together).
    pub key_columns: Vec<String>,
    /// Degree of partitioning (number of fragments).
    pub degree: usize,
    /// Number of disks fragments are spread over, round-robin.
    pub num_disks: usize,
}

impl PartitionSpec {
    /// Creates a partitioning spec on a single attribute.
    pub fn on(column: impl Into<String>, degree: usize, num_disks: usize) -> Self {
        PartitionSpec {
            key_columns: vec![column.into()],
            degree,
            num_disks,
        }
    }

    fn validate(&self, schema: &Schema) -> Result<Vec<usize>> {
        if self.degree == 0 {
            return Err(StorageError::InvalidDegree(self.degree));
        }
        if self.num_disks == 0 {
            return Err(StorageError::InvalidGeneratorConfig(
                "number of disks must be at least 1".to_string(),
            ));
        }
        self.key_columns
            .iter()
            .map(|c| schema.column_index(c))
            .collect()
    }

    /// The fragment a tuple with the given key hash belongs to.
    pub fn fragment_of_hash(&self, hash: u64) -> usize {
        (hash % self.degree as u64) as usize
    }

    /// The disk a fragment is placed on (round-robin).
    pub fn disk_of_fragment(&self, fragment: usize) -> usize {
        fragment % self.num_disks
    }
}

/// A statically partitioned relation: the unit the execution engine works on.
#[derive(Debug, Clone)]
pub struct PartitionedRelation {
    name: String,
    schema: Schema,
    spec: PartitionSpec,
    key_indexes: Vec<usize>,
    fragments: Vec<Fragment>,
}

impl PartitionedRelation {
    /// Hash-partitions a relation according to `spec`.
    ///
    /// This is the "unskewed" loader: tuples go to `hash(key) mod degree`,
    /// which for Wisconsin `uniqueN` keys yields nearly uniform fragments.
    pub fn from_relation(relation: &Relation, spec: PartitionSpec) -> Result<Self> {
        let key_indexes = spec.validate(relation.schema())?;
        let mut fragments: Vec<Fragment> = (0..spec.degree)
            .map(|id| Fragment::empty(id, spec.disk_of_fragment(id), relation.schema().clone()))
            .collect();
        for tuple in relation.tuples() {
            let frag = spec.fragment_of_hash(tuple.hash_key(&key_indexes));
            fragments[frag].push(tuple.clone());
        }
        Ok(PartitionedRelation {
            name: relation.name().to_string(),
            schema: relation.schema().clone(),
            spec,
            key_indexes,
            fragments,
        })
    }

    /// Builds a partitioned relation whose *fragment cardinalities* follow a
    /// Zipf(θ) distribution, as in the paper's skewed databases (Expt 1–3).
    ///
    /// The tuples of `relation` are re-keyed on the partitioning attribute so
    /// that the number of tuples landing in fragment `i` matches the Zipf
    /// cardinality, while the partitioning invariant
    /// `fragment(t) == hash(key(t)) mod degree` still holds — i.e. the data
    /// really is partitioned on the join attribute, it is just badly
    /// distributed (AVS/TPS in the paper's taxonomy). This is achieved by
    /// assigning each tuple a key drawn from a per-fragment key pool.
    ///
    /// Keys are integers; the key pools are built by scanning the natural
    /// numbers and grouping them by `hash(k) mod degree`, so different
    /// fragments use disjoint key sets and an equi-join of two relations
    /// partitioned this way only matches within co-fragments (the IdealJoin
    /// property).
    pub fn from_relation_with_skew(
        relation: &Relation,
        spec: PartitionSpec,
        theta: f64,
    ) -> Result<Self> {
        let key_indexes = spec.validate(relation.schema())?;
        if key_indexes.len() != 1 {
            return Err(StorageError::InvalidGeneratorConfig(
                "skewed partitioning supports a single integer key column".to_string(),
            ));
        }
        let key_index = key_indexes[0];
        let zipf = Zipf::new(theta, spec.degree)?;
        let cards = zipf.cardinalities(relation.cardinality());

        // Build one representative key per fragment. Using a single key per
        // fragment maximises attribute-value skew (AVS) while keeping the
        // hash-partitioning invariant exact; the execution-level effect (the
        // per-fragment work) only depends on the cardinalities.
        let keys = fragment_key_pool(&spec, spec.degree);

        let mut fragments: Vec<Fragment> = (0..spec.degree)
            .map(|id| Fragment::empty(id, spec.disk_of_fragment(id), relation.schema().clone()))
            .collect();

        let mut source = relation.tuples().iter();
        for (frag_id, &card) in cards.iter().enumerate() {
            let key = keys[frag_id];
            for _ in 0..card {
                // Re-key the next source tuple onto this fragment's key.
                let tuple = source
                    .next()
                    // allow-panic: `cards` was built by distributing exactly
                    // `relation.cardinality()` units over the fragments.
                    .expect("cardinalities sum to the relation cardinality");
                let mut values = tuple.values().to_vec();
                values[key_index] = crate::value::Value::Int(key);
                fragments[frag_id].push(Tuple::new(values));
            }
        }

        Ok(PartitionedRelation {
            name: relation.name().to_string(),
            schema: relation.schema().clone(),
            spec,
            key_indexes,
            fragments,
        })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partitioning spec.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Degree of partitioning (number of fragments).
    pub fn degree(&self) -> usize {
        self.spec.degree
    }

    /// Indexes of the partitioning key columns in the schema.
    pub fn key_indexes(&self) -> &[usize] {
        &self.key_indexes
    }

    /// The fragments.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// A single fragment.
    pub fn fragment(&self, id: usize) -> Result<&Fragment> {
        self.fragments
            .get(id)
            .ok_or(StorageError::FragmentOutOfBounds {
                fragment: id,
                degree: self.spec.degree,
            })
    }

    /// Total cardinality across fragments.
    pub fn cardinality(&self) -> usize {
        self.fragments.iter().map(Fragment::cardinality).sum()
    }

    /// Fragment cardinalities, in fragment order. This is the vector the LPT
    /// strategy and the analytic model consume.
    pub fn fragment_cardinalities(&self) -> Vec<usize> {
        self.fragments.iter().map(Fragment::cardinality).collect()
    }

    /// The observed skew factor `Pmax / P` over fragment cardinalities.
    pub fn observed_skew_factor(&self) -> f64 {
        let cards = self.fragment_cardinalities();
        let max = cards.iter().copied().max().unwrap_or(0) as f64;
        let total: usize = cards.iter().sum();
        if total == 0 || cards.is_empty() {
            return 1.0;
        }
        let avg = total as f64 / cards.len() as f64;
        max / avg
    }

    /// Reassembles the unpartitioned relation (used by tests to verify that
    /// partitioning neither loses nor duplicates tuples).
    pub fn reassemble(&self) -> Relation {
        let mut rel = Relation::empty(self.name.clone(), self.schema.clone());
        for frag in &self.fragments {
            for t in frag.tuples() {
                rel.insert_unchecked(t.clone());
            }
        }
        rel
    }

    /// Checks the partitioning invariant: every tuple is in the fragment its
    /// key hashes to.
    pub fn check_placement(&self) -> Result<()> {
        for frag in &self.fragments {
            for t in frag.tuples() {
                let expect = self.spec.fragment_of_hash(t.hash_key(&self.key_indexes));
                if expect != frag.id() {
                    return Err(StorageError::InvalidGeneratorConfig(format!(
                        "tuple {t} placed in fragment {} but hashes to {expect}",
                        frag.id()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Repartitions into a different degree (dynamic redistribution used by
    /// the `Transmit` operator when building `AssocJoin`-style plans outside
    /// the engine, and by tests).
    pub fn repartitioned(&self, degree: usize) -> Result<Self> {
        let spec = PartitionSpec {
            key_columns: self.spec.key_columns.clone(),
            degree,
            num_disks: self.spec.num_disks,
        };
        Self::from_relation(&self.reassemble(), spec)
    }
}

/// Builds, for each fragment id, one integer key that hashes into that
/// fragment under `spec`. Scans the natural numbers; for any reasonable
/// degree this terminates quickly because the stable hash spreads integers
/// uniformly.
pub fn fragment_key_pool(spec: &PartitionSpec, degree: usize) -> Vec<i64> {
    let mut keys: Vec<Option<i64>> = vec![None; degree];
    let mut found = 0usize;
    let mut k: i64 = 0;
    while found < degree {
        // Hash exactly the way `Tuple::hash_key` hashes a single-column key,
        // so the generated keys land in the intended fragments.
        let key_value = crate::value::Value::Int(k);
        let h = crate::value::stable_hash_values(std::iter::once(&key_value));
        let frag = spec.fragment_of_hash(h);
        if frag < degree && keys[frag].is_none() {
            keys[frag] = Some(k);
            found += 1;
        }
        k += 1;
        // Safety valve: with a sane hash this never triggers.
        assert!(
            k < (degree as i64 + 1) * 10_000,
            "could not find keys for all fragments"
        );
    }
    // allow-panic: the loop above only exits once every slot is Some (the
    // assert is the safety valve against a degenerate hash).
    keys.into_iter().map(|k| k.expect("all found")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::test_relation;
    use crate::value::Value;

    fn relation(n: usize) -> Relation {
        let rows: Vec<(i64, i64)> = (0..n as i64).map(|i| (i, i * 10)).collect();
        test_relation("r", &rows)
    }

    #[test]
    fn partitioning_preserves_all_tuples() {
        let r = relation(1000);
        let p = PartitionedRelation::from_relation(&r, PartitionSpec::on("id", 16, 4)).unwrap();
        assert_eq!(p.cardinality(), 1000);
        assert_eq!(p.degree(), 16);
        let mut ids: Vec<i64> = p
            .reassemble()
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn placement_invariant_holds() {
        let r = relation(500);
        let p = PartitionedRelation::from_relation(&r, PartitionSpec::on("id", 7, 2)).unwrap();
        p.check_placement().unwrap();
    }

    #[test]
    fn round_robin_disk_placement() {
        let r = relation(10);
        let p = PartitionedRelation::from_relation(&r, PartitionSpec::on("id", 8, 3)).unwrap();
        for frag in p.fragments() {
            assert_eq!(frag.disk(), frag.id() % 3);
        }
    }

    #[test]
    fn unskewed_partitioning_is_roughly_uniform() {
        let r = relation(20_000);
        let p = PartitionedRelation::from_relation(&r, PartitionSpec::on("id", 200, 10)).unwrap();
        let skew = p.observed_skew_factor();
        assert!(skew < 1.5, "hash partitioning too skewed: {skew}");
    }

    #[test]
    fn rejects_zero_degree_and_unknown_column() {
        let r = relation(10);
        assert!(PartitionedRelation::from_relation(&r, PartitionSpec::on("id", 0, 1)).is_err());
        assert!(PartitionedRelation::from_relation(&r, PartitionSpec::on("nope", 4, 1)).is_err());
    }

    #[test]
    fn skewed_partitioning_matches_zipf_cardinalities() {
        let r = relation(10_000);
        let p =
            PartitionedRelation::from_relation_with_skew(&r, PartitionSpec::on("id", 50, 5), 1.0)
                .unwrap();
        assert_eq!(p.cardinality(), 10_000);
        let expected = Zipf::new(1.0, 50).unwrap().cardinalities(10_000);
        assert_eq!(p.fragment_cardinalities(), expected);
        // The placement invariant must still hold after re-keying.
        p.check_placement().unwrap();
    }

    #[test]
    fn skewed_partitioning_zero_theta_is_uniform() {
        let r = relation(1000);
        let p =
            PartitionedRelation::from_relation_with_skew(&r, PartitionSpec::on("id", 10, 2), 0.0)
                .unwrap();
        assert!(p.fragment_cardinalities().iter().all(|&c| c == 100));
    }

    #[test]
    fn observed_skew_factor_tracks_theta() {
        let r = relation(20_000);
        let low =
            PartitionedRelation::from_relation_with_skew(&r, PartitionSpec::on("id", 200, 4), 0.4)
                .unwrap()
                .observed_skew_factor();
        let high =
            PartitionedRelation::from_relation_with_skew(&r, PartitionSpec::on("id", 200, 4), 1.0)
                .unwrap()
                .observed_skew_factor();
        assert!(high > low, "skew factor should grow with theta");
        assert!(
            (high - 34.0).abs() < 4.0,
            "Zipf=1/200 fragments ≈ 34, got {high}"
        );
    }

    #[test]
    fn repartitioned_changes_degree_and_preserves_tuples() {
        let r = relation(777);
        let p = PartitionedRelation::from_relation(&r, PartitionSpec::on("id", 20, 2)).unwrap();
        let q = p.repartitioned(55).unwrap();
        assert_eq!(q.degree(), 55);
        assert_eq!(q.cardinality(), 777);
        q.check_placement().unwrap();
    }

    #[test]
    fn fragment_key_pool_keys_hash_to_their_fragment() {
        let spec = PartitionSpec::on("id", 97, 4);
        let keys = fragment_key_pool(&spec, 97);
        assert_eq!(keys.len(), 97);
        for (frag, &k) in keys.iter().enumerate() {
            let value = Value::Int(k);
            let h = crate::value::stable_hash_values(std::iter::once(&value));
            assert_eq!(spec.fragment_of_hash(h), frag);
        }
    }

    #[test]
    fn fragment_lookup_out_of_bounds() {
        let r = relation(10);
        let p = PartitionedRelation::from_relation(&r, PartitionSpec::on("id", 4, 1)).unwrap();
        assert!(p.fragment(3).is_ok());
        assert!(matches!(
            p.fragment(4),
            Err(StorageError::FragmentOutOfBounds {
                fragment: 4,
                degree: 4
            })
        ));
    }
}
