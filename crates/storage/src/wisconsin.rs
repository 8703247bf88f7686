//! Wisconsin benchmark relation generator.
//!
//! All of the paper's experiments use relations of the Wisconsin benchmark
//! \[Bitton83\] ("In all the experiments, we use the relations of the Wisconsin
//! benchmark", Section 5.3), e.g. the `DewittA` 200K-tuple relation for the
//! Allcache measurements and 100K/10K, 200K/20K and 500K/50K pairs for the
//! join experiments.
//!
//! The generator produces the standard Wisconsin attribute set:
//!
//! | column        | type | contents                                        |
//! |---------------|------|-------------------------------------------------|
//! | `unique1`     | int  | random permutation of `0..n`                    |
//! | `unique2`     | int  | sequential `0..n` (declared key)                |
//! | `two`         | int  | `unique1 mod 2`                                 |
//! | `four`        | int  | `unique1 mod 4`                                 |
//! | `ten`         | int  | `unique1 mod 10`                                |
//! | `twenty`      | int  | `unique1 mod 20`                                |
//! | `onePercent`  | int  | `unique1 mod 100`                               |
//! | `tenPercent`  | int  | `unique1 mod 10`                                |
//! | `twentyPercent`| int | `unique1 mod 5`                                 |
//! | `fiftyPercent`| int  | `unique1 mod 2`                                 |
//! | `unique3`     | int  | `unique1`                                       |
//! | `evenOnePercent` | int | `onePercent * 2`                             |
//! | `oddOnePercent`  | int | `onePercent * 2 + 1`                         |
//! | `stringu1`    | str  | string derived from `unique1`                   |
//! | `stringu2`    | str  | string derived from `unique2`                   |
//! | `string4`     | str  | cyclic `AAAA` / `HHHH` / `OOOO` / `VVVV`        |
//!
//! A `narrow` mode generates only the integer attributes actually used by the
//! join experiments, which keeps the 500K-tuple databases cheap to build.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::{ColumnDef, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration of a Wisconsin relation generation run.
#[derive(Debug, Clone)]
pub struct WisconsinConfig {
    /// Relation name.
    pub name: String,
    /// Number of tuples.
    pub cardinality: usize,
    /// Generate only the integer columns used by the experiments
    /// (`unique1`, `unique2`, `two`, `four`, `ten`, `twenty`, `onePercent`,
    /// `tenPercent`). Default `true` for experiment databases.
    pub narrow: bool,
    /// Length of generated string attributes (full mode only). The original
    /// benchmark uses 52 characters; a shorter default keeps memory modest.
    pub string_len: usize,
    /// RNG seed for the `unique1` permutation, so databases are reproducible.
    pub seed: u64,
}

impl WisconsinConfig {
    /// A narrow experiment relation with the given name and cardinality.
    pub fn narrow(name: impl Into<String>, cardinality: usize) -> Self {
        WisconsinConfig {
            name: name.into(),
            cardinality,
            narrow: true,
            string_len: 8,
            seed: 0xD857,
        }
    }

    /// A full 16-attribute Wisconsin relation.
    pub fn full(name: impl Into<String>, cardinality: usize) -> Self {
        WisconsinConfig {
            narrow: false,
            ..Self::narrow(name, cardinality)
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.cardinality == 0 {
            return Err(StorageError::InvalidGeneratorConfig(
                "cardinality must be at least 1".to_string(),
            ));
        }
        if !self.narrow && self.string_len == 0 {
            return Err(StorageError::InvalidGeneratorConfig(
                "string length must be at least 1 in full mode".to_string(),
            ));
        }
        Ok(())
    }
}

/// Wisconsin benchmark relation generator.
#[derive(Debug, Clone, Default)]
pub struct WisconsinGenerator;

impl WisconsinGenerator {
    /// Creates a generator.
    pub fn new() -> Self {
        WisconsinGenerator
    }

    /// The schema produced for a given configuration.
    pub fn schema(&self, config: &WisconsinConfig) -> Schema {
        let mut cols = vec![
            ColumnDef::int("unique1"),
            ColumnDef::int("unique2"),
            ColumnDef::int("two"),
            ColumnDef::int("four"),
            ColumnDef::int("ten"),
            ColumnDef::int("twenty"),
            ColumnDef::int("onePercent"),
            ColumnDef::int("tenPercent"),
        ];
        if !config.narrow {
            cols.extend([
                ColumnDef::int("twentyPercent"),
                ColumnDef::int("fiftyPercent"),
                ColumnDef::int("unique3"),
                ColumnDef::int("evenOnePercent"),
                ColumnDef::int("oddOnePercent"),
                ColumnDef::str("stringu1"),
                ColumnDef::str("stringu2"),
                ColumnDef::str("string4"),
            ]);
        }
        Schema::new(cols)
    }

    /// Generates the relation described by `config`.
    pub fn generate(&self, config: &WisconsinConfig) -> Result<Relation> {
        config.validate()?;
        let schema = self.schema(config);
        let n = config.cardinality;

        // unique1 is a random permutation of 0..n, unique2 is sequential.
        let mut unique1: Vec<i64> = (0..n as i64).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        unique1.shuffle(&mut rng);

        let mut relation = Relation::empty(config.name.clone(), schema);
        for unique2 in 0..n as i64 {
            let u1 = unique1[unique2 as usize];
            let mut values = vec![
                Value::Int(u1),
                Value::Int(unique2),
                Value::Int(u1 % 2),
                Value::Int(u1 % 4),
                Value::Int(u1 % 10),
                Value::Int(u1 % 20),
                Value::Int(u1 % 100),
                Value::Int(u1 % 10),
            ];
            if !config.narrow {
                let one_percent = u1 % 100;
                values.extend([
                    Value::Int(u1 % 5),
                    Value::Int(u1 % 2),
                    Value::Int(u1),
                    Value::Int(one_percent * 2),
                    Value::Int(one_percent * 2 + 1),
                    Value::from(wisconsin_string(u1 as u64, config.string_len)),
                    Value::from(wisconsin_string(unique2 as u64, config.string_len)),
                    Value::from(string4(unique2 as usize, config.string_len)),
                ]);
            }
            relation.insert_unchecked(Tuple::new(values));
        }
        Ok(relation)
    }
}

/// Builds the Wisconsin "stringuN" value for a number: the number is encoded
/// in base-26 letters (A..Z), most significant first, padded to `len` with
/// 'A', mirroring the original benchmark's convention of unique strings that
/// sort like the numbers they encode.
#[expect(
    clippy::expect_used,
    reason = "the buffer only ever holds ASCII letters"
)]
pub fn wisconsin_string(mut v: u64, len: usize) -> String {
    let mut digits = Vec::new();
    loop {
        digits.push(b'A' + (v % 26) as u8);
        v /= 26;
        if v == 0 {
            break;
        }
    }
    let mut s = Vec::with_capacity(len);
    while s.len() + digits.len() < len {
        s.push(b'A');
    }
    s.extend(digits.iter().rev());
    s.truncate(len.max(digits.len()));
    String::from_utf8(s).expect("letters are valid UTF-8")
}

/// The Wisconsin `string4` attribute: cycles through four constant strings.
#[expect(
    clippy::expect_used,
    reason = "the buffer only ever holds ASCII letters"
)]
pub fn string4(row: usize, len: usize) -> String {
    let c = [b'A', b'H', b'O', b'V'][row % 4];
    String::from_utf8(vec![c; len.max(1)]).expect("letters are valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn narrow_schema_has_eight_columns() {
        let g = WisconsinGenerator::new();
        let s = g.schema(&WisconsinConfig::narrow("A", 10));
        assert_eq!(s.width(), 8);
    }

    #[test]
    fn full_schema_has_sixteen_columns() {
        let g = WisconsinGenerator::new();
        let s = g.schema(&WisconsinConfig::full("A", 10));
        assert_eq!(s.width(), 16);
        assert!(s.column_index("stringu2").is_ok());
    }

    #[test]
    fn unique1_is_a_permutation() {
        let g = WisconsinGenerator::new();
        let r = g.generate(&WisconsinConfig::narrow("A", 1000)).unwrap();
        let set: HashSet<i64> = r
            .tuples()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        assert_eq!(set.len(), 1000);
        assert!(set.contains(&0) && set.contains(&999));
    }

    #[test]
    fn unique2_is_sequential() {
        let g = WisconsinGenerator::new();
        let r = g.generate(&WisconsinConfig::narrow("A", 100)).unwrap();
        for (i, t) in r.tuples().iter().enumerate() {
            assert_eq!(t.value(1).as_int().unwrap(), i as i64);
        }
    }

    #[test]
    fn derived_columns_are_consistent() {
        let g = WisconsinGenerator::new();
        let cfg = WisconsinConfig::full("A", 500);
        let r = g.generate(&cfg).unwrap();
        let s = r.schema().clone();
        let u1 = s.column_index("unique1").unwrap();
        let ten = s.column_index("ten").unwrap();
        let one_pct = s.column_index("onePercent").unwrap();
        let even = s.column_index("evenOnePercent").unwrap();
        for t in r.tuples() {
            let v = t.value(u1).as_int().unwrap();
            assert_eq!(t.value(ten).as_int().unwrap(), v % 10);
            assert_eq!(t.value(one_pct).as_int().unwrap(), v % 100);
            assert_eq!(t.value(even).as_int().unwrap(), (v % 100) * 2);
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let g = WisconsinGenerator::new();
        let a = g.generate(&WisconsinConfig::narrow("A", 200)).unwrap();
        let b = g.generate(&WisconsinConfig::narrow("A", 200)).unwrap();
        assert_eq!(a.tuples(), b.tuples());
        let c = g
            .generate(&WisconsinConfig::narrow("A", 200).with_seed(99))
            .unwrap();
        assert_ne!(a.tuples(), c.tuples());
    }

    #[test]
    fn strings_encode_numbers_uniquely() {
        let mut seen = HashSet::new();
        for v in 0..2000u64 {
            assert!(seen.insert(wisconsin_string(v, 8)));
        }
        assert_eq!(wisconsin_string(0, 4), "AAAA");
        assert_eq!(wisconsin_string(1, 4), "AAAB");
        assert_eq!(wisconsin_string(26, 4), "AABA");
    }

    #[test]
    fn string4_cycles() {
        assert_eq!(string4(0, 4), "AAAA");
        assert_eq!(string4(1, 4), "HHHH");
        assert_eq!(string4(2, 4), "OOOO");
        assert_eq!(string4(3, 4), "VVVV");
        assert_eq!(string4(4, 4), "AAAA");
    }

    #[test]
    fn rejects_zero_cardinality() {
        let g = WisconsinGenerator::new();
        assert!(g.generate(&WisconsinConfig::narrow("A", 0)).is_err());
    }

    #[test]
    fn generated_relation_passes_integrity_check() {
        let g = WisconsinGenerator::new();
        let r = g.generate(&WisconsinConfig::full("A", 50)).unwrap();
        r.check_integrity().unwrap();
    }
}
