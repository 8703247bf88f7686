//! Experiment databases.
//!
//! All experiments use the Wisconsin benchmark relations (Section 5.3):
//! a large relation `A` and a small relation `Bprime` (the paper's `B'`),
//! both statically partitioned on `unique1`. The skewed databases re-key `A`
//! so that its fragment cardinalities follow a Zipf(θ) distribution
//! (Section 5.4); `B'` stays unskewed, which the paper shows is equivalent
//! to skewing both.

use dbs3_storage::{
    Catalog, PartitionSpec, PartitionedRelation, Relation, WisconsinConfig, WisconsinGenerator,
};

/// The scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// The paper's cardinalities (100K–500K tuples). Used by the
    /// `experiments` binary.
    Paper,
    /// Cardinalities divided by ~20 and coarser sweeps. Used by
    /// `experiments --smoke` (and the golden file that pins its output) so
    /// a full sweep finishes quickly.
    Smoke,
    /// 32× the paper's cardinalities. Paper-scale shapes finish in tens of
    /// milliseconds on modern hardware — too short for thread spawn and
    /// index-build amortisation, so speedup curves flatline. This tier
    /// pushes the same shapes into the hundreds-of-milliseconds range where
    /// multicore speedup is actually observable.
    Scaled,
    /// The scaled tier shrunk for CI: 32× the *smoke* cardinalities, small
    /// enough to finish in seconds (`baseline --smoke`, the schema check).
    /// Its speedups are too noisy to gate on; the scaling gate uses
    /// [`Self::Scaled`].
    ScaledSmoke,
}

/// How much the scaled tiers multiply their base cardinalities by.
pub const SCALED_FACTOR: usize = 32;

impl ExperimentScale {
    /// Scales a paper cardinality to this tier.
    pub fn cardinality(self, paper: usize) -> usize {
        match self {
            ExperimentScale::Paper => paper,
            ExperimentScale::Smoke => (paper / 20).max(200),
            ExperimentScale::Scaled => paper * SCALED_FACTOR,
            ExperimentScale::ScaledSmoke => (paper / 20).max(200) * SCALED_FACTOR,
        }
    }

    /// Scales a degree-of-partitioning sweep point. The scaled tiers keep
    /// their base tier's degree: fragments get 32× bigger instead of 32×
    /// more numerous, which is what makes per-fragment work (index builds,
    /// probes) long enough to parallelise.
    pub fn degree(self, paper: usize) -> usize {
        match self {
            ExperimentScale::Paper | ExperimentScale::Scaled => paper,
            ExperimentScale::Smoke | ExperimentScale::ScaledSmoke => (paper / 10).max(10),
        }
    }

    /// The tier's identifier in emitted JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Paper => "paper",
            ExperimentScale::Smoke => "smoke",
            ExperimentScale::Scaled => "scaled",
            ExperimentScale::ScaledSmoke => "scaled_smoke",
        }
    }
}

/// A pair of Wisconsin relations reused across the configurations of one
/// experiment (partitioning is re-done per configuration, generation is not).
#[derive(Debug)]
pub struct JoinDatabase {
    a: Relation,
    b: Relation,
    disks: usize,
}

impl JoinDatabase {
    /// Generates the base relations `A` (a_card tuples) and `Bprime`
    /// (b_card tuples).
    pub fn generate(a_card: usize, b_card: usize) -> Self {
        let gen = WisconsinGenerator::new();
        JoinDatabase {
            a: gen
                .generate(&WisconsinConfig::narrow("A", a_card))
                .expect("valid generator configuration"),
            b: gen
                .generate(&WisconsinConfig::narrow("Bprime", b_card))
                .expect("valid generator configuration"),
            disks: 8,
        }
    }

    /// Cardinality of `A`.
    pub fn a_cardinality(&self) -> usize {
        self.a.cardinality()
    }

    /// Cardinality of `Bprime`.
    pub fn b_cardinality(&self) -> usize {
        self.b.cardinality()
    }

    /// Builds a catalog with both relations partitioned on `unique1` into
    /// `degree` fragments; `A`'s fragment cardinalities follow Zipf(θ)
    /// (θ = 0 gives plain hash partitioning).
    pub fn catalog(&self, degree: usize, theta: f64) -> Catalog {
        let spec = PartitionSpec::on("unique1", degree, self.disks);
        let a_part = if theta > 0.0 {
            PartitionedRelation::from_relation_with_skew(&self.a, spec.clone(), theta)
                .expect("valid skewed partitioning")
        } else {
            PartitionedRelation::from_relation(&self.a, spec.clone()).expect("valid partitioning")
        };
        let b_part = PartitionedRelation::from_relation(&self.b, spec).expect("valid partitioning");
        let mut cat = Catalog::new();
        cat.register(a_part).expect("fresh catalog");
        cat.register(b_part).expect("fresh catalog");
        cat
    }

    /// Like [`Self::catalog`], wrapped in a query [`dbs3::Session`] — the
    /// form every experiment harness function consumes.
    pub fn session(&self, degree: usize, theta: f64) -> dbs3::Session {
        dbs3::Session::from_catalog(self.catalog(degree, theta))
    }
}

/// Builds the single-relation database of the Allcache experiment
/// (the 200K-tuple `DewittA` relation of Section 5.2).
pub fn selection_catalog(cardinality: usize, degree: usize) -> Catalog {
    let gen = WisconsinGenerator::new();
    let rel = gen
        .generate(&WisconsinConfig::narrow("DewittA", cardinality))
        .expect("valid generator configuration");
    let part = PartitionedRelation::from_relation(&rel, PartitionSpec::on("unique1", degree, 8))
        .expect("valid partitioning");
    let mut cat = Catalog::new();
    cat.register(part).expect("fresh catalog");
    cat
}

/// [`selection_catalog`] wrapped in a query [`dbs3::Session`].
pub fn selection_session(cardinality: usize, degree: usize) -> dbs3::Session {
    dbs3::Session::from_catalog(selection_catalog(cardinality, degree))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        assert_eq!(ExperimentScale::Paper.cardinality(100_000), 100_000);
        assert_eq!(ExperimentScale::Smoke.cardinality(100_000), 5_000);
        assert_eq!(ExperimentScale::Smoke.cardinality(1_000), 200);
        assert_eq!(ExperimentScale::Smoke.degree(200), 20);
        assert_eq!(ExperimentScale::Paper.degree(1500), 1500);
        assert_eq!(ExperimentScale::Scaled.cardinality(200_000), 6_400_000);
        assert_eq!(ExperimentScale::Scaled.degree(200), 200);
        assert_eq!(ExperimentScale::ScaledSmoke.cardinality(200_000), 320_000);
        assert_eq!(ExperimentScale::ScaledSmoke.degree(200), 20);
        assert_eq!(ExperimentScale::Scaled.name(), "scaled");
        assert_eq!(ExperimentScale::ScaledSmoke.name(), "scaled_smoke");
    }

    #[test]
    fn join_database_builds_catalogs() {
        let db = JoinDatabase::generate(2_000, 200);
        assert_eq!(db.a_cardinality(), 2_000);
        assert_eq!(db.b_cardinality(), 200);
        let cat = db.catalog(50, 0.0);
        assert_eq!(cat.get("A").unwrap().degree(), 50);
        assert_eq!(cat.get("Bprime").unwrap().degree(), 50);
        let skewed = db.catalog(50, 1.0);
        assert!(skewed.get("A").unwrap().observed_skew_factor() > 5.0);
    }

    #[test]
    fn selection_catalog_has_single_relation() {
        let cat = selection_catalog(5_000, 64);
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.get("DewittA").unwrap().cardinality(), 5_000);
    }
}
