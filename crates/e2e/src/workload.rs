//! The four workloads: what each one is, why it is there, how its database
//! is made from the seed, and the naive oracle its answers are checked
//! against.

use crate::trace::Tracer;
use crate::BenchResult;
use dbs3::Session;
use dbs3_lera::{plans, JoinAlgorithm, Plan};
use dbs3_storage::{
    Catalog, PartitionSpec, PartitionedRelation, Relation, Tuple, Value, WisconsinConfig,
    WisconsinGenerator,
};
use std::collections::HashMap;

/// Worker-pool width, generator threads and connections: all fixed at the
/// sizing host's `nproc`, so the shape of a run does not follow the machine.
pub const POOL_THREADS: usize = 2;
/// Offered load of the open-loop workload, queries per second in total.
pub const OPEN_LOOP_QPS: f64 = 60.0;
/// Queries every child runs after set-up and before its window.
pub const WARMUP_QUERIES: usize = 20;
/// Name of the single result every workload's plan stores.
pub const RESULT: &str = "Result";
/// The join attribute.
pub const JOIN_COLUMN: &str = "unique1";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm pipelined AssocJoin, local closed loop.
    LocalAssocPipeline,
    /// Warm triggered IdealJoin over a Zipf-skewed relation, local closed loop.
    LocalIdealSkew,
    /// A catalog write beside every read: replace, then an unprepared query.
    LocalColdReplace,
    /// A small AssocJoin behind the TCP server, open loop.
    ServeOpenAssoc,
}

/// Row counts and partitioning of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Rows of the large relation `A`.
    pub a_rows: usize,
    /// Rows of the small relation `Bprime`.
    pub b_rows: usize,
    /// Degree of partitioning of both relations.
    pub degree: usize,
    /// Zipf θ of `A`'s fragment cardinalities (0 = hash partitioning).
    pub theta: f64,
    /// Queries the counted child runs with the allocator counting.
    pub counted_queries: usize,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::LocalAssocPipeline,
        Workload::LocalIdealSkew,
        Workload::LocalColdReplace,
        Workload::ServeOpenAssoc,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalAssocPipeline => "local_assoc_pipeline",
            Workload::LocalIdealSkew => "local_ideal_skew",
            Workload::LocalColdReplace => "local_cold_replace",
            Workload::ServeOpenAssoc => "serve_open_assoc",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LocalAssocPipeline => {
                "paper fig14 shape: transmit, scatter, activation queues and pipelined probe do \
                 the work; set-up caches all warm, serve bypassed"
            }
            Workload::LocalIdealSkew => {
                "paper fig13/15 shape: triggered-only Zipf(1.0) join, no inter-operator queues; \
                 morsel/LPT balance, probe and output-tuple construction dominate"
            }
            Workload::LocalColdReplace => {
                "a catalog write beside every read: every plan lookup misses and every index is \
                 rebuilt and evicted, so invalidation and build cost show here only"
            }
            Workload::ServeOpenAssoc => {
                "a small AssocJoin behind the TCP server, open loop at 60 q/s over 2 connections, \
                 timed from the due time: wire, admission, session threads, parked-pool wake-up"
            }
        }
    }

    /// The workload's sizes; `smoke` divides rows by 20 and degree by 10.
    pub fn shape(self, smoke: bool) -> Shape {
        let full = match self {
            Workload::LocalAssocPipeline => Shape {
                a_rows: 200_000,
                b_rows: 20_000,
                degree: 200,
                theta: 0.0,
                counted_queries: 200,
            },
            Workload::LocalIdealSkew => Shape {
                a_rows: 200_000,
                b_rows: 20_000,
                degree: 200,
                theta: 1.0,
                counted_queries: 100,
            },
            // Re-sized from the issue's 100 000 x 5 000: at ~3 ms per
            // operation the per-round p90 ranged 3.5-5.3 ms and set-up was
            // 0.12 s +- 10 %; at ~8.4 ms the p90 stays within +- 6 %.
            Workload::LocalColdReplace => Shape {
                a_rows: 200_000,
                b_rows: 10_000,
                degree: 20,
                theta: 0.0,
                counted_queries: 200,
            },
            // Re-sized from the issue's 200 000 x 20 000 at 40 q/s: there the
            // two cores are half busy and queueing makes p50/p90 swing 8-11 %
            // run to run. A ~3.3 ms query at 60 q/s keeps the pool idle on
            // arrival (utilisation ~0.1) with a third of the requests
            // overlapping another, so p50 sits inside the undisturbed class
            // and p90 inside the overlapped one (see BENCHMARK.md).
            Workload::ServeOpenAssoc => Shape {
                a_rows: 50_000,
                b_rows: 5_000,
                degree: 50,
                theta: 0.0,
                counted_queries: 200,
            },
        };
        if smoke {
            Shape {
                a_rows: full.a_rows / 20,
                b_rows: full.b_rows / 20,
                degree: (full.degree / 10).max(2),
                theta: full.theta,
                counted_queries: full.counted_queries / 10,
            }
        } else {
            full
        }
    }

    /// Whether every operation replaces `A` before querying.
    pub fn replaces_catalog(self) -> bool {
        self == Workload::LocalColdReplace
    }

    /// Whether the query goes through the TCP server.
    pub fn is_remote(self) -> bool {
        self == Workload::ServeOpenAssoc
    }

    /// The join plan: `(plan, probing relation, build relation)`. The join
    /// concatenates probing tuple ++ build tuple.
    pub fn plan(self) -> (Plan, &'static str, &'static str) {
        match self {
            Workload::LocalIdealSkew => (
                plans::ideal_join("A", "Bprime", JOIN_COLUMN, JoinAlgorithm::Hash),
                "A",
                "Bprime",
            ),
            _ => (
                plans::assoc_join("Bprime", "A", JOIN_COLUMN, JoinAlgorithm::Hash),
                "Bprime",
                "A",
            ),
        }
    }
}

/// A workload's database, ready to query.
#[derive(Debug)]
pub struct Database {
    /// Session owning the catalog with `A` and `Bprime` registered.
    pub session: Session,
    /// The workload's plan.
    pub plan: Plan,
    /// Relation whose tuples probe (left half of every result tuple).
    pub probe_relation: &'static str,
    /// Relation whose fragments are indexed (right half).
    pub build_relation: &'static str,
    /// `LocalColdReplace` only: the version of `A` not in the catalog.
    pub spare: Option<PartitionedRelation>,
}

/// Generates, partitions and registers a workload's relations from `seed`.
/// The same seed gives the same database; each step is a span.
pub fn build_database(
    workload: Workload,
    seed: u64,
    smoke: bool,
    tr: &mut Tracer,
) -> BenchResult<Database> {
    let shape = workload.shape(smoke);
    let spec = PartitionSpec::on(JOIN_COLUMN, shape.degree, 8);
    let generator = WisconsinGenerator::new();
    let span = tr.begin("dbs3_storage.generate", 0);
    let a = generator.generate(&WisconsinConfig::narrow("A", shape.a_rows).with_seed(seed))?;
    let b = generator.generate(
        &WisconsinConfig::narrow("Bprime", shape.b_rows).with_seed(seed.wrapping_add(1)),
    )?;
    tr.end(span);

    let span = tr.begin("dbs3_storage.partition", 0);
    let a_part = if shape.theta > 0.0 {
        PartitionedRelation::from_relation_with_skew(&a, spec.clone(), shape.theta)?
    } else {
        PartitionedRelation::from_relation(&a, spec.clone())?
    };
    let b_part = PartitionedRelation::from_relation(&b, spec.clone())?;
    tr.end(span);

    // The second version of A differs by exactly one matching row, so the
    // two versions are one query class (equal shape) yet a stale index or
    // plan surviving a replace returns the wrong cardinality.
    let spare = if workload.replaces_catalog() {
        let key = a.column_index(JOIN_COLUMN)?;
        let kept: Vec<Tuple> = a
            .tuples()
            .iter()
            .filter(|t| t.value(key) != &Value::Int(0))
            .cloned()
            .collect();
        let shorter = Relation::new("A", a.schema().clone(), kept)?;
        Some(PartitionedRelation::from_relation(&shorter, spec)?)
    } else {
        None
    };

    let mut session = Session::new();
    let span = tr.begin("dbs3_storage.register", 0);
    session.register(a_part)?;
    session.register(b_part)?;
    tr.end(span);

    let (plan, probe_relation, build_relation) = workload.plan();
    Ok(Database {
        session,
        plan,
        probe_relation,
        build_relation,
        spare,
    })
}

/// All tuples of a registered relation, fragment by fragment.
fn relation_tuples(catalog: &Catalog, name: &str) -> BenchResult<Vec<Tuple>> {
    let relation = catalog.get(name)?;
    Ok(relation
        .fragments()
        .iter()
        .flat_map(|f| f.tuples().iter().cloned())
        .collect())
}

/// A bag of tuples as tuple → multiplicity.
pub fn multiset(tuples: &[Tuple]) -> HashMap<&Tuple, usize> {
    let mut bag = HashMap::with_capacity(tuples.len());
    for t in tuples {
        *bag.entry(t).or_insert(0) += 1;
    }
    bag
}

/// The reference answer: a single-threaded hash join of `probe` with
/// `build` on [`JOIN_COLUMN`], each match emitted as probe ++ build. Shares
/// no code with the engine's join beyond `Tuple::concat`.
pub fn oracle_join(catalog: &Catalog, probe: &str, build: &str) -> BenchResult<Vec<Tuple>> {
    let probe_key = catalog.get(probe)?.schema().column_index(JOIN_COLUMN)?;
    let build_key = catalog.get(build)?.schema().column_index(JOIN_COLUMN)?;
    let build_tuples = relation_tuples(catalog, build)?;
    let mut table: HashMap<&Value, Vec<&Tuple>> = HashMap::new();
    for t in &build_tuples {
        table.entry(t.value(build_key)).or_default().push(t);
    }
    let mut out = Vec::new();
    for p in relation_tuples(catalog, probe)? {
        if let Some(matches) = table.get(p.value(probe_key)) {
            out.extend(matches.iter().map(|m| p.concat(m)));
        }
    }
    Ok(out)
}

/// The correctness gate's comparison: the bag of `outcome`'s materialised
/// result tuples must equal the oracle's for `(probe, build)`. Returns the
/// cardinality every later (result-discarding) query is checked against.
pub fn check_against_oracle(
    catalog: &Catalog,
    (probe, build): (&str, &str),
    outcome: &dbs3::QueryOutcome,
) -> BenchResult<usize> {
    let oracle = oracle_join(catalog, probe, build)?;
    let got = outcome
        .results
        .get(RESULT)
        .ok_or("the plan stored no result")?;
    if multiset(got) != multiset(&oracle) {
        return Err(format!(
            "correctness gate: the engine returned {} tuples that differ from the oracle's {}",
            got.len(),
            oracle.len()
        )
        .into());
    }
    Ok(oracle.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn same_seed_same_database_and_oracle_matches_reference_join() {
        let mut tr = Tracer::disabled();
        let w = Workload::LocalAssocPipeline;
        let db1 = build_database(w, 7, true, &mut tr).unwrap();
        let db2 = build_database(w, 7, true, &mut tr).unwrap();
        let db3 = build_database(w, 8, true, &mut tr).unwrap();
        let t = |db: &Database| relation_tuples(db.session.catalog(), "A").unwrap();
        assert_eq!(t(&db1), t(&db2));
        assert_ne!(t(&db1), t(&db3));

        let got = oracle_join(db1.session.catalog(), "Bprime", "A").unwrap();
        let a = db1.session.catalog().get("A").unwrap().reassemble();
        let b = db1.session.catalog().get("Bprime").unwrap().reassemble();
        let want = b.reference_join(&a, JOIN_COLUMN, JOIN_COLUMN).unwrap();
        assert_eq!(got.len(), w.shape(true).b_rows);
        assert_eq!(multiset(&got), multiset(&want));
    }

    #[test]
    fn cold_replace_versions_differ_by_one_matching_row() {
        let mut tr = Tracer::disabled();
        let db = build_database(Workload::LocalColdReplace, 3, true, &mut tr).unwrap();
        let spare = db.spare.expect("cold replace carries a second version");
        let full = db.session.catalog().get("A").unwrap();
        assert_eq!(spare.cardinality() + 1, full.cardinality());
        assert_eq!(spare.degree(), full.degree());
    }

    #[test]
    fn skewed_workload_is_skewed() {
        let mut tr = Tracer::disabled();
        let db = build_database(Workload::LocalIdealSkew, 3, true, &mut tr).unwrap();
        let a = db.session.catalog().get("A").unwrap();
        assert!(a.observed_skew_factor() > 3.0);
        // Every skewed key still finds its partner in Bprime.
        let out = oracle_join(db.session.catalog(), "A", "Bprime").unwrap();
        assert_eq!(out.len(), a.cardinality());
    }
}
