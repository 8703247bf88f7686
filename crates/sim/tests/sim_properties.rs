//! Property-based tests of the simulator: scheduling-theoretic invariants
//! that must hold for any workload the simulator is given.

use dbs3_engine::SchedulerOptions;
use dbs3_lera::{plans, JoinAlgorithm};
use dbs3_sim::{ConsumptionStrategy, SimConfig, Simulator};
use dbs3_storage::{
    Catalog, ColumnDef, PartitionSpec, PartitionedRelation, Relation, Schema, Tuple, Value,
};
use proptest::prelude::*;

fn relation(name: &str, cardinality: usize) -> Relation {
    let schema = Schema::new(vec![ColumnDef::int("unique1"), ColumnDef::int("payload")]);
    let tuples = (0..cardinality as i64)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i)]))
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

fn catalog(a_card: usize, b_card: usize, degree: usize, theta: f64) -> Catalog {
    let spec = PartitionSpec::on("unique1", degree, 4);
    let a = relation("A", a_card);
    let b = relation("Bprime", b_card);
    let a_part = if theta > 0.0 {
        PartitionedRelation::from_relation_with_skew(&a, spec.clone(), theta).unwrap()
    } else {
        PartitionedRelation::from_relation(&a, spec.clone()).unwrap()
    };
    let mut cat = Catalog::new();
    cat.register(a_part).unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The parallel execution span never beats the sequential work divided
    /// by the worker count (no super-linear speed-up), and never exceeds the
    /// sequential work plus the start-up.
    #[test]
    fn execution_span_is_physically_plausible(
        a_card in 50usize..1_500,
        b_card in 10usize..300,
        degree in 1usize..40,
        theta_millis in 0u32..=1000,
        threads in 1usize..32,
        assoc in any::<bool>(),
    ) {
        let theta = f64::from(theta_millis) / 1000.0;
        let cat = catalog(a_card, b_card, degree, theta);
        let plan = if assoc {
            plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash)
        } else {
            plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop)
        };
        let report = Simulator::new(&cat)
            .simulate(
                &plan,
                &SimConfig::default(),
                &SchedulerOptions::default().with_total_threads(threads),
            )
            .unwrap();
        // Scheduling steps 2–3 give every operation pool at least one
        // thread, so the effective worker count can exceed the requested
        // total for tiny budgets; bound the span by the workers granted.
        let effective_workers: usize = report.operations.iter().map(|o| o.threads).sum();
        prop_assert!(
            report.execution_us + 1e-6
                >= report.sequential_work_us / effective_workers.max(threads) as f64
        );
        // An operation's span can slightly exceed the plain work sum only
        // through pipelining release times, never beyond the total work plus
        // start-up of the whole plan.
        prop_assert!(report.execution_us <= report.sequential_work_us + report.startup_us + 1e-6);
        prop_assert!(report.startup_us > 0.0);
    }

    /// Adding threads never makes the simulated execution span longer
    /// (the start-up grows, but the parallel span is monotone).
    #[test]
    fn more_threads_never_slower_execution(
        a_card in 100usize..1_500,
        b_card in 10usize..200,
        degree in 2usize..40,
        theta_millis in 0u32..=1000,
        threads in 1usize..30,
    ) {
        let theta = f64::from(theta_millis) / 1000.0;
        let cat = catalog(a_card, b_card, degree, theta);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let lpt = |n: usize| {
            Simulator::new(&cat)
                .simulate(
                    &plan,
                    &SimConfig::default().with_strategy(ConsumptionStrategy::Lpt),
                    &SchedulerOptions::default().with_total_threads(n),
                )
                .unwrap()
                .execution_us
        };
        // Allow a tiny tolerance: LPT list scheduling is not strictly
        // monotone in machine count in theory (Graham anomalies), but with
        // identical orderings the simulator's greedy schedule is.
        prop_assert!(lpt(threads + 1) <= lpt(threads) * 1.05 + 1.0);
    }

    /// The static one-thread-per-instance baseline is never faster than the
    /// adaptive shared-queue execution of the same workload.
    #[test]
    fn static_baseline_never_faster(
        a_card in 100usize..1_200,
        b_card in 10usize..200,
        degree in 2usize..32,
        theta_millis in 0u32..=1000,
        threads in 1usize..16,
    ) {
        let theta = f64::from(theta_millis) / 1000.0;
        let cat = catalog(a_card, b_card, degree, theta);
        let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::NestedLoop);
        let options = SchedulerOptions::default().with_total_threads(threads);
        let lpt = SimConfig::default().with_strategy(ConsumptionStrategy::Lpt);
        let adaptive = Simulator::new(&cat).simulate(&plan, &lpt, &options).unwrap();
        let fixed = Simulator::new(&cat)
            .simulate(&plan, &lpt.with_static_baseline(), &options)
            .unwrap();
        prop_assert!(fixed.execution_us + 1e-6 >= adaptive.execution_us);
    }

    /// Simulated activation counts are exact: one activation per fragment
    /// for the triggered join, one per transmitted tuple (plus one build per
    /// fragment for indexed algorithms) for the pipelined join.
    #[test]
    fn activation_counts_are_exact(
        a_card in 50usize..800,
        b_card in 10usize..200,
        degree in 1usize..24,
        indexed in any::<bool>(),
    ) {
        let cat = catalog(a_card, b_card, degree, 0.0);
        let algorithm = if indexed { JoinAlgorithm::Hash } else { JoinAlgorithm::NestedLoop };
        let ideal = plans::ideal_join("A", "Bprime", "unique1", algorithm);
        let assoc = plans::assoc_join("Bprime", "A", "unique1", algorithm);
        let sim = Simulator::new(&cat);
        let config = SimConfig::default();
        let options = SchedulerOptions::default().with_total_threads(4);

        let ideal_report = sim.simulate(&ideal, &config, &options).unwrap();
        prop_assert_eq!(ideal_report.operation(dbs3_lera::NodeId(0)).unwrap().activations, degree);

        let assoc_report = sim.simulate(&assoc, &config, &options).unwrap();
        let expected = b_card + if indexed { degree } else { 0 };
        prop_assert_eq!(assoc_report.operation(dbs3_lera::NodeId(1)).unwrap().activations, expected);
    }
}
