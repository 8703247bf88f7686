//! Quickstart: load a small Wisconsin database, run an IdealJoin on the
//! adaptive parallel engine through the `Session`/`Query` facade, and
//! inspect the execution metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dbs3::prelude::*;

fn main() -> Result<()> {
    // 1. Load two Wisconsin relations — A (20K tuples) and B' (2K tuples) —
    //    statically partitioned on the join attribute `unique1` into 40
    //    fragments spread over 4 (virtual) disks.
    let mut session = Session::new();
    let spec = PartitionSpec::on("unique1", 40, 4);
    session.load_wisconsin(&WisconsinConfig::narrow("A", 20_000), spec.clone())?;
    session.load_wisconsin(&WisconsinConfig::narrow("Bprime", 2_000), spec)?;

    // 2. Build the IdealJoin plan of the paper (Figure 10): a triggered,
    //    co-partitioned join followed by a store.
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);

    // 3. Fix 8 threads for the query and print each operation's queue
    //    count (one activation queue per fragment) before executing.
    let query = session.query(&plan).threads(8);
    let extended = query.extended_plan()?;
    println!("plan: {}", plan.name());
    for node in plan.nodes() {
        println!(
            "  {:<24} queues={}",
            node.name,
            extended.operation(node.id).unwrap().instance_count()
        );
    }

    // 4. Execute on the parallel engine and report.
    let outcome = query.run()?;
    println!(
        "\njoin produced {} tuples in {:?} on the `{}` backend",
        outcome.result_cardinality("Result").unwrap_or(0),
        outcome.elapsed(),
        outcome.metrics.backend_name(),
    );

    let metrics = outcome.execution_metrics().expect("threaded run");
    for op in &metrics.operations {
        println!(
            "  {:<24} activations={:<6} tuples-out={:<7} imbalance={:.2} secondary-queue-ratio={:.2}",
            op.name,
            op.total_activations(),
            op.total_tuples_out(),
            op.busy_imbalance(),
            op.secondary_consumption_ratio()
        );
    }

    // 5. The same query on the simulated KSR1 — only `.on(...)` changes.
    let simulated = session
        .query(&plan)
        .threads(8)
        .on(Backend::Simulated(SimConfig::ksr1()))
        .run()?;
    println!(
        "\nsimulated on the KSR1: same cardinality {}, virtual response time {:.2} s",
        simulated.result_cardinality("Result").unwrap_or(0),
        simulated
            .sim_report()
            .expect("simulated run")
            .total_seconds(),
    );
    Ok(())
}
