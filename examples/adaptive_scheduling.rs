//! Adaptive scheduling: the thread-allocation steps of Section 3
//! (Figure 5) applied to a filter–join pipeline.
//!
//! The example builds the filter–join query of Figure 1 with the fluent
//! plan builder, shows how the simulated KSR1 distributes a thread budget
//! over the operations of the pipeline proportionally to their estimated
//! complexity (one pool per operation, the paper's machine model), and then
//! executes the plan on the real engine, whose one shared pool serves every
//! operation, to report the observed load balance.
//!
//! ```text
//! cargo run --release --example adaptive_scheduling
//! ```

use dbs3::prelude::*;
use dbs3_lera::JoinCondition;

fn main() -> Result<()> {
    // A 50K-tuple orders-like relation and a 5K-tuple reference relation,
    // partitioned on the join attribute with a *skewed* distribution for R.
    let mut session = Session::new();
    let spec = PartitionSpec::on("unique1", 64, 8);
    session.load_wisconsin_skewed(&WisconsinConfig::narrow("R", 50_000), spec.clone(), 0.8)?;
    session.load_wisconsin(&WisconsinConfig::narrow("S", 5_000), spec)?;

    // Build the Figure 1 pipeline by hand with the PlanBuilder: a selective
    // filter over R pipelined into a join with S, materialised into `Out`.
    let mut builder = PlanBuilder::new("filter_join_example");
    let filter = builder.filter("R", Predicate::one_in("onePercent", 4));
    let join = builder.pipelined_join(
        filter,
        "S",
        JoinCondition::natural("unique1"),
        JoinAlgorithm::Hash,
    );
    builder.store(join, "Out");
    let plan = builder.build();

    // The simulator folds the store into the join, so its pool carries the
    // store's thread too.
    println!("simulated thread allocation for `{}`:", plan.name());
    for budget in [4usize, 8, 16] {
        let simulated = session
            .query(&plan)
            .threads(budget)
            .on(Backend::Simulated(SimConfig::ksr1()))
            .run()?;
        print!("  {budget:>2} threads ->");
        for op in &simulated.sim_report().expect("simulated run").operations {
            print!("  {}[{} thr]", op.name, op.threads);
        }
        println!();
    }

    // Execute with 8 threads and report the observed balance.
    let outcome = session.query(&plan).threads(8).run()?;

    println!();
    println!(
        "executed in {:?}, result cardinality {}",
        outcome.elapsed(),
        outcome.result_cardinality("Out").unwrap_or(0)
    );
    let metrics = outcome.execution_metrics().expect("threaded run");
    for op in &metrics.operations {
        println!(
            "  {:<22} activations={:<7} busy(max/avg)={:.2} secondary-queue-ratio={:.2}",
            op.name,
            op.total_activations(),
            op.busy_imbalance(),
            op.secondary_consumption_ratio()
        );
    }
    println!();
    println!(
        "Any worker of the pool can drain any of an operation's queues, so R's skewed fragments \
         do not pin work to one thread. On a host with fewer cores than pool workers, time \
         sharing alone pushes the busy-time imbalance above 1."
    );
    Ok(())
}
