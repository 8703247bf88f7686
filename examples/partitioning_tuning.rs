//! Partitioning tuning: how the degree of partitioning trades queue
//! overhead against load balancing (Section 5.6 of the paper).
//!
//! The example sweeps the degree of partitioning for a skewed IdealJoin and
//! prints, for each degree, the start-up overhead, the skew overhead `v`
//! relative to the unskewed run, and the resulting response time — showing
//! why DBS3 decouples the degree of partitioning from the degree of
//! parallelism and recommends high degrees of partitioning for triggered
//! operations over skewed data.
//!
//! ```text
//! cargo run --release --example partitioning_tuning
//! ```

use dbs3::prelude::*;

fn build_session(degree: usize, theta: f64) -> Result<Session> {
    let mut session = Session::new();
    let spec = PartitionSpec::on("unique1", degree, 8);
    session.load_wisconsin_skewed(&WisconsinConfig::narrow("A", 100_000), spec.clone(), theta)?;
    session.load_wisconsin(&WisconsinConfig::narrow("Bprime", 10_000), spec)?;
    Ok(session)
}

fn main() -> Result<()> {
    let threads = 20;
    let theta = 0.6;
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::TempIndex);

    println!("IdealJoin (temporary index), {threads} threads, Zipf = {theta}");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "degree", "startup (s)", "T_skewed (s)", "T_unskewed (s)", "v", "vworst"
    );

    for degree in [20usize, 100, 250, 500, 1000, 1500] {
        let run = |theta: f64| -> Result<_> {
            let session = build_session(degree, theta)?;
            let lpt = SimConfig::ksr1().with_strategy(ConsumptionStrategy::Lpt);
            let outcome = session
                .query(&plan)
                .threads(threads)
                .on(Backend::Simulated(lpt))
                .run()?;
            Ok(outcome
                .sim_report()
                .expect("simulated run has a report")
                .clone())
        };
        let skewed_report = run(theta)?;
        let unskewed_report = run(0.0)?;

        let v = skewed_report.total_seconds() / unskewed_report.total_seconds() - 1.0;
        let vworst = overhead_bound(degree as u64, zipf_max_to_avg(theta, degree), threads);
        println!(
            "{:>8} {:>14.2} {:>14.2} {:>14.2} {:>10.3} {:>10.3}",
            degree,
            skewed_report.startup_us / 1e6,
            skewed_report.total_seconds(),
            unskewed_report.total_seconds(),
            v,
            vworst
        );
    }

    println!();
    println!(
        "Raising the degree of partitioning shrinks each activation, so the LPT strategy can \
         balance the skewed fragments across the {threads} threads; past ~1000 fragments the \
         queue-creation overhead starts to win back the gains — the same trade-off as \
         Figures 17–19 of the paper."
    );
    Ok(())
}
