//! A blocking `run()` owns its pool: it spawns the workers scheduling step 1
//! sizes and joins them before returning. Linux-only (workers are counted
//! by name in `/proc/self/task/*/comm`), and a test binary of its own, so
//! no other test's pool is counted.
#![cfg(target_os = "linux")]

use dbs3::prelude::*;
use std::time::{Duration, Instant};

/// Threads of this process named like a pool worker (`dbs3-runtime-<i>`).
fn runtime_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("dbs3-runtime"))
        .count()
}

/// Whether the worker count reaches `expected` within 5 s: a new worker
/// names itself after it starts, and a joined one can stay listed for a
/// moment after the join returns. A parked worker stays for good.
fn settles_at(expected: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while runtime_workers() != expected {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn blocking_run_joins_its_pool() {
    let mut session = Session::new();
    let spec = PartitionSpec::on("unique1", 8, 2);
    session
        .load_wisconsin(&WisconsinConfig::narrow("A", 1_000), spec.clone())
        .unwrap();
    session
        .load_wisconsin(&WisconsinConfig::narrow("Bprime", 100), spec)
        .unwrap();
    let plan = plans::ideal_join("A", "Bprime", "unique1", JoinAlgorithm::Hash);
    let before = runtime_workers();
    // The count sees a live pool's workers, and a dropped pool's go...
    let runtime = Runtime::new(3).unwrap();
    assert!(settles_at(before + 3), "a live 3-worker pool is counted");
    drop(runtime);
    assert!(settles_at(before), "a dropped pool's workers are joined");
    // ...and so do the 3 that a blocking run spawns.
    let outcome = session.query(&plan).threads(3).run().unwrap();
    assert_eq!(outcome.result_cardinality("Result"), Some(100));
    let left = runtime_workers() - before;
    assert!(settles_at(before), "run() left {left} pool workers behind");
}
