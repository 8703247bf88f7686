//! The chaos storm of `dbs3_bench::chaos` at seed 7: every request ends in
//! the correct cardinality or a typed error, at least one succeeds and one
//! retries, the admission gauge drains and the server exits cleanly.
//!
//! A binary of its own: the fault registry is process-wide, and the storm's
//! faults must not fire into the library's tests.

use dbs3_bench::chaos::{self, Storm};

#[test]
fn chaos_storm_never_hangs_and_never_lies() {
    match chaos::run(Storm::default()) {
        Ok(report) => eprintln!("{report}"),
        Err(broken) => panic!("the storm broke an invariant: {broken}"),
    }
}
