//! The seeded chaos storm: a fleet of self-healing clients against an
//! in-process `dbs3-serve` server whose accept loop, reads, writes, workers
//! and query-setup caches all misbehave on a seeded schedule.
//!
//! The fault plan injects:
//!
//! * dropped accepts, dropped and failed reads, dropped and slowed writes;
//! * worker panics on every 401st batch and worker errors at random;
//! * a panic in the first index build (while other clients' queries wait in
//!   the same fragment's cell) and slowed builds that widen that window;
//! * `engine.cache.lookup` errors, so a fifth of the plan and index lookups
//!   bypass the caches and cached and uncached executions of one plan
//!   interleave throughout the storm.
//!
//! Every fourth request carries a 1 ms deadline and asks for the same join
//! by nested loop, the slower algorithm, so that cancellation, when the
//! deadline fires, runs under fire too, and the nested-loop join reads its
//! outer rows by position under faults. The server's runtime watchdog is
//! armed.
//!
//! [`run`] returns a [`StormReport`] when every invariant held, or the
//! invariant the storm broke:
//!
//! * every request ends in the **correct** cardinality or a typed error;
//! * every request is accounted for;
//! * at least one request succeeds (the storm must not eat everything);
//! * at least one retry fires (the transport faults reached a client);
//! * `live_queries` drains to zero afterwards: no admission slot leaks;
//! * the server's run loop exits cleanly with its stats.
//!
//! The same seed replays the same per-hit fault decisions. Thread
//! interleaving still varies, so *which* request suffers may differ, but
//! the invariants hold for every interleaving.
//!
//! The fault registry is process-wide: a caller runs the storm in a process
//! of its own (the `chaos` bin, or the `tests/chaos.rs` binary), never next
//! to tests that expect no faults.

// A panic here kills a query, a session thread or the process: each
// justified site carries an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use dbs3_engine::{FaultAction, FaultPlan, FaultPoint, FaultTrigger, SchedulerOptions};
use dbs3_lera::{plans, JoinAlgorithm};
use dbs3_serve::{ResilientClient, RetryPolicy, ServeError, Server, ServerConfig};
use dbs3_storage::{
    Catalog, ColumnDef, PartitionSpec, PartitionedRelation, Relation, Schema, StorageError, Tuple,
    Value,
};
use std::fmt;
use std::num::NonZeroU64;
use std::time::{Duration, Instant};

/// Rows of `Bprime`, and so the correct `Result` cardinality.
const B_CARD: u64 = 400;

/// The size and seed of one storm.
#[derive(Debug, Clone, Copy)]
pub struct Storm {
    /// Seed of the fault plan and of the clients' backoff jitter.
    pub seed: u64,
    /// Concurrent clients, one connection each.
    pub clients: usize,
    /// Requests per client.
    pub queries: usize,
}

impl Default for Storm {
    fn default() -> Self {
        Storm {
            seed: 7,
            clients: 16,
            queries: 4,
        }
    }
}

/// The tally of a storm whose invariants all held.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Requests issued, `clients * queries`.
    pub requests: u64,
    /// Requests answered with the correct cardinality.
    pub ok: u64,
    /// Requests that ended in `DeadlineExceeded`.
    pub deadlines: u64,
    /// Requests that ended in any other typed error.
    pub typed: u64,
    /// Client retries, summed over the fleet.
    pub retries: u64,
    /// Client reconnections, summed over the fleet.
    pub reconnects: u64,
    /// Wall-clock time of the client phase.
    pub elapsed: Duration,
    /// Queries the server executed.
    pub served: u64,
    /// Requests the server refused as busy.
    pub shed: u64,
    /// Retries the server answered from its response ledger.
    pub replayed: u64,
    /// Queries the server cancelled at their deadline.
    pub deadline_cancelled: u64,
    /// Fault firings over every rule.
    pub faults_fired: u64,
}

impl fmt::Display for StormReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests in {:.2}s — ok={} deadline={} typed={} retries={} reconnects={}; \
             server served={} shed={} replayed={} deadline-cancelled={}; {} faults fired",
            self.requests,
            self.elapsed.as_secs_f64(),
            self.ok,
            self.deadlines,
            self.typed,
            self.retries,
            self.reconnects,
            self.served,
            self.shed,
            self.replayed,
            self.deadline_cancelled,
            self.faults_fired
        )
    }
}

/// The fault plan of a storm. Probabilities are sized so most requests
/// heal within the retry budget while every failure path fires on a run of
/// the default size.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .rule(
            FaultPoint::ServeWrite,
            FaultTrigger::Probability(0.12),
            FaultAction::Drop,
        )
        .rule(
            FaultPoint::ServeWrite,
            FaultTrigger::Probability(0.08),
            FaultAction::Delay(Duration::from_millis(15)),
        )
        .rule(
            FaultPoint::ServeRead,
            FaultTrigger::Probability(0.04),
            FaultAction::Drop,
        )
        .rule(
            FaultPoint::ServeRead,
            FaultTrigger::Probability(0.04),
            FaultAction::Error,
        )
        .rule(
            FaultPoint::ServeAccept,
            FaultTrigger::Probability(0.05),
            FaultAction::Drop,
        )
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::EveryK(NonZeroU64::MIN.saturating_add(400)),
            FaultAction::Panic,
        )
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::Probability(0.001),
            FaultAction::Error,
        )
        // Only the first wave builds (the catalog never changes), so these
        // cost milliseconds: the first index build panics, and slowed
        // builds keep other queries waiting in the same fragment's cell.
        .rule(
            FaultPoint::CacheBuild,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Panic,
        )
        .rule(
            FaultPoint::CacheBuild,
            FaultTrigger::Probability(0.5),
            FaultAction::Delay(Duration::from_millis(20)),
        )
        // A failing setup cache must degrade to uncached setup, never to a
        // wrong answer.
        .rule(
            FaultPoint::CacheLookup,
            FaultTrigger::Probability(0.2),
            FaultAction::Error,
        )
}

fn catalog(a_card: usize, b_card: usize, degree: usize) -> Result<Catalog, StorageError> {
    let schema = || Schema::new(vec![ColumnDef::int("unique1"), ColumnDef::int("payload")]);
    let tuples = |card: usize| {
        (0..card as i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)]))
            .collect()
    };
    let a = Relation::new("A", schema(), tuples(a_card))?;
    let b = Relation::new("Bprime", schema(), tuples(b_card))?;
    let spec = PartitionSpec::on("unique1", degree, 4);
    let mut cat = Catalog::new();
    cat.register(PartitionedRelation::from_relation(&a, spec.clone())?)?;
    cat.register(PartitionedRelation::from_relation(&b, spec)?)?;
    Ok(cat)
}

/// One client's tally: `(ok, deadlines, typed, wrong, retries, reconnects)`.
type ClientTally = (u64, u64, u64, u64, u64, u64);

fn client(addr: std::net::SocketAddr, storm: Storm, index: usize) -> Result<ClientTally, String> {
    let mut client = ResilientClient::connect(
        addr,
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(3),
            max_backoff: Duration::from_millis(80),
            seed: storm.seed.wrapping_mul(1_000).wrapping_add(index as u64),
            read_timeout: Some(Duration::from_secs(20)),
        },
    )
    .map_err(|e| format!("client {index}: {e}"))?;
    let hash = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let nested_loop = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    let options = SchedulerOptions::default().with_total_threads(2);
    let (mut ok, mut deadlines, mut typed, mut wrong) = (0, 0, 0, 0);
    for q in 0..storm.queries {
        let (plan, deadline_ms) = if q % 4 == 3 {
            (&nested_loop, 1)
        } else {
            (&hash, 0)
        };
        match client.execute(plan, &options, deadline_ms) {
            // A success must be THE answer: a fault may fail a query, it
            // may never falsify one.
            Ok(outcome) if outcome.cardinalities.get("Result") == Some(&B_CARD) => ok += 1,
            Ok(_) => wrong += 1,
            Err(ServeError::DeadlineExceeded) => deadlines += 1,
            Err(_) => typed += 1,
        }
    }
    let stats = client.stats();
    Ok((ok, deadlines, typed, wrong, stats.retries, stats.reconnects))
}

/// Runs one storm: installs the fault plan, boots the server, drives the
/// clients, then checks the invariants of the module doc. The error names
/// the invariant the storm broke, or the set-up step that failed.
pub fn run(storm: Storm) -> Result<StormReport, String> {
    let guard = fault_plan(storm.seed).install();
    let catalog = catalog(4_000, B_CARD as usize, 16).map_err(|e| format!("setup: {e}"))?;
    let server = Server::bind(
        catalog,
        ("127.0.0.1", 0),
        ServerConfig {
            workers: 4,
            max_inflight: 8,
            stall_after: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let started = Instant::now();
    let clients: Vec<_> = (0..storm.clients)
        .map(|index| std::thread::spawn(move || client(addr, storm, index)))
        .collect();
    let mut report = StormReport {
        requests: (storm.clients * storm.queries) as u64,
        ok: 0,
        deadlines: 0,
        typed: 0,
        retries: 0,
        reconnects: 0,
        elapsed: Duration::ZERO,
        served: 0,
        shed: 0,
        replayed: 0,
        deadline_cancelled: 0,
        faults_fired: 0,
    };
    // Join every client before judging any, so none outlives the storm.
    let tallies: Vec<_> = clients.into_iter().map(|client| client.join()).collect();
    let mut wrong = 0;
    for tally in tallies {
        let (ok, deadlines, typed, w, retries, reconnects) =
            tally.map_err(|_| "a client thread panicked".to_string())??;
        report.ok += ok;
        report.deadlines += deadlines;
        report.typed += typed;
        wrong += w;
        report.retries += retries;
        report.reconnects += reconnects;
    }
    report.elapsed = started.elapsed();

    if wrong > 0 {
        return Err(format!("{wrong} wrong answers: {report}"));
    }
    if report.ok + report.deadlines + report.typed != report.requests {
        return Err(format!("lost requests: {report}"));
    }
    if report.ok == 0 {
        return Err(format!("nothing succeeded: {report}"));
    }
    if report.retries == 0 {
        return Err(format!("no retry fired: {report}"));
    }
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while handle.live_queries() > 0 {
        if Instant::now() > drain_deadline {
            return Err(format!(
                "{} live queries leaked after the storm",
                handle.live_queries()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.stop();
    let stats = match runner.join() {
        Ok(Ok(stats)) => stats,
        Ok(Err(e)) => return Err(format!("server error: {e}")),
        Err(_) => return Err("server thread panicked".to_string()),
    };
    report.served = stats.served;
    report.shed = stats.shed;
    report.replayed = stats.replayed;
    report.deadline_cancelled = stats.deadlines;
    report.faults_fired = guard.counts().iter().map(|(_, _, fired)| fired).sum();
    Ok(report)
}
