//! Chaos e2e: a fleet of self-healing clients against a server with a
//! seeded fault plan dropping connections, failing reads and killing
//! workers. The invariants are absolute: every request ends in the correct
//! cardinality or a typed error (never a hang, never a wrong answer), the
//! admission gauge drains to zero, and the server exits its run loop
//! cleanly.
//!
//! Every test here installs a [`FaultPlan`] guard — including the ones
//! with no fault rules — because the registry is process-wide and the
//! install lock is what serializes these tests against each other.

use dbs3_engine::{FaultAction, FaultPlan, FaultPoint, FaultTrigger, SchedulerOptions};
use dbs3_lera::{plans, JoinAlgorithm};
use dbs3_serve::{
    RemoteSession, ResilientClient, RetryPolicy, ServeError, Server, ServerConfig, ServerHandle,
    ServerStats,
};
use dbs3_storage::{
    Catalog, ColumnDef, PartitionSpec, PartitionedRelation, Relation, Schema, Tuple, Value,
};
use std::net::SocketAddr;
use std::num::NonZeroU64;
use std::time::{Duration, Instant};

fn catalog(a_card: usize, b_card: usize, degree: usize) -> Catalog {
    let schema = || Schema::new(vec![ColumnDef::int("unique1"), ColumnDef::int("payload")]);
    let tuples = |card: usize| {
        (0..card as i64)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 3)]))
            .collect()
    };
    let a = Relation::new("A", schema(), tuples(a_card)).unwrap();
    let b = Relation::new("Bprime", schema(), tuples(b_card)).unwrap();
    let spec = PartitionSpec::on("unique1", degree, 4);
    let mut cat = Catalog::new();
    cat.register(PartitionedRelation::from_relation(&a, spec.clone()).unwrap())
        .unwrap();
    cat.register(PartitionedRelation::from_relation(&b, spec).unwrap())
        .unwrap();
    cat
}

fn start_server(
    cat: Catalog,
    config: ServerConfig,
) -> (
    ServerHandle,
    SocketAddr,
    std::thread::JoinHandle<ServerStats>,
) {
    let server = Server::bind(cat, ("127.0.0.1", 0), config).expect("bind ephemeral");
    let handle = server.handle();
    let addr = server.addr();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (handle, addr, runner)
}

/// Watches the admission gauge until it reads `live` (or `within` elapses).
fn live_queries_reach(handle: &ServerHandle, live: usize, within: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < within {
        if handle.live_queries() == live {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.live_queries() == live
}

fn drained(handle: &ServerHandle, within: Duration) -> bool {
    live_queries_reach(handle, 0, within)
}

/// The headline chaos run: 16 self-healing clients, 4 requests each,
/// against a server whose accept loop, reads, writes and workers all
/// misbehave on a seeded schedule.
#[test]
fn chaos_storm_never_hangs_and_never_lies() {
    let _guard = FaultPlan::new(7)
        .rule(
            FaultPoint::ServeWrite,
            FaultTrigger::Probability(0.08),
            FaultAction::Drop,
        )
        .rule(
            FaultPoint::ServeRead,
            FaultTrigger::Probability(0.04),
            FaultAction::Error,
        )
        .rule(
            FaultPoint::ServeAccept,
            FaultTrigger::Probability(0.10),
            FaultAction::Drop,
        )
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::Probability(0.001),
            FaultAction::Error,
        )
        // A failing query-setup cache must degrade to uncached setup, never
        // to a wrong answer: every fifth-ish lookup bypasses the prepared
        // plan and shared-index caches entirely, so cached and uncached
        // executions of the same plan interleave throughout the storm and
        // the cardinality assertion below judges them all.
        .rule(
            FaultPoint::CacheLookup,
            FaultTrigger::Probability(0.2),
            FaultAction::Error,
        )
        .install();

    let b_card = 400;
    let (handle, addr, runner) = start_server(
        catalog(4_000, b_card, 16),
        ServerConfig {
            workers: 2,
            max_inflight: 8,
            stall_after: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        },
    );

    let clients: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = ResilientClient::connect(
                    addr,
                    RetryPolicy {
                        max_attempts: 8,
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(50),
                        seed: 1_000 + i,
                        read_timeout: Some(Duration::from_secs(15)),
                    },
                )
                .expect("resolve address");
                let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
                let options = SchedulerOptions::default().with_total_threads(2);
                let mut ok = 0u64;
                let mut typed_failures = 0u64;
                for _ in 0..4 {
                    match client.execute(&plan, &options, 0) {
                        // A success must be THE answer — a fault may fail a
                        // query, it may never falsify one.
                        Ok(outcome) => {
                            assert_eq!(outcome.cardinalities["Result"], b_card as u64);
                            ok += 1;
                        }
                        // Anything else must be a typed ServeError: either
                        // definitive (injected execution error) or a
                        // retryable whose attempt budget ran out.
                        Err(_) => typed_failures += 1,
                    }
                }
                (ok, typed_failures, client.stats())
            })
        })
        .collect();

    let mut total_ok = 0;
    let mut total_failures = 0;
    let mut total_retries = 0;
    for client in clients {
        let (ok, failures, stats) = client.join().expect("no client may panic or hang");
        total_ok += ok;
        total_failures += failures;
        total_retries += stats.retries;
    }
    assert_eq!(total_ok + total_failures, 64, "every request was accounted");
    assert!(total_ok > 0, "the storm must not eat every request");
    assert!(
        total_retries > 0,
        "with p=0.08 write drops over 64 requests, some retry must fire"
    );

    assert!(
        drained(&handle, Duration::from_secs(30)),
        "all admission slots return after the storm"
    );
    handle.stop();
    let stats = runner.join().expect("server thread must exit cleanly");
    assert!(stats.served > 0);
}

/// Deterministic single-fault pin of the idempotent-replay path: the very
/// first response write drops the connection, the client reconnects and
/// retries with the same request id, and the server replays the recorded
/// answer instead of executing the query a second time.
#[test]
fn dropped_response_is_replayed_not_reexecuted() {
    let _guard = FaultPlan::new(11)
        .rule(
            FaultPoint::ServeWrite,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Drop,
        )
        .install();

    let (handle, addr, runner) = start_server(catalog(2_000, 200, 8), ServerConfig::default());

    let mut client = ResilientClient::connect(
        addr,
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            seed: 3,
            read_timeout: Some(Duration::from_secs(15)),
        },
    )
    .expect("resolve address");
    let outcome = client
        .execute(
            &plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
            &SchedulerOptions::default().with_total_threads(2),
            0,
        )
        .expect("the retry must heal the dropped response");
    assert_eq!(outcome.cardinalities["Result"], 200);
    assert!(client.stats().retries >= 1, "the drop forced a retry");
    assert!(client.stats().reconnects >= 1, "on a fresh connection");

    assert!(drained(&handle, Duration::from_secs(10)));
    handle.stop();
    let stats = runner.join().unwrap();
    assert_eq!(stats.served, 1, "the query executed exactly once");
    assert!(
        stats.replayed >= 1,
        "the retry was answered from the ledger"
    );
}

/// `SERVER_BUSY` self-healing: under an admission limit of one, a burst of
/// clients all eventually succeed by backing off and retrying — shedding
/// is visible in the server stats and in the clients' busy-retry counters.
#[test]
fn busy_shedding_heals_with_backoff() {
    // No rules: the guard only serializes this test against the others.
    let _guard = FaultPlan::new(0).install();

    let b_card = 200;
    let (handle, addr, runner) = start_server(
        catalog(2_000, b_card, 8),
        ServerConfig {
            workers: 2,
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );

    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = ResilientClient::connect(
                    addr,
                    RetryPolicy {
                        max_attempts: 100,
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(40),
                        seed: i,
                        read_timeout: Some(Duration::from_secs(15)),
                    },
                )
                .expect("resolve address");
                let outcome = client
                    .execute(
                        &plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash),
                        &SchedulerOptions::default().with_total_threads(2),
                        0,
                    )
                    .expect("every client heals through the busy burst");
                assert_eq!(outcome.cardinalities["Result"], b_card as u64);
                client.stats().busy_retries
            })
        })
        .collect();

    let total_busy_retries: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();

    assert!(drained(&handle, Duration::from_secs(10)));
    handle.stop();
    let stats = runner.join().unwrap();
    assert_eq!(stats.served, 8, "every client's query eventually ran");
    // 8 concurrent clients against max_inflight=1: shedding must happen,
    // and the clients must have healed through it.
    assert!(stats.shed >= 1, "the burst must overrun a 1-slot limit");
    assert!(total_busy_retries >= 1);
}

/// Over-admission is refused with the typed busy frame, deterministically:
/// the first activation the single worker processes sleeps 300 ms, so the
/// holder query owns the one admission slot for at least that long however
/// fast the join itself runs, and the knock happens only once the gauge
/// shows the holder admitted.
#[test]
fn over_admission_gets_a_typed_busy_frame() {
    let _guard = FaultPlan::new(0)
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::Nth(NonZeroU64::MIN),
            FaultAction::Delay(Duration::from_millis(300)),
        )
        .install();

    let (handle, addr, runner) = start_server(
        catalog(2_000, 200, 8),
        ServerConfig {
            workers: 1,
            max_inflight: 1,
            ..ServerConfig::default()
        },
    );
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);

    // Connect the knocker first so only one request frame is left to send
    // inside the holder's 300 ms.
    let mut knocker = RemoteSession::connect(addr).expect("connect");
    let holder = {
        let plan = plan.clone();
        std::thread::spawn(move || {
            let mut session = RemoteSession::connect(addr).expect("connect");
            session.query(&plan).run().expect("holder query")
        })
    };
    assert!(
        live_queries_reach(&handle, 1, Duration::from_secs(10)),
        "the holder query was never admitted"
    );

    match knocker.query(&plan).run() {
        Err(ServeError::ServerBusy {
            live: 1,
            max_inflight: 1,
        }) => {}
        other => panic!("expected ServerBusy {{ live: 1, max_inflight: 1 }}, got {other:?}"),
    }

    assert_eq!(holder.join().unwrap().result_cardinality(), Some(200));
    assert!(drained(&handle, Duration::from_secs(10)));
    handle.stop();
    let stats = runner.join().unwrap();
    assert_eq!(stats.served, 1, "only the holder executed");
    assert_eq!(stats.shed, 1, "the busy refusal is counted as shed");
}

/// Every fault point is a live hit site: one served hash join over a
/// freshly registered catalog (a new generation, so the shared-index cache
/// misses and builds) passes through all of [`FaultPoint::ALL`]. The rules
/// never fire — they only count hits — so a point whose `faults::hit` call
/// was deleted shows up here as zero hits.
#[test]
fn a_served_join_reaches_every_fault_point() {
    let guard = FaultPoint::ALL
        .into_iter()
        .fold(FaultPlan::new(0), |plan, point| {
            plan.rule(
                point,
                FaultTrigger::Nth(NonZeroU64::MAX),
                FaultAction::Delay(Duration::ZERO),
            )
        })
        .install();

    let (handle, addr, runner) = start_server(catalog(2_000, 200, 8), ServerConfig::default());
    let mut session = RemoteSession::connect(addr).expect("connect");
    let outcome = session
        .query(&plans::assoc_join(
            "Bprime",
            "A",
            "unique1",
            JoinAlgorithm::Hash,
        ))
        .run()
        .expect("no rule fires");
    assert_eq!(outcome.result_cardinality(), Some(200));
    drop(session);
    assert!(drained(&handle, Duration::from_secs(10)));
    handle.stop();
    runner.join().unwrap();

    for (point, hits, fired) in guard.counts() {
        assert!(hits >= 1, "{point} was never reached");
        assert_eq!(fired, 0, "{point} fired");
    }
}
