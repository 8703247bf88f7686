//! `chaos` — the seeded fault-replay driver the CI chaos job runs.
//!
//! ```text
//! chaos [--seed N] [--clients N] [--queries N]
//! ```
//!
//! Boots an in-process `dbs3-serve` server with the runtime watchdog armed
//! and a seeded fault plan injecting connection drops, read/write failures,
//! slow writes, worker faults and shared-index build faults (the first
//! build panics while other clients' queries wait in the same cache cell;
//! slowed builds widen that window), then drives it with a fleet of
//! self-healing clients. Every fourth request carries a 1 ms deadline so
//! the deadline-cancellation path runs under fire too.
//!
//! The exit code is the verdict on the robustness invariants:
//!
//! * every request ends in the **correct** cardinality or a typed error —
//!   a wrong answer fails the run immediately;
//! * at least one request succeeds (the storm must not eat everything);
//! * `live_queries` drains to zero afterwards — no admission-slot leaks;
//! * the server's run loop exits cleanly with its stats.
//!
//! The same `--seed` replays the same per-hit fault decisions (thread
//! interleaving still varies, so *which* request suffers may differ, but
//! the invariants hold for every interleaving — that is the point).

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
use std::num::NonZeroU64;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    seed: u64,
    clients: usize,
    queries: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        clients: 16,
        queries: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--queries" => {
                args.queries = value("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?;
            }
            "--help" | "-h" => {
                println!("usage: chaos [--seed N] [--clients N] [--queries N]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.clients == 0 || args.queries == 0 {
        return Err("--clients and --queries must be at least 1".to_string());
    }
    Ok(args)
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::from(2);
        }
    };

    let b_card: u64 = 400;
    eprintln!(
        "chaos: seed={} clients={} queries/client={}",
        args.seed, args.clients, args.queries
    );

    // The storm: transport damage on every serve path plus occasional
    // worker faults and slow writes. Probabilities are sized so most
    // requests heal within the retry budget while every failure path
    // fires on a run of this size.
    let guard = FaultPlan::new(args.seed)
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
            FaultPoint::ServeAccept,
            FaultTrigger::Probability(0.05),
            FaultAction::Drop,
        )
        .rule(
            FaultPoint::WorkerProcess,
            FaultTrigger::EveryK(NonZeroU64::MIN.saturating_add(400)),
            FaultAction::Panic,
        )
        // Only the first wave builds (the catalog never changes), so these
        // cost milliseconds: the first shared build panics, and slowed
        // builds keep other queries waiting in the same cell.
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
        .install();

    let catalog = match catalog(4_000, b_card as usize, 16) {
        Ok(catalog) => catalog,
        Err(e) => {
            eprintln!("chaos: setup: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(
        catalog,
        ("127.0.0.1", 0),
        ServerConfig {
            workers: 4,
            max_inflight: 8,
            stall_after: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        },
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("chaos: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let started = Instant::now();
    let clients: Vec<_> = (0..args.clients)
        .map(|i| {
            let queries = args.queries;
            let seed = args.seed;
            std::thread::spawn(move || {
                #[expect(clippy::expect_used, reason = "127.0.0.1 always resolves")]
                let mut client = ResilientClient::connect(
                    addr,
                    RetryPolicy {
                        max_attempts: 10,
                        base_backoff: Duration::from_millis(3),
                        max_backoff: Duration::from_millis(80),
                        seed: seed.wrapping_mul(1_000).wrapping_add(i as u64),
                        read_timeout: Some(Duration::from_secs(20)),
                    },
                )
                .expect("resolve loopback");
                let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
                let options = SchedulerOptions::default().with_total_threads(2);
                let (mut ok, mut deadlines, mut typed, mut wrong) = (0u64, 0u64, 0u64, 0u64);
                for q in 0..queries {
                    // Every fourth request runs under a 1 ms deadline so
                    // cancellation executes under fire.
                    let deadline_ms = if q % 4 == 3 { 1 } else { 0 };
                    match client.execute(&plan, &options, deadline_ms) {
                        Ok(outcome) => {
                            if outcome.cardinalities.get("Result") == Some(&b_card) {
                                ok += 1;
                            } else {
                                wrong += 1;
                            }
                        }
                        Err(ServeError::DeadlineExceeded) => deadlines += 1,
                        Err(_) => typed += 1,
                    }
                }
                (ok, deadlines, typed, wrong, client.stats())
            })
        })
        .collect();

    let (mut ok, mut deadlines, mut typed, mut wrong) = (0u64, 0u64, 0u64, 0u64);
    let (mut retries, mut reconnects) = (0u64, 0u64);
    for client in clients {
        let Ok((o, d, t, w, stats)) = client.join() else {
            eprintln!("chaos: FAILED — a client thread panicked");
            return ExitCode::FAILURE;
        };
        ok += o;
        deadlines += d;
        typed += t;
        wrong += w;
        retries += stats.retries;
        reconnects += stats.reconnects;
    }
    let requests = (args.clients * args.queries) as u64;
    eprintln!(
        "chaos: {requests} requests in {:.2}s — ok={ok} deadline={deadlines} typed={typed} \
         wrong={wrong} retries={retries} reconnects={reconnects}",
        started.elapsed().as_secs_f64()
    );

    // Invariant 1: total accounting, zero wrong answers.
    if wrong > 0 || ok + deadlines + typed != requests {
        eprintln!("chaos: FAILED — wrong answers or lost requests");
        return ExitCode::FAILURE;
    }
    // Invariant 2: the storm must not eat every request.
    if ok == 0 {
        eprintln!("chaos: FAILED — nothing succeeded");
        return ExitCode::FAILURE;
    }
    // Invariant 3: every admission slot returns within the drain window.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while handle.live_queries() > 0 {
        if Instant::now() > drain_deadline {
            eprintln!(
                "chaos: FAILED — {} live queries leaked after the storm",
                handle.live_queries()
            );
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Invariant 4: the server drains and exits its loop cleanly.
    handle.stop();
    let stats = match runner.join() {
        Ok(Ok(stats)) => stats,
        Ok(Err(e)) => {
            eprintln!("chaos: FAILED — server error: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("chaos: FAILED — server thread panicked");
            return ExitCode::FAILURE;
        }
    };
    let fired: u64 = guard.counts().iter().map(|(_, _, fired)| fired).sum();
    eprintln!(
        "chaos: server served={} shed={} replayed={} deadline-cancelled={}; \
         {fired} faults fired; all invariants held",
        stats.served, stats.shed, stats.replayed, stats.deadlines
    );
    ExitCode::SUCCESS
}
