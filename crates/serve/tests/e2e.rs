//! End-to-end tests: a real server on an ephemeral port, real sockets,
//! concurrent clients, admission control and graceful shutdown.

use dbs3_lera::{plans, JoinAlgorithm, Predicate};
use dbs3_serve::{RemoteSession, ServeError, Server, ServerConfig, ServerHandle, ServerStats};
use dbs3_storage::{
    Catalog, ColumnDef, PartitionSpec, PartitionedRelation, Relation, Schema, Tuple, Value,
};
use std::net::SocketAddr;
use std::time::Duration;

/// Builds the `A`/`Bprime` join catalog (every tuple of `Bprime` matches
/// exactly one tuple of `A` on `unique1`).
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

/// Starts a server on an ephemeral port and returns its handle plus the
/// thread that will yield the final stats.
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

#[test]
fn sixteen_concurrent_clients_match_the_sequential_reference() {
    let a_card = 4_000;
    let b_card = 400;
    let degree = 16;

    // Sequential reference: the same plan through the local facade.
    let session = dbs3::Session::from_catalog(catalog(a_card, b_card, degree));
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let reference = session.query(&plan).threads(2).run().unwrap();
    let expected = reference.result_cardinality("Result").unwrap();
    assert_eq!(expected, b_card, "every Bprime tuple joins exactly once");

    let (handle, addr, runner) = start_server(
        catalog(a_card, b_card, degree),
        ServerConfig {
            workers: 4,
            max_inflight: 64,
            ..ServerConfig::default()
        },
    );

    let clients: Vec<_> = (0..16)
        .map(|_| {
            let plan = plan.clone();
            std::thread::spawn(move || {
                let mut session = RemoteSession::connect(addr).expect("connect");
                let outcome = session.query(&plan).threads(2).run().expect("remote query");
                outcome.result_cardinality().expect("single store") as usize
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().unwrap(), expected);
    }

    handle.stop();
    let stats = runner.join().unwrap();
    assert_eq!(stats.served, 16);
    assert_eq!(stats.shed, 0, "nothing sheds under the admission limit");
}

/// The acceptance shape: 64 concurrent clients against an 8-worker server,
/// every remote cardinality exactly the sequential one. The catalog is
/// small so the test stays fast in debug builds; latency under load is
/// measured by `dbs3-e2e`'s open-loop `serve_open_assoc` workload.
#[test]
fn sixty_four_concurrent_clients_against_eight_workers() {
    let a_card = 1_000;
    let b_card = 100;
    let degree = 8;

    let session = dbs3::Session::from_catalog(catalog(a_card, b_card, degree));
    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let reference = session.query(&plan).threads(2).run().unwrap();
    let expected = reference.result_cardinality("Result").unwrap();
    assert_eq!(expected, b_card);

    let (handle, addr, runner) = start_server(
        catalog(a_card, b_card, degree),
        ServerConfig {
            workers: 8,
            max_inflight: 128,
            ..ServerConfig::default()
        },
    );

    let clients: Vec<_> = (0..64)
        .map(|_| {
            let plan = plan.clone();
            std::thread::spawn(move || {
                let mut session = RemoteSession::connect(addr).expect("connect");
                let outcome = session.query(&plan).threads(2).run().expect("remote query");
                outcome.result_cardinality().expect("single store") as usize
            })
        })
        .collect();
    for client in clients {
        assert_eq!(client.join().unwrap(), expected);
    }

    handle.stop();
    let stats = runner.join().unwrap();
    assert_eq!(stats.served, 64);
    assert_eq!(stats.shed, 0);
}

#[test]
fn shutdown_frame_drains_acks_and_rejects_late_arrivals() {
    let (_handle, addr, runner) = start_server(
        catalog(2_000, 200, 8),
        ServerConfig {
            workers: 2,
            max_inflight: 8,
            drain_grace: Duration::from_millis(400),
            ..ServerConfig::default()
        },
    );

    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let mut session = RemoteSession::connect(addr).expect("connect");
    let outcome = session.query(&plan).threads(2).run().expect("query");
    assert_eq!(outcome.result_cardinality(), Some(200));

    // A second connection opened BEFORE the stop: its post-stop request
    // must get the typed shutdown error, not a hang or a dropped socket.
    let mut late = RemoteSession::connect(addr).expect("connect before stop");

    session.shutdown_server().expect("shutdown acked");
    match late.query(&plan).threads(2).run() {
        Err(ServeError::RemoteShutdown) => {}
        other => panic!("expected RemoteShutdown, got {other:?}"),
    }

    let stats = runner.join().unwrap();
    assert_eq!(stats.served, 1);
}

#[test]
fn per_request_deadline_is_enforced_server_side() {
    let (handle, addr, runner) = start_server(
        catalog(8_000, 800, 8),
        ServerConfig {
            workers: 1,
            max_inflight: 8,
            ..ServerConfig::default()
        },
    );

    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::NestedLoop);
    let mut session = RemoteSession::connect(addr).expect("connect");
    match session
        .query(&plan)
        .threads(1)
        .deadline(Duration::from_millis(1))
        .run()
    {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    handle.stop();
    runner.join().unwrap();
}

#[test]
fn execution_errors_come_back_typed_not_as_hangs() {
    let (handle, addr, runner) = start_server(catalog(2_000, 200, 8), ServerConfig::default());

    // Unknown relation: fails at bind time, server-side.
    let plan = plans::assoc_join("NoSuchRelation", "A", "unique1", JoinAlgorithm::Hash);
    let mut session = RemoteSession::connect(addr).expect("connect");
    match session.query(&plan).threads(2).run() {
        Err(ServeError::Remote(msg)) => {
            assert!(msg.contains("NoSuchRelation") || msg.to_lowercase().contains("relation"))
        }
        other => panic!("expected a remote execution error, got {other:?}"),
    }

    // A filter over a column the relation lacks behaves the same way.
    let mut builder = dbs3_lera::PlanBuilder::new("bad-column");
    let f = builder.filter("A", Predicate::eq("no_such_column", 1));
    builder.store(f, "Out");
    let bad = builder.build();
    match session.query(&bad).threads(2).run() {
        Err(ServeError::Remote(_)) => {}
        other => panic!("expected a remote execution error, got {other:?}"),
    }

    // The connection survives both failures: a valid query still runs.
    let good = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let outcome = session.query(&good).threads(2).run().expect("recovery");
    assert_eq!(outcome.result_cardinality(), Some(200));

    handle.stop();
    runner.join().unwrap();
}
