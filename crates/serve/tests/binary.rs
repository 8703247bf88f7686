//! The `dbs3-serve` binary as a deployed process: spawned on an ephemeral
//! port, queried over real sockets, then stopped with SIGTERM, which must
//! drain the server and exit 0.

use dbs3_lera::{plans, JoinAlgorithm};
use dbs3_serve::RemoteSession;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Kills the server if the test fails before it exits on its own.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigterm_drains_the_server_binary_and_exits_zero() {
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_dbs3-serve"))
            .args(["--port", "0", "--workers", "2", "--max-inflight", "8"])
            .args(["--scale", "smoke"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn dbs3-serve"),
    );
    let stderr = server.0.stderr.take().expect("stderr is piped");
    let (lines_tx, lines) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = lines_tx.send(line);
        }
    });

    let port = loop {
        let line = lines
            .recv_timeout(Duration::from_secs(30))
            .expect("dbs3-serve printed its listening line");
        if let Some(rest) = line.split("listening on 0.0.0.0:").nth(1) {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            break digits
                .parse::<u16>()
                .expect("listening line carries the port");
        }
    };

    let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
    let mut session = RemoteSession::connect(("127.0.0.1", port)).expect("connect");
    for _ in 0..8 {
        let outcome = session.query(&plan).threads(2).run().expect("remote query");
        assert_eq!(outcome.result_cardinality(), Some(1_000));
    }

    let pid = server.0.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status();
    assert!(kill.expect("run kill").success(), "kill -TERM {pid}");

    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll dbs3-serve") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "dbs3-serve still running 10 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    reader.join().expect("stderr reader");
    let rest: Vec<String> = lines.try_iter().collect();
    assert!(status.success(), "exit status {status}; stderr: {rest:#?}");
    assert!(
        rest.iter()
            .any(|l| l.contains("drained; served 8 queries, shed 0")),
        "no drain line in stderr: {rest:#?}"
    );
}
