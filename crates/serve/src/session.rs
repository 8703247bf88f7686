//! Ergonomic remote sessions, mirroring the local `dbs3::Session` facade.
//!
//! ```no_run
//! use dbs3_serve::RemoteSession;
//! use dbs3_lera::{plans, JoinAlgorithm};
//!
//! let mut session = RemoteSession::connect("127.0.0.1:7878").unwrap();
//! let plan = plans::assoc_join("Bprime", "A", "unique1", JoinAlgorithm::Hash);
//! let outcome = session.query(&plan).run().unwrap();
//! println!("{:?} rows", outcome.result_cardinality());
//! ```

use crate::client::{Client, RemoteOutcome};
use crate::error::ServeResult;
use dbs3_engine::SchedulerOptions;
use dbs3_lera::Plan;
use std::net::ToSocketAddrs;
use std::time::Duration;

/// A connection to a remote server with session-scoped query building,
/// shaped like the local `dbs3::Session` so call sites can swap a local
/// backend for a remote one with minimal churn.
pub struct RemoteSession {
    client: Client,
}

impl RemoteSession {
    /// Connects to a running `dbs3-serve` server.
    pub fn connect(addr: impl ToSocketAddrs) -> ServeResult<RemoteSession> {
        Ok(RemoteSession {
            client: Client::connect(addr)?,
        })
    }

    /// Starts building a remote query for `plan`.
    pub fn query<'a>(&'a mut self, plan: &'a Plan) -> RemoteQuery<'a> {
        RemoteQuery {
            session: self,
            plan,
            options: SchedulerOptions::default(),
            deadline_ms: 0,
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> ServeResult<()> {
        self.client.shutdown_server()
    }
}

/// Builder for one remote query execution.
pub struct RemoteQuery<'a> {
    session: &'a mut RemoteSession,
    plan: &'a Plan,
    options: SchedulerOptions,
    deadline_ms: u64,
}

impl RemoteQuery<'_> {
    /// Sets the producer-side activation cache size: tuples per transport
    /// batch.
    pub fn cache_size(mut self, cache_size: usize) -> Self {
        self.options.cache_size = cache_size;
        self
    }

    /// Bounds the server-side wait; an expired deadline cancels the query
    /// and returns [`ServeError::DeadlineExceeded`](crate::ServeError).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        // Round up so sub-millisecond deadlines do not silently become
        // "no deadline" (0 is the wire encoding for none).
        self.deadline_ms = (deadline.as_millis() as u64).max(1);
        self
    }

    /// Replaces the full scheduler options — the way to set
    /// `queue_capacity`, the one knob without a builder method here. The
    /// server forces `discard_results`, since the wire ships cardinalities,
    /// not tuples.
    pub fn options(mut self, options: SchedulerOptions) -> Self {
        self.options = options;
        self
    }

    /// Sends the query and blocks for the response.
    pub fn run(self) -> ServeResult<RemoteOutcome> {
        self.session
            .client
            .execute(self.plan, &self.options, self.deadline_ms)
    }
}
