//! The wire-level client: one TCP connection, blocking request/response.
//!
//! [`Client`] is deliberately thin — it owns a socket and speaks frames.
//! [`ResilientClient`] wraps it with automatic reconnection, bounded
//! exponential backoff with seeded jitter, and idempotent request ids, so
//! callers survive connection drops and `SERVER_BUSY` shedding. The
//! ergonomic layer with builder-style query options lives in
//! [`crate::session::RemoteSession`].

use crate::error::{ServeError, ServeResult};
use crate::wire::{Frame, QueryRequest, WireMetrics};
use dbs3_engine::SchedulerOptions;
use dbs3_lera::Plan;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The response to one successful remote query: what the server measured,
/// minus the tuples (the protocol ships cardinalities only).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOutcome {
    /// Exact result cardinality per store name, identical to what a local
    /// [`ExecutionOutcome`](dbs3_engine::ExecutionOutcome) reports.
    pub cardinalities: BTreeMap<String, u64>,
    /// Server-side execution metrics.
    pub metrics: WireMetrics,
}

impl RemoteOutcome {
    /// The single cardinality of a plan with exactly one store operator.
    pub fn result_cardinality(&self) -> Option<u64> {
        if self.cardinalities.len() == 1 {
            self.cardinalities.values().next().copied()
        } else {
            None
        }
    }

    /// Server-side wall-clock execution time.
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.metrics.elapsed_us)
    }
}

/// A connected client. One in-flight request at a time (the protocol is
/// strictly request/response per connection; open more connections for
/// concurrency, as the traffic generator does).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running `dbs3-serve` server.
    pub fn connect(addr: impl ToSocketAddrs) -> ServeResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Runs `plan` remotely with the given scheduling options, blocking
    /// until the full response arrives. `deadline_ms` (0 = none) bounds the
    /// server-side wait; an expired deadline comes back as
    /// [`ServeError::DeadlineExceeded`], a shed request as
    /// [`ServeError::ServerBusy`], a draining server as
    /// [`ServeError::RemoteShutdown`].
    pub fn execute(
        &mut self,
        plan: &Plan,
        options: &SchedulerOptions,
        deadline_ms: u64,
    ) -> ServeResult<RemoteOutcome> {
        self.execute_with_id(plan, options, deadline_ms, 0)
    }

    /// Like [`Client::execute`], tagging the request with an idempotency
    /// id. A non-zero `request_id` lets the server recognise a retry of a
    /// request it already executed and replay the cached response instead
    /// of running the query twice. Zero opts out.
    pub fn execute_with_id(
        &mut self,
        plan: &Plan,
        options: &SchedulerOptions,
        deadline_ms: u64,
        request_id: u64,
    ) -> ServeResult<RemoteOutcome> {
        Frame::Query(QueryRequest {
            plan: plan.clone(),
            options: *options,
            deadline_ms,
            request_id,
        })
        .write_to(&mut self.stream)?;
        let mut cardinalities = BTreeMap::new();
        loop {
            match Frame::read_from(&mut self.stream)? {
                Some(Frame::Cardinality { name, rows }) => {
                    cardinalities.insert(name, rows);
                }
                Some(Frame::Metrics(metrics)) => {
                    return Ok(RemoteOutcome {
                        cardinalities,
                        metrics,
                    })
                }
                Some(Frame::Error(e)) => return Err(e),
                Some(other) => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected server frame {other:?} during a query exchange"
                    )))
                }
                // A clean close mid-exchange is a dropped connection, not a
                // protocol bug: classify it as `Truncated` so retry logic
                // treats it like any other transport failure.
                None => return Err(ServeError::Truncated),
            }
        }
    }

    /// Bounds every blocking read on this connection. `None` removes the
    /// bound. With a timeout set, a stalled server surfaces as a retryable
    /// [`ServeError::Io`] instead of hanging the caller forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> ServeResult<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Asks the server to shut down gracefully and waits for the
    /// acknowledgement frame.
    pub fn shutdown_server(&mut self) -> ServeResult<()> {
        Frame::Shutdown.write_to(&mut self.stream)?;
        match Frame::read_from(&mut self.stream)? {
            Some(Frame::ShutdownAck) => Ok(()),
            Some(Frame::Error(e)) => Err(e),
            Some(other) => Err(ServeError::Protocol(format!(
                "expected a shutdown acknowledgement, got {other:?}"
            ))),
            None => Err(ServeError::Protocol(
                "server closed the connection before acknowledging shutdown".into(),
            )),
        }
    }
}

/// Retry behaviour of a [`ResilientClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Cap on the exponential backoff (jitter excluded).
    pub max_backoff: Duration,
    /// Seeds the jitter and the request-id stream: the same seed replays
    /// the same backoff schedule, which keeps chaos runs reproducible.
    pub seed: u64,
    /// Per-read socket timeout; a stalled server becomes a retryable
    /// [`ServeError::Io`] instead of a hang. `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// What a [`ResilientClient`] had to do to get its answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests issued through [`ResilientClient::execute`].
    pub requests: u64,
    /// Extra attempts beyond the first, across all requests.
    pub retries: u64,
    /// Connections re-established after a transport failure.
    pub reconnects: u64,
    /// Retries caused specifically by [`ServeError::ServerBusy`].
    pub busy_retries: u64,
}

/// A self-healing client: reconnects on connection drops, backs off
/// exponentially (with seeded jitter) on transient failures, and tags every
/// request with an idempotent id so a retry of a request the server already
/// executed replays the cached response instead of running it twice.
///
/// Only errors where [`ServeError::is_retryable`] holds are retried:
/// transport failures tear the connection down and reconnect, while
/// [`ServeError::ServerBusy`] keeps the healthy connection and just backs
/// off. Definitive errors (deadline, remote failure, protocol damage) are
/// returned to the caller on the first occurrence.
pub struct ResilientClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<Client>,
    next_request_id: u64,
    stats: RetryStats,
}

impl ResilientClient {
    /// Creates a client for `addr`. No connection is opened until the
    /// first request (and a dead connection is never fatal — every
    /// attempt re-establishes it on demand).
    pub fn connect(addr: impl ToSocketAddrs, policy: RetryPolicy) -> ServeResult<ResilientClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ServeError::Io("address resolved to nothing".into()))?;
        let mut rng = StdRng::seed_from_u64(policy.seed);
        // Random non-zero starting point: concurrent clients built from
        // different seeds draw from disjoint id ranges with overwhelming
        // probability, so the server's replay ledger never conflates them.
        let next_request_id = rng.next_u64() | 1;
        Ok(ResilientClient {
            addr,
            policy,
            rng,
            conn: None,
            next_request_id,
            stats: RetryStats::default(),
        })
    }

    /// Cumulative retry/reconnect counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Runs `plan` remotely, retrying transient failures per the policy.
    /// Returns the last error once the attempt budget is spent.
    pub fn execute(
        &mut self,
        plan: &Plan,
        options: &SchedulerOptions,
        deadline_ms: u64,
    ) -> ServeResult<RemoteOutcome> {
        self.stats.requests += 1;
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1) | 1;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = self
                .attempt(plan, options, deadline_ms, request_id)
                .map_err(|e| {
                    // Transport damage poisons the socket; busy does not.
                    if !matches!(e, ServeError::ServerBusy { .. }) {
                        self.conn = None;
                    }
                    e
                });
            match result {
                Ok(outcome) => return Ok(outcome),
                Err(e) if e.is_retryable() && attempt < self.policy.max_attempts.max(1) => {
                    self.stats.retries += 1;
                    if matches!(e, ServeError::ServerBusy { .. }) {
                        self.stats.busy_retries += 1;
                    }
                    std::thread::sleep(self.backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn attempt(
        &mut self,
        plan: &Plan,
        options: &SchedulerOptions,
        deadline_ms: u64,
        request_id: u64,
    ) -> ServeResult<RemoteOutcome> {
        if self.conn.is_none() {
            let client = Client::connect(self.addr)?;
            client.set_read_timeout(self.policy.read_timeout)?;
            if self.stats.requests > 1 || self.stats.retries > 0 {
                self.stats.reconnects += 1;
            }
            self.conn = Some(client);
        }
        #[expect(
            clippy::expect_used,
            reason = "the branch above just filled the None case"
        )]
        let conn = self.conn.as_mut().expect("connection was just established");
        conn.execute_with_id(plan, options, deadline_ms, request_id)
    }

    /// Exponential backoff capped at `max_backoff`, plus a seeded jitter
    /// in `[0, base_backoff)` to de-synchronise retry stampedes.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.policy.max_backoff);
        exp + self.policy.base_backoff.mul_f64(self.rng.gen_f64())
    }
}
