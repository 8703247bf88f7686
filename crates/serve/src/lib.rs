//! # dbs3-serve
//!
//! The network front door for the DBS3 runtime: a framed-TCP query service
//! over the shared multi-query worker pool, built on `std::net` only.
//!
//! The paper's DBS3 is a *server*: many concurrent queries share one set of
//! execution threads, and the system's contribution is how that sharing is
//! scheduled. Earlier PRs built the shared pool ([`dbs3_engine::Runtime`]);
//! this crate puts a wire in front of it:
//!
//! * [`wire`] — the length-prefixed frame codec: a compact, total
//!   serialization of [`Plan`](dbs3_lera::Plan) +
//!   [`SchedulerOptions`](dbs3_engine::SchedulerOptions) requests and
//!   cardinality/metrics/error responses. Malformed bytes decode to typed
//!   [`ServeError`]s, never panics.
//! * [`server`] — the accept loop and per-connection session threads, with
//!   admission control (typed [`ServeError::ServerBusy`] sheds when the
//!   pool's live-query count reaches `--max-inflight`) and graceful drain
//!   on SIGTERM or a shutdown control frame.
//! * [`client`] / [`session`] — the blocking client, the self-healing
//!   [`ResilientClient`] (reconnect + seeded-jitter backoff + idempotent
//!   request ids), and the builder-style [`RemoteSession`] mirroring the
//!   local `dbs3::Session` facade.
//!
//! The `dbs3-e2e` benchmark measures this stack end to end with open-loop
//! traffic (its `serve_open_assoc` workload).

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

pub mod client;
pub mod error;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{Client, RemoteOutcome, ResilientClient, RetryPolicy, RetryStats};
pub use error::{ServeError, ServeResult};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use session::{RemoteQuery, RemoteSession};
pub use wire::{Frame, QueryRequest, WireMetrics, MAX_FRAME_LEN, PROTOCOL_VERSION};
