//! The query server: a TCP front door over a shared [`Runtime`] pool.
//!
//! One listener thread accepts connections; each connection gets a session
//! thread that parses [`Frame::Query`] requests, admits or sheds them, and
//! streams back cardinality + metrics frames. All connections share one
//! worker pool, so the server's concurrency story is the runtime's: morsel
//! scheduling interleaves queries, admission control bounds how many are
//! live at once.
//!
//! ## Admission control
//!
//! A query is shed with a typed [`ServeError::ServerBusy`] frame when
//! [`Runtime::live_queries`] has reached `max_inflight`. Shedding happens
//! *before* any binding or scheduling work, so a busy server stays cheap to
//! refuse; the connection stays open and the client may retry.
//!
//! ## Graceful shutdown
//!
//! [`ServerHandle::stop`] (wired to SIGTERM in the `dbs3-serve` binary, and
//! to the [`Frame::Shutdown`] control frame here) drains rather than drops:
//! queries already admitted run to completion and their responses are
//! delivered; requests arriving after the stop get a typed
//! [`ServeError::RemoteShutdown`] frame; once the drain grace expires the
//! listener closes, session threads are joined, and the worker pool is
//! retired via [`Runtime::shutdown`].
//!
//! ## Fault injection & idempotent retries
//!
//! The accept loop, every socket read and every response write pass through
//! the fault points [`FaultPoint::ServeAccept`], [`FaultPoint::ServeRead`]
//! and [`FaultPoint::ServeWrite`] of the engine's deterministic fault
//! registry ([`dbs3_engine::faults`]) — a seeded plan can drop
//! connections mid-frame, delay writes or kill reads, which is how the
//! chaos suite drives the server. Retried requests carry an idempotency id:
//! a response ledger keeps the frames of recently answered requests, so a
//! retry whose original attempt *did* execute (the response just never
//! arrived) replays the recorded answer instead of running the query twice.

use crate::error::{ServeError, ServeResult};
use crate::wire::{Frame, QueryRequest, WireMetrics};
use dbs3_engine::faults::{self, FaultAction, FaultPoint};
use dbs3_engine::{CacheStats, EngineError, Runtime};
use dbs3_lera::CostParameters;
use dbs3_storage::Catalog;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a session thread keeps polling its socket between frames before
/// rechecking the stop flag. Small enough that shutdown is responsive,
/// large enough that idle connections cost almost nothing.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Knobs of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads in the shared execution pool.
    pub workers: usize,
    /// Admission limit: queries live at once before new ones are shed.
    pub max_inflight: u64,
    /// How long, after a stop request, session threads keep answering late
    /// arrivals with typed shutdown errors before closing their sockets.
    pub drain_grace: Duration,
    /// Arms the runtime watchdog: a query making no scheduling progress
    /// for this long is aborted with a typed
    /// [`QueryStuck`](dbs3_engine::EngineError::QueryStuck) and its
    /// admission slot is freed. `None` disables the watchdog.
    pub stall_after: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_inflight: 64,
            drain_grace: Duration::from_millis(300),
            stall_after: None,
        }
    }
}

/// Counters reported when [`Server::run`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries admitted and answered (successfully or with an execution
    /// error frame).
    pub served: u64,
    /// Queries shed with [`ServeError::ServerBusy`]. Explicitly zero when
    /// no shedding happened — distinct from "not measured".
    pub shed: u64,
    /// Retried requests answered from the response ledger instead of being
    /// re-executed (idempotent replay).
    pub replayed: u64,
    /// Queries cancelled because their request deadline elapsed.
    pub deadlines: u64,
    /// Prepared-plan cache and fragment-index activity over this server's
    /// lifetime (delta of the process-wide counters between bind and drain):
    /// how much query setup was shared across connections. Index evictions
    /// are always 0: an index is dropped with its fragment.
    pub caches: CacheStats,
}

/// How many completed responses the ledger remembers for idempotent
/// replay. Far above any plausible number of concurrently retrying
/// clients, yet bounded so a long-lived server cannot leak.
const LEDGER_CAPACITY: usize = 1024;

/// A recently seen idempotent request: still executing, or answered with
/// these exact frames.
enum LedgerEntry {
    InFlight,
    Done(Vec<Frame>),
}

struct LedgerInner {
    entries: HashMap<u64, LedgerEntry>,
    /// Completion order, for capacity eviction (completed entries only —
    /// an in-flight entry is never evicted).
    order: VecDeque<u64>,
}

/// The idempotent-replay ledger: maps a non-zero request id to the frames
/// its execution produced. A retry of an id that is still executing blocks
/// until the original attempt completes (bounded by the drain grace), then
/// replays its response — the query runs exactly once no matter how many
/// times the client resends it.
struct ResponseLedger {
    inner: Mutex<LedgerInner>,
    completed: Condvar,
}

impl ResponseLedger {
    fn new() -> ResponseLedger {
        ResponseLedger {
            inner: Mutex::new(LedgerInner {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            completed: Condvar::new(),
        }
    }

    /// Either hands back the recorded (or awaited) response for a replayed
    /// id, or returns `None` — in which case the caller now *owns*
    /// execution of this id and must end it with [`ResponseLedger::finish`]
    /// or [`ResponseLedger::abandon`].
    fn enter(&self, id: u64, state: &ServerState, grace: Duration) -> Option<Vec<Frame>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match inner.entries.get(&id) {
                None => {
                    inner.entries.insert(id, LedgerEntry::InFlight);
                    return None;
                }
                Some(LedgerEntry::Done(frames)) => return Some(frames.clone()),
                Some(LedgerEntry::InFlight) => {
                    // The original attempt is still executing on another
                    // session thread; wait for it. Waking without a result
                    // only matters once the server is past its drain grace.
                    let (guard, wait) = self
                        .completed
                        .wait_timeout(inner, POLL_INTERVAL)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = guard;
                    if wait.timed_out() && state.drain_expired(grace) {
                        return Some(vec![Frame::Error(ServeError::RemoteShutdown)]);
                    }
                }
            }
        }
    }

    /// Records the response of an executed id and wakes waiting retries.
    fn finish(&self, id: u64, frames: &[Frame]) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entries.insert(id, LedgerEntry::Done(frames.to_vec()));
        inner.order.push_back(id);
        while inner.order.len() > LEDGER_CAPACITY {
            #[expect(
                clippy::expect_used,
                reason = "the loop condition just checked len > 0"
            )]
            let oldest = inner.order.pop_front().expect("order is non-empty");
            if matches!(inner.entries.get(&oldest), Some(LedgerEntry::Done(_))) {
                inner.entries.remove(&oldest);
            }
        }
        self.completed.notify_all();
    }

    /// Releases an id that was claimed but never executed (the request was
    /// shed or refused), so a retry can execute it for real.
    fn abandon(&self, id: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(inner.entries.get(&id), Some(LedgerEntry::InFlight)) {
            inner.entries.remove(&id);
        }
        self.completed.notify_all();
    }
}

/// State shared between the accept loop, session threads and handles.
// ordering(stop): SeqCst — the stop flag gates admission and the accept
// loop; it must not reorder against the `stop_at` timestamp or the drain
// could start its grace period before sessions see the flag. Polled a few
// times per POLL_INTERVAL, so the fence cost is noise.
// ordering(served): SeqCst — the four stat counters are read together as
// one `DrainStats` snapshot after the listener closes; one shared order
// keeps served/shed/replayed/deadlines mutually consistent in tests.
// ordering(shed): SeqCst — see `served`.
// ordering(replayed): SeqCst — see `served`.
// ordering(deadlines): SeqCst — see `served`.
struct ServerState {
    stop: AtomicBool,
    /// When the stop was requested; the drain grace counts from here.
    stop_at: Mutex<Option<Instant>>,
    served: AtomicU64,
    shed: AtomicU64,
    replayed: AtomicU64,
    deadlines: AtomicU64,
    ledger: ResponseLedger,
}

impl ServerState {
    fn stop(&self) {
        let mut at = self.stop_at.lock().unwrap_or_else(PoisonError::into_inner);
        if at.is_none() {
            *at = Some(Instant::now());
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn drain_expired(&self, grace: Duration) -> bool {
        match *self.stop_at.lock().unwrap_or_else(PoisonError::into_inner) {
            Some(at) => at.elapsed() >= grace,
            None => false,
        }
    }
}

/// A handle for observing and stopping a running server from another thread
/// (tests, the SIGTERM watcher, the in-process bench harness).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    runtime: Arc<Runtime>,
}

impl ServerHandle {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: drain admitted queries, answer late
    /// arrivals with typed shutdown errors, then close. Idempotent.
    pub fn stop(&self) {
        self.state.stop();
    }

    /// Queries shed so far.
    pub fn shed(&self) -> u64 {
        self.state.shed.load(Ordering::SeqCst)
    }

    /// Queries served so far.
    pub fn served(&self) -> u64 {
        self.state.served.load(Ordering::SeqCst)
    }

    /// Queries currently executing or awaiting pickup on the shared pool —
    /// the admission-control gauge. Tests use this to prove that aborted,
    /// timed-out and fault-killed queries all free their slots: after a
    /// drain it must return to zero.
    pub fn live_queries(&self) -> usize {
        self.runtime.live_queries()
    }
}

/// The server: a bound listener plus the shared catalog and worker pool.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    catalog: Arc<Catalog>,
    runtime: Arc<Runtime>,
    config: ServerConfig,
    state: Arc<ServerState>,
    /// Process-wide cache counters at bind time, so the drain stats report
    /// this server's own cache activity as a delta.
    cache_baseline: CacheStats,
}

impl Server {
    /// Binds a server to `addr` (use port 0 for an ephemeral port) and
    /// spins up its worker pool. The listener is nonblocking so the accept
    /// loop can watch the stop flag.
    pub fn bind(
        catalog: Catalog,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> ServeResult<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let runtime = match config.stall_after {
            Some(stall) => Runtime::with_watchdog(config.workers, stall),
            None => Runtime::new(config.workers),
        }
        .map_err(|e| ServeError::Remote(e.to_string()))?;
        Ok(Server {
            listener,
            addr,
            catalog: Arc::new(catalog),
            runtime: Arc::new(runtime),
            config,
            state: Arc::new(ServerState {
                stop: AtomicBool::new(false),
                stop_at: Mutex::new(None),
                served: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                replayed: AtomicU64::new(0),
                deadlines: AtomicU64::new(0),
                ledger: ResponseLedger::new(),
            }),
            cache_baseline: dbs3_engine::cache_stats(),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable stop/metrics handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            state: Arc::clone(&self.state),
            runtime: Arc::clone(&self.runtime),
        }
    }

    /// Runs the accept loop until a stop is requested, then drains: the
    /// accept backlog is flushed into session threads (so clients that
    /// connected just before the stop get typed shutdown errors instead of
    /// TCP resets), every session thread is joined (each finishes its
    /// in-flight query first), the worker pool is retired, and the
    /// served/shed counters are returned.
    pub fn run(self) -> ServeResult<ServerStats> {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let spawn_session = |stream: TcpStream, sessions: &mut Vec<_>| {
            let catalog = Arc::clone(&self.catalog);
            let runtime = Arc::clone(&self.runtime);
            let state = Arc::clone(&self.state);
            let config = self.config;
            sessions.push(std::thread::spawn(move || {
                // Session errors are per-connection by design; the thread
                // ends, the server does not.
                let _ = serve_connection(stream, &catalog, &runtime, &state, &config);
            }));
        };
        while !self.state.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    match faults::hit(FaultPoint::ServeAccept) {
                        // The freshly accepted connection is severed before
                        // a session exists: the client's first read sees an
                        // EOF or a reset, exactly like an accept-side crash.
                        Some(FaultAction::Drop | FaultAction::Error) => {
                            drop(stream);
                            continue;
                        }
                        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                        #[expect(
                            clippy::panic,
                            reason = "FaultAction::Panic is the contract: the chaos suite \
                                      injects exactly this crash"
                        )]
                        Some(FaultAction::Panic) => {
                            panic!("injected fault at {}", FaultPoint::ServeAccept)
                        }
                        None => {}
                    }
                    spawn_session(stream, &mut sessions);
                    // Reap finished sessions so a long-lived server does not
                    // accumulate dead join handles.
                    sessions.retain(|s| !s.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL.min(Duration::from_millis(20)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Flush connections already queued in the kernel backlog: they get
        // a session thread (and typed shutdown errors) rather than a reset.
        while let Ok((stream, _peer)) = self.listener.accept() {
            spawn_session(stream, &mut sessions);
        }
        // Close the listener before draining so new connections are refused
        // at the TCP level while admitted work completes.
        drop(self.listener);
        for session in sessions {
            let _ = session.join();
        }
        self.runtime.shutdown();
        Ok(ServerStats {
            served: self.state.served.load(Ordering::SeqCst),
            shed: self.state.shed.load(Ordering::SeqCst),
            replayed: self.state.replayed.load(Ordering::SeqCst),
            deadlines: self.state.deadlines.load(Ordering::SeqCst),
            caches: dbs3_engine::cache_stats().since(&self.cache_baseline),
        })
    }
}

/// A blocking [`Read`] adapter over a read-timeout socket: retries timeouts
/// so the frame codec sees an ordinary blocking stream, but reports EOF once
/// the server's drain grace has expired — which the codec surfaces as a
/// clean close between frames or [`ServeError::Truncated`] inside one.
struct DrainAwareReader<'a> {
    stream: &'a TcpStream,
    state: &'a ServerState,
    grace: Duration,
}

impl Read for DrainAwareReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match faults::hit(FaultPoint::ServeRead) {
            // EOF with the socket actually shut down: a dropped connection,
            // not merely a short read the codec could retry.
            Some(FaultAction::Drop) => {
                self.stream.shutdown(std::net::Shutdown::Both).ok();
                return Ok(0);
            }
            Some(FaultAction::Error) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "injected read fault",
                ))
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            #[expect(
                clippy::panic,
                reason = "FaultAction::Panic is the injected-crash contract"
            )]
            Some(FaultAction::Panic) => panic!("injected fault at {}", FaultPoint::ServeRead),
            None => {}
        }
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.state.drain_expired(self.grace) {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

/// A [`Write`] adapter over the response half of a session socket that
/// passes every write through the [`FaultPoint::ServeWrite`] fault point: a
/// seeded plan can sever the connection mid-response, fail a write or slow
/// it down — the failure shapes a self-healing client must survive.
struct FaultyWriter {
    stream: TcpStream,
}

impl Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match faults::hit(FaultPoint::ServeWrite) {
            Some(FaultAction::Drop) => {
                self.stream.shutdown(std::net::Shutdown::Both).ok();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected connection drop",
                ));
            }
            Some(FaultAction::Error) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "injected write fault",
                ))
            }
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            #[expect(
                clippy::panic,
                reason = "FaultAction::Panic is the injected-crash contract"
            )]
            Some(FaultAction::Panic) => panic!("injected fault at {}", FaultPoint::ServeWrite),
            None => {}
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Serves one connection until the client disconnects or the drain grace
/// expires. Never panics: every malformed input and every engine failure is
/// converted into a typed error frame or a clean close.
fn serve_connection(
    stream: TcpStream,
    catalog: &Catalog,
    runtime: &Runtime,
    state: &ServerState,
    config: &ServerConfig,
) -> ServeResult<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = FaultyWriter {
        stream: stream.try_clone()?,
    };
    let mut reader = DrainAwareReader {
        stream: &stream,
        state,
        grace: config.drain_grace,
    };
    loop {
        let frame = match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean close between frames: the client hung up (or the drain
            // grace expired while idle).
            Ok(None) => return Ok(()),
            // A complete frame arrived but its payload does not decode; the
            // stream is still frame-aligned, so answer typed and continue.
            Err(e @ ServeError::Malformed(_)) => {
                Frame::Error(e).write_to(&mut writer)?;
                continue;
            }
            // Framing itself is damaged (oversized header, mid-frame cut,
            // transport error): answer typed if possible, then close — the
            // byte stream can no longer be trusted.
            Err(e) => {
                let _ = Frame::Error(e.clone()).write_to(&mut writer);
                return Err(e);
            }
        };
        match frame {
            Frame::Shutdown => {
                state.stop();
                Frame::ShutdownAck.write_to(&mut writer)?;
            }
            Frame::Query(request) => {
                let request_id = request.request_id;
                // Replay comes before every other gate — including the
                // stopping check, because a retry of a query the server
                // already executed deserves its answer even mid-drain —
                // and the ledger must never re-admit or double-count it.
                if request_id != 0 {
                    if let Some(frames) = state.ledger.enter(request_id, state, config.drain_grace)
                    {
                        state.replayed.fetch_add(1, Ordering::SeqCst);
                        for frame in frames {
                            frame.write_to(&mut writer)?;
                        }
                        continue;
                    }
                    // `enter` returned None: this thread owns execution of
                    // `request_id` and must finish or abandon it below.
                }
                if state.stopping() {
                    if request_id != 0 {
                        state.ledger.abandon(request_id);
                    }
                    Frame::Error(ServeError::RemoteShutdown).write_to(&mut writer)?;
                    continue;
                }
                let live = runtime.live_queries() as u64;
                if live >= config.max_inflight {
                    // A shed request never executed: release the claim so
                    // the client's retry can run it for real.
                    if request_id != 0 {
                        state.ledger.abandon(request_id);
                    }
                    state.shed.fetch_add(1, Ordering::SeqCst);
                    Frame::Error(ServeError::ServerBusy {
                        live,
                        max_inflight: config.max_inflight,
                    })
                    .write_to(&mut writer)?;
                    continue;
                }
                let response = execute(request, catalog, runtime);
                state.served.fetch_add(1, Ordering::SeqCst);
                let frames = match response {
                    Ok((cardinalities, metrics)) => {
                        let mut frames: Vec<Frame> = cardinalities
                            .into_iter()
                            .map(|(name, rows)| Frame::Cardinality { name, rows })
                            .collect();
                        frames.push(Frame::Metrics(metrics));
                        frames
                    }
                    Err(e) => {
                        if matches!(e, ServeError::DeadlineExceeded) {
                            state.deadlines.fetch_add(1, Ordering::SeqCst);
                        }
                        vec![Frame::Error(e)]
                    }
                };
                // Record before writing: if the write fails mid-response,
                // the retry finds the completed answer and replays it.
                if request_id != 0 {
                    state.ledger.finish(request_id, &frames);
                }
                for frame in frames {
                    frame.write_to(&mut writer)?;
                }
            }
            // Response frames have no business flowing client → server, but
            // they decoded cleanly, so the stream stays usable.
            other => {
                Frame::Error(ServeError::Protocol(format!(
                    "unexpected client frame {other:?}"
                )))
                .write_to(&mut writer)?;
            }
        }
    }
}

/// Binds, schedules and runs one admitted query on the shared pool.
fn execute(
    request: QueryRequest,
    catalog: &Catalog,
    runtime: &Runtime,
) -> ServeResult<(Vec<(String, u64)>, WireMetrics)> {
    let QueryRequest {
        plan,
        mut options,
        deadline_ms,
        request_id: _,
    } = request;
    // The wire protocol ships cardinalities, never tuples, so materialising
    // results server-side would be pure allocation waste. Counting stores
    // keep cardinalities exact either way.
    options.discard_results = true;
    let cost = CostParameters::default();
    // Prepared-query cache: expansion and scheduling are shared across
    // connections — every session thread serving this plan shape after the
    // first skips straight to binding, and concurrent queries over one
    // relation share a single build-side hash index.
    let prepared = dbs3_engine::prepare(catalog, &plan, &options, &cost)
        .map_err(|e| ServeError::Remote(e.to_string()))?;
    let handle = runtime
        .submit_prepared(catalog, &prepared)
        .map_err(|e| match e {
            EngineError::RuntimeShutdown => ServeError::RemoteShutdown,
            other => ServeError::Remote(other.to_string()),
        })?;
    // A timed-out wait cancels the query, so this request's admission slot
    // is free before the deadline error goes out.
    let outcome = if deadline_ms > 0 {
        handle.wait_timeout_or_cancel(Duration::from_millis(deadline_ms))
    } else {
        handle.wait()
    };
    let outcome = outcome.map_err(|e| match e {
        EngineError::RuntimeShutdown => ServeError::RemoteShutdown,
        EngineError::DeadlineExceeded { .. } => ServeError::DeadlineExceeded,
        other => ServeError::Remote(other.to_string()),
    })?;
    let metrics = WireMetrics {
        elapsed_us: outcome.metrics.elapsed.as_micros() as u64,
        total_activations: outcome.metrics.total_activations(),
        worst_imbalance: outcome.metrics.worst_imbalance(),
        total_threads: outcome.metrics.total_threads as u64,
    };
    let cardinalities = outcome
        .cardinalities
        .into_iter()
        .map(|(name, rows)| (name, rows as u64))
        .collect();
    Ok((cardinalities, metrics))
}
