//! The system under test as each workload drives it: a local
//! [`Runtime`] fed by one closed-loop caller, or the in-process TCP server
//! fed by the open-loop generator. Both run the correctness gate, the
//! warm-up, a timed window and a fixed-count pass through the same calls.

use crate::load::{self, Request};
use crate::trace::{Span, Tracer};
use crate::workload::{self, Database, POOL_THREADS, RESULT};
use crate::BenchResult;
use dbs3::{PreparedQuery, Runtime, Session};
use dbs3_engine::{ExecutionMetrics, SchedulerOptions};
use dbs3_lera::Plan;
use dbs3_serve::{Server, ServerConfig, ServerHandle, ServerStats};
use dbs3_storage::PartitionedRelation;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections (and generator threads) of the open-loop workload.
pub const CONNECTIONS: usize = 2;
/// Connections of a rate-ladder step.
pub const LADDER_CONNECTIONS: usize = 8;
/// Admission limit of the measured server.
pub const MAX_INFLIGHT: u64 = 64;

/// What the engine reported about one query, reduced to the numbers the
/// layer table uses. Only collected while tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// `ExecutionMetrics::elapsed`, ms.
    pub elapsed_ms: f64,
    /// Busy time summed over a pool's threads, ms: transmit, join, store.
    pub busy_ms: [f64; 3],
    /// `max_busy / avg_busy` of the join pool.
    pub join_imbalance: f64,
    /// Share of the join's activations taken from secondary queues.
    pub secondary_ratio: f64,
    /// Queue probes that found nothing, all pools.
    pub idle_polls: u64,
    /// Producer-side cache flushes, all pools.
    pub cache_flushes: u64,
    /// Logical activations consumed, all pools.
    pub activations: u64,
}

/// Reduces an execution's metrics to [`ExecStats`].
pub fn exec_stats(plan: &Plan, metrics: &ExecutionMetrics) -> ExecStats {
    let mut stats = ExecStats {
        elapsed_ms: metrics.elapsed.as_secs_f64() * 1e3,
        join_imbalance: 1.0,
        activations: metrics.total_activations(),
        ..ExecStats::default()
    };
    for op in &metrics.operations {
        let busy: Duration = op.threads.iter().map(|t| t.busy).sum();
        let kind = plan.node(op.node).map(|n| n.kind.name()).unwrap_or("");
        match kind {
            "transmit" => stats.busy_ms[0] += busy.as_secs_f64() * 1e3,
            "join" => {
                stats.busy_ms[1] += busy.as_secs_f64() * 1e3;
                stats.join_imbalance = op.busy_imbalance();
                stats.secondary_ratio = op.secondary_consumption_ratio();
            }
            "store" => stats.busy_ms[2] += busy.as_secs_f64() * 1e3,
            _ => {}
        }
        stats.idle_polls += op.threads.iter().map(|t| t.idle_polls).sum::<u64>();
        stats.cache_flushes += op.threads.iter().map(|t| t.cache_flushes).sum::<u64>();
    }
    stats
}

/// What a window or a fixed-count pass measured.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Latencies of correct operations, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations that errored or answered with the wrong cardinality.
    pub failed: usize,
    /// First operation start → last operation end.
    pub elapsed: Duration,
    /// Open loop only: how late each request was sent, ms.
    pub late_ms: Vec<f64>,
    /// Remote fixed-count pass only: time to open its connection, ms.
    pub connect_ms: f64,
    /// Per-query engine statistics (tracing only, local only).
    pub exec: Vec<ExecStats>,
    /// Spans of generator threads other than the caller's (tracing only).
    pub thread_spans: Vec<Vec<Span>>,
}

impl PassOutcome {
    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.latencies_ms.len() + self.failed
    }
}

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum PassLength {
    /// Until this much time has passed (open loop: this long a schedule).
    Window(Duration),
    /// Exactly this many operations, closed loop.
    Count(usize),
}

/// The scheduler options every workload queries with; the server forces
/// `discard_results` on its side, so local and remote prepare identically.
pub fn query_options() -> SchedulerOptions {
    SchedulerOptions {
        discard_results: true,
        ..SchedulerOptions::default().with_total_threads(POOL_THREADS)
    }
}

/// A local runtime and the one caller that feeds it.
pub struct LocalTarget {
    session: Session,
    runtime: Runtime,
    plan: Plan,
    /// `None` on `LocalColdReplace`, whose queries are never prepared.
    prepared: Option<PreparedQuery>,
    /// `LocalColdReplace`: the version of `A` to install next.
    spare: Option<PartitionedRelation>,
    /// Expected cardinality of the installed version and of the spare.
    expected: [usize; 2],
    /// Times the replaced version was still shared and had to be cloned.
    pub reclaim_clones: usize,
}

impl LocalTarget {
    /// Starts the pool and (when `prepare`) prepares the query — spans
    /// `dbs3_engine.runtime_start` and `dbs3_engine.prepare_cold`, the first prepare
    /// in a fresh process.
    pub fn from_parts(
        session: Session,
        plan: Plan,
        spare: Option<PartitionedRelation>,
        prepare: bool,
        tr: &mut Tracer,
    ) -> BenchResult<Self> {
        let span = tr.begin("dbs3_engine.runtime_start", 0);
        let runtime = Runtime::new(POOL_THREADS)?;
        tr.end(span);
        let prepared = if !prepare {
            None
        } else {
            let span = tr.begin("dbs3_engine.prepare_cold", 0);
            let prepared = session
                .query(&plan)
                .scheduler_options(query_options())
                .prepare()?;
            tr.end(span);
            Some(prepared)
        };
        Ok(LocalTarget {
            session,
            runtime,
            plan,
            prepared,
            spare,
            expected: [0, 0],
            reclaim_clones: 0,
        })
    }

    /// The session (for layer probes).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The runtime (for layer probes).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The plan every operation runs.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Sets the cardinality a correct answer carries without running the
    /// gate (for a second target over an already verified database).
    pub fn set_expected(&mut self, cardinality: usize) {
        self.expected[0] = cardinality;
    }

    /// Installs the spare version of `A`, returning the version it
    /// replaced (`LocalColdReplace` only; a no-op otherwise).
    fn swap_version(&mut self, tr: &mut Tracer, query: u64) -> Option<Arc<PartitionedRelation>> {
        let spare = self.spare.take()?;
        let span = tr.begin("dbs3_storage.catalog_replace", query);
        let previous = self.session.catalog_mut().replace(spare);
        tr.end(span);
        self.expected.swap(0, 1);
        previous
    }

    /// Takes back the replaced version as the next spare — outside every
    /// timing. The engine normally holds no reference once the query that
    /// used it was waited for; if it still does, the version is cloned.
    fn reclaim(&mut self, previous: Option<Arc<PartitionedRelation>>) {
        if let Some(previous) = previous {
            self.spare = Some(Arc::try_unwrap(previous).unwrap_or_else(|shared| {
                self.reclaim_clones += 1;
                (*shared).clone()
            }));
        }
    }

    /// The correctness gate: runs the query with results materialised and
    /// compares the bag of result tuples with the oracle's — for both
    /// versions of `A` on `LocalColdReplace`. Records the expected
    /// cardinalities every later query is checked against.
    pub fn verify(&mut self, db_relations: (&str, &str)) -> BenchResult<()> {
        let versions = if self.spare.is_some() { 2 } else { 1 };
        let mut tr = Tracer::disabled();
        for _ in 0..versions {
            let previous = self.swap_version(&mut tr, 0);
            let outcome = self
                .session
                .query(&self.plan)
                .threads(POOL_THREADS)
                .submit(&self.runtime)?
                .wait()?;
            self.expected[0] =
                workload::check_against_oracle(self.session.catalog(), db_relations, &outcome)?;
            self.reclaim(previous);
        }
        if versions == 2 && self.expected[0] == self.expected[1] {
            return Err("the two versions of A must differ in join cardinality".into());
        }
        Ok(())
    }

    /// One operation: (replace +) submit + wait, timed together. Returns
    /// the latency in ms, or `None` when it failed or answered wrongly.
    fn run_one(&mut self, tr: &mut Tracer, query: u64, exec: &mut Vec<ExecStats>) -> Option<f64> {
        let started = Instant::now();
        let whole = tr.begin("query", query);
        let previous = self.swap_version(tr, query);
        let span = tr.begin("dbs3_engine.submit", query);
        let handle = match &self.prepared {
            Some(prepared) => prepared.submit(&self.session, &self.runtime),
            None => self
                .session
                .query(&self.plan)
                .scheduler_options(query_options())
                .submit(&self.runtime),
        };
        tr.end(span);
        let span = tr.begin("dbs3_engine.wait", query);
        let outcome = handle.and_then(|h| h.wait());
        tr.end(span);
        tr.end(whole);
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        self.reclaim(previous);
        let outcome = outcome.ok()?;
        if tr.is_enabled() {
            if let Some(metrics) = outcome.execution_metrics() {
                exec.push(exec_stats(&self.plan, metrics));
            }
        }
        (outcome.result_cardinality(RESULT) == Some(self.expected[0])).then_some(latency_ms)
    }

    /// A closed loop of operations for `length`.
    pub fn run(&mut self, length: PassLength, tr: &mut Tracer, first_query: u64) -> PassOutcome {
        let mut out = PassOutcome::default();
        let started = Instant::now();
        let mut query = first_query;
        loop {
            match length {
                PassLength::Window(window) if started.elapsed() >= window => break,
                PassLength::Count(n) if out.attempted() >= n => break,
                _ => {}
            }
            match self.run_one(tr, query, &mut out.exec) {
                Some(ms) => out.latencies_ms.push(ms),
                None => out.failed += 1,
            }
            query += 1;
        }
        out.elapsed = started.elapsed();
        out
    }
}

/// The in-process server and what the generator needs to reach it.
pub struct ServeTarget {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<dbs3_serve::ServeResult<ServerStats>>,
    /// The request every connection sends.
    pub request: Request,
    /// Local copy of the database, for the oracle and the local probes.
    pub session: Session,
}

impl ServeTarget {
    /// Binds the server on an ephemeral loopback port and starts its accept
    /// loop (span `dbs3_serve.start`).
    pub fn start(db: Database, tr: &mut Tracer) -> BenchResult<Self> {
        let span = tr.begin("dbs3_serve.start", 0);
        let server = Server::bind(
            db.session.catalog().clone(),
            "127.0.0.1:0",
            ServerConfig {
                workers: POOL_THREADS,
                max_inflight: MAX_INFLIGHT,
                ..ServerConfig::default()
            },
        )?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        tr.end(span);
        Ok(ServeTarget {
            request: Request {
                addr: handle.addr(),
                plan: db.plan,
                options: query_options(),
                expected: 0,
            },
            handle,
            thread,
            session: db.session,
        })
    }

    /// The correctness gate. The wire carries cardinalities only, so the
    /// bag comparison runs the same plan over the same catalog locally;
    /// the remote answer must then carry the oracle's cardinality.
    pub fn verify(&mut self, db_relations: (&str, &str)) -> BenchResult<()> {
        let local = self
            .session
            .query(&self.request.plan)
            .threads(POOL_THREADS)
            .run()?;
        self.request.expected =
            workload::check_against_oracle(self.session.catalog(), db_relations, &local)? as u64;
        let (_, answers) = load::run_closed_loop(&self.request, 1)?;
        if answers != [None] {
            Ok(())
        } else {
            Err("correctness gate: the server's cardinality differs from the oracle's".into())
        }
    }

    /// `n` requests back to back on one fresh connection.
    pub fn closed_loop(&mut self, n: usize) -> BenchResult<PassOutcome> {
        let started = Instant::now();
        let (connect_ms, answers) = load::run_closed_loop(&self.request, n)?;
        Ok(PassOutcome {
            elapsed: started.elapsed(),
            failed: answers.iter().filter(|a| a.is_none()).count(),
            latencies_ms: answers.into_iter().flatten().collect(),
            connect_ms,
            ..PassOutcome::default()
        })
    }

    /// An open-loop window at `rate_qps` on the seeded schedule: over
    /// [`CONNECTIONS`] for the workload proper; over [`LADDER_CONNECTIONS`]
    /// for a rate-ladder step — enough that a request rarely waits for its
    /// connection, so the step measures the server and not the
    /// two-connection client.
    pub fn open_loop(
        &mut self,
        rate_qps: f64,
        window: Duration,
        seed: u64,
        connections: usize,
        trace_origin: Option<Instant>,
    ) -> BenchResult<PassOutcome> {
        let schedule = load::arrival_schedule(seed, rate_qps, window);
        let run = load::run_open_loop(&self.request, &schedule, connections, trace_origin)?;
        let mut out = PassOutcome {
            // Window start to last response: the achieved rate is what was
            // completed over the time completing it took, so a backlog that
            // spills past the window lowers it.
            elapsed: run.elapsed,
            thread_spans: run.thread_spans,
            ..PassOutcome::default()
        };
        for s in &run.samples {
            out.late_ms.push(s.late_ms);
            if s.ok {
                out.latencies_ms.push(s.latency_ms);
            } else {
                out.failed += 1;
            }
        }
        Ok(out)
    }

    /// Stops the server, joins its threads and returns its counters.
    pub fn stop(self) -> BenchResult<ServerStats> {
        self.handle.stop();
        let stats = self
            .thread
            .join()
            .map_err(|_| "the server thread panicked")??;
        Ok(stats)
    }
}
