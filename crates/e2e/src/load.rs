//! Open-loop load: a seeded arrival schedule and the generator that sends
//! on it regardless of how the server is doing.
//!
//! Independent users make an open loop: a slow server still receives its
//! requests on time and its queue grows. Latency is therefore timed from
//! when a request was **due**, not from when the generator got round to
//! sending it — the wait a stall imposes on later requests is the server's
//! doing and counts against it; how late the generator itself ran is
//! reported separately.

use crate::trace::{Span, Tracer};
use crate::BenchResult;
use dbs3_engine::SchedulerOptions;
use dbs3_lera::Plan;
use dbs3_serve::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Due times (offsets from the window start, ascending) of a Poisson
/// process of `rate_qps` over `window`, conditioned on its expected count:
/// `round(rate × window)` arrivals placed uniformly at random, which is
/// exactly how a Poisson process distributes a known number of arrivals.
/// Fixing the count keeps the offered load of every window identical, so
/// the achieved rate measures the server and not the draw. Same seed, same
/// schedule.
pub fn arrival_schedule(seed: u64, rate_qps: f64, window: Duration) -> Vec<Duration> {
    let count = (rate_qps * window.as_secs_f64()).round().max(1.0) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due: Vec<Duration> = (0..count).map(|_| window.mul_f64(rng.gen_f64())).collect();
    due.sort_unstable();
    due
}

/// One open-loop request as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSample {
    /// Due time → response complete, ms.
    pub latency_ms: f64,
    /// Due time → actually sent, ms (0 when sent on time).
    pub late_ms: f64,
    /// Whether the response arrived and carried the expected cardinality.
    pub ok: bool,
}

/// Latency and lateness of a request that was due at `due`, sent at `sent`
/// and answered at `done`.
pub fn open_loop_sample(due: Instant, sent: Instant, done: Instant, ok: bool) -> RequestSample {
    RequestSample {
        latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        ok,
    }
}

/// What an open-loop window produced.
#[derive(Debug)]
pub struct OpenLoopOutcome {
    /// One sample per scheduled arrival, in schedule order per connection.
    pub samples: Vec<RequestSample>,
    /// Window start → last response.
    pub elapsed: Duration,
    /// Spans of each connection thread (empty unless tracing).
    pub thread_spans: Vec<Vec<Span>>,
}

/// The fixed request every connection sends.
#[derive(Debug, Clone)]
pub struct Request {
    /// Server address.
    pub addr: SocketAddr,
    /// Plan to run.
    pub plan: Plan,
    /// Scheduling options shipped with it.
    pub options: SchedulerOptions,
    /// Cardinality a correct response carries.
    pub expected: u64,
}

impl Request {
    /// Sends the request once on `client`; true when the answer is correct.
    pub fn send(&self, client: &mut Client) -> bool {
        match client.execute(&self.plan, &self.options, 0) {
            Ok(outcome) => outcome.result_cardinality() == Some(self.expected),
            Err(_) => false,
        }
    }
}

/// Sends `schedule` over `connections` client connections (one thread
/// each; arrival `i` goes to connection `i mod connections`). A connection
/// carries one request at a time, so an arrival whose connection is still
/// busy is sent late — and timed from its due time all the same.
/// `trace_origin` turns on per-thread span recording.
pub fn run_open_loop(
    request: &Request,
    schedule: &[Duration],
    connections: usize,
    trace_origin: Option<Instant>,
) -> BenchResult<OpenLoopOutcome> {
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        clients.push(Client::connect(request.addr)?);
    }
    // A start slightly in the future lets every thread reach its first
    // sleep before the first arrival is due.
    let start = Instant::now() + Duration::from_millis(20);
    let per_thread: Vec<(Vec<RequestSample>, Instant, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                scope.spawn(move || {
                    let mut tracer = match trace_origin {
                        Some(origin) => Tracer::enabled(origin),
                        None => Tracer::disabled(),
                    };
                    let mut samples = Vec::new();
                    let mut last_done = start;
                    for (index, offset) in
                        schedule.iter().enumerate().skip(conn).step_by(connections)
                    {
                        let due = start + *offset;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let query = index as u64 + 1;
                        let whole = tracer.begin_at("query", query, due);
                        let late = tracer.begin_at("generator.late", query, due);
                        tracer.end(late);
                        let sent = Instant::now();
                        let exchange = tracer.begin("dbs3_serve.execute", query);
                        let ok = request.send(&mut client);
                        tracer.end(exchange);
                        tracer.end(whole);
                        last_done = Instant::now();
                        samples.push(open_loop_sample(due, sent, last_done, ok));
                    }
                    (samples, last_done, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "an open-loop connection thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut samples = Vec::with_capacity(schedule.len());
    let mut last = start;
    let mut thread_spans = Vec::new();
    for (s, done, spans) in per_thread {
        samples.extend(s);
        last = last.max(done);
        thread_spans.push(spans);
    }
    Ok(OpenLoopOutcome {
        samples,
        elapsed: last.duration_since(start),
        thread_spans,
    })
}

/// `n` requests back to back on one fresh connection; returns the time to
/// connect (ms) and each send → response latency (ms), `None` for a wrong
/// or failed answer.
pub fn run_closed_loop(request: &Request, n: usize) -> BenchResult<(f64, Vec<Option<f64>>)> {
    let started = Instant::now();
    let mut client = Client::connect(request.addr)?;
    let connect_ms = started.elapsed().as_secs_f64() * 1e3;
    let latencies = (0..n)
        .map(|_| {
            let sent = Instant::now();
            request
                .send(&mut client)
                .then(|| sent.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    Ok((connect_ms, latencies))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_due_times() {
        let window = Duration::from_secs(3);
        let a = arrival_schedule(42, 40.0, window);
        let b = arrival_schedule(42, 40.0, window);
        let c = arrival_schedule(43, 40.0, window);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The offered load is the stated rate exactly, whatever the seed.
        assert_eq!(a.len(), 120);
        assert_eq!(c.len(), 120);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| *d < window));
    }

    #[test]
    fn arrivals_look_poisson_not_evenly_spaced() {
        // Exponential gaps: the coefficient of variation is about 1, where
        // an evenly paced generator would show about 0.
        let due = arrival_schedule(1, 100.0, Duration::from_secs(50));
        let gaps: Vec<f64> = due
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "cv = {cv}");
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(10);
        let done = due + Duration::from_millis(25);
        let s = open_loop_sample(due, sent, done, true);
        assert!((s.latency_ms - 25.0).abs() < 1e-9);
        assert!((s.late_ms - 10.0).abs() < 1e-9);
        // Sent early (clock raced the sleep): never negative lateness.
        let early = open_loop_sample(sent, due, done, true);
        assert_eq!(early.late_ms, 0.0);
        assert!((early.latency_ms - 15.0).abs() < 1e-9);
    }
}
