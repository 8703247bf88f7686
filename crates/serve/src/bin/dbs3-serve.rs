//! `dbs3-serve` — the DBS3 query server.
//!
//! Loads the Wisconsin join database (`A` ⋈ `Bprime` partitioned on
//! `unique1`), binds a framed-TCP listener and serves queries from a shared
//! worker pool until SIGTERM/SIGINT or a shutdown control frame, then
//! drains gracefully and exits 0.
//!
//! ```text
//! dbs3-serve [--port N] [--workers N] [--max-inflight N] [--scale paper|smoke]
//!            [--stall-after-ms N] [--fault-seed N] [--fault POINT:TRIGGER:ACTION]...
//! ```
//!
//! `--fault` installs a rule in the deterministic fault registry (repeat
//! the flag for several rules); the grammar is
//! `POINT:TRIGGER:ACTION` with `TRIGGER ∈ nth=N | every=K | p=F` and
//! `ACTION ∈ panic | error | drop | delay=MS`, e.g.
//! `--fault serve.write:p=0.1:drop --fault-seed 7`. `--stall-after-ms`
//! arms the runtime watchdog against wedged queries.

use dbs3_engine::{FaultPlan, FaultPoint};
use dbs3_serve::{Server, ServerConfig};
use dbs3_storage::{
    Catalog, PartitionSpec, PartitionedRelation, WisconsinConfig, WisconsinGenerator,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// ordering(TERMINATE): SeqCst on both ends — the store happens in a signal
// handler where reasoning about weaker orderings buys nothing, and the
// watcher polls every 50ms so there is no hot path to optimize.
/// Set by the signal handler; watched by the drain thread.
static TERMINATE: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag, nothing else.
    TERMINATE.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGTERM and SIGINT via the libc `signal(2)`
/// already linked by std — no external crate needed.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

struct Args {
    port: u16,
    workers: usize,
    max_inflight: u64,
    scale: Scale,
    stall_after: Option<Duration>,
    fault_seed: u64,
    fault_specs: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Paper,
    Smoke,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 7878,
        workers: 4,
        max_inflight: 64,
        scale: Scale::Smoke,
        stall_after: None,
        fault_seed: 0,
        fault_specs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--max-inflight" => {
                args.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
            }
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "paper" => Scale::Paper,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale: unknown scale {other:?}")),
                };
            }
            "--stall-after-ms" => {
                let ms: u64 = value("--stall-after-ms")?
                    .parse()
                    .map_err(|e| format!("--stall-after-ms: {e}"))?;
                args.stall_after = Some(Duration::from_millis(ms));
            }
            "--fault-seed" => {
                args.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("--fault-seed: {e}"))?;
            }
            "--fault" => args.fault_specs.push(value("--fault")?),
            "--help" | "-h" => {
                println!(
                    "usage: dbs3-serve [--port N] [--workers N] [--max-inflight N] \
                     [--scale paper|smoke] [--stall-after-ms N] [--fault-seed N] \
                     [--fault POINT:TRIGGER:ACTION]..."
                );
                println!();
                println!("fault points (TRIGGER: nth=N | every=K | p=F; ACTION: panic | error | drop | delay=MS):");
                for point in FaultPoint::ALL {
                    println!("  {:24} {}", point.name(), point.doc());
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Builds the Wisconsin `A` ⋈ `Bprime` catalog the experiment plans expect:
/// paper scale is A=200K/Bprime=20K over 200 fragments, smoke divides both
/// by 20 (matching the bench crate's smoke tier).
fn build_catalog(scale: Scale) -> Result<Catalog, String> {
    let (a_card, b_card, degree) = match scale {
        Scale::Paper => (200_000, 20_000, 200),
        Scale::Smoke => (10_000, 1_000, 20),
    };
    let generator = WisconsinGenerator::new();
    let a = generator
        .generate(&WisconsinConfig::narrow("A", a_card))
        .map_err(|e| format!("generating A: {e}"))?;
    let b = generator
        .generate(&WisconsinConfig::narrow("Bprime", b_card))
        .map_err(|e| format!("generating Bprime: {e}"))?;
    let spec = PartitionSpec::on("unique1", degree, 8);
    let mut catalog = Catalog::new();
    catalog
        .register(
            PartitionedRelation::from_relation(&a, spec.clone())
                .map_err(|e| format!("partitioning A: {e}"))?,
        )
        .map_err(|e| format!("registering A: {e}"))?;
    catalog
        .register(
            PartitionedRelation::from_relation(&b, spec)
                .map_err(|e| format!("partitioning Bprime: {e}"))?,
        )
        .map_err(|e| format!("registering Bprime: {e}"))?;
    Ok(catalog)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dbs3-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_signal_handlers();

    // Install the fault plan (if any) before the server exists, and keep
    // the guard alive for the whole run: dropping it disarms the registry.
    let _fault_guard = if args.fault_specs.is_empty() {
        None
    } else {
        let mut plan = FaultPlan::new(args.fault_seed);
        for spec in &args.fault_specs {
            match FaultPlan::parse_rule(spec) {
                Ok(rule) => plan.rules.push(rule),
                Err(e) => {
                    eprintln!("dbs3-serve: --fault {spec:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        eprintln!(
            "dbs3-serve: fault injection armed ({} rules, seed {})",
            args.fault_specs.len(),
            args.fault_seed
        );
        Some(plan.install())
    };

    eprintln!(
        "dbs3-serve: loading {} catalog...",
        if args.scale == Scale::Paper {
            "paper"
        } else {
            "smoke"
        }
    );
    let catalog = match build_catalog(args.scale) {
        Ok(catalog) => catalog,
        Err(e) => {
            eprintln!("dbs3-serve: catalog build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        workers: args.workers,
        max_inflight: args.max_inflight,
        stall_after: args.stall_after,
        ..ServerConfig::default()
    };
    let server = match Server::bind(catalog, ("0.0.0.0", args.port), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dbs3-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();
    eprintln!(
        "dbs3-serve: listening on {} ({} workers, max {} in-flight)",
        server.addr(),
        args.workers,
        args.max_inflight
    );

    // Translate the async signal flag into a graceful stop request.
    std::thread::spawn(move || loop {
        if TERMINATE.load(Ordering::SeqCst) {
            eprintln!("dbs3-serve: signal received, draining...");
            handle.stop();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    match server.run() {
        Ok(stats) => {
            eprintln!(
                "dbs3-serve: drained; served {} queries, shed {}, replayed {}, \
                 deadline-cancelled {}",
                stats.served, stats.shed, stats.replayed, stats.deadlines
            );
            eprintln!(
                "dbs3-serve: caches; plans {} hits / {} misses / {} evictions, \
                 indexes {} hits / {} misses / {} evictions",
                stats.caches.plan.hits,
                stats.caches.plan.misses,
                stats.caches.plan.evictions,
                stats.caches.index.hits,
                stats.caches.index.misses,
                stats.caches.index.evictions
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dbs3-serve: server error: {e}");
            ExitCode::FAILURE
        }
    }
}
