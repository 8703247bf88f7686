//! `dbs3-e2e` — the repository's end-to-end regression benchmark.
//!
//! Four workloads (local pipelined / local skewed / cold replace / open-loop
//! serve), seven end-to-end metrics each, and an outside-in layer trace.
//! See `BENCHMARK.md` beside this crate's manifest for the metric list, the
//! interaction table and the command lines; `BENCHMARK.json` at the
//! repository root is the machine-readable contract.
//!
//! ```text
//! dbs3-e2e                                    all four workloads, one after the other
//! dbs3-e2e --traced                           ... plus the layer table and trace files
//! dbs3-e2e --workload W --seed N --seconds S --trace 0|1
//!                                             one workload; last stdout line is JSON
//! dbs3-e2e --smoke                            1 round x 0.5 s at 1/20 scale
//! dbs3-e2e --audit N                          N full runs, spreads as markdown
//! dbs3-e2e --print-benchmark-json             the contents of BENCHMARK.json
//! ```

mod alloc;
mod child;
mod driver;
mod layers;
mod load;
mod procfs;
mod report;
mod spec;
mod stats;
mod target;
mod trace;
mod workload;

use child::{ChildConfig, Role};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// The process-wide allocator: `System`, counting only inside the counted
/// child's measured pass.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// Errors are reported, not matched on: a message and a non-zero exit.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    audit: Option<usize>,
    print_json: bool,
    child: Option<Role>,
    round: u64,
}

fn parse_args(args: impl Iterator<Item = String>) -> BenchResult<Args> {
    fn value<T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> BenchResult<T> {
        let raw = args.next().ok_or(format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}").into())
    }
    let mut out = Args::default();
    let mut args = args;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(&flag, &mut args)?;
                out.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => out.seed = Some(value(&flag, &mut args)?),
            "--seconds" => {
                let seconds: f64 = value(&flag, &mut args)?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                out.seconds = Some(seconds);
            }
            "--trace" => out.traced = value::<u8>(&flag, &mut args)? != 0,
            "--traced" => out.traced = true,
            "--smoke" => out.smoke = true,
            "--audit" => {
                let n: usize = value(&flag, &mut args)?;
                if n < 3 {
                    return Err("--audit needs at least 3 runs".into());
                }
                out.audit = Some(n);
            }
            "--print-benchmark-json" => out.print_json = true,
            "--child" => {
                let name: String = value(&flag, &mut args)?;
                out.child = Some(Role::from_name(&name).ok_or(format!("unknown role {name:?}"))?);
            }
            "--round" => out.round = value(&flag, &mut args)?,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    Ok(out)
}

fn run(args: Args, process_start: Instant) -> BenchResult<bool> {
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if let Some(role) = args.child {
        let cfg = ChildConfig {
            workload: args.workload.ok_or("--child needs --workload")?,
            role,
            seed: args.seed.unwrap_or(1),
            round: args.round,
            window: Duration::from_secs_f64(args.seconds.ok_or("--child needs --seconds")?),
            smoke: args.smoke,
        };
        print!("{}", child::run_child(&cfg, process_start)?.to_text());
        return Ok(true);
    }

    let mut cfg = driver::default_config();
    if args.smoke {
        cfg.smoke = true;
        cfg.rounds = 1;
        cfg.seconds = 0.5;
    }
    cfg.traced = args.traced;
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if let Some(seconds) = args.seconds {
        cfg.seconds = seconds;
    }
    if let Some(workload) = args.workload {
        cfg.workloads = vec![workload];
    }
    if let Some(n) = args.audit {
        print!("{}", driver::audit(&cfg, n)?);
        return Ok(true);
    }

    let reports = driver::run_benchmark(&cfg)?;
    println!(
        "dbs3-e2e: seed {}, {} rounds x {:.3} s, pool {} threads, host CPUs {}",
        cfg.seed,
        cfg.rounds,
        cfg.seconds / cfg.rounds as f64,
        workload::POOL_THREADS,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    for report in &reports {
        print!("{}", report.table());
    }
    // One result line per workload; with `--workload` that is the last
    // line of stdout, as the driver expects.
    for report in &reports {
        println!("{}", report.result_json(cfg.traced));
    }
    Ok(reports.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match parse_args(std::env::args().skip(1)).and_then(|args| run(args, process_start)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dbs3-e2e: operations failed or answered wrongly");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dbs3-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchResult<Args> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "serve_open_assoc",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::ServeOpenAssoc));
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.seconds, Some(15.0));
        assert!(args.traced);
        assert!(!parse(&["--trace", "0"]).unwrap().traced);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--audit", "2"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
