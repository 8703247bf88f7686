//! Runs the built `dbs3-e2e` binary end to end at smoke scale (1 round x
//! 0.5 s, 1/20 data): the command-line contract, the four workloads, the
//! seven end-to-end metric names, the layer table and the trace file.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "local_assoc_pipeline",
    "local_ideal_skew",
    "local_cold_replace",
    "serve_open_assoc",
];

const END_TO_END: [&str; 7] = [
    "query_p50_ms",
    "query_p90_ms",
    "throughput_qps",
    "cpu_ms_per_query",
    "alloc_kib_per_query",
    "allocs_per_query",
    "setup_s",
];

/// Runs the binary and returns the last line of its stdout.
fn last_line(args: &[&str], target_dir: &PathBuf) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_dbs3-e2e"))
        .args(args)
        .env("CARGO_TARGET_DIR", target_dir)
        .output()
        .expect("the dbs3-e2e binary runs");
    assert!(
        output.status.success(),
        "dbs3-e2e {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    stdout.lines().last().expect("some output").to_string()
}

/// The number after `"name": {"value": ` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"));
    let rest = &line[at + key.len()..];
    let end = rest.find(',').expect("value is followed by its unit");
    rest[..end].parse().expect("a JSON number")
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-e2e");
    for workload in WORKLOADS {
        let line = last_line(
            &[
                "--smoke",
                "--workload",
                workload,
                "--seed",
                "3",
                "--trace",
                "0",
            ],
            &target,
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
        for name in END_TO_END {
            assert!(
                metric(&line, name) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len(), "{line}");
    }
}

#[test]
fn traced_run_emits_the_layer_table_and_writes_the_trace_file() {
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-traced");
    for workload in ["local_cold_replace", "serve_open_assoc"] {
        let line = last_line(
            &[
                "--smoke",
                "--workload",
                workload,
                "--seed",
                "3",
                "--trace",
                "1",
            ],
            &target,
        );
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        // Layer metrics only: no end-to-end name in a `--trace 1` result.
        assert!(!line.contains("\"query_p50_ms\""), "{line}");
        assert!(metric(&line, "dbs3_engine.wait_ms") > 0.0);
        assert!(metric(&line, "dbs3_storage.generate_ms") > 0.0);
        assert!(metric(&line, "host.calib_ms") > 0.0);
        let coverage = metric(&line, "trace.span_coverage");
        assert!((coverage - 1.0).abs() < 0.05, "span coverage {coverage}");
        let remote = metric(&line, "dbs3_serve.connect_ms") > 0.0;
        assert_eq!(remote, workload == "serve_open_assoc");
        if workload == "local_cold_replace" {
            // A catalog write beside every read: nothing is ever reused.
            assert_eq!(metric(&line, "dbs3_engine.cache.plan_hit_rate"), 0.0);
            assert_eq!(metric(&line, "dbs3_engine.cache.index_hit_rate"), 0.0);
            assert!(metric(&line, "dbs3_engine.cache.evictions_per_query") >= 1.0);
        } else {
            assert_eq!(metric(&line, "dbs3_engine.cache.plan_hit_rate"), 1.0);
        }
        let trace = target
            .join("dbs3-e2e")
            .join(format!("{workload}.trace.json"));
        let json = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"query\""));
    }
}

#[test]
fn a_bad_command_line_is_a_non_zero_exit_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_dbs3-e2e"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the dbs3-e2e binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
