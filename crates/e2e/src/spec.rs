//! The benchmark's contract in one place: metric names, units, direction
//! and bounds, and the `BENCHMARK.json` they are published as. The file at
//! the repository root is this module's output (`--print-benchmark-json`);
//! a test keeps the two identical.

use crate::workload::Workload;
use std::fmt::Write as _;

/// How long one run measures, seconds: five windows of a fifth each.
pub const RUN_SECONDS: u64 = 15;
/// Timed rounds (fresh child processes) per run.
pub const ROUNDS: usize = 5;
/// Latency limit for the rate ladder's "highest rate within limit", ms.
pub const LADDER_P90_LIMIT_MS: f64 = 10.0;
/// Generator-lateness limit for the same, ms.
pub const LADDER_LATE_LIMIT_MS: f64 = 2.0;
/// Offered rates of the ladder, q/s.
pub const LADDER_RATES: [f64; 4] = [30.0, 60.0, 120.0, 240.0];

/// An end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The seven end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "alloc_kib_per_query",
        unit: "KiB",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "allocs_per_query",
        unit: "count",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: `(name, unit, better)`.
pub type Layer = (&'static str, &'static str, &'static str);

/// Every per-layer metric, grouped by the crate it measures and prefixed
/// with that crate's name (`dbs3_engine.…`, not `engine.…`: a string
/// literal shaped like `engine.x` or `serve.x` is a fault-point name to
/// `dbs3-analyze`, which rightly refuses ones the registry does not list).
/// A layer a workload does not exercise reports 0 — the three local
/// workloads never touch `dbs3_serve` beyond the codec probe.
pub const PER_LAYER: [Layer; 55] = [
    ("dbs3_storage.generate_ms", "ms", "lower"),
    ("dbs3_storage.partition_ms", "ms", "lower"),
    ("dbs3_storage.catalog_replace_us", "us", "lower"),
    ("dbs3_storage.index_build_ms", "ms", "lower"),
    ("dbs3_storage.index_probe_ns_per_key", "ns", "lower"),
    ("dbs3_storage.tuple_concat_ns", "ns", "lower"),
    ("dbs3_lera.expand_us", "us", "lower"),
    ("dbs3_lera.fingerprint_us", "us", "lower"),
    ("dbs3_engine.schedule_us", "us", "lower"),
    ("dbs3_engine.prepare_cold_us", "us", "lower"),
    ("dbs3_engine.prepare_warm_us", "us", "lower"),
    ("dbs3_engine.cache.plan_hit_rate", "ratio", "higher"),
    ("dbs3_engine.cache.index_hit_rate", "ratio", "higher"),
    ("dbs3_engine.cache.evictions_per_query", "count", "lower"),
    ("dbs3_engine.submit_us", "us", "lower"),
    ("dbs3_engine.wait_ms", "ms", "lower"),
    ("dbs3_engine.exec_elapsed_ms", "ms", "lower"),
    ("dbs3_engine.bind_ms", "ms", "lower"),
    ("dbs3_engine.op_busy_ms.transmit", "ms", "lower"),
    ("dbs3_engine.op_busy_ms.join", "ms", "lower"),
    ("dbs3_engine.op_busy_ms.store", "ms", "lower"),
    ("dbs3_engine.idle_share", "ratio", "lower"),
    ("dbs3_engine.join_imbalance", "ratio", "lower"),
    ("dbs3_engine.secondary_ratio", "ratio", "lower"),
    ("dbs3_engine.idle_polls_per_query", "count", "lower"),
    ("dbs3_engine.cache_flushes_per_query", "count", "lower"),
    (
        "dbs3_engine.logical_activations_per_query",
        "count",
        "lower",
    ),
    ("dbs3_engine.instance_spread", "ratio", "lower"),
    ("dbs3_engine.queue.ns_per_tuple", "ns", "lower"),
    ("dbs3_facade.unprepared_extra_us", "us", "lower"),
    ("dbs3_serve.wire.encode_us", "us", "lower"),
    ("dbs3_serve.wire.decode_us", "us", "lower"),
    ("dbs3_serve.wire.query_frame_bytes", "bytes", "lower"),
    ("dbs3_serve.connect_ms", "ms", "lower"),
    ("dbs3_serve.remote_extra_ms", "ms", "lower"),
    ("dbs3_serve.generator_late_p90_ms", "ms", "lower"),
    ("dbs3_serve.shed", "count", "lower"),
    ("dbs3_serve.replayed", "count", "lower"),
    ("dbs3_serve.deadlines", "count", "lower"),
    ("dbs3_serve.ladder.p90_ms_at_30qps", "ms", "lower"),
    ("dbs3_serve.ladder.p90_ms_at_60qps", "ms", "lower"),
    ("dbs3_serve.ladder.p90_ms_at_120qps", "ms", "lower"),
    ("dbs3_serve.ladder.p90_ms_at_240qps", "ms", "lower"),
    ("dbs3_serve.max_rate_within_limit_qps", "1/s", "higher"),
    ("process.peak_rss_mib", "MiB", "lower"),
    ("process.ctx_switches_per_query", "count", "lower"),
    ("alloc.peak_live_mib", "MiB", "lower"),
    ("latency.p99_ms", "ms", "lower"),
    ("latency.samples_per_round", "count", "higher"),
    ("host.calib_ms", "ms", "lower"),
    ("host.calib_spread", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("setup.verify_ms", "ms", "lower"),
];

/// Name of a ladder step's p90 metric.
pub fn ladder_metric(rate: f64) -> String {
    format!("dbs3_serve.ladder.p90_ms_at_{rate:.0}qps")
}

/// The `BENCHMARK.json` this crate implements.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/e2e/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/e2e\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for (name, unit, better) in PER_LAYER {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(unit.len() <= 16);
            assert!(better == "lower" || better == "higher");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for rate in LADDER_RATES {
            let name = ladder_metric(rate);
            assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_this_modules_output() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `dbs3-e2e --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() < 64 * 1024);
    }
}
