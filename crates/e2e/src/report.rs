//! What a child hands its parent (a line-oriented text report on stdout)
//! and what the parent prints: a table per workload and the one-line JSON
//! result the driver reads.

use crate::BenchResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// First line of a child's report; everything before it on stdout is
/// ignored, so stray prints cannot corrupt the protocol.
const HEADER: &str = "dbs3-e2e child report v1";

/// The measurements of one child process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Named scalar measurements.
    pub values: BTreeMap<String, f64>,
    /// Named series (per-query latencies).
    pub series: BTreeMap<String, Vec<f64>>,
    /// Operations attempted in the measured pass.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
}

impl ChildReport {
    /// Sets a scalar.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A scalar, 0.0 when the child did not measure it (a layer the
    /// workload does not exercise).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Renders the report; `f64` prints in Rust's shortest round-trip form.
    pub fn to_text(&self) -> String {
        let mut out = format!("{HEADER}\n");
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        for (name, value) in &self.values {
            let _ = writeln!(out, "value {name} {value}");
        }
        for (name, series) in &self.series {
            let _ = write!(out, "series {name}");
            for v in series {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses [`Self::to_text`] output; a report without its `end` line
    /// (a child that died mid-print) is an error.
    pub fn parse(text: &str) -> BenchResult<ChildReport> {
        let mut report = ChildReport::default();
        let mut lines = text.lines().skip_while(|l| *l != HEADER).skip(1);
        for line in &mut lines {
            let mut words = line.split_ascii_whitespace();
            match words.next() {
                Some("attempted") => report.attempted = parse_word(words.next(), line)?,
                Some("failed") => report.failed = parse_word(words.next(), line)?,
                Some("value") => {
                    let name = words.next().ok_or_else(|| bad_line(line))?;
                    report.set(name, parse_word(words.next(), line)?);
                }
                Some("series") => {
                    let name = words.next().ok_or_else(|| bad_line(line))?;
                    let series = words
                        .map(|w| parse_word(Some(w), line))
                        .collect::<BenchResult<Vec<f64>>>()?;
                    report.series.insert(name.to_string(), series);
                }
                Some("end") => return Ok(report),
                _ => return Err(bad_line(line).into()),
            }
        }
        Err("child report is missing or truncated".into())
    }
}

fn bad_line(line: &str) -> String {
    format!("malformed child report line: {line:?}")
}

fn parse_word<T: std::str::FromStr>(word: Option<&str>, line: &str) -> BenchResult<T> {
    word.and_then(|w| w.parse().ok())
        .ok_or_else(|| bad_line(line).into())
}

/// One reported metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (median over rounds for timings).
    pub value: f64,
    /// Samples behind the value: queries for latencies, rounds otherwise.
    pub samples: usize,
    /// Per-round values the reported one was taken from (may be empty).
    pub rounds: Vec<f64>,
}

/// Everything reported for one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: &'static str,
    /// No failed operation and every correctness gate passed.
    pub correct: bool,
    /// Operations attempted across the measured passes.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Warnings worth printing next to the numbers.
    pub warnings: Vec<String>,
}

/// JSON has no infinity; a percentile pushed to +∞ by failures prints as
/// the largest finite double (the run is marked incorrect anyway).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{:e}", f64::MAX)
    } else {
        "0".to_string()
    }
}

impl WorkloadReport {
    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// the end-to-end metrics, or the per-layer ones when `layers`.
    pub fn result_json(&self, layers: bool) -> String {
        let metrics = if layers {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} — attempted {}, failed {}, correct {}\n",
            self.workload, self.attempted, self.failed, self.correct
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let rounds: Vec<String> = m.rounds.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(
                out,
                "  {:<40} {:>14.4} {:<6} n={:<6} {}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if rounds.is_empty() {
                    String::new()
                } else {
                    format!("rounds=[{}]", rounds.join(", "))
                }
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  warning: {w}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips() {
        let mut r = ChildReport {
            attempted: 210,
            failed: 1,
            ..ChildReport::default()
        };
        r.set("query_p50_ms", 14.250_000_000_000_001);
        r.set("query_p90_ms", f64::INFINITY);
        r.series
            .insert("latencies_ms".into(), vec![1.5, 0.1 + 0.2, 3e-7]);
        r.series.insert("empty".into(), vec![]);
        let text = format!("stray line before the header\n{}", r.to_text());
        assert_eq!(ChildReport::parse(&text).unwrap(), r);
    }

    #[test]
    fn truncated_or_garbled_reports_are_errors() {
        let mut r = ChildReport::default();
        r.set("x", 1.0);
        let text = r.to_text();
        assert!(ChildReport::parse(text.trim_end_matches("end\n")).is_err());
        assert!(ChildReport::parse("").is_err());
        assert!(ChildReport::parse(&text.replace("value x 1", "value x one")).is_err());
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let report = WorkloadReport {
            workload: "w",
            correct: true,
            attempted: 10,
            failed: 0,
            end_to_end: vec![Metric {
                name: "query_p50_ms".into(),
                unit: "ms",
                value: 1.2034,
                samples: 10,
                rounds: vec![1.2034],
            }],
            per_layer: vec![Metric {
                name: "dbs3_engine.wait_ms".into(),
                unit: "ms",
                value: f64::INFINITY,
                samples: 1,
                rounds: vec![],
            }],
            warnings: vec![],
        };
        assert_eq!(
            report.result_json(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
        let layers = report.result_json(true);
        assert!(layers.contains("\"dbs3_engine.wait_ms\": {\"value\": 1.7976931348623157e308"));
        assert!(!layers.contains("query_p50_ms"));
        assert!(report.table().contains("query_p50_ms"));
    }
}
