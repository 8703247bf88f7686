//! Rule `bench-schema`: the bench document schema version must agree across
//! its three homes — the Rust emitter (`crates/bench/src/baseline.rs`
//! writes the version into its JSON output), the Python validator
//! (`tools/check_bench_schema.py`, `SCHEMA_VERSION = N`), and the committed
//! `BENCH_engine.json` record (top-level `"schema_version"` only; a version
//! inside a nested object is not checked). A bump that misses one of the
//! three is exactly the silent drift this rule exists to stop.

use super::Code;
use crate::findings::{Finding, Rule};
use crate::lexer::TokKind;
use crate::source::SourceFile;

/// The rule's inputs, separated from the filesystem for fixtures.
pub struct SchemaInputs<'a> {
    /// `(path, contents)` of the validator script.
    pub tool: Option<(&'a str, &'a str)>,
    /// `(path, contents)` of the committed bench record.
    pub bench_json: Option<(&'a str, &'a str)>,
    /// Emitter sources.
    pub emitters: Vec<&'a SourceFile>,
}

/// Runs the rule.
pub fn check(inputs: &SchemaInputs<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some((tool_path, tool_src)) = inputs.tool else {
        findings.push(Finding::new(
            Rule::BenchSchema,
            "tools/check_bench_schema.py",
            0,
            "tool-missing",
            "schema validator script not found",
        ));
        return findings;
    };
    let Some(expected) = tool_version(tool_src) else {
        findings.push(Finding::new(
            Rule::BenchSchema,
            tool_path,
            0,
            "tool-no-version",
            "no `SCHEMA_VERSION = <n>` line in the validator script",
        ));
        return findings;
    };

    if let Some((json_path, json)) = inputs.bench_json {
        match first_schema_version(json) {
            Some(found) if found == expected => {}
            Some(found) => findings.push(Finding::new(
                Rule::BenchSchema,
                json_path,
                0,
                "bench-json",
                format!(
                    "committed record has top-level schema_version {found}, but the \
                     validator pins {expected}"
                ),
            )),
            None => findings.push(Finding::new(
                Rule::BenchSchema,
                json_path,
                0,
                "bench-json-missing",
                "committed record has no schema_version member",
            )),
        }
    }

    for file in &inputs.emitters {
        let code = Code::new(file);
        let path = file.path.display().to_string();
        for i in 0..code.len() {
            if code.in_test(i) {
                continue;
            }
            let TokKind::Str(s) = &code.tok(i).kind else {
                continue;
            };
            let Some(found) = literal_schema_version(s) else {
                continue;
            };
            if found != expected {
                findings.push(Finding::new(
                    Rule::BenchSchema,
                    &path,
                    code.line(i),
                    "emitter",
                    format!(
                        "emitter writes schema_version {found}, but the validator \
                         pins {expected}"
                    ),
                ));
            }
        }
    }
    findings
}

/// `SCHEMA_VERSION = N` in the Python validator.
fn tool_version(src: &str) -> Option<u64> {
    for line in src.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("SCHEMA_VERSION") {
            let rest = rest.trim_start();
            if let Some(num) = rest.strip_prefix('=') {
                return num.split_whitespace().next()?.parse().ok();
            }
        }
    }
    None
}

/// First (top-level) `"schema_version": N` in the JSON document.
fn first_schema_version(json: &str) -> Option<u64> {
    let at = json.find("\"schema_version\"")?;
    number_after(&json[at + "\"schema_version\"".len()..])
}

/// `schema_version\": N` inside a Rust string literal (escapes verbatim).
fn literal_schema_version(s: &str) -> Option<u64> {
    let at = s.find("schema_version")?;
    number_after(&s[at + "schema_version".len()..])
}

/// The first digit run shortly after a `schema_version` key — the window
/// tolerates the `\":` escape noise but not a digit from a later member.
fn number_after(rest: &str) -> Option<u64> {
    let window: String = rest.chars().take(8).collect();
    let digits: String = window
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOOL: &str = "import sys\nSCHEMA_VERSION = 3\n";

    fn emitter(src: &str) -> SourceFile {
        SourceFile::parse("crates/bench/src/em.rs", src)
    }

    fn run(tool: &str, json: &str, em: &SourceFile) -> Vec<Finding> {
        check(&SchemaInputs {
            tool: Some(("tool.py", tool)),
            bench_json: Some(("BENCH.json", json)),
            emitters: vec![em],
        })
    }

    #[test]
    fn agreeing_versions_are_clean() {
        let em =
            emitter(r#"fn f(out: &mut String) { out.push_str("  \"schema_version\": 3,\n"); }"#);
        let f = run(TOOL, "{\n  \"schema_version\": 3,\n  \"x\": 1\n}", &em);
        assert!(f.is_empty(), "got {f:?}");
    }

    #[test]
    fn emitter_drift_fails() {
        let em =
            emitter(r#"fn f(out: &mut String) { out.push_str("  \"schema_version\": 4,\n"); }"#);
        let f = run(TOOL, "{\"schema_version\": 3}", &em);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("emitter writes schema_version 4"));
    }

    #[test]
    fn committed_record_drift_fails() {
        let em = emitter("fn f() {}");
        let f = run(TOOL, "{\"schema_version\": 2}", &em);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].key_detail, "bench-json");
    }

    #[test]
    fn embedded_reference_version_is_not_checked() {
        let em = emitter("fn f() {}");
        let json = "{\n\"schema_version\": 3,\n\"reference\": {\"schema_version\": 2}\n}";
        assert!(run(TOOL, json, &em).is_empty());
    }

    #[test]
    fn version_mention_without_number_is_ignored() {
        // e.g. a test asserting the key merely exists.
        let em = emitter(r#"fn f() -> usize { "x \"schema_version\" y".len() }"#);
        assert!(run(TOOL, "{\"schema_version\": 3}", &em).is_empty());
    }

    #[test]
    fn missing_tool_version_fails() {
        let em = emitter("fn f() {}");
        let f = run("print('hi')\n", "{\"schema_version\": 3}", &em);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].key_detail, "tool-no-version");
    }
}
