//! # dbs3-analyze
//!
//! A concurrency-aware static analysis pass for the workspace's hand-rolled
//! synchronization. The engine's correctness rests on conventions a compiler
//! never checks: a declared lock order, atomic mirrors whose load/store
//! orderings are load-bearing, and panic-free worker paths. This crate walks
//! the workspace source with a small hand-rolled lexer (no external
//! dependencies, like the rest of the repo) and enforces three repo-specific
//! rules:
//!
//! | rule | checks |
//! |------|--------|
//! | `lock-hierarchy`   | nested `Mutex` acquisitions follow the order declared in `analyze.toml`; no cycles, no self-nesting |
//! | `atomic-ordering`  | every `Ordering::Relaxed`/`SeqCst` carries an `// ordering:` justification; mixed-ordering fields declare a protocol |
//! | `panic-path`       | no `unwrap`/`expect`/`panic!`/`unreachable!` in production paths without `// allow-panic:` |
//!
//! Fault points need no rule: `dbs3_engine::faults::FaultPoint` is an enum,
//! so a mistyped point does not compile. The bench document's schema
//! version is pinned by the `dbs3-bench` baseline unit test and CI's
//! `tools/check_bench_schema.py` steps.
//!
//! Findings diff against the committed `analyze-baseline.json`: new findings
//! fail the run, baselined ones are visible debt, and keys that no longer
//! fire make the baseline stale (also a failure — burned-down debt must be
//! removed from the file). `--self-check` seeds a violation per rule against
//! in-memory fixtures and fails unless every rule fires, so the analyzer
//! cannot rot into silently passing everything.
//!
//! The analyzer does not analyze its own crate: its fixtures and self-check
//! corpus are deliberate violations.

pub mod config;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod selfcheck;
pub mod source;

pub use config::Config;
pub use findings::{Baseline, Diff, Finding, Rule};
pub use source::SourceFile;

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "node_modules"];
/// The analyzer's own crate, excluded from analysis (see module docs).
const SELF_DIR: &str = "crates/analyze";

/// Walks the workspace, runs all three rules, returns the findings.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let config = Config::load(&root.join("analyze.toml"))?;
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(run_rules(&config, &files))
}

/// Runs the rules over pre-parsed sources (the workspace smoke test and the
/// fixtures use this directly).
pub fn run_rules(config: &Config, files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();

    let in_scope =
        |file: &&SourceFile, prefixes: &[String]| prefixes.iter().any(|p| file.path.starts_with(p));

    let sync_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| in_scope(f, &config.sync_scan) && !f.is_test_file())
        .collect();
    findings.extend(rules::locks::check(&sync_files, config));
    findings.extend(rules::atomics::check(&sync_files));

    let panic_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| in_scope(f, &config.panic_deny_in) && !f.is_test_file())
        .collect();
    findings.extend(rules::panics::check(&panic_files));

    findings
        .sort_by(|a, b| (a.rule.name(), &a.file, a.line).cmp(&(b.rule.name(), &b.file, b.line)));
    findings
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel: PathBuf = path
            .strip_prefix(root)
            .map_err(|_| "walked outside the root".to_string())?
            .to_path_buf();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || rel == Path::new(SELF_DIR) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            out.push(SourceFile::parse(rel, &text));
        }
    }
    Ok(())
}
