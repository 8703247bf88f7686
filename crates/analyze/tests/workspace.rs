//! Workspace smoke test: the analyzer over the real repository.
//!
//! This is the same run CI's `analyze` job performs, expressed as a test so
//! `cargo test` alone catches a new violation (or a stale baseline) before
//! a commit ever reaches CI. The repository's contract is stronger than
//! "no *new* findings": the committed baseline is empty, so the tree must
//! analyze completely clean.

use dbs3_analyze::{analyze_workspace, Baseline};
use std::path::Path;

/// `crates/analyze` → `crates` → workspace root.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root")
}

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = repo_root();
    assert!(
        root.join("analyze.toml").is_file(),
        "resolved workspace root {} has no analyze.toml",
        root.display()
    );
    let findings = analyze_workspace(root).expect("workspace walk succeeds");
    let baseline = Baseline::load(&root.join("analyze-baseline.json")).expect("baseline parses");
    let diff = baseline.diff(&findings);

    let new: Vec<String> = diff.new.iter().map(|f| f.to_string()).collect();
    assert!(
        new.is_empty(),
        "{} finding(s) not covered by analyze-baseline.json:\n{}\n\
         fix them or (for accepted debt) refresh the baseline with\n\
         `cargo run -p dbs3-analyze -- --write-baseline`",
        new.len(),
        new.join("\n")
    );
    assert!(
        diff.stale.is_empty(),
        "stale baseline key(s) — the debt no longer fires, remove it:\n{}",
        diff.stale.join("\n")
    );
}

#[test]
fn committed_baseline_is_empty() {
    // All findings from the analyzer's introduction were fixed or justified
    // at the source, none silently baselined. Keep it that way: if this
    // assertion blocks you, justify the site (`// allow-panic:`) or fix
    // the code rather than growing the baseline.
    let baseline =
        Baseline::load(&repo_root().join("analyze-baseline.json")).expect("baseline parses");
    assert!(
        baseline.keys.is_empty(),
        "expected an empty baseline, found tolerated debt: {:?}",
        baseline.keys
    );
}
