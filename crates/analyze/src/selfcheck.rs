//! `--self-check`: prove every rule still fires.
//!
//! Each check seeds a known violation into an in-memory fixture and asserts
//! the rule reports it, then runs the rule on a clean twin and asserts
//! silence. An analyzer whose rules stop firing fails loudly instead of
//! green-lighting the whole workspace forever — the same reason the
//! fault-injection suite exists for the runtime's error paths.

use crate::config::Config;
use crate::findings::Rule;
use crate::rules;
use crate::source::SourceFile;

/// Runs all three self-checks; returns `(rule, result)` per rule.
pub fn run() -> Vec<(Rule, Result<(), String>)> {
    vec![
        (Rule::LockHierarchy, locks()),
        (Rule::AtomicOrdering, atomics()),
        (Rule::PanicPath, panics()),
    ]
}

fn expect_fires(rule: Rule, found: usize, clean: usize) -> Result<(), String> {
    if found == 0 {
        return Err(format!("{rule}: seeded violation was NOT detected"));
    }
    if clean != 0 {
        return Err(format!(
            "{rule}: clean fixture produced {clean} spurious finding(s)"
        ));
    }
    Ok(())
}

fn locks() -> Result<(), String> {
    let config = Config {
        lock_order: vec!["fix.outer".into(), "fix.inner".into()],
        ..Config::default()
    };
    let bad = SourceFile::parse(
        "fix.rs",
        "fn f(&self) { let b = self.inner.lock(); let a = self.outer.lock(); }",
    );
    let good = SourceFile::parse(
        "fix.rs",
        "fn f(&self) { let a = self.outer.lock(); let b = self.inner.lock(); }",
    );
    expect_fires(
        Rule::LockHierarchy,
        rules::locks::check(&[&bad], &config).len(),
        rules::locks::check(&[&good], &config).len(),
    )
}

fn atomics() -> Result<(), String> {
    let bad = SourceFile::parse(
        "fix.rs",
        "fn f(&self) { self.flag.load(Ordering::Relaxed); }",
    );
    let good = SourceFile::parse(
        "fix.rs",
        "fn f(&self) {
            // ordering: unarmed-registry probe, a stale read only delays a fault
            self.flag.load(Ordering::Relaxed);
        }",
    );
    expect_fires(
        Rule::AtomicOrdering,
        rules::atomics::check(&[&bad]).len(),
        rules::atomics::check(&[&good]).len(),
    )
}

fn panics() -> Result<(), String> {
    let bad = SourceFile::parse(
        "crates/x/src/fix.rs",
        "fn f(x: Option<u32>) { x.unwrap(); }",
    );
    let good = SourceFile::parse(
        "crates/x/src/fix.rs",
        "fn f(x: Option<u32>) {
            // allow-panic: x is Some by construction in the caller
            x.unwrap();
        }",
    );
    expect_fires(
        Rule::PanicPath,
        rules::panics::check(&[&bad]).len(),
        rules::panics::check(&[&good]).len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_fires_on_its_seeded_violation() {
        for (rule, result) in run() {
            assert!(result.is_ok(), "{rule}: {result:?}");
        }
    }
}
