//! `--self-check`: prove the rule still fires.
//!
//! The check seeds a known violation into an in-memory fixture and asserts
//! the rule reports it, then runs the rule on a clean twin and asserts
//! silence. An analyzer whose rules stop firing fails loudly instead of
//! green-lighting the whole workspace forever — the same reason the
//! fault-injection suite exists for the runtime's error paths.

use crate::findings::Rule;
use crate::rules;
use crate::source::SourceFile;

/// Runs the self-check; returns `(rule, result)` per rule.
pub fn run() -> Vec<(Rule, Result<(), String>)> {
    vec![(Rule::PanicPath, panics())]
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
