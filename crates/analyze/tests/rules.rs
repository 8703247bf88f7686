//! Fixture-driven tests of the rule through the crate's public API — the
//! same surface `main.rs` and the workspace smoke test use. These complement
//! the unit tests inside the rule module: here every fixture goes through
//! `SourceFile::parse` exactly as a walked file would, so comment
//! attachment, test-region marking and path handling are all in play.

use dbs3_analyze::{rules, selfcheck, Rule, SourceFile};

fn src(path: &str, text: &str) -> SourceFile {
    SourceFile::parse(path, text)
}

// ---- panic-path ----

#[test]
fn panic_macros_and_methods_fire() {
    let bad = src(
        "crates/x/src/worker.rs",
        "fn f(x: Option<u32>) -> u32 {
            if x.is_none() { todo!() }
            x.unwrap()
        }",
    );
    let f = rules::panics::check(&[&bad]);
    assert_eq!(f.len(), 2, "got {f:?}");
    assert!(f.iter().all(|x| x.rule == Rule::PanicPath));
}

#[test]
fn allow_panic_justification_is_clean() {
    let good = src(
        "crates/x/src/worker.rs",
        "fn f(x: Option<u32>) -> u32 {
            // allow-panic: the caller validated x two lines up
            x.unwrap()
        }",
    );
    assert!(rules::panics::check(&[&good]).is_empty());
}

#[test]
fn test_modules_are_exempt() {
    let file = src(
        "crates/x/src/worker.rs",
        "#[cfg(test)]
        mod tests {
            #[test]
            fn t() { None::<u32>.unwrap(); }
        }",
    );
    assert!(rules::panics::check(&[&file]).is_empty());
}

// ---- self-check harness ----

#[test]
fn selfcheck_seeds_fire_for_every_rule() {
    let results = selfcheck::run();
    assert_eq!(results.len(), Rule::ALL.len());
    for (rule, result) in results {
        assert!(result.is_ok(), "{rule}: {result:?}");
    }
}
