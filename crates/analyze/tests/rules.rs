//! Fixture-driven tests of each rule through the crate's public API — the
//! same surface `main.rs` and the workspace smoke test use. These complement
//! the unit tests inside each rule module: here every fixture goes through
//! `SourceFile::parse` exactly as a walked file would, so comment
//! attachment, test-region marking and path handling are all in play.

use dbs3_analyze::{rules, selfcheck, Config, Rule, SourceFile};

fn src(path: &str, text: &str) -> SourceFile {
    SourceFile::parse(path, text)
}

// ---- lock-hierarchy ----

fn lock_config() -> Config {
    Config {
        lock_order: vec!["pool.outer".into(), "pool.inner".into()],
        ..Config::default()
    }
}

#[test]
fn lock_order_violation_fires() {
    let bad = src(
        "crates/x/src/pool.rs",
        "fn f(&self) { let i = self.inner.lock(); let o = self.outer.lock(); }",
    );
    let f = rules::locks::check(&[&bad], &lock_config());
    assert_eq!(f.len(), 1, "got {f:?}");
    assert_eq!(f[0].rule, Rule::LockHierarchy);
}

#[test]
fn declared_lock_order_is_clean() {
    let good = src(
        "crates/x/src/pool.rs",
        "fn f(&self) { let o = self.outer.lock(); let i = self.inner.lock(); }",
    );
    assert!(rules::locks::check(&[&good], &lock_config()).is_empty());
}

#[test]
fn undeclared_nested_lock_fires() {
    let config = Config {
        lock_order: vec!["pool.outer".into()],
        ..Config::default()
    };
    let bad = src(
        "crates/x/src/pool.rs",
        "fn f(&self) { let o = self.outer.lock(); let s = self.stray.lock(); }",
    );
    let f = rules::locks::check(&[&bad], &config);
    assert_eq!(f.len(), 1, "got {f:?}");
    assert_eq!(f[0].rule, Rule::LockHierarchy);
}

#[test]
fn dropped_guard_does_not_count_as_held() {
    // Sequential (non-nested) acquisitions in the reverse of the declared
    // order are fine: the first guard is dropped before the second lock.
    let good = src(
        "crates/x/src/pool.rs",
        "fn f(&self) {
            { let i = self.inner.lock(); }
            let o = self.outer.lock();
        }",
    );
    assert!(rules::locks::check(&[&good], &lock_config()).is_empty());
}

// ---- atomic-ordering ----

#[test]
fn unjustified_relaxed_fires() {
    let bad = src(
        "crates/x/src/counters.rs",
        "fn f(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }",
    );
    let f = rules::atomics::check(&[&bad]);
    assert_eq!(f.len(), 1, "got {f:?}");
    assert_eq!(f[0].rule, Rule::AtomicOrdering);
}

#[test]
fn site_justification_is_clean() {
    let good = src(
        "crates/x/src/counters.rs",
        "fn f(&self) {
            // ordering: monotonic statistics counter, readers tolerate staleness
            self.hits.fetch_add(1, Ordering::Relaxed);
        }",
    );
    assert!(rules::atomics::check(&[&good]).is_empty());
}

#[test]
fn field_declaration_covers_all_its_sites() {
    let good = src(
        "crates/x/src/counters.rs",
        "// ordering(hits): SeqCst — totals are compared across threads at drain
        fn f(&self) { self.hits.fetch_add(1, Ordering::SeqCst); }
        fn g(&self) -> u64 { self.hits.load(Ordering::SeqCst) }",
    );
    assert!(rules::atomics::check(&[&good]).is_empty());
}

#[test]
fn acquire_release_pair_needs_no_justification() {
    let good = src(
        "crates/x/src/flag.rs",
        "fn set(&self) { self.ready.store(true, Ordering::Release); }
        fn get(&self) -> bool { self.ready.load(Ordering::Acquire) }",
    );
    assert!(rules::atomics::check(&[&good]).is_empty());
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
