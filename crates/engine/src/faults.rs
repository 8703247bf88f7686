//! Deterministic, seeded fault injection.
//!
//! A process-wide registry of named **fault points**. Production code calls
//! [`hit`] at each point; when no plan is installed that is a single relaxed
//! atomic load and an immediate `None`. Tests, the chaos harness and
//! `dbs3-serve --fault` install a [`FaultPlan`] — a seed plus a list of
//! [`FaultRule`]s — and the same seed always reproduces the same per-point
//! decision sequence: probabilistic triggers hash `(seed, rule, hit-index)`
//! through SplitMix64 instead of consulting a shared mutable RNG, so the
//! decision for the N-th hit of a point does not depend on thread
//! interleaving.
//!
//! Because the registry is process-wide, [`FaultPlan::install`] serializes
//! installers behind a static lock and returns a [`FaultGuard`] that
//! uninstalls on drop. Tests that inject faults must therefore live in
//! dedicated integration-test binaries (their own process) — see
//! `crates/engine/tests/faults.rs` and `crates/serve/tests/chaos.rs`.
//!
//! ## Fault-point catalog
//!
//! [`FaultPoint`] has one variant per point, so a mistyped point is a
//! compile error rather than a rule that silently tests nothing. Text
//! reaches a point only through [`FaultPoint::from_name`] (used by
//! [`FaultPlan::parse_rule`] and so by `dbs3-serve --fault`), which rejects
//! unknown names; `dbs3-serve --help` lists [`FaultPoint::ALL`].
//!
//! | point                   | location                         | honored actions |
//! |-------------------------|----------------------------------|-----------------|
//! | `engine.worker.process` | worker activation processing     | all             |
//! | `engine.queue.push`     | `ActivationQueue::try_push`      | panic, delay (error/drop escalate to panic) |
//! | `engine.runtime.submit` | `Runtime::submit`                | error, drop → typed error; delay; panic |
//! | `serve.accept`          | accept loop (dbs3-serve)         | drop/error close the connection; delay; panic |
//! | `serve.read`            | request frame read (dbs3-serve)  | drop/error close the connection; delay; panic |
//! | `serve.write`           | response frame write (dbs3-serve)| drop/error close the connection; delay; panic |
//! | `engine.cache.lookup`   | prepared-plan / index cache lookup | error, drop → bypass the cache (compute uncached); delay; panic |
//! | `engine.cache.build`    | shared hash-index build (cache-owned) | panic, delay (error/drop escalate to panic; the next requester rebuilds) |
//!
//! `engine.queue.push` escalates `error`/`drop` to a panic on purpose:
//! silently dropping an activation would corrupt results, and the panic is
//! contained by the worker's `catch_unwind` into a typed
//! [`WorkerPanicked`](crate::EngineError::WorkerPanicked) — faults may fail
//! queries, never falsify them.

use std::fmt;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Every fault point in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A worker about to process a batch of activations for an operator.
    WorkerProcess,
    /// An activation batch about to be pushed into an [`crate::ActivationQueue`].
    QueuePush,
    /// A plan about to be submitted to the [`crate::Runtime`].
    RuntimeSubmit,
    /// A listener about to accept a connection (dbs3-serve).
    ServeAccept,
    /// A session thread about to read a request frame (dbs3-serve).
    ServeRead,
    /// A session thread about to write a response frame (dbs3-serve).
    ServeWrite,
    /// A query-setup cache lookup (prepared plans / shared indexes). Firing
    /// `error`/`drop` here bypasses the cache — correct, just slower.
    CacheLookup,
    /// A cache-owned shared hash-index build about to run. Everything but
    /// `delay` escalates to a panic; the cell stays empty and the next
    /// requester, a waiter included, builds into it (through this point
    /// again).
    CacheBuild,
}

impl FaultPoint {
    /// Every point, in catalog order.
    pub const ALL: [FaultPoint; 8] = [
        FaultPoint::WorkerProcess,
        FaultPoint::QueuePush,
        FaultPoint::RuntimeSubmit,
        FaultPoint::ServeAccept,
        FaultPoint::ServeRead,
        FaultPoint::ServeWrite,
        FaultPoint::CacheLookup,
        FaultPoint::CacheBuild,
    ];

    /// Canonical dotted name (`layer.component[.event]`), as `--fault`
    /// rules spell it.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WorkerProcess => "engine.worker.process",
            FaultPoint::QueuePush => "engine.queue.push",
            FaultPoint::RuntimeSubmit => "engine.runtime.submit",
            FaultPoint::ServeAccept => "serve.accept",
            FaultPoint::ServeRead => "serve.read",
            FaultPoint::ServeWrite => "serve.write",
            FaultPoint::CacheLookup => "engine.cache.lookup",
            FaultPoint::CacheBuild => "engine.cache.build",
        }
    }

    /// Where in the pipeline the point fires, for `--help` text.
    pub fn doc(self) -> &'static str {
        match self {
            FaultPoint::WorkerProcess => "worker about to process an activation batch",
            FaultPoint::QueuePush => "activation batch pushed into an ActivationQueue",
            FaultPoint::RuntimeSubmit => "plan submitted to the Runtime",
            FaultPoint::ServeAccept => "listener accepting a connection (dbs3-serve)",
            FaultPoint::ServeRead => "session reading a request frame (dbs3-serve)",
            FaultPoint::ServeWrite => "session writing a response frame (dbs3-serve)",
            FaultPoint::CacheLookup => "query-setup cache lookup (error/drop bypass the cache)",
            FaultPoint::CacheBuild => "cache-owned shared hash-index build",
        }
    }

    /// The point named `name`, if there is one.
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Panic at the fault point (exercises containment paths).
    Panic,
    /// Surface a typed error (`FaultInjected` or point-specific escalation).
    Error,
    /// Sleep for the given duration before proceeding (wedges, slow I/O).
    Delay(Duration),
    /// Drop the work silently where that is safe (connections, frames);
    /// points where a silent drop would corrupt results escalate it.
    Drop,
}

/// When a rule fires, relative to the per-rule hit counter (1-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Fire exactly on the N-th hit.
    Nth(NonZeroU64),
    /// Fire on every K-th hit.
    EveryK(NonZeroU64),
    /// Fire with probability `p` per hit, decided by hashing
    /// `(plan seed, rule index, hit index)` — deterministic per seed.
    Probability(f64),
}

/// One named fault: a point, a trigger and an action.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The fault point this rule matches.
    pub point: FaultPoint,
    /// When the rule fires.
    pub trigger: FaultTrigger,
    /// What happens when it fires.
    pub action: FaultAction,
}

/// A seed plus a list of rules; install with [`FaultPlan::install`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic triggers in this plan.
    pub seed: u64,
    /// Rules, evaluated in order; the first rule that fires on a hit wins,
    /// but every matching rule's hit counter still advances.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Creates an empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder-style rule addition.
    pub fn rule(mut self, point: FaultPoint, trigger: FaultTrigger, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            point,
            trigger,
            action,
        });
        self
    }

    /// Parses a CLI rule spec: `POINT:TRIGGER:ACTION` where TRIGGER is
    /// `nth=N`, `every=K` or `p=F` and ACTION is `panic`, `error`, `drop`
    /// or `delay=MS`. Example: `serve.write:p=0.1:drop`. POINT must be a
    /// [`FaultPoint::name`] and N, K must be positive — a typo'd point or a
    /// zero count would otherwise arm a plan that never fires.
    pub fn parse_rule(spec: &str) -> Result<FaultRule, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "fault spec `{spec}` must be POINT:TRIGGER:ACTION (e.g. serve.write:p=0.1:drop)"
            ));
        }
        let name = parts[0].trim();
        let point = FaultPoint::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.name()).collect();
            format!(
                "unknown fault point `{name}` in `{spec}` (known points: {})",
                known.join(", ")
            )
        })?;
        let count = |key: &str, n: &str| match n.parse::<u64>() {
            Ok(n) => NonZeroU64::new(n).ok_or_else(|| format!("{key}=0 never fires in `{spec}`")),
            Err(_) => Err(format!("bad {key} count in `{spec}`")),
        };
        let trigger = match parts[1].split_once('=') {
            Some(("nth", n)) => FaultTrigger::Nth(count("nth", n)?),
            Some(("every", k)) => FaultTrigger::EveryK(count("every", k)?),
            Some(("p", p)) => {
                let p = p
                    .parse::<f64>()
                    .map_err(|_| format!("bad probability in `{spec}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of [0,1] in `{spec}`"));
                }
                FaultTrigger::Probability(p)
            }
            _ => {
                return Err(format!(
                    "bad trigger `{}` in `{spec}` (want nth=N, every=K or p=F)",
                    parts[1]
                ))
            }
        };
        let action = match parts[2].split_once('=') {
            None => match parts[2] {
                "panic" => FaultAction::Panic,
                "error" => FaultAction::Error,
                "drop" => FaultAction::Drop,
                other => {
                    return Err(format!(
                        "bad action `{other}` in `{spec}` (want panic, error, drop or delay=MS)"
                    ))
                }
            },
            Some(("delay", ms)) => FaultAction::Delay(Duration::from_millis(
                ms.parse::<u64>()
                    .map_err(|_| format!("bad delay in `{spec}`"))?,
            )),
            Some((other, _)) => {
                return Err(format!(
                    "bad action `{other}` in `{spec}` (want panic, error, drop or delay=MS)"
                ))
            }
        };
        Ok(FaultRule {
            point,
            trigger,
            action,
        })
    }

    /// Installs the plan process-wide, returning a guard that uninstalls it
    /// on drop. Blocks until any previously installed plan is dropped, so
    /// concurrent installers (e.g. tests in one binary) serialize instead
    /// of clobbering each other.
    pub fn install(self) -> FaultGuard {
        let lock = install_lock()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let plan = Arc::new(ActivePlan {
            seed: self.seed,
            rules: self
                .rules
                .into_iter()
                .map(|rule| ActiveRule {
                    rule,
                    hits: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                })
                .collect(),
        });
        *active().lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(&plan));
        ENABLED.store(true, Ordering::Release);
        FaultGuard { _lock: lock, plan }
    }
}

/// Uninstalls the plan (and releases the install lock) on drop.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
    plan: Arc<ActivePlan>,
}

impl FaultGuard {
    /// Snapshot of `(point, hits, fired)` per rule, in rule order.
    pub fn counts(&self) -> Vec<(FaultPoint, u64, u64)> {
        self.plan
            .rules
            .iter()
            .map(|r| {
                (
                    r.rule.point,
                    r.hits.load(Ordering::SeqCst),
                    r.fired.load(Ordering::SeqCst),
                )
            })
            .collect()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
        *active().lock().unwrap_or_else(|p| p.into_inner()) = None;
    }
}

// ordering(hits): SeqCst — the 1-based hit index feeds the deterministic
// trigger decision, so every thread must agree on a single total order of
// increments; counts() snapshots with the same ordering.
// ordering(fired): SeqCst — read against `hits` by chaos assertions
// (fired <= hits must never be observably violated).
struct ActiveRule {
    rule: FaultRule,
    hits: AtomicU64,
    fired: AtomicU64,
}

struct ActivePlan {
    seed: u64,
    rules: Vec<ActiveRule>,
}

// ordering(ENABLED): Release store on install/uninstall pairs with the
// Relaxed fast-path load in `hit` — a stale `false` only skips injection for
// a few more hits (tests drain before asserting), and a `true` sends the
// caller to `hit_slow`, which re-checks under the ACTIVE mutex.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<Arc<ActivePlan>>> = Mutex::new(None);
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

fn active() -> &'static Mutex<Option<Arc<ActivePlan>>> {
    &ACTIVE
}

fn install_lock() -> &'static Mutex<()> {
    &INSTALL_LOCK
}

/// Records a hit at `point` and returns the action to take, if any.
///
/// The fast path — no plan installed — is one relaxed atomic load. Callers
/// decide how to honor the action; the contract is that an injected fault
/// may fail a query or a connection with a typed error but must never
/// produce a silently wrong result.
#[inline]
pub fn hit(point: FaultPoint) -> Option<FaultAction> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    hit_slow(point)
}

#[cold]
fn hit_slow(point: FaultPoint) -> Option<FaultAction> {
    let plan = active()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(Arc::clone)?;
    let mut decision = None;
    for (index, rule) in plan.rules.iter().enumerate() {
        if rule.rule.point != point {
            continue;
        }
        // 1-based hit index; counted for every matching rule even after an
        // earlier rule fired, so counters stay comparable across rules.
        let hit_index = rule.hits.fetch_add(1, Ordering::SeqCst) + 1;
        let fires = match rule.rule.trigger {
            FaultTrigger::Nth(n) => hit_index == n.get(),
            FaultTrigger::EveryK(k) => hit_index % k == 0,
            FaultTrigger::Probability(p) => decide(plan.seed, index as u64, hit_index) < p,
        };
        if fires {
            rule.fired.fetch_add(1, Ordering::SeqCst);
            if decision.is_none() {
                decision = Some(rule.rule.action);
            }
        }
    }
    decision
}

/// Stateless per-hit decision in `[0, 1)`: SplitMix64 over the seed, rule
/// index and hit index. Same inputs, same output — the whole determinism
/// guarantee lives here.
fn decide(seed: u64, rule_index: u64, hit_index: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rule_index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(hit_index);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_returns_none() {
        assert_eq!(hit(FaultPoint::WorkerProcess), None);
    }

    #[test]
    fn parse_rule_grammar() {
        let r = FaultPlan::parse_rule("serve.write:p=0.25:drop").unwrap();
        assert_eq!(r.point, FaultPoint::ServeWrite);
        assert_eq!(r.trigger, FaultTrigger::Probability(0.25));
        assert_eq!(r.action, FaultAction::Drop);

        let r = FaultPlan::parse_rule("engine.worker.process:nth=3:panic").unwrap();
        assert_eq!(r.trigger, FaultTrigger::Nth(NonZeroU64::new(3).unwrap()));
        assert_eq!(r.action, FaultAction::Panic);

        let r = FaultPlan::parse_rule("engine.queue.push:every=10:delay=25").unwrap();
        assert_eq!(
            r.trigger,
            FaultTrigger::EveryK(NonZeroU64::new(10).unwrap())
        );
        assert_eq!(r.action, FaultAction::Delay(Duration::from_millis(25)));

        for bad in [
            "nocolons",
            "a:b",
            "serve.read:nth=x:panic",
            "serve.read:every=0:panic",
            "serve.read:nth=0:panic",
            "serve.read:p=1.5:panic",
            "serve.read:nth=1:explode",
            "serve.read:nth=1:delay=abc",
            ":nth=1:panic",
        ] {
            assert!(
                FaultPlan::parse_rule(bad).is_err(),
                "{bad} should not parse"
            );
        }
    }

    #[test]
    fn parse_rule_rejects_unregistered_points() {
        let err = FaultPlan::parse_rule("engine.worker.proces:nth=1:panic").unwrap_err();
        assert!(err.contains("unknown fault point"), "{err}");
        assert!(
            err.contains("engine.worker.process"),
            "the error lists the known points: {err}"
        );
    }

    #[test]
    fn registry_and_points_module_agree() {
        for p in FaultPoint::ALL {
            assert_eq!(FaultPoint::from_name(p.name()), Some(p));
            let same = FaultPoint::ALL.iter().filter(|q| q.name() == p.name());
            assert_eq!(same.count(), 1, "{p} must be named exactly once");
        }
    }

    #[test]
    fn seeded_probability_decisions_are_reproducible() {
        let a: Vec<bool> = (1..=1000).map(|i| decide(7, 0, i) < 0.3).collect();
        let b: Vec<bool> = (1..=1000).map(|i| decide(7, 0, i) < 0.3).collect();
        assert_eq!(a, b, "same seed, same decisions");
        let c: Vec<bool> = (1..=1000).map(|i| decide(8, 0, i) < 0.3).collect();
        assert_ne!(a, c, "a different seed changes the sequence");
        let fired = a.iter().filter(|&&f| f).count();
        // Loose two-sided bound: ~300 expected out of 1000.
        assert!((200..400).contains(&fired), "p=0.3 fired {fired}/1000");
    }

    #[test]
    fn decide_stays_in_unit_interval() {
        for i in 0..1000 {
            let x = decide(42, i % 5, i);
            assert!((0.0..1.0).contains(&x));
        }
    }
}
